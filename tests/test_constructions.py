import copy
import dataclasses
import pickle
import sys
import threading
import warnings
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JUNK, assert_memo_matches, diagrams
from multivirt import catalog, constructions, model, verify_theorems
from multivirt.constructions import (
    _SHIFT_ORIENTATION,
    MAX_PASSAGES,
    Provenance,
    covering,
    extract_component,
    multiplex,
)
from multivirt.errors import (
    BadComponent,
    BadR,
    MultivirtError,
    NotAKnot,
    TooLarge,
    ValidationError,
    checked,
)
from multivirt.invariants import index_defect, linking_and_lambda, n_writhes
from multivirt.moves import random_walk
from multivirt.model import (
    CrossingRecord,
    Diagram,
    Passage,
    Role,
    _ReadOnly,
    canonical_form,
    parse_vgc,
    serialize_vgc,
)
from multivirt.planar import genus


class TestMultiplexCounts:
    def test_kink(self):
        out, _ = multiplex(parse_vgc("O1+ U1+"), 2)
        assert out.n_components() == 2
        assert out.n_real() == 2 and out.n_virtual() == 2

    def test_virtual_trefoil_counts(self):
        # One real crossing contributes r real + r^2 - r virtual crossings,
        # one virtual crossing r^2 + 2r - 2 virtual.
        out, _ = multiplex(catalog.diagram("vtrefoil"), 2)
        assert out.n_real() == 4 and out.n_virtual() == 10

    @pytest.mark.parametrize("name", catalog.KNOT_NAMES)
    @pytest.mark.parametrize("r", [2, 3])
    def test_totals(self, name, r):
        d = catalog.diagram(name)
        out, _ = multiplex(d, r)
        assert out.n_components() == r
        assert out.n_real() == r * d.n_real()
        assert out.n_virtual() == (r * r - r) * d.n_real() + (r * r + 2 * r - 2) * d.n_virtual()

    def test_census_and_edge_bijection(self):
        d = catalog.diagram("vtrefoil")
        for r in (2, 3, 4):
            out, prov = multiplex(d, r)
            census = prov.tile_census()
            for cid, rec in d.crossings.items():
                if rec.virtual:
                    assert census[cid] == {"diag": 0, "off": r * r, "shift": 2 * (r - 1)}
                else:
                    assert census[cid] == {"diag": r, "off": r * r - r, "shift": 0}
            edges = len(d.components[0])
            assert set(prov.edge_map) == {(t, q) for t in range(edges) for q in range(1, r + 1)}
            # the r copies of one source edge are r distinct output edges
            for t in range(edges):
                copies = {prov.edge_map[(t, q)] for q in range(1, r + 1)}
                assert len(copies) == r

    def test_preserves_planarity(self):
        for name in ("kink", "trefoil", "vtrefoil", "kishino"):
            for r in (2, 3):
                out, _ = multiplex(catalog.diagram(name), r)
                assert genus(out) == 0
                assert index_defect(out) == 0

    def test_classical_input_splits_apart(self, trefoil):
        out, _ = multiplex(trefoil, 3)
        rep = linking_and_lambda(out)
        assert all(v == 0 for row in rep.lk for v in row)
        for i in (1, 2, 3):
            assert canonical_form(extract_component(out, i)) == canonical_form(trefoil)

    def test_crossing_free_source(self):
        out, prov = multiplex(parse_vgc("."), 2)
        assert serialize_vgc(out) == ". ; ."
        assert prov.edge_map == {(0, 1): (0, None), (0, 2): (1, None)}

    def test_errors(self, trefoil):
        with pytest.raises(NotAKnot):
            multiplex(parse_vgc("O1+ ; U1+"), 2)
        with pytest.raises(BadR):
            multiplex(trefoil, 1)

    @pytest.mark.parametrize("r", [2.0, 2.5, "2", None])
    def test_non_integer_r_rejected(self, trefoil, r):
        with pytest.raises(BadR):
            multiplex(trefoil, r)

    def test_integer_like_r_acts_as_int(self, trefoil):
        np = pytest.importorskip("numpy")
        assert multiplex(trefoil, np.int64(2)) == multiplex(trefoil, 2)
        with pytest.raises(BadR):
            multiplex(trefoil, True)

    # Unguarded, both emitted passages until memory ran out.
    @pytest.mark.parametrize("name", ["unknot", "trefoil", "asym3"])
    def test_oversized_r_refused_before_building(self, name):
        with pytest.raises(TooLarge):
            multiplex(catalog.diagram(name), 10**30)

    def test_oversized_r_refused_by_verify(self):
        with pytest.raises(TooLarge):
            verify_theorems(r_range=[10**30])

    def test_size_limit_counts_passages_or_circles(self):
        d = catalog.diagram("vtrefoil")  # 6 passages, 2 of them virtual
        r = 408  # 6 r^2 + 4 (r - 1) = 1 000 412 passages
        with pytest.raises(TooLarge, match="1000412 passages"):
            multiplex(d, r)
        out, _ = multiplex(d, 16)
        assert out.n_passages() == 6 * 16**2 + 4 * 15
        with pytest.raises(TooLarge, match="circles"):
            multiplex(parse_vgc("."), MAX_PASSAGES + 1)

    def test_abstract_input_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            multiplex(parse_vgc("O1+ O2+ U1+ U2+"), 2)
        assert caught


@pytest.fixture
def empty_tables(monkeypatch):
    """The interning tables of `model`, empty for one test; the warm tables
    come back after it."""
    monkeypatch.setattr(model, "_PASSAGES", {key: {} for key in model._PASSAGES})
    monkeypatch.setattr(model, "_RECORDS", {v: {1: {}, -1: {}} for v in model._RECORDS})


def _tables() -> list[dict]:
    return [*model._PASSAGES.values(), *(t for by_sign in model._RECORDS.values()
                                          for t in by_sign.values())]


def _values(d: Diagram) -> list:
    """Every passage and every record of `d`, in order."""
    return [p for comp in d.components for p in comp] + list(d.crossings.values())


def _cid(value) -> int:
    return value.crossing if isinstance(value, Passage) else value.cid


class TestInterning:
    """`multiplex` and `covering` emit interned passages and records: a
    repeated build shares every value of an id below `model._INTERN_BOUND`,
    and reads exactly as a cold build does."""

    @pytest.mark.parametrize("name", ["trefoil", "vtrefoil", "asym3"])
    @pytest.mark.parametrize("r", [2, 5])
    def test_two_builds_share_every_value(self, name, r):
        d = catalog.diagram(name)
        first, second = multiplex(d, r)[0], multiplex(d, r)[0]
        for a, b in zip(_values(first), _values(second), strict=True):
            assert a is b
        for value in _values(first):
            if isinstance(value, Passage):
                assert value == Passage(value.crossing, value.role)
            else:
                assert value == CrossingRecord(value.cid, value.virtual, value.sign)
                assert type(value.virtual) is bool and type(value.sign) is int

    def test_virtualized_crossings_of_two_coverings_are_shared(self):
        d = catalog.diagram("asym3")
        first, second = covering(d, 2), covering(d, 2)
        assert first.n_virtual() > d.n_virtual()
        for a, b in zip(_values(first), _values(second), strict=True):
            assert a is b

    @pytest.mark.parametrize("name", catalog.KNOT_NAMES)
    @pytest.mark.parametrize("r", range(2, 7))
    def test_cold_and_warm_builds_agree(self, empty_tables, name, r):
        d = catalog.diagram(name)
        assert not any(_tables())
        (cold, cold_prov), (warm, warm_prov) = multiplex(d, r), multiplex(d, r)
        assert serialize_vgc(cold) == serialize_vgc(warm)
        assert cold_prov.to_json() == warm_prov.to_json()
        assert list(cold._passage_index.items()) == list(warm._passage_index.items())
        assert cold._frames == warm._frames

    @pytest.mark.parametrize("name", ["trefoil", "vtrefoil", "asym3"])
    @pytest.mark.parametrize("r", [2, 5])
    def test_builds_from_two_equal_diagrams_share_every_value(self, name, r):
        first, second = multiplex(catalog.diagram(name), r)[0], multiplex(catalog.diagram(name), r)[0]
        assert first is not second
        for a, b in zip(_values(first), _values(second), strict=True):
            assert a is b

    @pytest.mark.parametrize("name", catalog.KNOT_NAMES)
    @pytest.mark.parametrize("r", range(2, 7))
    def test_cold_and_warm_builds_from_two_equal_diagrams_agree(self, empty_tables, name, r):
        # Two parses, so the second multiplex is emitted from warm tables,
        # not handed back from the last build.
        assert not any(_tables())
        cold, cold_prov = multiplex(catalog.diagram(name), r)
        warm, warm_prov = multiplex(catalog.diagram(name), r)
        assert warm is not cold
        assert serialize_vgc(cold) == serialize_vgc(warm)
        assert cold_prov.to_json() == warm_prov.to_json()
        assert list(cold._passage_index.items()) == list(warm._passage_index.items())
        assert cold._frames == warm._frames

    def test_ids_at_or_above_the_bound_come_back_fresh(self, empty_tables, monkeypatch):
        monkeypatch.setattr(model, "_INTERN_BOUND", 8)
        d = catalog.diagram("trefoil")
        first, second = multiplex(d, 3)[0], multiplex(d, 3)[0]
        assert len(first.crossings) == 27
        for a, b in zip(_values(first), _values(second), strict=True):
            assert a == b and (a is b) == (_cid(a) < 8)
        assert max(max(table, default=0) for table in _tables()) == 7

    def test_threads_build_equal_multiplexes(self, empty_tables, monkeypatch):
        # More threads than cores, switching often, fill the tables up to a
        # low bound at once: every value must be filed under its own id,
        # below the bound, and every build must read alike.
        monkeypatch.setattr(model, "_INTERN_BOUND", 100)
        d, out = catalog.diagram("asym3"), []
        want = serialize_vgc(_multiplex_oracle(d, 6)[0])
        workers = [
            threading.Thread(target=lambda: out.append(serialize_vgc(multiplex(d, 6)[0])))
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert out == [want] * 8
        for table in _tables():
            assert all(_cid(v) == i < 100 for i, v in table.items())

    def test_tables_hold_only_the_ids_that_builds_emitted(self, empty_tables, monkeypatch):
        monkeypatch.setattr(model, "_INTERN_BOUND", 100)
        passages, records = {}, {}
        for name in catalog.KNOT_NAMES:
            for r in range(2, 5):
                for value in _values(multiplex(catalog.diagram(name), r)[0]):
                    if isinstance(value, Passage):
                        passages.setdefault(value.role.value, set()).add(value.crossing)
                    else:
                        records.setdefault((value.virtual, value.sign), set()).add(value.cid)
        for key, table in model._PASSAGES.items():
            assert set(table) == {cid for cid in passages.get(key, ()) if cid < 100}
        for virtual, by_sign in model._RECORDS.items():
            for sign, table in by_sign.items():
                want = {cid for cid in records.get((virtual, sign), ()) if cid < 100}
                assert set(table) == want
        assert any(cid >= 100 for ids in records.values() for cid in ids)

    def test_parsing_and_walking_intern_nothing(self, empty_tables):
        random_walk(catalog.diagram("asym3"), 20, 0, size_cap=10**9)
        assert not any(_tables())


def _mixed_calls(out: list, pairs, rounds: int) -> None:
    for _ in range(rounds):
        for d, r in pairs:
            link, prov = multiplex(d, r)
            out.append((d, r, serialize_vgc(link), prov.to_json()))


class TestLastBuild:
    """`multiplex` keeps its last build: a repeated call on the same diagram
    object and r returns the kept link and provenance themselves, after
    every check that a build makes."""

    def test_a_repeat_call_returns_the_kept_link_and_provenance(self):
        d = catalog.diagram("asym3")
        (first, first_prov), (second, second_prov) = multiplex(d, 3), multiplex(d, 3)
        assert second is first and second_prov is first_prov
        assert second_prov == _multiplex_oracle(d, 3)[1]

    def test_a_caller_cannot_change_its_provenance(self):
        d = catalog.diagram("vtrefoil")
        want = _multiplex_oracle(d, 2)[1]
        for _ in range(2):
            prov = multiplex(d, 2)[1]
            assert prov == want
            with pytest.raises(TypeError):
                prov.crossing_map.clear()
            with pytest.raises(TypeError):
                prov.edge_map[(99, 1)] = (0, 0)
            with pytest.raises(TypeError):
                prov.component_map[1] = 2

    def test_pickle_and_deepcopy_round_trips_equal_the_oracle(self):
        d = catalog.diagram("asym3")
        want = _multiplex_oracle(d, 3)[1]
        for round_trip in (lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy):
            got = round_trip(multiplex(d, 3)[1])
            assert got == want
            assert list(got.crossing_map.items()) == list(want.crossing_map.items())

    def test_a_provenance_and_the_oracles_are_equal_both_ways(self):
        d = catalog.diagram("vtrefoil")
        want = _multiplex_oracle(d, 3)[1]
        prov = multiplex(d, 3)[1]
        assert prov == want and want == prov
        prov = multiplex(d, 3)[1]
        assert prov.crossing_map == want.crossing_map and want.crossing_map == prov.crossing_map
        assert want.crossing_map[1] != ("diag", 1, 2)
        other = dataclasses.replace(want, crossing_map={**want.crossing_map, 1: ("diag", 1, 2)})
        assert prov != other and other != prov
        assert prov.crossing_map != other.crossing_map and other.crossing_map != prov.crossing_map

    def test_a_provenance_prints_as_it_does_with_a_plain_dict(self):
        d = catalog.diagram("asym3")
        prov = multiplex(d, 2)[1]
        text = repr(prov)
        assert text == repr(dataclasses.replace(prov, crossing_map=dict(prov.crossing_map)))
        assert text == repr(_multiplex_oracle(d, 2)[1])

    def test_a_refused_change_leaves_the_kept_provenance_as_the_oracle_gives_it(self):
        d = catalog.diagram("asym3")
        want = _multiplex_oracle(d, 2)[1]
        (link, first), (again, second) = multiplex(d, 2), multiplex(d, 2)
        assert again is link and second is first
        with pytest.raises(TypeError):
            first.crossing_map.clear()
        with pytest.raises(TypeError):
            del second.crossing_map[1]
        with pytest.raises(TypeError):
            second.crossing_map[0] = ("diag", 0, 0)
        assert 1 in second.crossing_map and 0 not in second.crossing_map
        assert multiplex(d, 2)[1] is first == want

    def test_an_abstract_source_warns_on_every_call(self):
        d = parse_vgc("O1+ O2+ U1+ U2+")
        for _ in range(3):
            with pytest.warns(UserWarning, match="abstract"):
                multiplex(d, 2)

    @pytest.mark.parametrize("r", [2.0, 2.5, "2", None, True, [2]])
    def test_a_non_integer_r_is_refused_with_d_and_2_kept(self, trefoil, r):
        kept = multiplex(trefoil, 2)[0]
        with pytest.raises(BadR):
            multiplex(trefoil, r)
        assert constructions._LAST[2] is kept

    def test_a_build_at_or_above_the_bound_is_not_kept(self, monkeypatch):
        d = catalog.diagram("trefoil")
        crossings = len(multiplex(d, 3)[0].crossings)
        multiplex(d, 2)
        monkeypatch.setattr(model, "_INTERN_BOUND", crossings)
        first = multiplex(d, 3)[0]
        assert constructions._LAST is None
        assert multiplex(d, 3)[0] is not first
        monkeypatch.setattr(model, "_INTERN_BOUND", crossings + 1)
        kept = multiplex(d, 3)[0]
        assert multiplex(d, 3)[0] is kept

    def test_the_old_link_is_freed_before_the_next_build_emits(self, monkeypatch):
        d = catalog.diagram("asym3")
        old = weakref.ref(multiplex(d, 2)[0])
        assert old() is not None
        alive_at_emission = []

        def record(*args):
            alive_at_emission.append(old() is not None)
            return model._record(*args)

        monkeypatch.setattr(constructions, "_record", record)
        multiplex(d, 3)
        assert alive_at_emission and not any(alive_at_emission)
        assert old() is None

    def test_threads_that_mix_sources_and_r_get_what_the_oracle_gives(self):
        pairs = [(catalog.diagram(name), r) for name in ("trefoil", "vtrefoil", "asym3") for r in (2, 3)]
        want = {
            (id(d), r): (serialize_vgc(link), prov.to_json())
            for d, r in pairs
            for link, prov in [_multiplex_oracle(d, r)]
        }
        outs = [[] for _ in range(6)]
        workers = [
            threading.Thread(target=_mixed_calls, args=(out, pairs[k:] + pairs[:k], 3))
            for k, out in enumerate(outs)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for out in outs:
            assert len(out) == 3 * len(pairs)
            for d, r, text, prov in out:
                assert (text, prov) == want[(id(d), r)]


def _construction_calls():
    """Each argument slot of `multiplex`, `covering`, `extract_component` and
    `Provenance`: a call that puts its argument there, and the valid values
    it can take.  Building the calls leaves (d, 2) in the slot of
    `multiplex`."""
    d = catalog.diagram("vtrefoil")
    L, _ = multiplex(d, 2)
    maps = {"crossing_map": {}, "edge_map": {}, "component_map": {}}
    return {
        "Provenance-r": (lambda x: Provenance(x, **maps), range(2, 41)),
        **{
            f"Provenance-{name}": (lambda x, name=name: Provenance(2, **{**maps, name: x}), ())
            for name in maps
        },
        "multiplex-diagram": (lambda x: multiplex(x, 2), ()),
        "multiplex-r": (lambda x: multiplex(d, x), range(2, 41)),
        "covering-diagram": (lambda x: covering(x, 2), ()),
        "covering-r": (lambda x: covering(d, x), range(1, 41)),
        "extract_component-diagram": (lambda x: extract_component(x, 1), ()),
        "extract_component-component": (lambda x: extract_component(L, x), (1, 2)),
    }


@pytest.mark.parametrize("slot", list(_construction_calls()))
@settings(max_examples=40, deadline=None)
@given(junk=JUNK)
@example(junk=2.0)
@example(junk=1.0)
@example(junk=True)
@example(junk=[2])
def test_construction_exports_refuse_junk_or_read_it_as_its_equal(slot, junk):
    """Junk in any argument slot of a construction raises a MultivirtError
    or gives what the valid value that it equals gives, with the multiplex
    of the same source kept from the call before."""
    call, valid = _construction_calls()[slot]
    try:
        got = call(junk)
    except MultivirtError:
        return
    equal = [v for v in valid if v == junk]
    assert equal, f"{slot} accepted {junk!r}"
    assert got == call(equal[0])


# Unchecked, Provenance("x", 1, 2, 3) was accepted; its `to_json()` then
# raised a bare TypeError and its `tile_census()` an AttributeError.
def test_a_provenance_of_junk_is_refused():
    with pytest.raises(BadR):
        Provenance("x", 1, 2, 3)
    for maps in ((1, 2, 3), ({}, 2, 3), ({}, {}, 3), ({}, {}, [(1, 1)])):
        with pytest.raises(ValidationError, match="must be of type Mapping"):
            Provenance(2, *maps)
    # Unchecked entries were accepted; `tile_census()` and `to_json()` then
    # raised a bare TypeError.
    junk = (
        ({1: 5}, {1: 2}, {"a": None}),
        ({0: ("diag", 1, 1)}, {}, {}),
        ({1: ("diag", 1, 3)}, {}, {}),
        ({1: ("off", 1.5, 1, 2)}, {}, {}),
        ({1: ("diag", "1", 1)}, {}, {}),
        ({1: ("shift", 1, 3, 1)}, {}, {}),
        ({1: ["diag", 1, 1]}, {}, {}),
        ({}, {(0, 3): (0, 0)}, {}),
        ({}, {(0, 1): (0, -1)}, {}),
        ({}, {(0, 1): [0, 0]}, {}),
        ({}, {(0.5, 1): (0, None)}, {}),
        ({}, {(0, 1): (0, float("nan"))}, {}),
        ({}, {}, {1: 3}),
        ({}, {}, {2.5: 1}),
    )
    for maps in junk:
        with pytest.raises(ValidationError, match="is no entry at r = 2"):
            Provenance(2, *maps)
    prov = Provenance(2, {1: ("diag", 1, 1)}, {(0, 1): (0, 0), (0, 2): (1, None)}, {1: 1})
    assert prov.tile_census() == {1: {"diag": 1, "off": 0, "shift": 0}}
    assert prov.to_json()["component_map"] == {"1": 1}


def _set(table):
    table[1] = 2


def _delete(table):
    del table[1]


def _merge(table):
    table |= {1: 2}


# Every way to change a dict in place.
_WRITES = {
    "[]=": _set,
    "del": _delete,
    "update": lambda table: table.update({1: 2}),
    "setdefault": lambda table: table.setdefault(1, 2),
    "pop": lambda table: table.pop(1),
    "popitem": lambda table: table.popitem(),
    "clear": lambda table: table.clear(),
    "|=": _merge,
}

# The checked values whose tables refuse every change, and the name of each table.
_OWNERS = {
    "WritheTable": (lambda: n_writhes(catalog.diagram("asym3")), ("entries",)),
    "multiplex-Provenance": (
        lambda: multiplex(parse_vgc(catalog.CATALOG["asym3"].code), 2)[1],
        ("crossing_map", "edge_map", "component_map"),
    ),
    "Provenance": (
        lambda: Provenance(2, {1: ("diag", 1, 1)}, {(0, 1): (0, 0)}, {1: 1}),
        ("crossing_map", "edge_map", "component_map"),
    ),
}

_TWINS = {
    "itself": lambda value: value,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("twin", list(_TWINS))
@pytest.mark.parametrize("owner", list(_OWNERS))
def test_every_table_of_a_checked_value_refuses_every_write(owner, twin):
    """The entries of a writhe table and each map of a provenance, of the
    value itself and of its twins made by `pickle`, `copy` and `deepcopy`,
    refuse every change with TypeError and stay as they were."""
    make, names = _OWNERS[owner]
    value = make()
    want = {name: dict(getattr(value, name)) for name in names}
    value = _TWINS[twin](value)
    for name in names:
        table = getattr(value, name)
        for write, change in _WRITES.items():
            with pytest.raises(TypeError):
                change(table)
            assert dict(table) == want[name], (name, write)
    assert value == make()


class TestCovering:
    def test_r1_identity(self):
        d = catalog.diagram("vtrefoil")
        assert covering(d, 1) is d

    def test_classical_unchanged(self, trefoil):
        assert covering(trefoil, 5) == trefoil

    def test_virtual_trefoil_loses_both(self):
        d = catalog.diagram("vtrefoil")
        out = covering(d, 2)
        assert out.n_real() == 0 and out.n_virtual() == 3

    def test_errors(self, trefoil):
        with pytest.raises(BadR):
            covering(trefoil, 0)
        with pytest.raises(NotAKnot):
            covering(parse_vgc("O1+ ; U1+"), 2)

    # Unchecked, 2.5 turned every real crossing of asym3 virtual and left the
    # trefoil unchanged.
    @pytest.mark.parametrize("name", ["asym3", "trefoil"])
    @pytest.mark.parametrize("r", [2.0, 2.5, "2", None])
    def test_non_integer_r_rejected(self, name, r):
        with pytest.raises(BadR):
            covering(catalog.diagram(name), r)

    def test_integer_like_r_acts_as_int(self):
        np = pytest.importorskip("numpy")
        d = catalog.diagram("asym3")
        assert covering(d, np.int64(2)) == covering(d, 2)
        assert covering(d, True) is d


class TestExtraction:
    def test_mixed_crossings_dropped(self):
        assert serialize_vgc(extract_component(parse_vgc("O1+ ; U1+"), 2)) == "."

    def test_bad_component(self, trefoil):
        with pytest.raises(BadComponent):
            extract_component(trefoil, 2)

    def test_kept_crossing_without_a_record_rejected(self):
        # Such a diagram is refused when it is made, before extraction.
        with pytest.raises(ValidationError, match="crossing 1 has no record"):
            extract_component(Diagram(((Passage(1, Role.OVER), Passage(1, Role.UNDER)),), {}), 1)

    @pytest.mark.parametrize("i", [1.0, 1.5, "1", None])
    def test_non_integer_component_rejected(self, trefoil, i):
        L, _ = multiplex(trefoil, 2)
        with pytest.raises(BadComponent):
            extract_component(L, i)

    def test_bool_component_acts_as_int(self, trefoil):
        L, _ = multiplex(trefoil, 2)
        assert extract_component(L, True) == extract_component(L, 1)

    @pytest.mark.parametrize("name", ["kink", "trefoil", "vtrefoil", "asym3"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_components_are_coverings(self, name, r):
        d = catalog.diagram(name)
        out, _ = multiplex(d, r)
        want = canonical_form(covering(d, r))
        for i in range(1, r + 1):
            assert canonical_form(extract_component(out, i)) == want

    @pytest.mark.parametrize("name", ["vtrefoil", "index2", "asym3"])
    def test_crossings_filed_in_first_appearance_order(self, name):
        """As parsing the component's VGC text files them."""
        out, _ = multiplex(catalog.diagram(name), 5)
        for i in range(1, 6):
            piece = extract_component(out, i)
            again = parse_vgc(serialize_vgc(piece))
            assert list(piece.crossings.items()) == list(again.crossings.items())

    def test_self_crossing_census(self):
        d = catalog.diagram("kishino")
        out, _ = multiplex(d, 3)
        for i in (1, 2, 3):
            piece = extract_component(out, i)
            assert len(piece.crossings) == len(d.crossings)


@pytest.mark.parametrize(
    "call,args",
    [(multiplex, ("x", 2)), (covering, ("x", 2)), (extract_component, ("x", 1))],
    ids=["multiplex", "covering", "extract_component"],
)
def test_non_diagram_rejected(call, args):
    with pytest.raises(ValidationError):
        call(*args)


class TestLinkingIdentity:
    @pytest.mark.parametrize("name", ["vtrefoil", "asym3", "index2"])
    def test_linking_matches_writhe_congruence_sums(self, name):
        d = catalog.diagram(name)
        J = n_writhes(d)
        for r in (2, 3):
            out, _ = multiplex(d, r)
            rep = linking_and_lambda(out)
            for i in range(r):
                for j in range(r):
                    if i == j:
                        continue
                    want = sum(
                        v for n, v in J.entries.items() if (n - (i - j)) % r == 0
                    )
                    assert rep.lk[i][j] == want
            assert all(v == 0 for v in rep.lam)


def _multiplex_oracle(d: Diagram, r: int) -> tuple[Diagram, Provenance]:
    """The first `multiplex`, kept as an oracle: every passage goes through
    `emit`, which looks its slot up by a tuple key."""
    d = checked(d, Diagram, ValidationError, "diagram")
    if d.n_components() != 1:
        raise NotAKnot("multiplexing is defined for one-component diagrams")
    r = checked(r, int, BadR, "r")
    if r < 2:
        raise BadR(f"need r >= 2, got {r}")
    if d.crossings and genus(d) != 0:
        warnings.warn(
            "multiplexing an abstract (positive genus) code; "
            "identities tied to planarity are not guaranteed",
            stacklevel=2,
        )

    comp, frames = d.components[0], d._frames[0]
    m = len(comp)
    crossings: dict[int, CrossingRecord] = {}
    crossing_map: dict[int, tuple] = {}
    slot_ids: dict[tuple, int] = {}
    out_components: list[list[Passage]] = []
    edge_map: dict[tuple[int, int], tuple[int, int | None]] = {}
    for ell in range(1, r + 1):
        cur = ell
        trace: list[Passage] = []

        def emit(key: tuple, role: Role, sign: int) -> None:
            # Passages are emitted in canonical order, so the first emission
            # of a slot is its first passage and `sign`, the frame read from
            # it (the source sign for a diagonal crossing), fixes its record.
            cid = slot_ids.get(key)
            if cid is None:
                cid = slot_ids[key] = len(slot_ids) + 1
                crossings[cid] = CrossingRecord(cid, role is Role.THROUGH, sign)
                crossing_map[cid] = key
            trace.append(Passage(cid, role))

        # A passage rides bundle 1 when it is the over passage of a real
        # crossing or the first passage of a virtual one, that is when the
        # frame f read from it is the stored sign.  It meets the other
        # bundle's copies in the order f fixes, and every intersection keeps
        # the frame f read from it; only the diagonal intersection of a real
        # tile keeps the passage's role.
        for t, p in enumerate(comp):
            rec = d.crossings[p.crossing]
            f = frames[t]
            on_a = f == rec.sign
            for o in range(1, r + 1) if f > 0 else range(r, 0, -1):
                a, b = (cur, o) if on_a else (o, cur)
                if a == b and not rec.virtual:
                    emit(("diag", p.crossing, a), p.role, rec.sign)
                else:
                    emit(("off", p.crossing, a, b), Role.THROUGH, f)
            if rec.virtual:
                # The mover crosses the rest of its bundle with frame -s.
                s = -f * _SHIFT_ORIENTATION
                bundle = 1 if on_a else 2
                if cur == (r if s > 0 else 1):
                    for q in range(r - 1, 0, -1) if s > 0 else range(2, r + 1):
                        emit(("shift", p.crossing, bundle, q), Role.THROUGH, -s)
                else:
                    emit(("shift", p.crossing, bundle, cur), Role.THROUGH, s)
                cur = (cur - 1 + s) % r + 1
            edge_map[(t, cur)] = (ell - 1, len(trace) - 1)
        if m == 0:
            edge_map[(0, ell)] = (ell - 1, None)
        assert cur == ell, "bundle shifts around the circle must cancel"
        out_components.append(trace)

    out = Diagram(tuple(tuple(c) for c in out_components), crossings)
    out.validate()
    prov = Provenance(
        r=r,
        crossing_map=crossing_map,
        edge_map=edge_map,
        component_map={i: i for i in range(1, r + 1)},
    )
    return out, prov


def _extract_oracle(d: Diagram, i: int) -> Diagram:
    """The first `extract_component`, kept as an oracle: a set of the kept
    crossings, then a second pass over the component."""
    d = checked(d, Diagram, ValidationError, "diagram")
    i = checked(i, int, BadComponent, "component index")
    if not 1 <= i <= d.n_components():
        raise BadComponent(f"component {i} of {d.n_components()}")
    ci = i - 1
    pos = d.passage_index
    keep = {
        p.crossing for p in d.components[ci] if all(cj == ci for cj, _ in pos[p.crossing])
    }
    comp = tuple(p for p in d.components[ci] if p.crossing in keep)
    crossings = {cid: d.crossings[cid] for cid in keep}
    out = Diagram((comp,), crossings)
    out.validate()
    return out


def _assert_same_multiplex(d: Diagram, r: int) -> None:
    """`multiplex` and `extract_component` give what their oracles give.  The
    multiplex is compared with every dict in its insertion order.  An
    extracted component's crossing table is compared as a dict: the oracle
    files it in the iteration order of a set of ids, which is an artifact
    of hashing that no caller reads."""
    got, prov = multiplex(d, r)
    want, want_prov = _multiplex_oracle(d, r)
    assert got.components == want.components
    assert list(got.crossings.items()) == list(want.crossings.items())
    assert prov == want_prov
    for name in ("crossing_map", "edge_map", "component_map"):
        assert list(getattr(prov, name).items()) == list(getattr(want_prov, name).items())
    for i in range(1, r + 1):
        piece, want_piece = extract_component(got, i), _extract_oracle(want, i)
        assert piece.components == want_piece.components
        assert piece.crossings == want_piece.crossings


@pytest.mark.parametrize("name", catalog.KNOT_NAMES)
def test_extraction_gives_the_same_diagram_on_first_and_repeated_calls(name):
    """`extract_component` reads one memoized sweep of the link; the first
    call, which makes it, and every later one give equal diagrams with
    equal tables, and the oracle's."""
    for r in range(2, 9):
        L, _ = multiplex(catalog.diagram(name), r)
        fresh = Diagram(L.components, L.crossings)  # a memo with no sweep yet
        first = [extract_component(fresh, i) for i in range(1, r + 1)]
        assert "own" in fresh._memo
        again = [extract_component(fresh, i) for i in range(1, r + 1)]
        for i, a, b in zip(range(1, r + 1), first, again):
            assert a == b == _extract_oracle(L, i)
            assert list(a.crossings.items()) == list(b.crossings.items())
            assert list(a._passage_index.items()) == list(b._passage_index.items())
            assert a._frames == b._frames
        assert_memo_matches(fresh)


class TestCrossingMapOnFirstUse:
    """The build emits only the link; its crossing map is read off the slot
    tables when a caller first reads it."""

    def test_a_build_hands_out_an_unfilled_map_that_a_repeat_call_shares(self):
        d = parse_vgc(catalog.CATALOG["asym3"].code)
        prov = multiplex(d, 3)[1]
        assert isinstance(prov.crossing_map, constructions._CrossingMap)
        assert prov.crossing_map._map is None
        assert multiplex(d, 3)[1].crossing_map is prov.crossing_map
        len(prov.crossing_map)
        assert type(prov.crossing_map._map) is _ReadOnly
        assert multiplex(d, 3)[1].crossing_map is prov.crossing_map

    def test_verify_fills_no_crossing_map(self, monkeypatch):
        fills, filled = [], constructions._CrossingMap._filled

        def counted(cmap):
            if cmap._map is None:
                fills.append(cmap)
            return filled(cmap)

        monkeypatch.setattr(constructions._CrossingMap, "_filled", counted)
        assert verify_theorems(r_range=range(2, 13)).ok
        assert fills == []
        len(multiplex(catalog.diagram("trefoil"), 2)[1].crossing_map)
        assert len(fills) == 1

    @pytest.mark.parametrize("name", catalog.KNOT_NAMES)
    @pytest.mark.parametrize("r", range(2, 7))
    def test_a_read_map_census_and_json_equal_the_oracles(self, name, r):
        d = catalog.diagram(name)
        prov, want = multiplex(d, r)[1], _multiplex_oracle(d, r)[1]
        assert list(prov.crossing_map.items()) == list(want.crossing_map.items())
        assert list(prov.tile_census().items()) == list(want.tile_census().items())
        assert prov.to_json() == want.to_json()


class TestAgainstTheOracles:
    @pytest.mark.parametrize("name", catalog.KNOT_NAMES)
    @pytest.mark.parametrize("r", range(2, 13))
    def test_catalog_multiplexes(self, name, r):
        _assert_same_multiplex(catalog.diagram(name), r)

    @settings(deadline=None)
    @given(diagrams(max_components=1), st.integers(2, 5))
    def test_random_knots(self, d, r):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "multiplexing an abstract")
            _assert_same_multiplex(d, r)
