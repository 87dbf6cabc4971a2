import json
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JUNK, assert_memo_matches, diagrams, torus_2
from multivirt import catalog
from multivirt.errors import (
    BadComponent,
    MixedCrossing,
    MultivirtError,
    NotAKnot,
    NotReal,
    UnknownCrossing,
    ValidationError,
)
from multivirt.constructions import covering, multiplex
from multivirt.invariants import (
    ComponentWrithes,
    InvariantReport,
    WritheTable,
    crossing_indices,
    index_defect,
    invariant_report,
    ith_n_writhes,
    linking_and_lambda,
    n_writhes,
    specified_path,
    writhe,
)
from multivirt.model import Diagram, Role, parse_vgc, rotate
from multivirt.moves import apply_move, random_walk
from multivirt.planar import realize


class TestSpecifiedPath:
    def test_adjacent_passages_give_empty_path(self):
        assert specified_path(parse_vgc("O1+ U1+"), 1) == []

    def test_interlaced_word(self):
        d = parse_vgc("O1+ O2+ U1+ U2+")
        assert [(p.crossing, p.role) for p in specified_path(d, 1)] == [(2, Role.OVER)]
        assert [(p.crossing, p.role) for p in specified_path(d, 2)] == [(1, Role.UNDER)]

    def test_errors(self):
        d = parse_vgc("O1+ U1+ V2+ V2+")
        with pytest.raises(UnknownCrossing):
            specified_path(d, 9)
        with pytest.raises(NotReal):
            specified_path(d, 2)
        with pytest.raises(MixedCrossing):
            specified_path(parse_vgc("O1+ ; U1+"), 1)

    @pytest.mark.parametrize("lookup", [specified_path, crossing_indices])
    def test_unhashable_id_is_unknown(self, trefoil, lookup):
        with pytest.raises(UnknownCrossing):
            lookup(trefoil, [1])


class TestIndices:
    def test_classical_trefoil_all_zero(self, trefoil):
        for cid in (1, 2, 3):
            pair = crossing_indices(trefoil, cid)
            assert pair.ind == 0 and pair.ind_v == 0

    def test_virtual_trefoil(self):
        d = catalog.diagram("vtrefoil")
        assert crossing_indices(d, 1).ind == -1
        assert crossing_indices(d, 2).ind == 1

    def test_both_passages_on_path_cancel(self):
        d = parse_vgc("O1+ O2+ U2+ U1+")
        assert crossing_indices(d, 1).ind == 0

    def test_identity_on_planar_catalog(self):
        for name in catalog.names():
            assert index_defect(catalog.diagram(name)) == 0, name

    def test_identity_on_multiplex_outputs(self):
        for name in ("kink", "vtrefoil"):
            d = catalog.diagram(name)
            for r in (2, 3):
                out, _ = multiplex(d, r)
                assert index_defect(out) == 0


class TestWrithe:
    def test_values(self, trefoil):
        assert writhe(parse_vgc(".")) == 0
        assert writhe(trefoil) == 3
        assert writhe(parse_vgc("O1+ U1+ O2- U2-")) == 0


class TestNWrithes:
    def test_classical_trefoil_empty(self, trefoil):
        assert n_writhes(trefoil).entries == {}

    def test_virtual_trefoil(self):
        assert n_writhes(catalog.diagram("vtrefoil")).entries == {1: 1, -1: 1}

    def test_kink_empty_with_j0(self):
        t = n_writhes(parse_vgc("O1+ U1+"))
        assert t.entries == {} and t.j0 == 1

    def test_requires_knot(self):
        with pytest.raises(NotAKnot):
            n_writhes(parse_vgc("O1+ ; U1+"))

    # Junk read as 0 (a hashable key) or raised a bare TypeError (a list).
    @settings(max_examples=60, deadline=None)
    @given(
        junk=st.one_of(
            st.floats(-3, 3),
            st.text(max_size=2),
            st.none(),
            st.lists(st.integers(-2, 2), max_size=2),
            st.tuples(st.integers(-2, 2)),
            st.booleans(),
        )
    )
    @example(junk="x")
    @example(junk=[[1]])
    @example(junk=1.5)
    @example(junk=1.0)
    def test_a_non_integer_index_is_refused(self, junk):
        table = n_writhes(catalog.diagram("asym3"))
        if isinstance(junk, bool):
            assert table[junk] == table[int(junk)]
        else:
            with pytest.raises(ValidationError):
                table[junk]

    def test_an_integer_index_reads_its_entry(self):
        table = n_writhes(catalog.diagram("vtrefoil"))
        assert [table[n] for n in (-2, -1, 0, 1, 2)] == [0, 1, table.j0, 1, 0]


class TestWritheTable:
    # The constructor kept the caller's dict and checked nothing: a key 0
    # showed in to_json() while [0] read J_0, and a later change to the dict
    # changed the table.
    @pytest.mark.parametrize(
        "entries",
        [{0: 4}, {False: 4}, {"2": 1}, {1.0: 1}, {True: 1}, {1: 1.5}, {1: "1"}, {1: None},
         {1: True}, [(1, 1)], None, "x"],
    )
    def test_a_key_0_or_a_non_integer_key_or_value_is_refused(self, entries):
        with pytest.raises(ValidationError):
            WritheTable(entries, 1)

    # The constructor checked the entries but kept any J_0: WritheTable({}, "x")
    # printed "x" as J_0, and WritheTable({}, None)[0] read None.
    @pytest.mark.parametrize("j0", ["x", None, True, False, 1.0, [0], (0,)], ids=repr)
    def test_a_j0_that_is_not_an_int_is_refused(self, j0):
        with pytest.raises(ValidationError, match="J_0 must be an int"):
            WritheTable({}, j0)
        with pytest.raises(ValidationError, match="J_0 must be an int"):
            WritheTable({2: 1}, j0)

    def test_the_entries_are_copied(self):
        entries = {2: 5, -1: 3}
        table = WritheTable(entries, 0)
        entries[2] = 7
        del entries[-1]
        assert table[2] == 5 and table[-1] == 3
        assert table.to_json() == {"jn": {"-1": 3, "2": 5}, "j0": 0}

    def test_valid_tables_compare_and_print_as_before(self):
        table = WritheTable({3: 1, -2: -1}, 2)
        assert table == WritheTable({-2: -1, 3: 1}, 2) != WritheTable({3: 1}, 2)
        assert table.entries == {3: 1, -2: -1} and table.support() == {3, -2}
        assert json.dumps(table.to_json()) == '{"jn": {"-2": -1, "3": 1}, "j0": 2}'
        assert list(table.entries) == [3, -2]  # the key order given


class TestIthNWrithes:
    def test_knot_case_matches_n_writhes(self):
        d = catalog.diagram("vtrefoil")
        assert ith_n_writhes(d, 1).table.entries == n_writhes(d).entries

    def test_multiplexed_virtual_trefoil_vanishes(self):
        L, _ = multiplex(catalog.diagram("vtrefoil"), 2)
        for i in (1, 2):
            assert ith_n_writhes(L, i).table.entries == {}

    def test_no_self_crossings(self):
        d = parse_vgc("O1+ ; U1+")
        cw = ith_n_writhes(d, 1)
        assert cw.table.entries == {} and cw.table.j0 == 0

    def test_bad_component(self):
        with pytest.raises(BadComponent):
            ith_n_writhes(parse_vgc("."), 2)

    @pytest.mark.parametrize("i", [1.0, "1", None])
    def test_non_integer_component_rejected(self, i):
        with pytest.raises(BadComponent):
            ith_n_writhes(catalog.diagram("vtrefoil"), i)


class TestLinking:
    def test_virtual_hopf(self):
        rep = linking_and_lambda(catalog.diagram("vhopf"))
        assert rep.lk[0][1] == 1 and rep.lk[1][0] == 0
        assert rep.lam == (-1, 1)

    def test_multiplexed_virtual_trefoil(self):
        L, _ = multiplex(catalog.diagram("vtrefoil"), 2)
        rep = linking_and_lambda(L)
        assert rep.lk[0][1] == rep.lk[1][0] == 2
        assert rep.lam == (0, 0)

    def test_knot_has_no_linking(self, trefoil):
        rep = linking_and_lambda(trefoil)
        assert rep.lk == ((0,),) and rep.lam == (0,)


class TestReportJson:
    def test_shape(self, trefoil):
        payload = invariant_report(trefoil).to_json()
        assert payload["writhe"] == 3
        assert payload["jn"] == {}
        assert payload["j0"] == 3
        assert payload["lk"] == [[0]]
        assert payload["lambda"] == [0]
        json.dumps(payload)

    def test_jn_keys_sorted_numerically(self):
        d = catalog.diagram("asym3")
        keys = list(invariant_report(d).to_json()["jn"])
        assert keys == sorted(keys, key=int)


# -- the theorem layer against a per-component scan ------------------------


def _oracle_self_crossings(d, ci):
    """Real crossings whose both passages lie on component `ci`, by ids."""
    out = []
    for cid, rec in d.crossings.items():
        if not rec.virtual:
            (co, _), (cu, _) = d.real_positions(cid)
            if co == cu == ci:
                out.append(cid)
    return sorted(out)


def _oracle_table(d, cids):
    entries, j0 = {}, 0
    for cid in cids:
        n, s = crossing_indices(d, cid).ind, d.crossings[cid].sign
        if n == 0:
            j0 += s
        else:
            entries[n] = entries.get(n, 0) + s
    return WritheTable({n: v for n, v in entries.items() if v != 0}, j0)


def _invariants_oracle(d):
    """(report, index defect) from one scan of the crossings per component,
    with lambda computed both from lk and directly from the mixed crossings."""
    r = d.n_components()
    lk = [[0] * r for _ in range(r)]
    lam_direct = [0] * r
    for cid, rec in d.crossings.items():
        if rec.virtual:
            continue
        (co, _), (cu, _) = d.real_positions(cid)
        if co != cu:
            lk[co][cu] += rec.sign
            lam_direct[cu] += rec.sign
            lam_direct[co] -= rec.sign
    lam = [sum(lk[j][i] - lk[i][j] for j in range(r) if j != i) for i in range(r)]
    assert lam == lam_direct
    own = [_oracle_self_crossings(d, ci) for ci in range(r)]
    jni = tuple(ComponentWrithes(ci + 1, _oracle_table(d, own[ci]), lam[ci]) for ci in range(r))
    report = InvariantReport(
        writhe(d), jni[0].table if r == 1 else None, jni, tuple(map(tuple, lk)), tuple(lam)
    )
    pairs = [crossing_indices(d, cid) for cids in own for cid in cids]
    return report, max((abs(p.ind + p.ind_v) for p in pairs), default=0)


def _ordered(table):
    """A writhe table with the insertion order of its entries."""
    return list(table.entries.items()), table.j0


def _assert_matches_oracle(d):
    want, defect = _invariants_oracle(d)
    got = invariant_report(d)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert [_ordered(cw.table) for cw in got.jni] == [_ordered(cw.table) for cw in want.jni]
    assert linking_and_lambda(d) == InvariantReport(want.writhe, None, (), want.lk, want.lam)
    for cw in want.jni:
        got_cw = ith_n_writhes(d, cw.component)
        assert got_cw == cw and _ordered(got_cw.table) == _ordered(cw.table)
    if d.n_components() == 1:
        assert _ordered(n_writhes(d)) == _ordered(want.jn)
    else:
        with pytest.raises(NotAKnot):
            n_writhes(d)
    assert index_defect(d) == defect


@settings(max_examples=200)
@given(diagrams(max_real=6, max_virtual=4, max_components=4))
def test_matches_oracle_on_random_diagrams(d):
    _assert_matches_oracle(d)
    # The tables list self-crossings by id, whatever order the crossing table has.
    _assert_matches_oracle(Diagram(d.components, dict(reversed(d.crossings.items()))))


@pytest.mark.parametrize("name", catalog.names())
def test_matches_oracle_on_catalog(name):
    _assert_matches_oracle(catalog.diagram(name))


@pytest.mark.parametrize("name", catalog.KNOT_NAMES)
def test_matches_oracle_on_multiplexes_and_coverings(name):
    d = catalog.diagram(name)
    for r in range(2, 7):
        _assert_matches_oracle(multiplex(d, r)[0])
    for r in range(1, 7):
        _assert_matches_oracle(covering(d, r))


@pytest.mark.parametrize("name", catalog.names())
def test_matches_oracle_on_walk_states(name):
    for seed in range(2):
        cur = catalog.diagram(name)
        _, trace = random_walk(cur, 60, seed)
        for site in trace:
            cur = apply_move(cur, site)
            _assert_matches_oracle(cur)


# -- the prefix sums against the path walk ------------------------------------


def test_torus_knot_matches_oracle():
    d = torus_2(201)
    _assert_matches_oracle(d)
    assert_memo_matches(d)  # the memoized indices, each walked along its path


def test_long_torus_knot_n_writhes_matches_oracle_table():
    d = torus_2(801)
    table = n_writhes(d)
    want = _oracle_table(d, sorted(d.crossings))
    assert _ordered(table) == _ordered(want)
    assert table.entries == {} and table.j0 == 801


def test_a_path_that_wraps_past_the_end_of_its_component():
    # Crossing 1 is passed over at 4 and under at 1, so its path runs
    # through U3- (frame +1) and, past the end, O2+ (frame +1).
    d = parse_vgc("O2+ U1+ O3- U2+ O1+ U3-")
    assert [(p.crossing, p.role) for p in specified_path(d, 1)] == [(3, Role.UNDER), (2, Role.OVER)]
    assert crossing_indices(d, 1).ind == -2
    assert invariant_report(d).jn[-2] == 1
    assert covering(d, 2).crossings[1].virtual is False
    assert covering(d, 3).crossings[1].virtual is True
    _assert_matches_oracle(d)
    for k in range(6):
        _assert_matches_oracle(rotate(d, 0, k))


def test_a_path_that_holds_a_real_passage_of_a_crossing_between_two_components():
    # The path of crossing 1 on component 1 holds the over passage of
    # crossing 2, whose under passage lies on component 2.
    d = parse_vgc("O1+ O2- U1+ V3+ ; U2- V3+")
    assert crossing_indices(d, 1).ind == 1
    cw = ith_n_writhes(d, 1)
    assert cw.table.entries == {1: 1} and cw.lambda_i == 1
    assert ith_n_writhes(d, 2).table.entries == {}
    _assert_matches_oracle(d)
    assert_memo_matches(d)


def test_counts_read_the_memoized_real_crossings(trefoil):
    for d in (trefoil, catalog.diagram("vhopf"), multiplex(catalog.diagram("asym3"), 3)[0]):
        real = [cid for cid, rec in d.crossings.items() if not rec.virtual]
        assert d.n_real() == len(real) and d.n_virtual() == len(d.crossings) - len(real)
        assert d._memo["real"] == sorted(real)


@cache
def _invariant_calls():
    """One call per argument slot of the invariants exports, junk going into
    that slot, and the valid values of the slot that junk may equal: the
    real self-crossings of a knot with a virtual crossing for a crossing
    id, and both components of a link for a component number."""
    k, link = catalog.diagram("vtrefoil"), catalog.diagram("vhopf")
    real = [cid for cid, rec in k.crossings.items() if not rec.virtual]
    return {
        "writhe-diagram": (writhe, ()),
        "crossing_indices-diagram": (lambda x: crossing_indices(x, real[0]), ()),
        "crossing_indices-crossing": (lambda x: crossing_indices(k, x), real),
        "specified_path-diagram": (lambda x: specified_path(x, real[0]), ()),
        "specified_path-crossing": (lambda x: specified_path(k, x), real),
        "n_writhes-diagram": (n_writhes, ()),
        "ith_n_writhes-diagram": (lambda x: ith_n_writhes(x, 1), ()),
        "ith_n_writhes-component": (lambda x: ith_n_writhes(link, x), (1, 2)),
        "invariant_report-diagram": (invariant_report, ()),
        "linking_and_lambda-diagram": (linking_and_lambda, ()),
        "WritheTable-entries": (lambda x: WritheTable(x, 0), ()),
        "WritheTable-value": (lambda x: WritheTable({1: x}, 0), range(-5, 41)),
        "WritheTable-j0": (lambda x: WritheTable({}, x), range(-5, 41)),
    }


@pytest.mark.parametrize("slot", list(_invariant_calls()))
@settings(max_examples=40, deadline=None)
@given(junk=JUNK)
@example(junk=True)
@example(junk=1.0)
@example(junk=[])
def test_invariant_exports_refuse_junk_or_read_it_as_its_equal(slot, junk):
    """Junk in any argument slot of an invariants export raises a
    MultivirtError or gives what the valid value that it equals gives: a
    crossing id of 1.0 names crossing 1, and a component number of True
    names component 1."""
    call, valid = _invariant_calls()[slot]
    try:
        got = call(junk)
    except MultivirtError:
        return
    equal = [v for v in valid if v == junk]
    assert equal, f"{slot} accepted {junk!r}"
    assert got == call(equal[0])
