import json
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import example, given, settings

from conftest import JUNK
from multivirt import catalog, colorings, verify
from multivirt.colorings import (
    Coloring,
    ColoringMode,
    build_system,
    count_colorings,
    enumerate_colorings,
    pairing_map,
)
from multivirt.constructions import extract_component, multiplex
from multivirt.errors import BadModulus, BadR, MultivirtError, ValidationError
from multivirt.invariants import WritheTable, linking_and_lambda, n_writhes
from multivirt.model import CrossingRecord, Diagram, Passage, Role, parse_vgc, rotate
from multivirt.verify import THEOREMS, verify_theorems


class TestVerifyArguments:
    @pytest.mark.parametrize("theorems", [("nope",), ("linking", "nope"), "linking", [["linking"]]])
    def test_unknown_theorem_rejected(self, theorems):
        with pytest.raises(ValidationError):
            verify_theorems(names=["kink"], r_range=(2,), theorems=theorems)

    @pytest.mark.parametrize(
        "kwargs",
        [{"theorems": None}, {"r_range": 5}, {"n_range": 5}, {"names": 5}],
    )
    def test_non_iterable_argument_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            verify_theorems(**{"names": ["kink"], "r_range": (2,), **kwargs})

    def test_a_string_of_names_rejected(self):
        # Read letter by letter, it raised "no catalog entry named 't'".
        with pytest.raises(ValidationError, match="names must be an iterable of names"):
            verify_theorems(names="trefoil", r_range=(2,))

    # Read item by item, theorems="colorings" reported the unknown theorems
    # 'c', 'g', ... and r_range=b"\x02\x03" ran r = 2 and 3.
    @pytest.mark.parametrize(
        "what,value",
        [
            ("theorems", "colorings"),
            ("theorems", b"linking"),
            ("r_range", "23"),
            ("r_range", b"\x02\x03"),
            ("n_range", "3"),
            ("n_range", b"\x03"),
            ("names", b"trefoil"),
        ],
    )
    def test_a_str_or_bytes_argument_rejected_by_name(self, what, value):
        with pytest.raises(ValidationError, match=f"^{what} must be an iterable of .*, got the string"):
            verify_theorems(**{"names": ["kink"], "r_range": (2,), what: value})

    @pytest.mark.parametrize("name", [5, None, ("kink",)])
    def test_fixture_of_another_kind_rejected(self, name):
        with pytest.raises(ValidationError):
            verify_theorems(names=[name], r_range=(2,))

    def test_links_are_still_refused(self):
        with pytest.raises(MultivirtError, match="not a knot"):
            verify_theorems(names=["vhopf"], r_range=(2,))

    def test_link_fixture_is_named_by_its_vgc_text(self):
        with pytest.raises(MultivirtError, match=r"^fixture 'O1\+ ; U1\+' is not a knot$"):
            verify_theorems(names=[parse_vgc("O1+ ; U1+")], r_range=(2,))

    def test_diagram_and_name_fixtures_agree(self):
        by_name = verify_theorems(names=["kink"], r_range=(2, 3), n_range=(2, 3))
        by_value = verify_theorems(
            names=[parse_vgc("O1+ U1+")], r_range=(2, 3), n_range=(2, 3)
        )
        assert by_name.ok and by_value.ok
        assert [(r.theorem, r.r) for r in by_name.results] == [
            (r.theorem, r.r) for r in by_value.results
        ]

    def test_diagram_fixture_is_reported_by_its_vgc_text(self):
        rep = verify_theorems(names=[parse_vgc("O1+ U1+")], r_range=(2,))
        payload = json.loads(json.dumps(rep.to_json()))
        assert payload["ok"]
        assert {r["fixture"] for r in payload["results"]} == {"O1+ U1+"}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Diagram(((Passage(1, Role.OVER),),), {1: CrossingRecord(1, False, 1)}),
            lambda: Diagram(((Passage(1, Role.OVER), Passage(1, Role.UNDER)),), {}),
        ],
        ids=["real-crossing-passed-once", "unrecorded-crossing"],
    )
    def test_invalid_diagram_fixture_rejected(self, build):
        # The diagram is refused when it is made, before verify sees it.
        with pytest.raises(ValidationError):
            verify_theorems(names=[build()], r_range=(2,))

    # asym3 at r = 2..16 made 46 `multiplex` calls before the modulus 0 was
    # refused.
    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"r_range": (*range(2, 17), 1)}, BadR, r"^need r >= 2, got 1$"),
            ({"r_range": (2, 3, 2.0)}, BadR, r"^r must be of type int, got 2\.0$"),
            ({"n_range": (2, 3, 0)}, BadModulus, r"^modulus must be >= 1, got 0$"),
            ({"n_range": (2, 3, None)}, BadModulus, r"^modulus must be of type int, got None$"),
        ],
        ids=["r-1", "r-float", "n-0", "n-None"],
    )
    def test_a_bad_r_or_modulus_is_refused_before_any_multiplex(
        self, monkeypatch, kwargs, error, message
    ):
        calls = []

        def counted(d, r):
            calls.append(r)
            return multiplex(d, r)

        monkeypatch.setattr(verify, "multiplex", counted)
        with pytest.raises(error, match=message):
            verify_theorems(**{"names": ["asym3"], "r_range": range(2, 17), **kwargs})
        assert calls == []

    def test_r_and_moduli_are_read_only_for_the_theorems_that_use_them(self):
        rep = verify_theorems(names=["kink"], r_range=(1, None), theorems=("colorings",))
        assert _results(rep) == [("kink", "colorings", 2, True, "")]
        rep = verify_theorems(names=["kink"], r_range=(2,), n_range=(0,), theorems=("linking",))
        assert _results(rep) == [("kink", "linking", 2, True, "")]


def _results(rep):
    return [(r.fixture, r.theorem, r.r, r.ok, r.detail) for r in rep.results]


class TestFailureDetails:
    """Each check reports the first identity that fails, in a fixed order of
    fixtures, r values and theorems.  The identities are made to fail by
    patching a collaborator of `verify`."""

    def test_shifted_writhe_table_breaks_linking_and_self_writhe(self, monkeypatch):
        def shifted(d):
            # A table keeps J_0 apart from its entries, so J_-1 shifts out.
            J = n_writhes(d)
            return WritheTable({n + 1: v for n, v in J.entries.items() if n != -1}, J.j0)

        monkeypatch.setattr(verify, "n_writhes", shifted)
        rep = verify_theorems(names=["vtrefoil", "asym3"], r_range=(2, 3), n_range=())
        assert not rep.ok
        assert _results(rep) == [
            ("vtrefoil", "linking", 2, False, "lk[1][2] = 2, expected 0"),
            ("vtrefoil", "self_writhe", 2, False, "component 1: J_2 = 0, expected 1"),
            ("vtrefoil", "components", 2, True, ""),
            ("vtrefoil", "linking", 3, False, "lk[1][3] = 1, expected 0"),
            ("vtrefoil", "self_writhe", 3, True, ""),
            ("vtrefoil", "components", 3, True, ""),
            ("vtrefoil", "colorings", 2, True, ""),
            ("asym3", "linking", 2, False, "lk[1][2] = 0, expected 1"),
            ("asym3", "self_writhe", 2, False, "component 1: J_2 = 1, expected -1"),
            ("asym3", "components", 2, True, ""),
            ("asym3", "linking", 3, False, "lk[1][2] = 2, expected -1"),
            ("asym3", "self_writhe", 3, False, "component 1: J_3 = 0, expected 1"),
            ("asym3", "components", 3, True, ""),
            ("asym3", "colorings", 2, True, ""),
        ]

    def test_nonzero_lambda_breaks_linking(self, monkeypatch):
        def lam_off(L):
            rep = linking_and_lambda(L)
            return replace(rep, lam=(1, -1) + rep.lam[2:])

        monkeypatch.setattr(verify, "linking_and_lambda", lam_off)
        rep = verify_theorems(names=["vtrefoil"], r_range=(2, 3), theorems=("linking",))
        assert _results(rep) == [
            ("vtrefoil", "linking", 2, False, "lambda = (1, -1), expected zeros"),
            ("vtrefoil", "linking", 3, False, "lambda = (1, -1, 0), expected zeros"),
        ]

    def test_wrong_covering_breaks_components(self, monkeypatch):
        monkeypatch.setattr(verify, "covering", lambda d, r: d)
        rep = verify_theorems(names=["vtrefoil"], r_range=(2, 3), theorems=("components",))
        assert _results(rep) == [
            ("vtrefoil", "components", 2, False, "component 1 differs from the covering"),
            ("vtrefoil", "components", 3, False, "component 1 differs from the covering"),
        ]

    def test_one_flipped_sign_on_component_2_breaks_components(self, monkeypatch):
        def flipped(L, i):
            comp = extract_component(L, i)
            if i != 2:
                return comp
            cid, rec = next(iter(comp.crossings.items()))
            crossings = {**comp.crossings, cid: CrossingRecord(cid, rec.virtual, -rec.sign)}
            return Diagram(comp.components, crossings)

        monkeypatch.setattr(verify, "extract_component", flipped)
        names = [name for name in catalog.KNOT_NAMES if catalog.diagram(name).crossings]
        rep = verify_theorems(names=names, r_range=(2, 3, 5), theorems={"components"})
        assert _results(rep) == [
            (name, "components", r, False, "component 2 differs from the covering")
            for name in names
            for r in (2, 3, 5)
        ]

    def test_a_rotated_component_2_still_passes_components(self, monkeypatch):
        def rotated(L, i):
            comp = extract_component(L, i)
            return rotate(comp, 0, len(comp.components[0]) // 2 + 1) if i == 2 else comp

        monkeypatch.setattr(verify, "extract_component", rotated)
        rep = verify_theorems(r_range=(2, 3, 5), theorems={"components"})
        assert rep.ok and len(rep.results) == 3 * len(catalog.KNOT_NAMES)

    @pytest.mark.parametrize(
        "modes, detail",
        [
            ((ColoringMode.CONSTRAINED,), "n=5: 5 virtual vs 6 constrained"),
            (
                (ColoringMode.VIRTUAL_FOX, ColoringMode.CONSTRAINED),
                "n=5: enumeration found 5, not 6",
            ),
        ],
    )
    def test_count_off_by_one_at_five(self, monkeypatch, modes, detail):
        def count(system, n):
            return count_colorings(system, n) + (n == 5 and system.mode in modes)

        monkeypatch.setattr(verify, "count_colorings", count)
        rep = verify_theorems(names=["trefoil", "vtrefoil"], r_range=(), n_range=(3, 5, 7))
        assert _results(rep) == [
            ("trefoil", "colorings", 2, False, detail),
            ("vtrefoil", "colorings", 2, False, detail),
        ]

    @pytest.mark.parametrize(
        "mode, details",
        [
            (
                ColoringMode.VIRTUAL_FOX,
                ["n=3: enumeration found 8, not 9", "n=3: enumeration found 2, not 3"],
            ),
            (
                ColoringMode.CONSTRAINED,
                ["n=3: image size 9 vs constrained 8", "n=3: image size 3 vs constrained 2"],
            ),
        ],
    )
    def test_enumeration_drops_a_solution(self, monkeypatch, mode, details):
        def enumerate_(system, n, limit=10**6):
            sols = enumerate_colorings(system, n, limit)
            return sols[1:] if system.mode is mode and n == 3 else sols

        monkeypatch.setattr(verify, "enumerate_colorings", enumerate_)
        rep = verify_theorems(names=["trefoil", "kishino"], r_range=(), n_range=(2, 3, 4))
        assert _results(rep) == [
            ("trefoil", "colorings", 2, False, details[0]),
            ("kishino", "colorings", 2, False, details[1]),
        ]

    def test_constant_pairing_map_is_not_injective(self, monkeypatch):
        def constant(vsys, l2, prov):
            pair = pairing_map(vsys, l2, prov)
            return lambda col: pair(Coloring((0,) * len(col.values), col.modulus))

        monkeypatch.setattr(verify, "pairing_map", constant)
        rep = verify_theorems(names=["trefoil"], r_range=(), n_range=(2, 3))
        assert _results(rep) == [
            ("trefoil", "colorings", 2, False, "n=2: pairing map not injective")
        ]


def test_colorings_builds_the_source_system_once(monkeypatch):
    # One virtual-Fox system of the fixture, read by the counts, the
    # enumeration and the pairing map, and one constrained system of its
    # 2-fold multiplex.
    modes = []

    def counted(d, mode, provenance=None):
        modes.append(mode)
        return build_system(d, mode, provenance)

    monkeypatch.setattr(verify, "build_system", counted)
    monkeypatch.setattr(colorings, "build_system", counted)
    assert verify_theorems(names=["trefoil", "kishino"], r_range=(), n_range=(2, 3)).ok
    assert modes == [ColoringMode.VIRTUAL_FOX, ColoringMode.CONSTRAINED] * 2


@cache
def _hostile_calls():
    """Per element slot of `verify_theorems`: a call that puts the junk in
    that slot of an otherwise valid call, and the valid values of the slot
    that junk may equal."""
    return {
        "names": (lambda x: verify_theorems(names=[x], r_range=(2,), n_range=(3,)), catalog.names()),
        "r_range": (lambda x: verify_theorems(names=["kink"], r_range=(x,), n_range=(3,)), range(2, 41)),
        "n_range": (lambda x: verify_theorems(names=["trefoil"], r_range=(2,), n_range=(x,)), range(1, 41)),
        "theorems": (
            lambda x: verify_theorems(names=["kink"], r_range=(2,), n_range=(3,), theorems=(x,)),
            THEOREMS,
        ),
    }


@pytest.mark.parametrize("slot", list(_hostile_calls()))
@settings(max_examples=40, deadline=None)
@given(junk=JUNK)
@example(junk=True)
@example(junk=2.0)
@example(junk=None)
def test_verify_refuses_junk_or_reads_it_as_its_equal(slot, junk):
    """Junk in an element of any argument of `verify_theorems` raises a
    MultivirtError or gives, byte for byte, the report of the valid value
    that it equals: True in `n_range` reads as the modulus 1."""
    call, valid = _hostile_calls()[slot]
    try:
        got = call(junk)
    except MultivirtError:
        return
    equal = [v for v in valid if v == junk]
    assert equal, f"{slot} accepted {junk!r}"
    assert json.dumps(got.to_json()) == json.dumps(call(equal[0]).to_json())
