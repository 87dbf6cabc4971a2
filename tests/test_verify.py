import json
from dataclasses import replace

import pytest

from multivirt import verify
from multivirt.colorings import (
    Coloring,
    ColoringMode,
    count_colorings,
    enumerate_colorings,
    psi,
)
from multivirt.errors import MultivirtError, ValidationError
from multivirt.invariants import WritheTable, linking_and_lambda, n_writhes
from multivirt.model import CrossingRecord, Diagram, Passage, Role, parse_vgc
from multivirt.verify import verify_theorems


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


def _results(rep):
    return [(r.fixture, r.theorem, r.r, r.ok, r.detail) for r in rep.results]


class TestFailureDetails:
    """Each check reports the first identity that fails, in a fixed order of
    fixtures, r values and theorems.  The identities are made to fail by
    patching a collaborator of `verify`."""

    def test_shifted_writhe_table_breaks_linking_and_self_writhe(self, monkeypatch):
        def shifted(d):
            J = n_writhes(d)
            return WritheTable({n + 1: v for n, v in J.entries.items()}, J.j0)

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
        def constant(d, col, l2, prov):
            return psi(d, Coloring((0,) * len(col.values), col.modulus), l2, prov)

        monkeypatch.setattr(verify, "psi", constant)
        rep = verify_theorems(names=["trefoil"], r_range=(), n_range=(2, 3))
        assert _results(rep) == [
            ("trefoil", "colorings", 2, False, "n=2: pairing map not injective")
        ]
