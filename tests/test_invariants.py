import json

import pytest

from multivirt import catalog
from multivirt.errors import (
    BadComponent,
    MixedCrossing,
    NotAKnot,
    NotReal,
    UnknownCrossing,
)
from multivirt.constructions import multiplex
from multivirt.invariants import (
    crossing_indices,
    index_defect,
    invariant_report,
    ith_n_writhes,
    linking_and_lambda,
    n_writhes,
    specified_path,
    writhe,
)
from multivirt.model import Role, parse_vgc
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
