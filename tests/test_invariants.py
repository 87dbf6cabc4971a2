import json

import pytest
from hypothesis import given, settings

from conftest import diagrams
from multivirt import catalog
from multivirt.errors import (
    BadComponent,
    MixedCrossing,
    NotAKnot,
    NotReal,
    UnknownCrossing,
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
from multivirt.model import Diagram, Role, parse_vgc
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
