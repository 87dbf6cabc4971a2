import warnings

import pytest

from multivirt import catalog
from multivirt.constructions import covering, extract_component, multiplex
from multivirt.errors import BadComponent, BadR, NotAKnot, ValidationError
from multivirt.invariants import index_defect, linking_and_lambda, n_writhes
from multivirt.model import canonical_form, parse_vgc, serialize_vgc
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

    def test_abstract_input_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            multiplex(parse_vgc("O1+ O2+ U1+ U2+"), 2)
        assert caught


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
