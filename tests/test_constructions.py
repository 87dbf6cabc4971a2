import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diagrams
from multivirt import catalog, verify_theorems
from multivirt.constructions import (
    _SHIFT_ORIENTATION,
    MAX_PASSAGES,
    Provenance,
    covering,
    extract_component,
    multiplex,
)
from multivirt.errors import BadComponent, BadR, NotAKnot, TooLarge, ValidationError, checked
from multivirt.invariants import index_defect, linking_and_lambda, n_writhes
from multivirt.model import CrossingRecord, Diagram, Passage, Role, canonical_form, parse_vgc, serialize_vgc
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
