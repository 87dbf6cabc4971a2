import subprocess
import sys
from dataclasses import replace
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import diagrams
import multivirt
from multivirt import catalog, verify
from multivirt.colorings import (
    Coloring,
    ColoringMode,
    ColoringSystem,
    _eliminate_unit_pivots,
    build_system,
    count_colorings,
    enumerate_colorings,
    is_solution,
    psi,
    smith_normal_form,
)
from multivirt.constructions import multiplex
from multivirt.errors import (
    BadMatrix,
    BadModulus,
    InvalidColoring,
    MissingProvenance,
    TooLarge,
    ValidationError,
)
from multivirt.model import Granularity, Role, Segments, parse_vgc


class TestBuildSystem:
    def test_kink_row_collapses(self):
        sys_ = build_system(parse_vgc("O1+ U1+"), ColoringMode.FOX)
        assert sys_.n_unknowns == 1
        assert sys_.matrix() == [[0]]

    def test_virtual_rows(self):
        sys_ = build_system(parse_vgc("O1+ U1+ V2+ V2+"), ColoringMode.VIRTUAL_FOX)
        assert sys_.n_unknowns == 3
        assert len(sys_.rows) == 3  # one crossing rule + two negation rows

    def test_constrained_two_circles(self):
        l2, prov = multiplex(parse_vgc("."), 2)
        sys_ = build_system(l2, ColoringMode.CONSTRAINED, prov)
        assert sys_.n_unknowns == 2
        assert sys_.matrix() == [[1, 1]]

    def test_constrained_needs_provenance(self):
        l2, _ = multiplex(parse_vgc("O1+ U1+"), 2)
        with pytest.raises(MissingProvenance):
            build_system(l2, ColoringMode.CONSTRAINED)

    def test_mode_must_be_a_member(self, trefoil):
        with pytest.raises(ValidationError, match="'fox'"):
            build_system(trefoil, "fox")

    @pytest.mark.parametrize("mode", [ColoringMode.FOX, ColoringMode.VIRTUAL_FOX])
    @settings(max_examples=150, deadline=None)
    @given(d=diagrams())
    def test_rows_match_walking_oracle(self, mode, d):
        """Rows equal those of an oracle that numbers the pieces itself (by
        component, then by cut passage) and finds the piece at a passage by
        walking back along the component to the nearest cut."""
        cut_roles = {Role.UNDER}
        if mode is ColoringMode.VIRTUAL_FOX:
            cut_roles.add(Role.THROUGH)
        number: dict[tuple[int, int | None], int] = {}
        for ci, comp in enumerate(d.components):
            cuts = [i for i, p in enumerate(comp) if p.role in cut_roles]
            for i in cuts or [None]:
                number[(ci, i)] = len(number)

        def piece_before(ci: int, i: int) -> int:
            """The piece running along the edge that enters passage i."""
            comp = d.components[ci]
            for back in range(1, len(comp) + 1):
                j = (i - back) % len(comp)
                if comp[j].role in cut_roles:
                    return number[(ci, j)]
            return number[(ci, None)]

        def piece_after(ci: int, i: int) -> int:
            """The piece running along the edge that leaves passage i."""
            return piece_before(ci, (i + 1) % len(d.components[ci]))

        def row(*coeffs):
            r: dict[int, int] = {}
            for k, c in coeffs:
                r[k] = r.get(k, 0) + c
            return tuple(sorted((k, c) for k, c in r.items() if c))

        where: dict[int, list[tuple[int, int, Role]]] = {}
        for ci, comp in enumerate(d.components):
            for i, p in enumerate(comp):
                where.setdefault(p.crossing, []).append((ci, i, p.role))
        want = []
        for cid in sorted(d.crossings):
            if d.crossings[cid].virtual:
                if mode is ColoringMode.VIRTUAL_FOX:
                    for ci, i, _ in sorted(where[cid]):
                        want.append(row((piece_before(ci, i), 1), (piece_after(ci, i), 1)))
                continue
            (co, io, _), (cu, iu, _) = sorted(where[cid], key=lambda w: w[2] is Role.UNDER)
            want.append(
                row(
                    (piece_before(cu, iu), 1),
                    (piece_after(cu, iu), 1),
                    (piece_before(co, io), -2),
                )
            )
        system = build_system(d, mode)
        assert system.n_unknowns == len(number)
        assert system.rows == tuple(want)


class TestSmithNormalForm:
    def test_diagonal_merge(self):
        assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)

    def test_zero(self):
        s = smith_normal_form([[0]])
        assert s.rank == 0 and s.diagonal == (0,)

    def test_identity(self):
        assert smith_normal_form([[1, 0], [0, 1]]).diagonal == (1, 1)

    @pytest.mark.parametrize("mat", [[[2], [0, 1]], [[0], [0, 1]], [[0, 5], [3]]])
    def test_ragged_rows_rejected(self, mat):
        with pytest.raises(BadMatrix):
            smith_normal_form(mat)

    # int() would truncate or parse these into (1, 6), (0,) and (7,).
    @pytest.mark.parametrize("mat", [[[2.7, 0], [0, 3]], [[0.5]], [["7"]]])
    def test_non_integer_entries_rejected(self, mat):
        with pytest.raises(BadMatrix):
            smith_normal_form(mat)

    def test_bools_and_numpy_integers_accepted(self):
        np = pytest.importorskip("numpy")
        mat = [[True, np.int64(0)], [False, np.int32(3)]]
        assert smith_normal_form(mat).diagonal == (1, 3)

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        st.integers(1, 6),
    )
    @settings(max_examples=120, deadline=None)
    def test_divisor_chain_and_counts(self, rows, n):
        s = smith_normal_form(rows)
        positive = [d for d in s.diagonal if d]
        assert len(positive) == s.rank
        for a, b in zip(positive, positive[1:]):
            assert b % a == 0
        # solution count of rows . x = 0 (mod n) from the divisor chain
        k = len(rows[0])
        want = n ** (k - s.rank)
        for d in positive:
            want *= gcd(d, n)
        brute = 0
        for idx in range(n**k):
            x = [(idx // n**j) % n for j in range(k)]
            if all(sum(c * v for c, v in zip(r, x)) % n == 0 for r in rows):
                brute += 1
        assert brute == want


def _system(rows, n_cols: int) -> ColoringSystem:
    """A system with the given sparse rows over n_cols placeholder unknowns."""
    return ColoringSystem(
        ColoringMode.FOX, Segments(Granularity.ARC, (None,) * n_cols), tuple(rows)
    )


@st.composite
def unit_heavy_rows(draw, max_rows=7, max_cols=7):
    """Sparse integer rows of any shape, mostly +-1 entries, with empty rows;
    one draw in four takes its coefficients from a pool without +-1."""
    n_cols = draw(st.integers(0, max_cols))
    no_units = draw(st.integers(0, 3)) == 0
    pool = (2, -2, 3, 4, -6) if no_units else (1, -1, 1, -1, 2, -2, 3)
    row = st.dictionaries(
        st.integers(0, max(n_cols - 1, 0)), st.sampled_from(pool), max_size=4 if n_cols else 0
    )
    rows = draw(st.lists(row, max_size=max_rows))
    return [tuple(sorted(r.items())) for r in rows], n_cols


class TestSparseSNF:
    """The two-phase `ColoringSystem.snf` against the dense form on the whole matrix."""

    @given(unit_heavy_rows())
    @example(([((0, 1), (2, 1))], 3))  # wide
    @example(([(), ((0, 1),), ()], 2))  # all-zero rows
    @example(([((0, 2), (1, 4)), ((0, 6), (1, 3))], 2))  # no +-1 entry
    @example(([((0, 1), (1, 1)), ((0, 1), (1, -1))], 2))  # fill-in leaves a -2
    @settings(max_examples=300, deadline=None)
    def test_matches_dense(self, case):
        rows, n_cols = case
        sys_ = _system(rows, n_cols)
        assert sys_.snf() == smith_normal_form(sys_.matrix())
        if not any(c in (1, -1) for r in rows for _, c in r):
            assert _eliminate_unit_pivots(sys_.rows)[0] == 0

    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog_systems_match_dense(self, name):
        d = catalog.diagram(name)
        modes = (ColoringMode.FOX, ColoringMode.VIRTUAL_FOX)
        systems = [build_system(d, m) for m in modes]
        if d.n_components() == 1:
            l2, prov = multiplex(d, 2)
            systems += [build_system(l2, m) for m in modes]
            systems.append(build_system(l2, ColoringMode.CONSTRAINED, prov))
        for sys_ in systems:
            assert sys_.snf() == smith_normal_form(sys_.matrix())

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("name", ["asym3", "index2"])
    def test_virtual_fox_matches_sympy(self, name, r):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        L, _ = multiplex(catalog.diagram(name), r)
        sys_ = build_system(L, ColoringMode.VIRTUAL_FOX)
        theirs = sympy_snf(sympy.Matrix(sys_.matrix()), domain=sympy.ZZ)
        size = min(len(sys_.rows), sys_.n_unknowns)
        assert sorted(abs(int(theirs[i, i])) for i in range(size)) == sorted(sys_.snf().diagonal)

    def test_asym3_r4_leaves_small_residual(self):
        L, _ = multiplex(catalog.diagram("asym3"), 4)
        sys_ = build_system(L, ColoringMode.VIRTUAL_FOX)
        units, residual = _eliminate_unit_pivots(sys_.rows)
        assert units == 608
        assert len(residual) <= 4 and all(len(r) <= 4 for r in residual)


class TestCounts:
    def test_unknot_all_modes(self):
        d = parse_vgc(".")
        for mode in (ColoringMode.FOX, ColoringMode.VIRTUAL_FOX):
            sys_ = build_system(d, mode)
            for n in range(1, 8):
                assert count_colorings(sys_, n) == n

    def test_trefoil(self, trefoil):
        sys_ = build_system(trefoil, ColoringMode.FOX)
        assert count_colorings(sys_, 3) == 9
        assert count_colorings(sys_, 2) == 2

    def test_figure8_five_colorings(self):
        sys_ = build_system(catalog.diagram("figure8"), ColoringMode.FOX)
        assert count_colorings(sys_, 5) == 25

    def test_modulus_one(self, trefoil):
        sys_ = build_system(trefoil, ColoringMode.FOX)
        assert count_colorings(sys_, 1) == 1

    def test_bad_modulus(self, trefoil):
        with pytest.raises(BadModulus):
            count_colorings(build_system(trefoil, ColoringMode.FOX), 0)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_non_integer_modulus_rejected(self, trefoil, n):
        sys_ = build_system(trefoil, ColoringMode.FOX)
        with pytest.raises(BadModulus):
            count_colorings(sys_, n)
        with pytest.raises(BadModulus):
            enumerate_colorings(sys_, n)


class TestEnumeration:
    def test_kink(self):
        sys_ = build_system(parse_vgc("O1+ U1+"), ColoringMode.FOX)
        assert len(enumerate_colorings(sys_, 3)) == 3

    def test_trefoil_rainbow(self, trefoil):
        sys_ = build_system(trefoil, ColoringMode.FOX)
        sols = enumerate_colorings(sys_, 3)
        assert len(sols) == 9
        constant = [s for s in sols if len(set(s.values)) == 1]
        rainbow = [s for s in sols if len(set(s.values)) == 3]
        assert len(constant) == 3 and len(rainbow) == 6

    def test_too_large(self, trefoil):
        with pytest.raises(TooLarge):
            enumerate_colorings(build_system(trefoil, ColoringMode.FOX), 101, limit=10**6)

    @pytest.mark.parametrize("limit", [1e6, "1000", None])
    def test_non_integer_limit_rejected(self, trefoil, limit):
        with pytest.raises(ValidationError):
            enumerate_colorings(build_system(trefoil, ColoringMode.FOX), 3, limit=limit)

    @pytest.mark.parametrize("name", catalog.names())
    def test_oracle_matches_divisor_formula(self, name):
        d = catalog.diagram(name)
        systems = [build_system(d, m) for m in (ColoringMode.FOX, ColoringMode.VIRTUAL_FOX)]
        if d.n_components() == 1:
            l2, prov = multiplex(d, 2)
            systems.append(build_system(l2, ColoringMode.CONSTRAINED, prov))
        for sys_ in systems:
            for n in range(1, 7):
                if n**sys_.n_unknowns > 10**6:
                    continue
                assert len(enumerate_colorings(sys_, n)) == count_colorings(sys_, n)

    def test_affine_closure_of_fox_solutions(self, trefoil):
        sys_ = build_system(trefoil, ColoringMode.FOX)
        n = 5
        sols = {s.values for s in enumerate_colorings(sys_, n)}
        for v in sols:
            assert tuple((x + 1) % n for x in v) in sols
            assert tuple((-x) % n for x in v) in sols


class TestPairingMap:
    def test_crossing_free_circle(self):
        d = parse_vgc(".")
        l2, prov = multiplex(d, 2)
        col = Coloring((2,), 5)
        out = psi(d, col, l2, prov)
        assert sorted(out.values) == [2, 3]  # x and -x mod 5

    def test_zero_goes_to_zero(self, trefoil):
        l2, prov = multiplex(trefoil, 2)
        vsys = build_system(trefoil, ColoringMode.VIRTUAL_FOX)
        zero = Coloring((0,) * vsys.n_unknowns, 4)
        assert set(psi(trefoil, zero, l2, prov).values) == {0}

    def test_short_assignment_is_no_solution(self, trefoil):
        vsys = build_system(trefoil, ColoringMode.VIRTUAL_FOX)
        assert not is_solution(vsys, Coloring((0,) * (vsys.n_unknowns - 1), 3))

    @pytest.mark.parametrize("col", [None, (0, 0, 0), [0, 0, 0]])
    def test_rejects_non_colorings(self, trefoil, col):
        l2, prov = multiplex(trefoil, 2)
        with pytest.raises(InvalidColoring):
            psi(trefoil, col, l2, prov)

    def test_rejects_non_solutions(self, trefoil):
        l2, prov = multiplex(trefoil, 2)
        bad = Coloring((0, 0, 1), 2)  # mod 2 only constant colorings survive
        with pytest.raises(InvalidColoring):
            psi(trefoil, bad, l2, prov)

    @pytest.mark.parametrize("n", [2.5, 0, -3, "3"])
    def test_rejects_bad_modulus(self, trefoil, n):
        # Unchecked, 2.5 gave a coloring with float values and 0 raised
        # ZeroDivisionError.
        l2, prov = multiplex(trefoil, 2)
        zeros = (0,) * build_system(trefoil, ColoringMode.VIRTUAL_FOX).n_unknowns
        with pytest.raises(BadModulus):
            psi(trefoil, Coloring(zeros, n), l2, prov)

    def test_rejects_a_provenance_that_does_not_fit(self, trefoil):
        l2, prov = multiplex(trefoil, 2)
        zero = Coloring((0,) * build_system(trefoil, ColoringMode.VIRTUAL_FOX).n_unknowns, 3)
        off_gap = dict(prov.edge_map)
        off_gap[(0, 1)] = (0, len(l2.components[0]))
        l3, prov3 = multiplex(trefoil, 3)
        bad = [
            (l2, None),
            (l2, "x"),
            (trefoil, prov),  # the source where its multiplex belongs
            (l2, replace(prov, edge_map=off_gap)),
            (l3, prov3),
        ]
        for target, p in bad:
            with pytest.raises(MissingProvenance):
                psi(trefoil, zero, target, p)
            with pytest.raises(MissingProvenance):
                build_system(target, ColoringMode.CONSTRAINED, p)

    def test_rejects_the_provenance_of_another_source(self, trefoil):
        l2, prov = multiplex(catalog.diagram("kink"), 2)
        zero = Coloring((0,) * build_system(trefoil, ColoringMode.VIRTUAL_FOX).n_unknowns, 3)
        with pytest.raises(MissingProvenance):
            psi(trefoil, zero, l2, prov)

    @pytest.mark.parametrize("name", ["unknot", "kink", "trefoil", "vtrefoil"])
    def test_bijection(self, name):
        d = catalog.diagram(name)
        l2, prov = multiplex(d, 2)
        vsys = build_system(d, ColoringMode.VIRTUAL_FOX)
        csys = build_system(l2, ColoringMode.CONSTRAINED, prov)
        n = 3
        sols = enumerate_colorings(vsys, n)
        images = [psi(d, c, l2, prov, csys) for c in sols]
        assert all(is_solution(csys, im) for im in images)
        assert len({im.values for im in images}) == len(images)
        assert len(images) == count_colorings(csys, n)

    def test_verify_reports_an_image_outside_the_constrained_set(self, trefoil, monkeypatch):
        # A faulty pairing map that shifts one arc of every image, and like
        # psi raises when handed a system its image violates.
        def shifted_psi(d, col, l2, prov, system=None):
            out = psi(d, col, l2, prov)
            out = Coloring(((out.values[0] + 1) % out.modulus, *out.values[1:]), out.modulus)
            if system is not None and not is_solution(system, out):
                raise InvalidColoring("pairing map image violates the constrained system")
            return out

        monkeypatch.setattr(verify, "psi", shifted_psi)
        (result,) = verify.verify_theorems(
            names=["trefoil"], r_range=(), n_range=(3,), theorems=("colorings",)
        ).results
        assert not result.ok
        assert result.detail == "n=3: pairing image leaves the constrained set"


def test_import_leaves_numpy_unloaded():
    src = Path(multivirt.__file__).resolve().parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import multivirt; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
