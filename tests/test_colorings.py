import random
import subprocess
import sys
from dataclasses import replace
from functools import cache
from itertools import combinations, product
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JUNK, diagrams
import multivirt
from multivirt import catalog, verify
from multivirt.colorings import (
    Coloring,
    ColoringMode,
    ColoringSystem,
    _eliminate_unit_pivots,
    _merge_unit_pairs,
    build_system,
    count_colorings,
    enumerate_colorings,
    is_solution,
    pairing_map,
    psi,
    smith_normal_form,
)
from multivirt.constructions import multiplex
from multivirt.errors import (
    BadMatrix,
    BadModulus,
    InvalidColoring,
    MissingProvenance,
    MultivirtError,
    NotAKnot,
    TooLarge,
    ValidationError,
)
from multivirt.model import Granularity, Role, Segments, parse_vgc, segments
from multivirt.moves import random_walk


# The passages at which each granularity cuts a component into pieces.
_CUT_ROLES = {
    Granularity.EDGE: {Role.OVER, Role.UNDER, Role.THROUGH},
    Granularity.ARC: {Role.UNDER},
    Granularity.VIRTUAL_ARC: {Role.UNDER, Role.THROUGH},
}


def _walking_oracle(d, cut_roles):
    """Number the pieces of `d` cut at `cut_roles` without `segments`: by
    component, then by cut passage, a component with no cut being one closed
    piece.  Return the numbering, keyed by (component, cut passage or None),
    and `piece_before(ci, i)`, the piece running along the edge that enters
    passage i, found by walking back along the component to the nearest cut."""
    number: dict[tuple[int, int | None], int] = {}
    for ci, comp in enumerate(d.components):
        cuts = [i for i, p in enumerate(comp) if p.role in cut_roles]
        for i in cuts or [None]:
            number[(ci, i)] = len(number)

    def piece_before(ci: int, i: int) -> int:
        comp = d.components[ci]
        for back in range(1, len(comp) + 1):
            j = (i - back) % len(comp)
            if comp[j].role in cut_roles:
                return number[(ci, j)]
        return number[(ci, None)]

    return number, piece_before


def _assert_gaps_match_walking_oracle(d):
    """At every granularity, every gap of `d` lies in the oracle's piece: gap
    g runs along the edge that enters passage g + 1, and the one gap of a
    crossing-free circle lies in its closed piece."""
    for gran, cut_roles in _CUT_ROLES.items():
        segs = segments(d, gran)
        number, piece_before = _walking_oracle(d, cut_roles)
        assert len(segs) == len(number)
        for ci, comp in enumerate(d.components):
            for g in range(len(comp)) or (None,):
                want = piece_before(ci, (g + 1) % len(comp)) if comp else number[(ci, None)]
                assert segs.of_gap[ci][g or 0] == want


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
        gran = Granularity.VIRTUAL_ARC if mode is ColoringMode.VIRTUAL_FOX else Granularity.ARC
        number, piece_before = _walking_oracle(d, _CUT_ROLES[gran])

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

    @settings(max_examples=150, deadline=None)
    @given(d=diagrams())
    def test_gaps_match_walking_oracle(self, d):
        _assert_gaps_match_walking_oracle(d)

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("name", catalog.KNOT_NAMES)
    def test_multiplex_gaps_match_walking_oracle(self, name, r):
        _assert_gaps_match_walking_oracle(multiplex(catalog.diagram(name), r)[0])


def _det(m: list[list[int]]) -> int:
    """Exact determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * v * _det([r[:j] + r[j + 1 :] for r in m[1:]]) for j, v in enumerate(m[0]) if v
    )


@st.composite
def small_matrices(draw):
    """Integer matrices of 1..5 rows and 1..5 columns with entries in +-40.
    One draw in three is a product through fewer inner columns than
    min(rows, cols), so it is rank-deficient."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.integers(0, 2)):
        row = st.lists(st.integers(-40, 40), min_size=nc, max_size=nc)
        return draw(st.lists(row, min_size=nr, max_size=nr))
    k = draw(st.integers(0, min(nr, nc) - 1))
    # |entry| <= k * 2 * 5 <= 40
    a = [[draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(nr)]
    b = [[draw(st.integers(-5, 5)) for _ in range(nc)] for _ in range(k)]
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(nc)] for i in range(nr)]


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

    @given(small_matrices())
    @example([[7]])  # a prime last divisor
    @example([[0, 11], [13, 0]])  # (1, 143): coprime to small moduli
    @example([[2, 4, 6], [4, 8, 12]])  # rank 1, wide
    @example([[0, 0], [0, 0], [0, 0]])  # rank 0, tall
    @settings(max_examples=300, deadline=None)
    def test_divisors_match_the_gcds_of_minors(self, mat):
        """The definition of the Smith diagonal: d_1 | d_2 | ... with
        d_1 * ... * d_k equal to D_k, the gcd of all k x k minors (0 when
        every such minor vanishes), for every k up to min(rows, cols)."""
        s = smith_normal_form(mat)
        nr, nc = len(mat), len(mat[0])
        assert len(s.diagonal) == min(nr, nc)
        assert all(d >= 0 for d in s.diagonal)
        assert all(b % a == 0 if a else b == 0 for a, b in zip(s.diagonal, s.diagonal[1:]))
        assert s.rank == sum(1 for d in s.diagonal if d)
        for k in range(1, min(nr, nc) + 1):
            minors = (
                _det([[mat[i][j] for j in cols] for i in rows])
                for rows in combinations(range(nr), k)
                for cols in combinations(range(nc), k)
            )
            assert prod(s.diagonal[:k]) == gcd(*minors)

    @pytest.mark.parametrize(
        "shape", [(8, 8), (7, 11), (11, 7), (10, 10)], ids=["8x8", "7x11", "11x7", "10x10"]
    )
    def test_matches_sympy_on_mid_size_matrices(self, shape):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(repr(shape))
        nr, nc = shape
        full = [[rng.randint(-40, 40) for _ in range(nc)] for _ in range(nr)]
        # A product through 4 inner rows scaled by 1, 1, 7 and 77 has rank <= 4
        # and divisors other than 1 and 0.
        a = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(nr)]
        b = [[s * rng.randint(-3, 3) for _ in range(nc)] for s in (1, 1, 7, 77)]
        low = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        for mat in (full, low):
            theirs = sympy_snf(sympy.Matrix(mat), domain=sympy.ZZ)
            want = sorted(abs(int(theirs[i, i])) for i in range(min(nr, nc)))
            assert sorted(smith_normal_form(mat).diagonal) == want


def _system(rows, n_cols: int) -> ColoringSystem:
    """A system with the given sparse rows over n_cols placeholder unknowns."""
    return ColoringSystem(
        ColoringMode.FOX, Segments(Granularity.ARC, (), n_cols), tuple(rows)
    )


# Unknown 0 of none (count 1/3 and one empty coloring), unknown 5 of one
# (IndexError) and unknown -1 (silently the last column of `matrix()`).
@pytest.mark.parametrize(
    "rows, n_cols", [([((0, 1),)], 0), ([((5, 1),)], 1), ([(), ((-1, 2),)], 2)]
)
def test_rows_naming_an_unknown_outside_the_system_rejected(rows, n_cols):
    with pytest.raises(BadMatrix, match=rf"range\({n_cols}\)"):
        _system(rows, n_cols)


# Unchecked, the repeated unknown was counted as two relations by the sparse
# phase (2 solutions mod 2) and read as 2 x_0 by `enumerate_colorings` and
# `is_solution` (4); the float was counted by the sparse phase but refused by
# the dense form of `matrix()`; (0,) raised a bare TypeError.
@pytest.mark.parametrize(
    "row",
    [((0, 1), (0, 1)), ((1, 1), (0, 1)), ((0, 1.0),), ((0, 0),), ((0, "1"),), (0,), [(0, 1)]],
    ids=["repeated", "decreasing", "float", "zero", "string", "not-a-pair", "list"],
)
def test_rows_out_of_sparse_form_rejected(row):
    with pytest.raises(BadMatrix):
        _system([row], 2)


# Unchecked, None raised AttributeError and the string was taken as a mode.
@pytest.mark.parametrize(
    "mode, unknowns",
    [(ColoringMode.FOX, None), ("fox", Segments(Granularity.ARC, (), 0))],
    ids=["unknowns-None", "mode-string"],
)
def test_system_of_wrong_kinds_rejected(mode, unknowns):
    with pytest.raises(ValidationError):
        ColoringSystem(mode, unknowns, ())


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


@st.composite
def pairing_heavy_rows(draw, max_cols=8):
    """Mostly two-entry +-1 rows over few unknowns, so that pairs repeat and
    close cycles of both signs, mixed with a few three-entry rows."""
    n_cols = draw(st.integers(3, max_cols))
    col = st.integers(0, n_cols - 1)
    unit = st.sampled_from((1, -1))
    pair = st.tuples(col, unit, col, unit).filter(lambda t: t[0] != t[2])
    triple = st.dictionaries(col, st.sampled_from((1, -1, 2, -2, 3)), min_size=3, max_size=3)
    rows = [tuple(sorted([(i, a), (j, b)])) for i, a, j, b in draw(st.lists(pair, max_size=14))]
    rows += [tuple(sorted(r.items())) for r in draw(st.lists(triple, max_size=3))]
    return draw(st.permutations(rows)), n_cols


class TestSparseSNF:
    """The three-phase `ColoringSystem.snf` against the dense form on the whole matrix."""

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

    @given(pairing_heavy_rows())
    @example(([((0, 1), (1, 1)), ((0, 1), (1, -1))], 3))  # an odd cycle: divisors 1, 2
    @example(([((0, 1), (1, 1)), ((1, 1), (2, 1)), ((0, 1), (2, -1))], 3))  # a redundant row
    @example(([((0, 1), (1, 1), (2, -2)), ((0, 1), (2, 1))], 3))  # a crossing row left with two
    @settings(max_examples=300, deadline=None)
    def test_pairing_heavy_rows_match_dense(self, case):
        rows, n_cols = case
        sys_ = _system(rows, n_cols)
        assert sys_.snf() == smith_normal_form(sys_.matrix())

    def test_kink_walk_state_merges_its_pairing_rows(self):
        """The constrained system on which pivoting in row order filled the
        rows in: the merge takes 62 unknowns, and 84 rows are left."""
        end, _ = random_walk(catalog.diagram("kink"), 60, 0)
        L, prov = multiplex(end, 2)
        sys_ = build_system(L, ColoringMode.CONSTRAINED, prov)
        assert (len(sys_.rows), sys_.n_unknowns) == (230, 104)
        merged, rest = _merge_unit_pairs(sys_.rows, sys_.n_unknowns)
        assert (merged, len(rest)) == (62, 84)
        assert sys_.snf() == smith_normal_form(sys_.matrix())

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

    @given(unit_heavy_rows())
    @example(([((0, 2), (1, 3)), ((0, 1), (1, 1))], 2))  # a unit appears in row 0 only later
    @settings(max_examples=300, deadline=None)
    def test_residual_has_no_unit_entry(self, case):
        rows, n_cols = case
        _, residual = _eliminate_unit_pivots(_system(rows, n_cols).rows)
        assert not any(c in (1, -1) for r in residual for c in r)

    @pytest.mark.parametrize("name", catalog.KNOT_NAMES)
    def test_catalog_residuals_have_no_unit_entry(self, name):
        systems = []
        for r in (2, 3, 4):
            L, prov = multiplex(catalog.diagram(name), r)
            systems += [build_system(L, m) for m in (ColoringMode.FOX, ColoringMode.VIRTUAL_FOX)]
            if r == 2:
                systems.append(build_system(L, ColoringMode.CONSTRAINED, prov))
        for sys_ in systems:
            _, residual = _eliminate_unit_pivots(sys_.rows)
            assert not any(c in (1, -1) for r in residual for c in r)

    def test_residual_shapes_on_the_ladder(self):
        """Rows x columns of the residual on the ladder systems, the same for
        fox and virtual ones: the shapes the Markowitz-ordered elimination
        left, which the first-in-first-out pass keeps."""
        want = {
            ("asym3", 2): (0, 0), ("asym3", 3): (3, 3), ("asym3", 4): (4, 4),
            ("index2", 2): (0, 0), ("index2", 3): (3, 3), ("index2", 4): (4, 4),
        }  # fmt: skip
        for (name, r), shape in want.items():
            L, _ = multiplex(catalog.diagram(name), r)
            for mode in (ColoringMode.FOX, ColoringMode.VIRTUAL_FOX):
                _, residual = _eliminate_unit_pivots(build_system(L, mode).rows)
                assert (len(residual), len(residual[0]) if residual else 0) == shape, (name, r, mode)

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


def _enumerate_oracle(sys_: ColoringSystem, n: int) -> list[Coloring]:
    """Every one of the n^k assignments tried in int64 chunks through numpy,
    kept in index order (x_{k-1} varies slowest): the numpy brute force that
    `enumerate_colorings` used before its pruned search."""
    np = pytest.importorskip("numpy")
    k = sys_.n_unknowns
    total = n**k
    if k == 0:
        return [Coloring((), n)]
    A = np.array(sys_.matrix(), dtype=np.int64).T if sys_.rows else None
    out: list[Coloring] = []
    powers = n ** np.arange(k, dtype=np.int64)
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        X = (idx[:, None] // powers[None, :]) % n
        if A is None:
            good = np.ones(len(idx), dtype=bool)
        else:
            good = ((X @ A) % n == 0).all(axis=1)
        for rowv in X[good]:
            out.append(Coloring(tuple(int(v) for v in rowv), n))
    return out


def _assert_enumeration_pinned(sys_: ColoringSystem) -> None:
    """Same solutions in the same order as the numpy oracle, for n = 1..9
    wherever n^k <= 10**6."""
    for n in range(1, 10):
        if n**sys_.n_unknowns <= 10**6:
            assert enumerate_colorings(sys_, n) == _enumerate_oracle(sys_, n), n


class TestEnumerationMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(d=diagrams())
    def test_random_diagrams(self, d):
        for mode in (ColoringMode.FOX, ColoringMode.VIRTUAL_FOX):
            _assert_enumeration_pinned(build_system(d, mode))

    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog(self, name):
        d = catalog.diagram(name)
        for mode in (ColoringMode.FOX, ColoringMode.VIRTUAL_FOX):
            _assert_enumeration_pinned(build_system(d, mode))
        if d.n_components() == 1:
            l2, prov = multiplex(d, 2)
            _assert_enumeration_pinned(build_system(l2, ColoringMode.CONSTRAINED, prov))

    @pytest.mark.parametrize("name", catalog.names())
    def test_walk_states(self, name):
        for seed in range(2):
            end, _ = random_walk(catalog.diagram(name), 60, seed)
            for mode in (ColoringMode.FOX, ColoringMode.VIRTUAL_FOX):
                _assert_enumeration_pinned(build_system(end, mode))

    def test_asym3_multiplex(self):
        L, _ = multiplex(catalog.diagram("asym3"), 4)
        _assert_enumeration_pinned(build_system(L, ColoringMode.FOX))
        sys_ = build_system(L, ColoringMode.VIRTUAL_FOX)
        assert sys_.n_unknowns > 600  # only n = 1 fits, one level per unknown
        _assert_enumeration_pinned(sys_)


def _pruned_enumerate_oracle(sys_: ColoringSystem, n: int) -> list[Coloring]:
    """The pruned search that `enumerate_colorings` ran before it solved each
    due unknown from one row: every surviving partial assignment is extended
    by 0..n-1, and a relation is tested as soon as its lowest unknown has a
    value."""
    due: dict[int, list[tuple[tuple[int, int], ...]]] = {}
    for r in sys_.rows:
        if r:
            due.setdefault(r[0][0], []).append(r)
    found: list[tuple[int, ...]] = [()]
    for j in reversed(range(sys_.n_unknowns)):
        rows = due.get(j, ())
        found = [
            t
            for p in found
            for v in range(n)
            for t in [(v, *p)]
            if all(sum(c * t[i - j] for i, c in r) % n == 0 for r in rows)
        ]
    return [Coloring(t, n) for t in found]


# Leads that are no unit mod n (2 at even n, 3 at n = 6 and 9), multiples of
# n (18 at n = 1, 2, 3, 6, 9; 36 at 4 more), negative, or above n.
_LEAD_POOL = (1, -1, 2, -2, 3, -3, 4, 6, -6, 9, 10, -11, 18, -18, 36)


@st.composite
def sparse_systems(draw, max_cols=5, max_rows=6):
    """Sparse rows over few unknowns, so that several rows often share their
    lowest unknown; leads from `_LEAD_POOL`, other entries small, empty rows
    and k = 0 included."""
    n_cols = draw(st.integers(0, max_cols))
    if not n_cols:
        return [()] * draw(st.integers(0, 2)), 0
    lead = st.integers(0, n_cols - 1)
    tail = st.sampled_from((1, -1, 2, -2, 3, 5, -9))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if draw(st.integers(0, 5)) == 0:
            rows.append(())
            continue
        j = draw(lead)
        rest = draw(st.dictionaries(st.integers(j + 1, n_cols), tail, max_size=3))
        rest.pop(n_cols, None)  # so that a lead on the last unknown can stand alone
        rows.append(((j, draw(st.sampled_from(_LEAD_POOL))), *sorted(rest.items())))
    return rows, n_cols


@settings(max_examples=100, deadline=None)
@given(case=sparse_systems())
@example(case=([((0, 2), (1, 1)), ((1, 3), (2, -1))], 3))  # leads that are no units
@example(case=([((0, 18), (1, 1)), ((1, -6), (2, 2)), ((2, 11),)], 3))  # multiple, negative, above
@example(case=([((0, 2), (1, 1)), ((0, 3), (2, 1)), ((0, 1), (1, 1), (2, 1))], 3))  # one unknown due
@example(case=([(), ((1, 4),), ()], 2))  # empty rows
@example(case=([(), ()], 0))  # k = 0
@example(case=([((0, 5), (1, -9))], 2))  # n = 1, as in every case
@example(case=([((0, 3), (1, 1)), ((0, 2), (2, 1)), ((0, 3), (1, 1)), ((0, 2), (2, 1))], 3))  # repeated rows
def test_enumeration_matches_the_pruned_oracle(case):
    """Same list in the same order as the pruned search, for n = 1..9
    wherever n^k <= 10**6."""
    rows, n_cols = case
    sys_ = _system(rows, n_cols)
    for n in range(1, 10):
        if n**n_cols <= 10**6:
            assert enumerate_colorings(sys_, n) == _pruned_enumerate_oracle(sys_, n), n


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

    # Unchecked, float values came back as a coloring of floats and string
    # values raised a bare TypeError.
    @pytest.mark.parametrize(
        "col",
        [
            None,
            (0, 0, 0),
            [0, 0, 0],
            Coloring((2.0, 1.0, 0.0), 3),
            Coloring(("2", "1", "0"), 3),
            Coloring([2, 1, 0], 3),
            Coloring(None, 3),
        ],
    )
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
            with pytest.raises(MissingProvenance):  # fitted before the source system is read
                pairing_map("x", target, p)
            with pytest.raises(MissingProvenance):
                build_system(target, ColoringMode.CONSTRAINED, p)

    def test_an_unhashable_gap_is_refused(self, trefoil):
        # Before, `build_system` and `psi` raised a bare TypeError:
        # unhashable type: 'list'.  A provenance refuses a list gap when it
        # is made; a 0-d array equals the int gap 1, so it is kept, but it
        # cannot be hashed.
        np = pytest.importorskip("numpy")
        l2, prov = multiplex(trefoil, 2)
        with pytest.raises(ValidationError, match="edge_map"):
            replace(prov, edge_map={**prov.edge_map, (0, 1): [0, 1]})
        zero = Coloring((0,) * build_system(trefoil, ColoringMode.VIRTUAL_FOX).n_unknowns, 3)
        arrayed = replace(prov, edge_map={**prov.edge_map, (0, 1): (0, np.array(1))})
        with pytest.raises(MissingProvenance):
            build_system(l2, ColoringMode.CONSTRAINED, arrayed)
        with pytest.raises(MissingProvenance):
            psi(trefoil, zero, l2, arrayed)

    def test_rejects_an_edge_map_without_both_copies_of_an_edge(self, trefoil):
        l2, prov = multiplex(trefoil, 2)
        vsys = build_system(trefoil, ColoringMode.VIRTUAL_FOX)
        short = replace(prov, edge_map={e: g for e, g in prov.edge_map.items() if e != (0, 2)})
        with pytest.raises(MissingProvenance, match="both copies of every source edge"):
            build_system(l2, ColoringMode.CONSTRAINED, short)
        with pytest.raises(MissingProvenance, match="both copies of every source edge"):
            pairing_map(vsys, l2, short)

    def test_rejects_an_edge_map_that_leaves_an_arc_uncovered(self):
        # A copy that alone covers an arc of the multiplex is moved onto the
        # gap of its twin.  The zero coloring gives both copies the value 0,
        # so only the arc left without a copy is wrong.
        d = catalog.diagram("kishino")
        l2, prov = multiplex(d, 2)
        arc_of = segments(l2, Granularity.ARC).of_gap
        covering = [arc_of[ci][g] for ci, g in prov.edge_map.values()]
        t, q = next(e for e, (ci, g) in prov.edge_map.items() if covering.count(arc_of[ci][g]) == 1)
        moved = replace(prov, edge_map={**prov.edge_map, (t, q): prov.edge_map[(t, 3 - q)]})
        vsys = build_system(d, ColoringMode.VIRTUAL_FOX)
        pair = pairing_map(vsys, l2, moved)
        with pytest.raises(InvalidColoring, match="left an arc of the multiplex unassigned"):
            pair(Coloring((0,) * vsys.n_unknowns, 3))

    def test_rejects_the_provenance_of_another_source(self, trefoil):
        l2, prov = multiplex(catalog.diagram("kink"), 2)
        zero = Coloring((0,) * build_system(trefoil, ColoringMode.VIRTUAL_FOX).n_unknowns, 3)
        with pytest.raises(MissingProvenance):
            psi(trefoil, zero, l2, prov)

    def test_rejects_a_source_that_is_not_a_knot(self):
        # This zero coloring of a two-component source came back as a
        # coloring of the multiplex of another diagram.
        with pytest.warns(UserWarning, match="abstract"):
            l2, prov = multiplex(parse_vgc("O1+ V2- U1+ V2-"), 2)
        link = parse_vgc("O1+ V2- ; U1+ V2-")
        with pytest.raises(NotAKnot):
            psi(link, Coloring((0, 0, 0), 3), l2, prov)
        with pytest.raises(NotAKnot):
            pairing_map(build_system(link, ColoringMode.VIRTUAL_FOX), l2, prov)
        with pytest.raises(ValidationError):
            psi(None, Coloring((0, 0, 0), 3), l2, prov)

    @pytest.mark.parametrize("name", ["unknot", "kink", "trefoil", "vtrefoil"])
    def test_bijection(self, name):
        d = catalog.diagram(name)
        l2, prov = multiplex(d, 2)
        vsys = build_system(d, ColoringMode.VIRTUAL_FOX)
        csys = build_system(l2, ColoringMode.CONSTRAINED, prov)
        n = 3
        sols = enumerate_colorings(vsys, n)
        images = [psi(d, c, l2, prov) for c in sols]
        assert all(is_solution(csys, im) for im in images)
        assert len({im.values for im in images}) == len(images)
        assert len(images) == count_colorings(csys, n)

    def test_verify_reports_an_image_outside_the_constrained_set(self, trefoil, monkeypatch):
        # A faulty pairing map that shifts one arc of every image.
        def shifted_map(vsys, l2, prov):
            pair = pairing_map(vsys, l2, prov)

            def shifted(col):
                out = pair(col)
                return Coloring(((out.values[0] + 1) % out.modulus, *out.values[1:]), out.modulus)

            return shifted

        monkeypatch.setattr(verify, "pairing_map", shifted_map)
        (result,) = verify.verify_theorems(
            names=["trefoil"], r_range=(), n_range=(3,), theorems=("colorings",)
        ).results
        assert not result.ok
        assert result.detail == "n=3: pairing image leaves the constrained set"


def test_wrong_kind_arguments_raise_validation_error(trefoil):
    # Each of these raised a bare AttributeError.
    l2, prov = multiplex(trefoil, 2)
    col = Coloring((0, 0, 0), 3)
    calls = [
        lambda: count_colorings(None, 3),
        lambda: enumerate_colorings("x", 3),
        lambda: build_system("x", ColoringMode.FOX),
        lambda: psi("x", col, l2, prov),
        lambda: psi(trefoil, col, "x", prov),
        lambda: pairing_map(trefoil, l2, prov),
        lambda: pairing_map(build_system(trefoil, ColoringMode.FOX), l2, prov),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def _moved_edge(prov, gap):
    """`prov` with the first copy of source edge 0 placed at `gap`."""
    return replace(prov, edge_map={**prov.edge_map, (0, 1): gap})


def _count_checked(segs: Segments) -> Segments:
    assert type(segs.n_pieces) is int and segs.n_pieces >= 0
    return segs


@cache
def _hostile_calls():
    """Per argument slot of a coloring export: a call that puts the junk in
    that slot of an otherwise valid call on the trefoil (or its 2-fold
    multiplex, mod 3, or a matrix of one or two rows), and the valid values
    of that slot that junk may equal."""
    d = parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+")
    l2, prov = multiplex(d, 2)
    vsys = build_system(d, ColoringMode.VIRTUAL_FOX)
    csys = build_system(l2, ColoringMode.CONSTRAINED, prov)
    col = enumerate_colorings(vsys, 3)[-1]
    zero = (0,) * vsys.n_unknowns
    arc, fox = Granularity.ARC, ColoringMode.FOX
    gaps = range(len(l2.components[0]))
    counts = range(1, 100)
    return {
        "segments-diagram": (lambda x: segments(x, arc), ()),
        "segments-granularity": (lambda x: _count_checked(segments(d, x)), list(Granularity)),
        "Segments-granularity": (lambda x: Segments(x, (), 0), list(Granularity)),
        "Segments-table": (lambda x: Segments(arc, x, 2), [(), ((0, 1),)]),
        "Segments-entry": (lambda x: Segments(arc, ((x, 0),), 2), (0, 1)),
        "Segments-count": (lambda x: _count_checked(Segments(arc, ((0, 1),), x)), range(2, 100)),
        "ColoringSystem-count": (
            lambda x: ColoringSystem(fox, Segments(arc, (), x), ()),
            range(100),
        ),
        "ColoringSystem-mode": (lambda x: ColoringSystem(x, vsys.unknowns, ()), list(ColoringMode)),
        "ColoringSystem-unknowns": (lambda x: ColoringSystem(fox, x, ()), ()),
        "ColoringSystem-rows": (lambda x: ColoringSystem(fox, vsys.unknowns, x), [()]),
        "ColoringSystem-unknown": (
            lambda x: ColoringSystem(fox, vsys.unknowns, (((x, 1),),)),
            range(3),
        ),
        "ColoringSystem-coefficient": (
            lambda x: ColoringSystem(fox, vsys.unknowns, (((0, x),),)),
            [c for c in range(-100, 100) if c],
        ),
        "build_system-diagram": (lambda x: build_system(x, fox), ()),
        "build_system-mode": (lambda x: build_system(d, x), [fox, ColoringMode.VIRTUAL_FOX]),
        "build_system-provenance": (lambda x: build_system(l2, ColoringMode.CONSTRAINED, x), ()),
        "build_system-gap": (
            lambda x: build_system(l2, ColoringMode.CONSTRAINED, _moved_edge(prov, (0, x))),
            gaps,
        ),
        "build_system-component": (
            lambda x: build_system(l2, ColoringMode.CONSTRAINED, _moved_edge(prov, (x, 1))),
            (0, 1),
        ),
        "build_system-edge": (
            lambda x: build_system(l2, ColoringMode.CONSTRAINED, _moved_edge(prov, x)),
            (),
        ),
        "psi-value": (
            lambda x: psi(d, Coloring((x, *col.values[1:]), 3), l2, prov),
            range(-100, 100),
        ),
        "psi-modulus": (lambda x: psi(d, Coloring(zero, x), l2, prov), counts),
        "psi-gap": (lambda x: psi(d, col, l2, _moved_edge(prov, (0, x))), gaps),
        "psi-component": (lambda x: psi(d, col, l2, _moved_edge(prov, (x, 1))), (0, 1)),
        "psi-edge": (lambda x: psi(d, col, l2, _moved_edge(prov, x)), ()),
        "ColoringSystem.to_json-moduli": (
            vsys.to_json,
            [list(ns) for k in range(3) for ns in product((1, 2), repeat=k)],
        ),
        "count_colorings-system": (lambda x: count_colorings(x, 3), ()),
        "count_colorings-modulus": (lambda x: count_colorings(csys, x), counts),
        "enumerate_colorings-system": (lambda x: enumerate_colorings(x, 3), ()),
        "enumerate_colorings-modulus": (lambda x: enumerate_colorings(vsys, x), counts),
        "enumerate_colorings-limit": (lambda x: enumerate_colorings(vsys, 3, x), range(-100, 100)),
        "smith_normal_form-matrix": (smith_normal_form, [[]]),
        "smith_normal_form-row": (
            lambda x: smith_normal_form([x, [0, 1]]),
            [[a, b] for a in range(3) for b in range(3)],
        ),
        "smith_normal_form-entry": (lambda x: smith_normal_form([[x, 1]]), range(-5, 41)),
    }


@pytest.mark.parametrize("slot", list(_hostile_calls()))
@settings(max_examples=40, deadline=None)
@given(junk=JUNK)
@example(junk=-1)
@example(junk=1.0)
@example(junk=True)
def test_coloring_exports_refuse_junk_or_read_it_as_its_equal(slot, junk):
    """Junk in any argument slot of a coloring export raises a MultivirtError
    or gives what the valid value that it equals gives.  Segments never holds
    a piece count that is negative or not an int."""
    call, valid = _hostile_calls()[slot]
    try:
        got = call(junk)
    except MultivirtError:
        return
    equal = [v for v in valid if v == junk]
    assert equal, f"{slot} accepted {junk!r}"
    assert got == call(equal[0])


def test_a_negative_piece_count_is_refused():
    with pytest.raises(ValidationError):
        ColoringSystem(ColoringMode.FOX, Segments(Granularity.ARC, (), -1), ())


# A list of rows was kept by reference: a row appended after the count had
# been taken left the trefoil's 3-colorings at 9, where the tuple counts 3.
def test_rows_that_could_change_after_the_check_are_refused():
    t = build_system(parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+"), ColoringMode.FOX)
    assert count_colorings(t, 3) == 9
    assert count_colorings(ColoringSystem(t.mode, t.unknowns, (*t.rows, ((0, 1),))), 3) == 3
    with pytest.raises(BadMatrix):
        ColoringSystem(t.mode, t.unknowns, list(t.rows))


def test_import_leaves_numpy_unloaded():
    src = Path(multivirt.__file__).resolve().parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import multivirt; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_coloring_path_leaves_numpy_unloaded():
    src = Path(multivirt.__file__).resolve().parents[1]
    code = f"""
import io, sys
from contextlib import redirect_stdout
sys.path.insert(0, {str(src)!r})
from multivirt import cli, verify
assert verify.verify_theorems(names=["trefoil"], r_range=(2,), n_range=(2, 3)).ok
with redirect_stdout(io.StringIO()):
    assert cli.main(["colorings", "--name", "trefoil", "-n", "3", "--enumerate"]) == 0
print("numpy" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
