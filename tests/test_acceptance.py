"""Acceptance suite: every release-gating property, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  All tolerances are exact integer equalities.
"""

import pytest

from multivirt import catalog
from multivirt.colorings import (
    ColoringMode,
    build_system,
    count_colorings,
    enumerate_colorings,
    is_solution,
    psi,
)
from multivirt.constructions import covering, extract_component, multiplex
from multivirt.errors import TooLarge
from multivirt.invariants import (
    index_defect,
    ith_n_writhes,
    linking_and_lambda,
    n_writhes,
)
from multivirt.model import canonical_form, parse_vgc
from multivirt.moves import MOVE_KINDS, apply_move, find_moves, random_walk
from multivirt.planar import genus

R_RANGE = (2, 3, 4, 5)
N_RANGE = tuple(range(2, 10))
ENUM_LIMIT = 10**6
NONFU = tuple(k for k in MOVE_KINDS if k != "FU")

_mux_cache: dict[tuple[str, int], tuple] = {}


def _mux(name: str, r: int):
    key = (name, r)
    if key not in _mux_cache:
        _mux_cache[key] = multiplex(catalog.diagram(name), r)
    return _mux_cache[key]


def _report(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_c1_structural_counts():
    """Tile census: r real + r^2-r virtual per source real crossing,
    r^2+2r-2 virtual per source virtual crossing, exactly."""
    for name in catalog.KNOT_NAMES:
        d = catalog.diagram(name)
        for r in R_RANGE:
            out, prov = _mux(name, r)
            assert out.n_components() == r
            assert out.n_real() == r * d.n_real()
            assert out.n_virtual() == (r * r - r) * d.n_real() + (
                r * r + 2 * r - 2
            ) * d.n_virtual()
            census = prov.tile_census()
            for cid, rec in d.crossings.items():
                got = census.get(cid, {"diag": 0, "off": 0, "shift": 0})
                if rec.virtual:
                    assert got == {"diag": 0, "off": r * r, "shift": 2 * (r - 1)}
                else:
                    assert got == {"diag": r, "off": r * r - r, "shift": 0}
    _report("C1", f"structural counts exact for {len(catalog.KNOT_NAMES)} knots, r in {R_RANGE}")


def test_c2_linking_equals_writhe_congruence_sums():
    """lk(K_i, K_j) of the multiplex equals the sum of J_n over n = i-j (mod r),
    computed by independent code paths; this also pins the braid orientation."""
    checked = 0
    for name in catalog.KNOT_NAMES:
        J = n_writhes(catalog.diagram(name))
        for r in R_RANGE:
            out, _ = _mux(name, r)
            rep = linking_and_lambda(out)
            for i in range(r):
                for j in range(r):
                    if i == j:
                        continue
                    want = sum(v for n, v in J.entries.items() if (n - (i - j)) % r == 0)
                    assert rep.lk[i][j] == want, (name, r, i + 1, j + 1)
                    checked += 1
            assert all(v == 0 for v in rep.lam), (name, r)
    _report("C2", f"{checked} linking numbers match the congruence sums exactly")


def test_c3_component_writhe_tables():
    """Component writhe tables of the multiplex equal the source table on
    multiples of r and vanish at every other nonzero index."""
    checked = 0
    for name in catalog.KNOT_NAMES:
        J = n_writhes(catalog.diagram(name))
        for r in R_RANGE:
            out, _ = _mux(name, r)
            for i in range(1, r + 1):
                table = ith_n_writhes(out, i).table
                support = (set(table.entries) | set(J.entries)) - {0}
                for n in support:
                    want = J.entries.get(n, 0) if n % r == 0 else 0
                    assert table.entries.get(n, 0) == want, (name, r, i, n)
                    checked += 1
    _report("C3", f"{checked} table entries match across components and r in {R_RANGE}")


def test_c4_components_equal_coverings():
    """Every extracted component of the multiplex is the r-fold covering of the
    source, as exact canonical strings."""
    for name in catalog.KNOT_NAMES:
        d = catalog.diagram(name)
        for r in R_RANGE:
            out, _ = _mux(name, r)
            want = canonical_form(covering(d, r))
            for i in range(1, r + 1):
                assert canonical_form(extract_component(out, i)) == want, (name, r, i)
    _report("C4", f"component/covering canonical forms identical for r in {R_RANGE}")


def test_c5_virtual_vs_constrained_colorings():
    """Virtual coloring counts of the source equal constrained coloring counts
    of the 2-fold multiplex for n in 2..9, re-confirmed by brute force within
    the search budget; the pairing map is injective into the constrained set."""
    enumerated = 0
    for name in catalog.KNOT_NAMES:
        d = catalog.diagram(name)
        l2, prov = _mux(name, 2)
        vsys = build_system(d, ColoringMode.VIRTUAL_FOX)
        csys = build_system(l2, ColoringMode.CONSTRAINED, prov)
        for n in N_RANGE:
            a = count_colorings(vsys, n)
            assert a == count_colorings(csys, n), (name, n)
            try:
                sols = enumerate_colorings(vsys, n, ENUM_LIMIT)
            except TooLarge:
                continue
            assert len(sols) == a, (name, n)
            images = [psi(d, c, l2, prov) for c in sols]
            assert len({im.values for im in images}) == len(images), (name, n)
            assert all(is_solution(csys, im) for im in images)
            try:
                assert len(enumerate_colorings(csys, n, ENUM_LIMIT)) == len(images)
            except TooLarge:
                pass
            enumerated += 1
    _report("C5", f"counts equal for n in {N_RANGE}; {enumerated} cases re-enumerated")


def test_c6_index_identity_on_planar_diagrams():
    """ind + ind_v = 0 at every real self-crossing of every genus-0 diagram the
    suite touches, including all multiplex outputs."""
    checked = 0
    for name in catalog.names():
        d = catalog.diagram(name)
        assert genus(d) == 0 and index_defect(d) == 0, name
        checked += 1
    for name in catalog.KNOT_NAMES:
        for r in R_RANGE:
            out, _ = _mux(name, r)
            assert index_defect(out) == 0, (name, r)
            checked += 1
    for name in ("trefoil", "vtrefoil", "kishino", "vhopf"):
        d = catalog.diagram(name)
        for seed in range(3):
            out, _ = random_walk(d, 10, seed, NONFU, size_cap=20)
            assert genus(out) == 0 and index_defect(out) == 0, (name, seed)
            checked += 1
    _report("C6", f"identity holds on {checked} diagrams")


def _invariant_bundle(d):
    rep = linking_and_lambda(d)
    jn = n_writhes(d).entries if d.n_components() == 1 else None
    jni = []
    for i in range(1, d.n_components() + 1):
        cw = ith_n_writhes(d, i)
        jni.append(
            (
                {n: v for n, v in cw.table.entries.items() if n not in (0, cw.lambda_i)},
                cw.lambda_i,
            )
        )
    fox = build_system(d, ColoringMode.FOX)
    vfox = build_system(d, ColoringMode.VIRTUAL_FOX)
    return (
        jn,
        tuple(jni),
        rep.lk,
        rep.lam,
        tuple(count_colorings(fox, n) for n in range(2, 7)),
        tuple(count_colorings(vfox, n) for n in range(2, 7)),
    )


def test_c7_move_invariance_fuzzing():
    """At least 1000 seeded random-walk trials across the catalog; writhe
    tables, linking, lambda, coloring counts (n <= 6) and genus 0 survive
    every trial with zero violations."""
    names = catalog.names()
    per_fixture = -(-1000 // len(names))  # ceil
    trials = 0
    for name in names:
        d = catalog.diagram(name)
        base = _invariant_bundle(d)
        for seed in range(per_fixture):
            out, _ = random_walk(d, 12, seed, NONFU, size_cap=20)
            assert genus(out) == 0, (name, seed)
            assert _invariant_bundle(out) == base, (name, seed)
            trials += 1
    assert trials >= 1000
    _report("C7", f"{trials} trials, zero violations")


def test_c8_underpass_slide_preserves_virtual_counts():
    """Wherever the underpass slide is detectable on catalog diagrams (and on
    deterministic walk variants of them), it preserves virtual coloring counts
    for n in 2..6."""
    exercised = 0
    for name in catalog.names():
        d = catalog.diagram(name)
        variants = [d]
        for seed in range(4):
            variants.append(random_walk(d, 8, seed, NONFU, size_cap=18)[0])
        for v in variants:
            before = None
            for site in find_moves(v, {"FU"}):
                if before is None:
                    before = [
                        count_colorings(build_system(v, ColoringMode.VIRTUAL_FOX), n)
                        for n in range(2, 7)
                    ]
                out = apply_move(v, site)
                after = [
                    count_colorings(build_system(out, ColoringMode.VIRTUAL_FOX), n)
                    for n in range(2, 7)
                ]
                assert after == before, (name, site)
                exercised += 1
    assert exercised > 0
    _report("C8", f"{exercised} underpass slides preserved the counts")


def test_c9_known_small_values():
    """Frozen regression values, each confirmed by the brute-force oracle."""
    tre = catalog.diagram("trefoil")
    fox = build_system(tre, ColoringMode.FOX)
    assert len(enumerate_colorings(fox, 3)) == 9
    assert len(enumerate_colorings(fox, 2)) == 2
    assert count_colorings(fox, 3) == 9
    assert count_colorings(fox, 2) == 2

    unknot = catalog.diagram("unknot")
    l2, prov = _mux("unknot", 2)
    for n in (2, 3, 5, 7):
        for sys_ in (
            build_system(unknot, ColoringMode.FOX),
            build_system(unknot, ColoringMode.VIRTUAL_FOX),
            build_system(l2, ColoringMode.CONSTRAINED, prov),
        ):
            assert count_colorings(sys_, n) == n
            assert len(enumerate_colorings(sys_, n)) == n

    vt = catalog.diagram("vtrefoil")
    assert n_writhes(vt).entries == {1: 1, -1: 1}

    rep = linking_and_lambda(catalog.diagram("vhopf"))
    assert rep.lam == (-1, 1)
    _report("C9", "trefoil/unknot counts, writhe table, lambda frozen and oracle-confirmed")
