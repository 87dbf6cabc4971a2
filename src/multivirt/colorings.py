"""Coloring relation systems, exact solution counting, and the pairing map.

Three kinds of integer relation systems over arc unknowns:

  fox          unknowns are arcs (cut at undercrossings); every real crossing
               contributes the row x + z - 2y = 0 built from the arc entering
               the undercrossing (x), the arc leaving it (z), and the arc
               carrying the overcrossing (y).
  virtual_fox  unknowns are virtual arcs (cut at undercrossings and virtual
               crossings); same real-crossing rows, plus two negation rows
               in + out = 0 per virtual crossing, one for each strand.
  constrained  unknowns are arcs of a 2-fold multiplexed diagram; same
               real-crossing rows, plus one pairing row alpha + alpha' = 0
               per source edge, linking the arcs that carry its two parallel
               copies (read off the multiplexing provenance).

The unknowns are the pieces of `model.segments` at the mode's granularity,
read off its gap table: the piece entering passage i of component ci is
`of_gap[ci][i - 1]` and the piece leaving it `of_gap[ci][i]`; a pairing row
and the pairing map take the pieces at the gaps that the provenance's edge
map names for the two copies of a source edge.

Each relation is stored sparsely, as (unknown, coefficient) pairs sorted by
unknown with zero coefficients dropped; a relation that cancels completely is
the empty tuple, so the row count never changes.

Solutions are counted modulo n exactly for every n >= 1: if the relation
matrix has Smith divisors d_1 | ... | d_k and q free unknowns, the count is
n^q * prod gcd(d_i, n).  The divisors come in three phases, after Dumas,
Saunders and Villard ("On efficient sparse integer matrix Smith normal form
computations", J. Symb. Comput. 2001):

  merge  a signed union-find over the two-entry +-1 rows (the negation and
         pairing rows) merges their unknowns, x_j = s_j x_root, one unit
         divisor per merge and no fill-in; a row closing a cycle cancels or
         leaves 2 x_root = 0, and every other row is rewritten on the roots;
  FIFO   elimination of +-1 pivots on the rows left, in one
         first-in-first-out pass that visits every row in index order and
         again whenever an elimination changes it;
  dense  `smith_normal_form` on the small residual that has no +-1 entry
         left: one loop that moves the smallest nonzero entry to the corner,
         clears its column and row, and starts over while a remainder is
         left or while the pivot does not divide the rest; otherwise the
         pivot is the next divisor and its row and column drop out.

The Smith diagonal is unique, d_1 ... d_k being the gcd of all k x k minors,
so any pivot order gives the same divisors, and the three phases give those
of the dense form on the whole matrix.  That dense form and an exhaustive
search are the independent oracles for the same counts.  The search assigns
the unknowns from the last to the first in exact integers, and a relation is
due at its lowest unknown.  A due unknown is solved from one due relation,
the one whose lead coefficient has the least gcd with n, which gives its
values as one arithmetic progression mod n; only those are tested against
the other relations due there.  An unknown with no due relation takes every
residue.  So the search lists the solutions in index order (x_{k-1} varies
slowest) without trying every one of the n^k assignments; n^k is still what
its `limit` bounds.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import gcd

from .constructions import Provenance
from .errors import (
    BadMatrix,
    BadModulus,
    InvalidColoring,
    MissingProvenance,
    NotAKnot,
    TooLarge,
    ValidationError,
    checked,
    iterated,
)
from .model import Diagram, Granularity, Segments, _fill, segments


class ColoringMode(Enum):
    FOX = "fox"
    VIRTUAL_FOX = "virtual"
    CONSTRAINED = "constrained"


@dataclass(frozen=True)
class ColoringSystem:
    """A relation system over the pieces of `unknowns`.  The public
    constructor raises BadMatrix unless the rows are a tuple and every row is
    a tuple of (unknown, nonzero integer) pairs with unknowns increasing in
    range(n_unknowns); `build_system` hands over the rows it writes through
    `_made`, unchecked."""

    mode: ColoringMode
    unknowns: Segments
    rows: tuple[tuple[tuple[int, int], ...], ...]  # sparse (unknown, coefficient) pairs

    def __post_init__(self) -> None:
        checked(self.mode, ColoringMode, ValidationError, "coloring mode")
        checked(self.unknowns, Segments, ValidationError, "unknowns")
        n = self.n_unknowns
        if type(self.rows) is not tuple:  # a list could change after the check
            raise BadMatrix(f"the rows must be a tuple, got {self.rows!r}")
        for r in self.rows:
            try:  # js is -1, the unknowns with a nonzero coefficient, then n
                js = [-1, *(operator.index(j) for j, c in r if operator.index(c)), n]
                ok = isinstance(r, tuple) and len(js) == len(r) + 2
                ok = ok and all(map(operator.lt, js, js[1:]))
            except (TypeError, ValueError):  # not a sequence of pairs, or not integers
                ok = False
            if not ok:
                raise BadMatrix(
                    "every row must be a tuple of (unknown, nonzero integer) pairs with "
                    f"unknowns increasing in range({n}), got {r!r}"
                )

    @classmethod
    def _made(cls, mode, unknowns, rows) -> ColoringSystem:
        """The rows that `build_system` has just written, kept without the check."""
        return _fill(object.__new__(cls), mode, unknowns, rows)

    @property
    def n_unknowns(self) -> int:
        return self.unknowns.n_pieces

    def matrix(self) -> list[list[int]]:
        """The dense relation matrix, one list of n_unknowns entries per row."""
        out = []
        for r in self.rows:
            dense = [0] * self.n_unknowns
            for j, c in r:
                dense[j] = c
            out.append(dense)
        return out

    def snf(self) -> "SNF":
        return self._snf

    @cached_property
    def _snf(self) -> "SNF":
        merged, rows = _merge_unit_pairs(self.rows, self.n_unknowns)
        units, residual = _eliminate_unit_pivots(rows)
        units += merged
        rest = smith_normal_form(residual)
        size = min(len(self.rows), self.n_unknowns)
        diagonal = (1,) * units + rest.diagonal[: rest.rank]
        return SNF(diagonal + (0,) * (size - len(diagonal)), units + rest.rank)

    def to_json(self, moduli: tuple[int, ...] = ()) -> dict:
        """The system's sizes, divisors and coloring counts modulo each of
        `moduli`.  Raises ValidationError unless `moduli` is an iterable
        other than a `str` or `bytes`, and BadModulus unless each modulus is
        an integer >= 1."""
        moduli = tuple(map(_modulus, iterated(moduli, "moduli", "ints")))
        s = self.snf()
        return {
            "mode": self.mode.value,
            "unknowns": self.n_unknowns,
            "rows": len(self.rows),
            "divisors": [d for d in s.diagonal if d],
            "count_mod_n": {str(n): count_colorings(self, n) for n in moduli},
        }


@dataclass(frozen=True)
class Coloring:
    """An assignment unknown index -> residue, satisfying its system mod n."""

    values: tuple[int, ...]
    modulus: int

    def __getitem__(self, k: int) -> int:
        return self.values[k]


@dataclass(frozen=True)
class SNF:
    diagonal: tuple[int, ...]
    rank: int


def build_system(
    d: Diagram,
    mode: ColoringMode,
    provenance: Provenance | None = None,
) -> ColoringSystem:
    """Assemble the relation system of `d` for the requested coloring mode."""
    d = checked(d, Diagram, ValidationError, "diagram")
    mode = checked(mode, ColoringMode, ValidationError, "coloring mode")
    gran = (
        Granularity.VIRTUAL_ARC if mode is ColoringMode.VIRTUAL_FOX else Granularity.ARC
    )
    segs = segments(d, gran)
    of_gap = segs.of_gap
    rows: list[tuple[tuple[int, int], ...]] = []

    def row(*coeffs: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        r: dict[int, int] = {}
        for idx, c in coeffs:
            r[idx] = r.get(idx, 0) + c
        return tuple(sorted((idx, c) for idx, c in r.items() if c))

    def plus(a: int, b: int) -> tuple[tuple[int, int], ...]:  # x_a + x_b = 0
        return ((a, 1), (b, 1)) if a < b else ((b, 1), (a, 1)) if b < a else ((a, 2),)

    for cid, rec in sorted(d.crossings.items()):
        if rec.virtual:
            if mode is ColoringMode.VIRTUAL_FOX:
                for ci, i in d._passage_index[cid]:
                    rows.append(plus(of_gap[ci][i - 1], of_gap[ci][i]))
            continue
        (co, io), (cu, iu) = d.real_positions(cid)
        rows.append(row((of_gap[cu][iu - 1], 1), (of_gap[cu][iu], 1), (of_gap[co][io - 1], -2)))

    if mode is ColoringMode.CONSTRAINED:
        edge_map = _fitted_provenance(provenance, d)
        for t in range(len(edge_map) // 2):
            (c1, g1), (c2, g2) = edge_map[(t, 1)], edge_map[(t, 2)]
            rows.append(plus(of_gap[c1][g1], of_gap[c2][g2]))

    return ColoringSystem._made(mode, segs, tuple(rows))


def _fitted_provenance(prov, l2: Diagram) -> dict[tuple[int, int], tuple[int, int]]:
    """Return the edge map of `prov` if it is the provenance of a 2-fold
    multiplex that places both copies of every source edge on a gap of `l2`;
    else raise MissingProvenance.  Each gap comes back as the int gap that it
    equals, 0 for a crossing-free circle, so that it indexes a gap table."""
    prov = checked(prov, Provenance, MissingProvenance, "multiplexing provenance")
    l2 = checked(l2, Diagram, ValidationError, "multiplex")
    if prov.r != 2:
        raise MissingProvenance("constrained colorings are defined on 2-fold multiplexes")
    if l2.n_components() != prov.r:
        raise MissingProvenance(
            f"provenance of a {prov.r}-fold multiplex given with {l2.n_components()} components"
        )
    n_edges = len(prov.edge_map) // 2
    if set(prov.edge_map) != {(t, q) for t in range(n_edges) for q in (1, 2)}:
        raise MissingProvenance("the edge map must place both copies of every source edge")
    comps = enumerate(l2.components)
    gaps = {(ci, g): (ci, g or 0) for ci, comp in comps for g in range(len(comp)) or (None,)}
    try:
        return {edge: gaps[gap] for edge, gap in prov.edge_map.items()}
    except (KeyError, TypeError):  # TypeError: an unhashable gap
        msg = "the edge map places an edge off the gaps of the multiplex"
        raise MissingProvenance(msg) from None


# -- exact counting ---------------------------------------------------------


def _merge_unit_pairs(
    rows: tuple[tuple[tuple[int, int], ...], ...], n: int
) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """Merge the unknowns of every two-entry +-1 row by a signed union-find;
    return how many merges were made and the other rows on the class roots.

    A row a x_i + b x_j with a, b = +-1 says x_j = -a b x_i.  Each class keeps
    its lowest unknown as root and every member j its sign s_j, so that
    x_j = s_j x_root; `find` halves the path it walks.  A row joining two
    classes is a unit pivot without fill-in: it adds one unit divisor and
    drops out with the column of the higher root.  Every other row, one that
    closes a cycle included, is rewritten onto the roots: signs are applied,
    entries on one root are added and zeros dropped, so a closing row cancels
    or leaves +-2 x_root.  The rewrite is a sequence of unimodular row and
    column operations, so the Smith diagonal is unchanged."""
    parent = list(range(n))
    sign = [1] * n

    def find(j: int) -> tuple[int, int]:
        s = 1
        while (p := parent[j]) != j:
            g = parent[p]
            sign[j] *= sign[p]  # x_j = sign[j] sign[p] x_g; a root's sign is 1
            parent[j] = g
            s *= sign[j]
            j = g
        return j, s

    merged = 0
    rest = []
    for r in rows:
        if len(r) == 2 and r[0][1] in (1, -1) and r[1][1] in (1, -1):
            (ri, si), (rj, sj) = find(r[0][0]), find(r[1][0])
            if ri != rj:  # a si x_ri + b sj x_rj = 0 ties the higher root to the lower
                lo, hi = (ri, rj) if ri < rj else (rj, ri)
                parent[hi] = lo
                sign[hi] = -r[0][1] * r[1][1] * si * sj
                merged += 1
                continue
        if r:
            rest.append(r)
    if not merged:
        return 0, rest
    # A parent is never above its child, so one ascending pass flattens every path.
    for j, p in enumerate(parent):
        if p != j:
            parent[j] = parent[p]
            sign[j] *= sign[p]
    out = []
    for r in rest:
        acc: dict[int, int] = {}
        for j, c in r:
            root = parent[j]
            acc[root] = acc.get(root, 0) + sign[j] * c
        if t := tuple((j, c) for j, c in acc.items() if c):
            out.append(t)
    return merged, out


def _eliminate_unit_pivots(
    rows: tuple[tuple[tuple[int, int], ...], ...],
) -> tuple[int, list[list[int]]]:
    """Eliminate +-1 pivots from sparse rows in one first-in-first-out pass;
    return how many were eliminated and the dense residual left over.

    Every nonzero row is visited once in index order, and again after an
    elimination changes it (a changed row already waiting in the queue keeps
    its place).  A visited row with a +-1 entry pivots on its first one: the
    pivot clears its column from the other rows by row operations, then its
    row by column operations, so it adds one unit divisor and drops out with
    its row and column.  A row without a +-1 entry is skipped until it
    changes; a row that becomes zero drops out.  The residual keeps the
    remaining nonzero rows and columns in their order, and none of its
    entries is +-1.  The Smith diagonal is unique, so the pivot order changes
    only the work and the residual, never the divisors."""
    live = {i: dict(r) for i, r in enumerate(rows) if r}
    col_rows: dict[int, set[int]] = {}
    for i, r in live.items():
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    queue = list(live)
    waiting = set(queue)
    units = 0
    for i in queue:  # also visits the rows appended while it runs
        waiting.discard(i)
        j = next((k for k, c in live.get(i, {}).items() if c in (1, -1)), None)
        if j is None:
            continue
        units += 1
        r = live.pop(i)
        for k in r:
            col_rows[k].discard(i)
        p = r.pop(j)
        for i2 in col_rows.pop(j):
            r2 = live[i2]
            f = r2.pop(j) * p  # p is its own inverse
            for k, c in r.items():
                if v := r2.get(k, 0) - f * c:
                    r2[k] = v
                    col_rows[k].add(i2)
                else:
                    del r2[k]
                    col_rows[k].discard(i2)
            if not r2:
                del live[i2]
            elif i2 not in waiting:
                waiting.add(i2)
                queue.append(i2)
    cols = sorted(k for k, rs in col_rows.items() if rs)
    return units, [[live[i].get(k, 0) for k in cols] for i in sorted(live)]


def smith_normal_form(mat: list[list[int]]) -> SNF:
    """Diagonalize an integer matrix by invertible row/column operations.

    Exact arbitrary-precision arithmetic throughout; returns the divisor
    chain d_1 | d_2 | ... padded with zeros to min(rows, cols).  Raises
    BadMatrix when the rows differ in length, the matrix or a row is a
    string, or an entry is not an integer (ints, bools and numpy integers
    are; floats and strings are not).

    One loop: the smallest nonzero entry moves to (0, 0) and clears its
    column by row operations and its row by column operations.  A remainder
    left behind is smaller than the pivot, so the loop starts over; a pivot
    that does not divide the rest of the matrix takes an offending row into
    the first row and starts over; otherwise |pivot| is the next divisor and
    its row and column drop out."""
    try:
        rows = list(mat)
        if isinstance(mat, (str, bytes)) or any(isinstance(r, (str, bytes)) for r in rows):
            raise TypeError("a string is no sequence of entries")
        m = [list(map(operator.index, r)) for r in rows]
    except TypeError as exc:
        raise BadMatrix(f"matrix entries must be integers: {exc}") from None
    nc = len(m[0]) if m else 0
    if any(len(r) != nc for r in m):
        raise BadMatrix(f"rows of unequal length {sorted({len(r) for r in m})}")
    size = min(len(m), nc)
    diag: list[int] = []
    while True:
        entries = [(abs(v), i, j) for i, r in enumerate(m) for j, v in enumerate(r) if v]
        if not entries:
            break
        _, i, j = min(entries)
        m[0], m[i] = m[i], m[0]
        for r in m:
            r[0], r[j] = r[j], r[0]
        top = m[0]
        p = top[0]
        for r in m[1:]:
            if q := r[0] // p:
                r[:] = [a - q * b for a, b in zip(r, top)]
        for j in range(1, len(top)):
            if q := top[j] // p:
                for r in m:
                    r[j] -= q * r[0]
        if any(r[0] for r in m[1:]) or any(top[1:]):
            continue
        bad = next((r for r in m[1:] if any(v % p for v in r)), None)
        if bad:
            m[0] = [a + b for a, b in zip(top, bad)]
            continue
        diag.append(abs(p))
        m = [r[1:] for r in m[1:]]
    return SNF(tuple(diag) + (0,) * (size - len(diag)), len(diag))


def _modulus(n) -> int:
    """`n` as an int if it is an integer >= 1; else raise BadModulus."""
    n = checked(n, int, BadModulus, "modulus")
    if n < 1:
        raise BadModulus(f"modulus must be >= 1, got {n}")
    return n


def count_colorings(sys: ColoringSystem, n: int) -> int:
    """Number of solutions of the relation system modulo n (exact, any n >= 1)."""
    sys = checked(sys, ColoringSystem, ValidationError, "coloring system")
    n = _modulus(n)
    s = sys.snf()
    count = n ** (sys.n_unknowns - s.rank)
    # The chain is positive and nondecreasing up to the rank, so its unit
    # divisors, each a factor 1, come first.
    for d in s.diagonal[bisect_right(s.diagonal, 1, 0, s.rank) : s.rank]:
        count *= gcd(d, n)
    return count


def enumerate_colorings(
    sys: ColoringSystem, n: int, limit: int = 10**6
) -> list[Coloring]:
    """All solutions mod n by exhaustive search (the independent oracle).

    Unknown k-1 gets its values first and unknown 0 last.  A relation is due
    at its lowest unknown, and a repeated one is filed once, where it first
    occurs (`build_system` writes some pairing rows more than once).  An
    unknown with no due relation extends every surviving partial assignment
    by 0..n-1.  Otherwise one due relation, the one whose lead coefficient c
    has the least g = gcd(c, n), is solved for it: with s the sum of its
    other terms, c v + s = 0 (mod n) has no solution unless g divides s, and
    else the n/g values v0, v0 + n/g, ... below n, v0 = -(s/g) (c/g)^-1 mod
    n/g; only those are tested against the other due relations.  The
    solutions come out in index order, x_{k-1} varying slowest.  Raises
    TooLarge when n^k exceeds `limit`, however few assignments the search
    itself visits."""
    sys = checked(sys, ColoringSystem, ValidationError, "coloring system")
    n = _modulus(n)
    limit = checked(limit, int, ValidationError, "limit")
    k = sys.n_unknowns
    if n**k > limit:
        raise TooLarge(f"{n}^{k} assignments exceed limit {limit}")
    due: dict[int, list[tuple[tuple[int, int], ...]]] = {}
    for r in dict.fromkeys(sys.rows):
        if r:
            due.setdefault(r[0][0], []).append(r)
    found: list[tuple[int, ...]] = [()]
    for j in reversed(range(k)):
        rows = due.get(j)
        if not rows:
            found = [(v, *p) for p in found for v in range(n)]
            continue
        # p holds x_{j+1}, x_{j+2}, ..., so unknown i > j is p[i - j - 1].
        lead = min(range(len(rows)), key=lambda q: gcd(rows[q][0][1], n))
        (_, c), *rest = rows[lead]
        g = gcd(c, n)
        step = n // g
        inv = pow(c // g, -1, step)
        others = rows[:lead] + rows[lead + 1 :]
        nxt = []
        for p in found:
            s = sum(ci * p[i - j - 1] for i, ci in rest)
            if s % g:
                continue
            for v in range(-(s // g) * inv % step, n, step):
                t = (v, *p)
                if all(sum(ci * t[i - j] for i, ci in r) % n == 0 for r in others):
                    nxt.append(t)
        found = nxt
    return [Coloring(t, n) for t in found]


def is_solution(sys: ColoringSystem, col: Coloring) -> bool:
    n, values = col.modulus, col.values
    return len(values) == sys.n_unknowns and all(
        sum(c * values[j] for j, c in r) % n == 0 for r in sys.rows
    )


# -- the pairing map --------------------------------------------------------

# Copies are numbered left to right across the strand direction, so the
# right-hand copy of an edge in a 2-fold multiplex is copy position 2.  The
# opposite choice would compose the map with global negation, which is also a
# bijection; one side has to be fixed.
_RIGHT_COPY = 2
_LEFT_COPY = 1


def psi(d: Diagram, col: Coloring, l2: Diagram, prov: Provenance) -> Coloring:
    """Send a virtual coloring of `d` to the constrained coloring of its 2-fold
    multiplex that puts the source value on the right copy of every edge and
    its negative on the left copy.  The map is built from the virtual-Fox
    system of `d`, as `pairing_map` takes it.  Raises NotAKnot unless `d` has
    one component."""
    return pairing_map(build_system(d, ColoringMode.VIRTUAL_FOX), l2, prov)(col)


def pairing_map(
    vsys: ColoringSystem, l2: Diagram, prov: Provenance
) -> Callable[[Coloring], Coloring]:
    """`psi` for one source and multiplex, as a function of the coloring,
    built from `vsys`, the virtual-Fox system of the source.

    The provenance is fitted first.  Raises ValidationError unless `vsys` is
    a virtual-Fox `ColoringSystem`, and NotAKnot unless its source has one
    component.  The arcs of `l2` and the arcs carrying the two copies of
    every source edge are read once, when the map is made; every call still
    checks that its coloring solves `vsys` and that the image is consistent
    and covers every arc."""
    edge_map = _fitted_provenance(prov, l2)
    vsys = checked(vsys, ColoringSystem, ValidationError, "source system")
    if vsys.mode is not ColoringMode.VIRTUAL_FOX:
        raise ValidationError(f"the source system must be virtual-Fox, got {vsys.mode.value}")
    if len(vsys.unknowns.of_gap) != 1:
        raise NotAKnot("the pairing map is defined for one-component source diagrams")
    # Source edge t is gap t of the one component, or its closed circle.
    source = vsys.unknowns.of_gap[0]
    if 2 * len(source) != len(edge_map):
        raise MissingProvenance("the provenance is not that of the source diagram's multiplex")
    arcs = segments(l2, Granularity.ARC)
    copies = []  # (arc of the right copy, arc of the left copy, source piece) per edge
    for t, piece in enumerate(source):
        (cr, gr), (cl, gl) = edge_map[(t, _RIGHT_COPY)], edge_map[(t, _LEFT_COPY)]
        copies.append((arcs.of_gap[cr][gr], arcs.of_gap[cl][gl], piece))

    def pair(col: Coloring) -> Coloring:
        col = checked(col, Coloring, InvalidColoring, "coloring")
        values = checked(col.values, tuple, InvalidColoring, "coloring values")
        values = tuple(checked(v, int, InvalidColoring, "coloring value") for v in values)
        n = _modulus(col.modulus)
        if not is_solution(vsys, Coloring(values, n)):
            raise InvalidColoring("input is not a virtual coloring of the source diagram")
        image: list[int | None] = [None] * arcs.n_pieces
        for right, left, piece in copies:
            v = values[piece]
            for arc, w in ((right, v % n), (left, -v % n)):
                if image[arc] is None:
                    image[arc] = w
                elif image[arc] != w:
                    raise InvalidColoring("pairing map produced an inconsistent assignment")
        if None in image:
            raise InvalidColoring("pairing map left an arc of the multiplex unassigned")
        return Coloring(tuple(image), n)

    return pair
