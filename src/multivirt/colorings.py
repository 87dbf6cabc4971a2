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

Each relation is stored sparsely, as (unknown, coefficient) pairs sorted by
unknown with zero coefficients dropped; a relation that cancels completely is
the empty tuple, so the row count never changes.

Solutions are counted modulo n exactly for every n >= 1: if the relation
matrix has Smith divisors d_1 | ... | d_k and q free unknowns, the count is
n^q * prod gcd(d_i, n).  The divisors come in two phases, after Dumas,
Saunders and Villard ("On efficient sparse integer matrix Smith normal form
computations", J. Symb. Comput. 2001): elimination of +-1 pivots on the
sparse rows, in one first-in-first-out pass that visits every row in index
order and again whenever an elimination changes it, then the dense
`smith_normal_form` on the small residual that has no +-1 entry left.  The
dense form is one loop that moves the smallest nonzero entry to the corner,
clears its column and row, and starts over while a remainder is left or while
the pivot does not divide the rest; otherwise the pivot is the next divisor
and its row and column drop out.  The Smith diagonal is unique, d_1 ... d_k
being the gcd of all k x k minors, so any pivot order gives the same
divisors, and the two phases give those of the dense form on the whole
matrix.  That dense form and an exhaustive search are the independent oracles
for the same counts.  The search assigns the unknowns from the last to the
first in exact integers and tests each relation as soon as its lowest unknown
has a value, so it lists the solutions in index order (x_{k-1} varies
slowest) without trying every one of the n^k assignments; n^k is still what
its `limit` bounds.
"""

from __future__ import annotations

import operator
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
)
from .model import Diagram, Granularity, Segments, segments


class ColoringMode(Enum):
    FOX = "fox"
    VIRTUAL_FOX = "virtual"
    CONSTRAINED = "constrained"


@dataclass(frozen=True)
class ColoringSystem:
    mode: ColoringMode
    unknowns: Segments
    rows: tuple[tuple[tuple[int, int], ...], ...]  # sparse (unknown, coefficient) pairs

    def __post_init__(self) -> None:
        checked(self.mode, ColoringMode, ValidationError, "coloring mode")
        checked(self.unknowns, Segments, ValidationError, "unknowns")
        n = self.n_unknowns
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

    @property
    def n_unknowns(self) -> int:
        return len(self.unknowns.pieces)

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
        units, residual = _eliminate_unit_pivots(self.rows)
        rest = smith_normal_form(residual)
        size = min(len(self.rows), self.n_unknowns)
        diagonal = (1,) * units + rest.diagonal[: rest.rank]
        return SNF(diagonal + (0,) * (size - len(diagonal)), units + rest.rank)

    def to_json(self, moduli: tuple[int, ...] = ()) -> dict:
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
    rows: list[tuple[tuple[int, int], ...]] = []

    def row(*coeffs: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        r: dict[int, int] = {}
        for idx, c in coeffs:
            r[idx] = r.get(idx, 0) + c
        return tuple(sorted((idx, c) for idx, c in r.items() if c))

    def into(ci: int, i: int) -> int:
        """The piece entering passage i, which covers gap i - 1."""
        return segs.index_of_gap(ci, (i - 1) % len(d.components[ci]))

    for cid, rec in sorted(d.crossings.items()):
        if rec.virtual:
            if mode is ColoringMode.VIRTUAL_FOX:
                for ci, i in d._passage_index[cid]:
                    rows.append(row((into(ci, i), 1), (segs.index_of_gap(ci, i), 1)))
            continue
        (co, io), (cu, iu) = d.real_positions(cid)
        rows.append(row((into(cu, iu), 1), (segs.index_of_gap(cu, iu), 1), (into(co, io), -2)))

    if mode is ColoringMode.CONSTRAINED:
        edge_map = _fitted_provenance(provenance, d).edge_map
        for t in range(len(edge_map) // 2):
            a = segs.index_of_gap(*edge_map[(t, 1)])
            b = segs.index_of_gap(*edge_map[(t, 2)])
            rows.append(row((a, 1), (b, 1)))

    return ColoringSystem(mode, segs, tuple(rows))


def _fitted_provenance(prov, l2: Diagram) -> Provenance:
    """Return `prov` if it is the provenance of a 2-fold multiplex that places
    both copies of every source edge on a gap of `l2`; else raise
    MissingProvenance."""
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
    gaps = {(ci, g) for ci, comp in enumerate(l2.components) for g in range(len(comp)) or (None,)}
    if not gaps.issuperset(prov.edge_map.values()):
        raise MissingProvenance("the edge map places an edge off the gaps of the multiplex")
    return prov


# -- exact counting ---------------------------------------------------------


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
    BadMatrix when the rows differ in length or an entry is not an integer
    (ints, bools and numpy integers are; floats and strings are not).

    One loop: the smallest nonzero entry moves to (0, 0) and clears its
    column by row operations and its row by column operations.  A remainder
    left behind is smaller than the pivot, so the loop starts over; a pivot
    that does not divide the rest of the matrix takes an offending row into
    the first row and starts over; otherwise |pivot| is the next divisor and
    its row and column drop out."""
    try:
        m = [list(map(operator.index, r)) for r in mat]
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
    for d in s.diagonal[: s.rank]:
        count *= gcd(d, n)
    return count


def enumerate_colorings(
    sys: ColoringSystem, n: int, limit: int = 10**6
) -> list[Coloring]:
    """All solutions mod n by exhaustive search (the independent oracle).

    Unknown k-1 gets its values first and unknown 0 last; every surviving
    partial assignment is extended by 0..n-1, and a relation is tested as
    soon as its lowest unknown has a value.  The solutions come out in index
    order, x_{k-1} varying slowest.  Raises TooLarge when n^k exceeds `limit`,
    however few assignments the search itself visits."""
    sys = checked(sys, ColoringSystem, ValidationError, "coloring system")
    n = _modulus(n)
    limit = checked(limit, int, ValidationError, "limit")
    k = sys.n_unknowns
    if n**k > limit:
        raise TooLarge(f"{n}^{k} assignments exceed limit {limit}")
    due: dict[int, list[tuple[tuple[int, int], ...]]] = {}
    for r in sys.rows:
        if r:
            due.setdefault(r[0][0], []).append(r)
    found: list[tuple[int, ...]] = [()]
    for j in reversed(range(k)):
        rows = due.get(j, ())
        found = [
            t
            for p in found
            for v in range(n)
            for t in [(v, *p)]
            if all(sum(c * t[i - j] for i, c in r) % n == 0 for r in rows)
        ]
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
    its negative on the left copy.  Raises NotAKnot unless `d` has one
    component."""
    col = checked(col, Coloring, InvalidColoring, "coloring")
    values = checked(col.values, tuple, InvalidColoring, "coloring values")
    values = tuple(checked(v, int, InvalidColoring, "coloring value") for v in values)
    n = _modulus(col.modulus)
    prov = _fitted_provenance(prov, l2)
    d = checked(d, Diagram, ValidationError, "diagram")
    if d.n_components() != 1:
        raise NotAKnot("the pairing map is defined for one-component source diagrams")
    vsys = build_system(d, ColoringMode.VIRTUAL_FOX)
    if not is_solution(vsys, Coloring(values, n)):
        raise InvalidColoring("input is not a virtual coloring of the source diagram")
    # Source edge t is gap t of the one component, or its closed circle.
    gaps = range(len(d.components[0])) or (None,)
    if 2 * len(gaps) != len(prov.edge_map):
        raise MissingProvenance("the provenance is not that of the source diagram's multiplex")
    arcs = segments(l2, Granularity.ARC)
    image: dict[int, int] = {}

    def assign(piece: int, v: int) -> None:
        v %= n
        if image.setdefault(piece, v) != v:
            raise InvalidColoring("pairing map produced an inconsistent assignment")

    for t, gap in enumerate(gaps):
        v = values[vsys.unknowns.index_of_gap(0, gap)]
        right = prov.edge_map[(t, _RIGHT_COPY)]
        left = prov.edge_map[(t, _LEFT_COPY)]
        assign(arcs.index_of_gap(*right), v)
        assign(arcs.index_of_gap(*left), -v)

    if set(image) != set(range(len(arcs.pieces))):
        raise InvalidColoring("pairing map left an arc of the multiplex unassigned")
    return Coloring(tuple(image[i] for i in range(len(arcs.pieces))), n)
