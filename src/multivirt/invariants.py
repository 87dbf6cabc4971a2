"""Crossing indices, writhes, linking numbers, and the per-component lambda.

The index of a real self-crossing c is computed along its specified path: the
stretch of the component strictly between the over passage and the under
passage of c.  A transverse strand counts +1 when it crosses the path from
left to right, which by the frame rule of `model` is minus the frame read
from the passage on the path: each passage on the path adds minus its frame to
`ind` (real crossings) or `ind_v` (virtual ones).  A crossing whose two
passages both lie on the path contributes zero in total.

On genus-0 diagrams the real and virtual counts cancel: ind + ind_v = 0 for
every real self-crossing.  No such constraint holds for abstract (positive
genus) codes, which are accepted everywhere here.

Cost.  `crossing_indices` walks the path, O(passages) per crossing, and
stays the oracle.  Every other fact reads the sorted ids of the real
crossings, which the diagram keeps in its memo (`model._real`: handed over
by `constructions.multiplex`, made by one scan of the crossing table on
first use otherwise), and from there costs O(R log R) for R real
crossings, whatever the number of virtual ones:
- `_indices` gives the `ind` of every real self-crossing from prefix sums
  of the frames read from the real passages of each component, in order
  along it, built once per diagram and kept in its memo; the sum along a
  path is the difference of two of them, plus the component's total when
  the path wraps past its end.  `constructions.covering` reads it too.
- `_sweep`, one pass over the real crossings in id order, gives the linking
  matrix, from which lambda is read, and the real self-crossings of each
  component, whose indices fill the writhe tables.
`index_defect` still walks each path for `ind_v`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadComponent, MixedCrossing, NotAKnot, ValidationError, checked
from .model import _OVER, Diagram, Passage, _real


@dataclass(frozen=True)
class IndexPair:
    ind: int
    ind_v: int


@dataclass(frozen=True)
class WritheTable:
    """Finite-support map n -> J_n for nonzero n; J_0 is reported separately
    because it is not preserved by the first Reidemeister move.  The table
    keeps a copy of the entries it is given, and refuses with
    ValidationError entries that are not a dict of nonzero int keys and int
    values, and a J_0 that is not an int (bools are no ints here, as in
    `Diagram.validate`)."""

    entries: dict[int, int]
    j0: int

    def __post_init__(self):
        entries = dict(checked(self.entries, dict, ValidationError, "writhe entries"))
        if 0 in entries or any(type(x) is not int for x in (*entries, *entries.values())):
            raise ValidationError(f"writhe entries must map nonzero ints to ints, got {entries!r}")
        if type(self.j0) is not int:
            raise ValidationError(f"J_0 must be an int, got {self.j0!r}")
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, n: int) -> int:
        """J_n, or J_0 at n = 0; raises ValidationError for an index that is
        not an integer."""
        n = checked(n, int, ValidationError, "writhe index")
        if n == 0:
            return self.j0
        return self.entries.get(n, 0)

    def support(self) -> set[int]:
        return set(self.entries)

    def to_json(self) -> dict:
        return {
            "jn": {str(n): self.entries[n] for n in sorted(self.entries)},
            "j0": self.j0,
        }


@dataclass(frozen=True)
class ComponentWrithes:
    component: int
    table: WritheTable
    lambda_i: int  # the excluded modulus: the table is only stable away from it


@dataclass(frozen=True)
class InvariantReport:
    writhe: int
    jn: WritheTable | None
    jni: tuple[ComponentWrithes, ...]
    lk: tuple[tuple[int, ...], ...]
    lam: tuple[int, ...]

    def to_json(self) -> dict:
        out: dict = {"writhe": self.writhe}
        if self.jn is not None:
            out.update(self.jn.to_json())
        else:
            out.update({"jn": None, "j0": None})
        out["jni"] = [
            {"component": cw.component, "lambda": cw.lambda_i, **cw.table.to_json()}
            for cw in self.jni
        ]
        out["lk"] = [list(row) for row in self.lk]
        out["lambda"] = list(self.lam)
        return out


def _path_positions(d: Diagram, cid: int) -> tuple[int, list[int]]:
    (co, io), (cu, iu) = d.real_positions(cid)
    if co != cu:
        raise MixedCrossing(
            f"crossing {cid} joins components {co + 1} and {cu + 1}; "
            "its over-to-under path is undefined"
        )
    L = len(d.components[co])
    span = (iu - io) % L
    return co, [(io + t) % L for t in range(1, span)]


def specified_path(d: Diagram, cid: int) -> list[Passage]:
    """Passages strictly between the over and the under passage of `cid`,
    in traversal order along its component."""
    d = checked(d, Diagram, ValidationError, "diagram")
    ci, idxs = _path_positions(d, cid)
    return [d.components[ci][i] for i in idxs]


def crossing_indices(d: Diagram, cid: int) -> IndexPair:
    """(ind, ind_v) of the real self-crossing `cid`, counted along its
    specified path."""
    d = checked(d, Diagram, ValidationError, "diagram")
    ci, idxs = _path_positions(d, cid)
    comp, frames = d.components[ci], d._frames[ci]
    ind = ind_v = 0
    for i in idxs:
        if d.crossings[comp[i].crossing].virtual:
            ind_v -= frames[i]
        else:
            ind -= frames[i]
    return IndexPair(ind, ind_v)


def writhe(d: Diagram) -> int:
    d = checked(d, Diagram, ValidationError, "diagram")
    crossings = d.crossings
    return sum([crossings[cid].sign for cid in _real(d)])


def _sweep(d: Diagram) -> tuple[list[list[int]], list[list[int]]]:
    """One pass over the real crossings in id order: the linking matrix
    lk[i][j] (component i passes over component j) and the real
    self-crossings of each component."""
    r = d.n_components()
    lk = [[0] * r for _ in range(r)]
    own: list[list[int]] = [[] for _ in range(r)]
    index = d._passage_index
    for cid in _real(d):
        (c1, _), (c2, _) = index[cid]
        if c1 == c2:
            own[c1].append(cid)
        else:
            (co, _), (cu, _) = d.real_positions(cid)
            lk[co][cu] += d.crossings[cid].sign
    return lk, own


def _indices(d: Diagram) -> dict[int, int]:
    """The `ind` of every real self-crossing of `d`, keyed in id order and
    kept in its memo: the sum of minus the frames read from the real
    passages strictly between its over and its under passage, which
    `crossing_indices` counts along the path, read off prefix sums."""
    memo = d._memo
    if "ind" in memo:
        return memo["ind"]
    real, index, comps, frames = _real(d), d._passage_index, d.components, d._frames
    # The real passages of each component, in order along it.
    rows: list[list[tuple[int, int]]] = [[] for _ in comps]
    for cid in real:
        for pos in index[cid]:
            rows[pos[0]].append(pos)
    # Per real passage, the sum of the frames read from those before it.
    before: dict[tuple[int, int], int] = {}
    total = []
    for ci, row in enumerate(rows):
        row.sort()
        s, f = 0, frames[ci]
        for pos in row:
            before[pos] = s
            s += f[pos[1]]
        total.append(s)
    ind = {}
    for cid in real:
        a, b = index[cid]
        if a[0] == b[0]:
            o, u = (a, b) if comps[a[0]][a[1]].role is _OVER else (b, a)
            # The over passage reads the stored sign; a path that runs past
            # the end of the component takes in the rest of it.
            s = before[u] - before[o] - d.crossings[cid].sign
            ind[cid] = -(s + total[o[0]] if u[1] < o[1] else s)
    return memo.setdefault("ind", ind)


def _lam(lk: list[list[int]]) -> tuple[int, ...]:
    """lambda_i = sum_j (lk[j][i] - lk[i][j]); the diagonal of lk is zero."""
    return tuple(sum(col) - sum(row) for col, row in zip(zip(*lk), lk))


def _writhe_table(d: Diagram, cids: list[int]) -> WritheTable:
    entries: dict[int, int] = {}
    j0 = 0
    ind = _indices(d)
    for cid in cids:
        n = ind[cid]
        s = d.crossings[cid].sign
        if n == 0:
            j0 += s
        else:
            entries[n] = entries.get(n, 0) + s
    return WritheTable({n: v for n, v in entries.items() if v != 0}, j0)


def n_writhes(d: Diagram) -> WritheTable:
    """J_n table of a knot diagram; stable under the generalized moves for n != 0."""
    d = checked(d, Diagram, ValidationError, "diagram")
    if d.n_components() != 1:
        raise NotAKnot(f"expected 1 component, found {d.n_components()}")
    return _writhe_table(d, _sweep(d)[1][0])


def ith_n_writhes(d: Diagram, i: int) -> ComponentWrithes:
    """Writhe table of the real self-crossings of component `i` (1-based),
    with indices counted against the whole diagram.  Stable for n outside
    {0, lambda_i}."""
    d = checked(d, Diagram, ValidationError, "diagram")
    i = checked(i, int, BadComponent, "component index")
    if not 1 <= i <= d.n_components():
        raise BadComponent(f"component {i} of {d.n_components()}")
    lk, own = _sweep(d)
    return ComponentWrithes(i, _writhe_table(d, own[i - 1]), _lam(lk)[i - 1])


def linking_and_lambda(d: Diagram) -> InvariantReport:
    """Linking matrix lk[i][j] = sum of signs of real crossings where component
    i passes over component j, plus lambda_i = sum_j (lk[j][i] - lk[i][j])."""
    d = checked(d, Diagram, ValidationError, "diagram")
    lk, _ = _sweep(d)
    return InvariantReport(writhe(d), None, (), tuple(map(tuple, lk)), _lam(lk))


def invariant_report(d: Diagram) -> InvariantReport:
    """Full report: writhe, J_n (knots only), per-component tables, lk, lambda."""
    d = checked(d, Diagram, ValidationError, "diagram")
    lk, own = _sweep(d)
    lam = _lam(lk)
    jni = tuple(
        ComponentWrithes(ci + 1, _writhe_table(d, cids), lam[ci]) for ci, cids in enumerate(own)
    )
    jn = jni[0].table if len(jni) == 1 else None
    return InvariantReport(writhe(d), jn, jni, tuple(map(tuple, lk)), lam)


def index_defect(d: Diagram) -> int:
    """Max |ind + ind_v| over real self-crossings; 0 on every planar diagram."""
    d = checked(d, Diagram, ValidationError, "diagram")
    pairs = [crossing_indices(d, cid) for cids in _sweep(d)[1] for cid in cids]
    return max((abs(p.ind + p.ind_v) for p in pairs), default=0)
