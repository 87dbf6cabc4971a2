"""Crossing indices, writhes, linking numbers, and the per-component lambda.

The index of a real self-crossing c is computed along its specified path: the
stretch of the component strictly between the over passage and the under
passage of c.  A transverse strand counts +1 when it crosses the path from
left to right, which by the frame rule of `model` is minus the frame read
from the passage on the path: each passage on the path adds `-d.frame` to
`ind` (real crossings) or `ind_v` (virtual ones).  A crossing whose two
passages both lie on the path contributes zero in total.

On genus-0 diagrams the real and virtual counts cancel: ind + ind_v = 0 for
every real self-crossing.  No such constraint holds for abstract (positive
genus) codes, which are accepted everywhere here.

Every other fact comes from one sweep of the real crossings in id order,
`_sweep`, which costs O(crossings) after sorting the ids.  It gives the
linking matrix, from which lambda is read, and the real self-crossings of
each component, whose indices fill the writhe tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadComponent, MixedCrossing, NotAKnot, checked
from .model import Diagram, Passage


@dataclass(frozen=True)
class IndexPair:
    ind: int
    ind_v: int


@dataclass(frozen=True)
class WritheTable:
    """Finite-support map n -> J_n for nonzero n; J_0 is reported separately
    because it is not preserved by the first Reidemeister move."""

    entries: dict[int, int]
    j0: int

    def __getitem__(self, n: int) -> int:
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
    ci, idxs = _path_positions(d, cid)
    return [d.components[ci][i] for i in idxs]


def crossing_indices(d: Diagram, cid: int) -> IndexPair:
    """(ind, ind_v) of the real self-crossing `cid`, counted along its
    specified path."""
    ci, idxs = _path_positions(d, cid)
    ind = ind_v = 0
    for i in idxs:
        c = d.components[ci][i].crossing
        if d.crossings[c].virtual:
            ind_v -= d.frame(c, (ci, i))
        else:
            ind -= d.frame(c, (ci, i))
    return IndexPair(ind, ind_v)


def writhe(d: Diagram) -> int:
    return sum(rec.sign for rec in d.crossings.values() if not rec.virtual)


def _sweep(d: Diagram) -> tuple[list[list[int]], list[list[int]]]:
    """One pass over the real crossings in id order: the linking matrix
    lk[i][j] (component i passes over component j) and the real
    self-crossings of each component."""
    r = d.n_components()
    lk = [[0] * r for _ in range(r)]
    own: list[list[int]] = [[] for _ in range(r)]
    for cid in sorted(d.crossings):
        rec = d.crossings[cid]
        if rec.virtual:
            continue
        (co, _), (cu, _) = d.real_positions(cid)
        if co == cu:
            own[co].append(cid)
        else:
            lk[co][cu] += rec.sign
    return lk, own


def _lam(lk: list[list[int]]) -> tuple[int, ...]:
    """lambda_i = sum_j (lk[j][i] - lk[i][j]); the diagonal of lk is zero."""
    return tuple(sum(row[i] for row in lk) - sum(lk[i]) for i in range(len(lk)))


def _writhe_table(d: Diagram, cids: list[int]) -> WritheTable:
    entries: dict[int, int] = {}
    j0 = 0
    for cid in cids:
        n = crossing_indices(d, cid).ind
        s = d.crossings[cid].sign
        if n == 0:
            j0 += s
        else:
            entries[n] = entries.get(n, 0) + s
    return WritheTable({n: v for n, v in entries.items() if v != 0}, j0)


def n_writhes(d: Diagram) -> WritheTable:
    """J_n table of a knot diagram; stable under the generalized moves for n != 0."""
    if d.n_components() != 1:
        raise NotAKnot(f"expected 1 component, found {d.n_components()}")
    return _writhe_table(d, _sweep(d)[1][0])


def ith_n_writhes(d: Diagram, i: int) -> ComponentWrithes:
    """Writhe table of the real self-crossings of component `i` (1-based),
    with indices counted against the whole diagram.  Stable for n outside
    {0, lambda_i}."""
    i = checked(i, int, BadComponent, "component index")
    if not 1 <= i <= d.n_components():
        raise BadComponent(f"component {i} of {d.n_components()}")
    lk, own = _sweep(d)
    return ComponentWrithes(i, _writhe_table(d, own[i - 1]), _lam(lk)[i - 1])


def linking_and_lambda(d: Diagram) -> InvariantReport:
    """Linking matrix lk[i][j] = sum of signs of real crossings where component
    i passes over component j, plus lambda_i = sum_j (lk[j][i] - lk[i][j])."""
    lk, _ = _sweep(d)
    return InvariantReport(writhe(d), None, (), tuple(map(tuple, lk)), _lam(lk))


def invariant_report(d: Diagram) -> InvariantReport:
    """Full report: writhe, J_n (knots only), per-component tables, lk, lambda."""
    lk, own = _sweep(d)
    lam = _lam(lk)
    jni = tuple(
        ComponentWrithes(ci + 1, _writhe_table(d, cids), lam[ci]) for ci, cids in enumerate(own)
    )
    jn = jni[0].table if len(jni) == 1 else None
    return InvariantReport(writhe(d), jn, jni, tuple(map(tuple, lk)), lam)


def index_defect(d: Diagram) -> int:
    """Max |ind + ind_v| over real self-crossings; 0 on every planar diagram."""
    pairs = [crossing_indices(d, cid) for cids in _sweep(d)[1] for cid in cids]
    return max((abs(p.ind + p.ind_v) for p in pairs), default=0)
