"""Rotation systems, face tracing, genus, and planarization.

Every crossing is a 4-valent vertex.  Its counterclockwise port order is fixed
by the frame rule of `model`: for the passages (a, b) of the crossing and the
frame f read from a,

    f = +1: out-a, out-b, in-a, in-b
    f = -1: out-a, in-b,  in-a, out-b

since the frame (direction of a, direction of b) is positively oriented
exactly when b leaves a quarter turn counterclockwise of a.  `_ccw_ports`
writes this rule down; `realize` reads it with a the over passage, placing a
station's ports left to right in clockwise order (the reverse of the list
above), and face tracing applies it unrolled, with a, b in canonical order.

Tracing the orbit that leaves each arrival port through the next port
clockwise walks a face boundary.  One tracer, `_traced`, follows integer
darts: the dart on gap g of component ci is 2 * (offset of ci + g), plus 1
when it runs against the strand, so one flat list holds every successor.  It
returns the cycles as lists of these integers and a mark per dart naming its
cycle.  `_trace` keeps them in the diagram's memo, so a diagram is traced
once; a rewrite of `moves` that carries triangle sites traces the diagram
it makes as it makes it.  `faces` turns each cycle into the public
(component, gap, dir) darts.  `genus` only counts the cycles.  The
move-site search of `moves` reads the integer trace: the triangle stage,
fresh or carried, decodes the darts of each 3-dart cycle itself, and
`_Pokes` counts poke loci from the cycle lengths and marks.  Only a poke
search names the faces, to read the darts of a poke site off `faces`, and
no lookup from a dart name to its integer remains.  One Euler count over
the whole 4-valent graph, chi = crossings - passages + faces, gives the
genus of the carrier surface summed over the connected pieces of the
graph: pieces - chi / 2, since each piece counts 2 - 2g.  Genus 0 means
the code is drawable in the plane with exactly the recorded virtual
crossings.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import ValidationError, checked
from .model import _THROUGH, CrossingRecord, Diagram, Passage, _memoized, _tables

# Dart: (component, gap, dir) with dir +1 = travel with the strand orientation
# (arriving at the in-port of passage gap+1), dir -1 = against it (arriving at
# the out-port of passage gap).  A port is (passage, side) with side +1 for
# the out-port and -1 for the in-port, so the dart leaving through the port of
# passage i of component ci is (ci, g, side) and the one arriving at it is
# (ci, g, -side), where g is i for an out-port and i-1 for an in-port.


def _ccw_ports(a, b, f: int):
    """The four ports of the crossing passed at `a` and `b` in counterclockwise
    order, starting at out-a, where `f` is the frame read from `a`."""
    return ((a, 1), (b, f), (a, -1), (b, -f))


# Dart names are values, so diagrams share them: _DART_NAMES[ci] names the
# darts of component ci in order, as far as the longest such component named
# so far.  A thread that grows a table at the same time as another only
# builds it twice; each reads its own copy.
_DART_NAMES: dict[int, tuple[tuple[int, int, int], ...]] = {}


def _darts(d: Diagram):
    """Every dart in order: component, gap, then +1 before -1.  Integer dart
    k of `faces` is entry k."""
    names = []
    for ci, comp in enumerate(d.components):
        n = 2 * len(comp)
        known = _DART_NAMES.get(ci, ())
        if len(known) < n:
            known = _DART_NAMES[ci] = tuple((ci, g, s) for g in range(len(comp)) for s in (1, -1))
        names += known[:n]
    return names


def _trace(d: Diagram) -> tuple[list[list[int]], list[int]]:
    """The face cycles of a checked diagram as integer darts, with the face
    mark of every dart, as `_traced` gives them for its tables.  Traced on
    first use and kept in the diagram's memo, so callers only read it; a
    diagram that `moves._rewrite` made may hold it from the start.

    Cycles are lists in the order and from the starts that `faces` gives.
    mark[k] is ~c for the cycle c that holds dart k."""
    return _memoized(d, "trace", lambda d: _traced(d.components, d._passage_index, d._frames))


def _traced(components, index, frames) -> tuple[list[list[int]], list[int]]:
    """The face cycles and marks of the diagram with these components,
    passage index and frame table, traced from scratch."""
    # Passage P is offset[ci] + i; prev[P] is 2P' for the passage P' before
    # it on ci.  Leaving P through its out-port is dart 2P, through its
    # in-port 2P' + 1, and arriving at either port is the leaving dart ^ 1.
    offset, prev = [], []
    for comp in components:
        n = len(prev)
        offset.append(n)
        prev += [2 * (n + len(comp) - 1), *range(2 * n, 2 * (n + len(comp) - 1), 2)] if comp else []
    # The dart arriving at a port of `_ccw_ports(a, b, f)` leaves through the
    # port before it, written out for f = +1 and f = -1.
    succ = [0] * (2 * len(prev))
    for (c1, i1), (c2, i2) in index.values():
        p, q = offset[c1] + i1, offset[c2] + i2
        a, b, pa, pb = 2 * p, 2 * q, prev[p], prev[q]
        if frames[c1][i1] > 0:
            succ[a + 1], succ[pa], succ[b + 1], succ[pb] = pb + 1, b, a, pa + 1
        else:
            succ[a + 1], succ[pa], succ[b + 1], succ[pb] = b, pb + 1, pa + 1, a
    # Tracing overwrites each successor with the mark of its cycle, so the
    # finished table is the mark table.  Cycles are built as lists: tuples
    # freed by the thousand would pile up in the interpreter's per-size tuple
    # free lists and raise the peak RSS.
    cycles = []
    for start, dart in enumerate(succ):
        if dart < 0:  # traced already
            continue
        mark = succ[start] = ~len(cycles)
        cycle = [start]
        while dart != start:
            cycle.append(dart)
            succ[dart], dart = mark, succ[dart]
        cycles.append(cycle)
    return cycles, succ


def faces(d: Diagram) -> list[tuple[tuple[int, int, int], ...]]:
    """Face boundaries as dart cycles.  Each cycle starts at the first of its
    darts in `_darts` order (component, gap, then +1 before -1), and the
    cycles come in the order of those first darts."""
    d = checked(d, Diagram, ValidationError, "diagram")
    names = _darts(d)
    # itemgetter builds each tuple at its length in one call; over one dart
    # (the loop face of a kink) it returns the bare dart.
    return [
        itemgetter(*cycle)(names) if len(cycle) > 1 else (names[cycle[0]],)
        for cycle in _trace(d)[0]
    ]


def genus(d: Diagram) -> int:
    """Genus of the carrier surface, summed over connected pieces of the
    underlying 4-valent graph.  Crossing-free circles contribute 0.

    A piece of genus g has Euler characteristic 2 - 2g, so the sum is
    pieces - chi / 2 with chi = V - E + F of the whole graph: V crossings,
    E passages (the edges run from each passage to the next) and F faces.
    The pieces are the classes of circles that share a crossing."""
    d = checked(d, Diagram, ValidationError, "diagram")
    piece = list(range(len(d.components)))

    def find(ci: int) -> int:
        while piece[ci] != ci:
            piece[ci] = piece[piece[ci]]
            ci = piece[ci]
        return ci

    for (c1, _), (c2, _) in d._passage_index.values():
        piece[find(c1)] = find(c2)
    pieces = len({find(ci) for ci, comp in enumerate(d.components) if comp})
    chi = len(d.crossings) - d.n_passages() + len(_trace(d)[0])
    assert chi % 2 == 0, "Euler characteristic of a closed surface is even"
    return pieces - chi // 2


# -- planarization ---------------------------------------------------------


def realize(d: Diagram) -> Diagram:
    """Return a genus-0 diagram with the same real passages in the same order.

    Already-planar diagrams are returned unchanged.  Otherwise the real
    skeleton is laid out deterministically: crossings become stations on a
    line, each connection is routed up to a private horizontal lane and back
    down, and every incidental intersection of the routing becomes a virtual
    crossing whose sign is read off the drawing.
    """
    d = checked(d, Diagram, ValidationError, "diagram")
    if genus(d) == 0:
        return d
    base = _strip_virtual(d)
    if genus(base) == 0:
        return base
    return _rail_layout(base)


def _strip_virtual(d: Diagram) -> Diagram:
    """`d` without its virtual crossings, built from its checked tables:
    each real passage keeps its frame, and the index is swept by
    `model._tables`, checking no crossing."""
    components, frames = [], []
    for comp, row in zip(d.components, d._frames):
        kept = [k for k, p in enumerate(comp) if p.role is not _THROUGH]
        components.append(tuple(comp[k] for k in kept))
        frames.append([row[k] for k in kept])
    crossings = {cid: rec for cid, rec in d.crossings.items() if not rec.virtual}
    index, _ = _tables(components, crossings, frames, ())
    return Diagram._made(tuple(components), crossings, index, frames)


def _rail_layout(d: Diagram) -> Diagram:
    # Stations stand left to right in order of first appearance, the key
    # order of the passage index.  All four stubs of a station point up, so
    # left to right its ports run clockwise, ending at out-over, whose frame
    # is the stored sign.
    portx: dict[tuple[tuple[int, int], int], int] = {}
    for s, cid in enumerate(d._passage_index):
        over, under = d.real_positions(cid)
        for k, port in enumerate(_ccw_ports(over, under, d.crossings[cid].sign)):
            portx[port] = 4 * s + 3 - k

    # One lane per edge, numbered upward in edge order; edge (ci, g) runs out
    # of passage g into passage g+1, rising at x = a to its lane and dropping
    # back at x = b.
    spans = [
        (portx[(ci, g), 1], portx[(ci, (g + 1) % len(comp)), -1])
        for ci, comp in enumerate(d.components)
        for g in range(len(comp))
    ]
    # Every intersection is a leg of an edge against the horizontal of a lower
    # lane, that is of an earlier edge.  Edges are laid down in edge order, so
    # the horizontal passage is laid down first and fixes the sign: the frame
    # read from it, (horizontal direction, vertical direction).
    crossings = dict(d.crossings)
    ups, across, downs = [[] for _ in spans], [[] for _ in spans], [[] for _ in spans]
    cid = max(d.crossings, default=0)
    for h, (a, b) in enumerate(spans):
        for x, vdir, leg in ((a, 1, ups[h]), (b, -1, downs[h])):
            for h2, (a2, b2) in enumerate(spans[:h]):
                if min(a2, b2) < x < max(a2, b2):
                    cid += 1
                    crossings[cid] = CrossingRecord(cid, True, vdir if b2 > a2 else -vdir)
                    leg.append(cid)
                    across[h2].append((x, cid))

    # An edge meets its rising leg's crossings upward, its horizontal ones in
    # its own direction and its dropping leg's downward.
    edges = iter(zip(spans, ups, across, downs))
    components = []
    for comp in d.components:
        out: list[Passage] = []
        for p in comp:
            (a, b), up, row, down = next(edges)
            cids = up + [c for _, c in sorted(row, reverse=b < a)] + down[::-1]
            out += [p, *(Passage(c, _THROUGH) for c in cids)]
        components.append(tuple(out))
    out_d = Diagram(tuple(components), crossings)
    if genus(out_d) != 0:
        raise ValidationError("rail layout produced a non-planar code")
    return out_d
