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
clockwise walks a face boundary.  One tracer, `_trace`, follows integer
darts: the dart on gap g of component ci is 2 * (offset of ci + g), plus 1
when it runs against the strand, so one flat list holds every successor.  It
returns the cycles as lists of these integers and a mark per dart naming its
cycle, and keeps them on the diagram, so a diagram is traced once.  `faces`
turns each cycle into the public (component, gap, dir) darts.  `genus` only
counts the cycles.  Of the move-site search of `moves`, only `_Pokes` reads
the integer trace, to count poke loci from the cycle lengths and marks; the
triangle stage and the darts of a site are read off `faces`, and no lookup
from a dart name to its integer remains.  One Euler count over the whole
4-valent graph, chi = crossings - passages + faces, gives the genus of the
carrier surface summed over the connected pieces of the graph: pieces -
chi / 2, since each piece counts 2 - 2g.  Genus 0 means the code is drawable
in the plane with exactly the recorded virtual crossings.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import ValidationError, checked
from .model import _THROUGH, CrossingRecord, Diagram, Passage

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
    mark of every dart.  Traced on first use and kept on the diagram, so
    callers only read it.

    Cycles are lists in the order and from the starts that `faces` gives.
    mark[k] is ~c for the cycle c that holds dart k."""
    memo = d._face_trace
    if memo:
        return memo[0]
    frames = d._frames
    # Passage P is offset[ci] + i; prev[P] is 2P' for the passage P' before
    # it on ci.  Leaving P through its out-port is dart 2P, through its
    # in-port 2P' + 1, and arriving at either port is the leaving dart ^ 1.
    offset, prev = [], []
    for comp in d.components:
        n = len(prev)
        offset.append(n)
        prev += [2 * (n + len(comp) - 1), *range(2 * n, 2 * (n + len(comp) - 1), 2)] if comp else []
    # The dart arriving at a port of `_ccw_ports(a, b, f)` leaves through the
    # port before it, written out for f = +1 and f = -1.
    succ = [0] * (2 * len(prev))
    for (c1, i1), (c2, i2) in d._passage_index.values():
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
    # One append of a finished trace: another thread sees none or a whole
    # one, and a thread that traced at the same time only adds a spare copy.
    memo.append((cycles, succ))
    return memo[0]


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

    for (c1, _), (c2, _) in d.passage_index.values():
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
    components = tuple(
        tuple(p for p in comp if p.role is not _THROUGH) for comp in d.components
    )
    crossings = {cid: rec for cid, rec in d.crossings.items() if not rec.virtual}
    return Diagram(components, crossings)


def _rail_layout(d: Diagram) -> Diagram:
    station: dict[int, int] = {}
    for _, _, p in d.passages():
        if p.crossing not in station:
            station[p.crossing] = len(station)

    # All four stubs of a station point up, so left to right its ports run
    # clockwise, ending at out-over.
    portx: dict[tuple[tuple[int, int], int], int] = {}
    for cid, s in station.items():
        over, under = d.real_positions(cid)
        for k, port in enumerate(_ccw_ports(over, under, d.frame(cid, over))):
            portx[port] = 4 * s + 3 - k

    # One lane per edge; edge (ci, g) runs out of passage g into passage g+1.
    edge_list = [
        (ci, g) for ci, comp in enumerate(d.components) for g in range(len(comp))
    ]
    lane = {e: h + 1 for h, e in enumerate(edge_list)}
    span = {}
    for ci, g in edge_list:
        L = len(d.components[ci])
        span[(ci, g)] = (portx[(ci, g), 1], portx[(ci, (g + 1) % L), -1])

    # Intersections: the vertical legs of an edge (x = a rising to its lane,
    # x = b dropping back) against the horizontals of lower lanes.
    next_id = max(d.crossings, default=0) + 1
    vertical_edge: dict[int, tuple[int, int]] = {}
    frames: dict[int, int] = {}
    on_vert: dict[tuple, list] = {(e, leg): [] for e in edge_list for leg in (0, 1)}
    on_horiz: dict[tuple, list] = {e: [] for e in edge_list}
    for e in edge_list:
        a, b = span[e]
        for leg, x, vdir in ((0, a, +1), (1, b, -1)):
            for e2 in edge_list:
                if e2 == e or lane[e2] >= lane[e]:
                    continue
                a2, b2 = span[e2]
                if min(a2, b2) < x < max(a2, b2):
                    cid = next_id
                    next_id += 1
                    vertical_edge[cid] = e
                    hdir = 1 if b2 > a2 else -1
                    # frame(vertical direction, horizontal direction)
                    frames[cid] = -vdir * hdir
                    on_vert[(e, leg)].append((lane[e2], cid))
                    on_horiz[e2].append((x, cid, hdir))

    def edge_sequence(e) -> list[int]:
        a, b = span[e]
        ups = [cid for _, cid in sorted(on_vert[(e, 0)])]
        downs = [cid for _, cid in sorted(on_vert[(e, 1)], reverse=True)]
        hdir = 1 if b > a else -1
        horiz = [cid for x, cid, _ in sorted(on_horiz[e], reverse=(hdir < 0))]
        return ups + horiz + downs

    # Passages are laid down in canonical order, so the first passage met of
    # an intersection fixes its sign: the frame read from it, which is
    # frames[cid] on the vertical side and its negative on the horizontal one.
    crossings = dict(d.crossings)
    new_components: list[list[Passage]] = []
    for ci, comp in enumerate(d.components):
        out: list[Passage] = []
        for g, p in enumerate(comp):
            out.append(p)
            for cid in edge_sequence((ci, g)):
                if cid not in crossings:
                    f = frames[cid] if vertical_edge[cid] == (ci, g) else -frames[cid]
                    crossings[cid] = CrossingRecord(cid, True, f)
                out.append(Passage(cid, _THROUGH))
        new_components.append(out)
    out_d = Diagram(tuple(tuple(c) for c in new_components), crossings)
    out_d.validate()
    if genus(out_d) != 0:
        raise ValidationError("rail layout produced a non-planar code")
    return out_d
