"""Rotation systems, face tracing, genus, and planarization.

Every crossing is a 4-valent vertex.  Its counterclockwise port order is fixed
by the frame rule of `model`: for the passages (a, b) of the crossing in
canonical order and the frame f read from a,

    f = +1: out-a, out-b, in-a, in-b
    f = -1: out-a, in-b,  in-a, out-b

since the frame (direction of a, direction of b) is positively oriented
exactly when b leaves a quarter turn counterclockwise of a.  Tracing the
orbit that leaves each arrival port through the next port clockwise walks a
face boundary; the face count gives the genus of the carrier surface via the
Euler characteristic, computed per connected piece of the 4-valent graph and
summed.  Genus 0 means the code is drawable in the plane with exactly the
recorded virtual crossings.
"""

from __future__ import annotations

from .errors import ValidationError
from .model import CrossingRecord, Diagram, Passage, Role

# Dart: (component, gap, dir) with dir +1 = travel with the strand orientation
# (arriving at the in-port of passage gap+1), dir -1 = against it (arriving at
# the out-port of passage gap).

_OUT, _IN = "out", "in"


def _port_slots(d: Diagram):
    """Map (component, position, side) -> (crossing id, ccw slot 0..3) and back."""
    by_port: dict[tuple[int, int, str], tuple[int, int]] = {}
    slot_table: dict[tuple[int, int], tuple[int, int, str]] = {}
    for cid, (a, b) in d.passage_index.items():
        if d.frame(cid, a) > 0:
            order = [(a, _OUT), (b, _OUT), (a, _IN), (b, _IN)]
        else:
            order = [(a, _OUT), (b, _IN), (a, _IN), (b, _OUT)]
        for slot, ((ci, i), side) in enumerate(order):
            by_port[(ci, i, side)] = (cid, slot)
            slot_table[(cid, slot)] = (ci, i, side)
    return by_port, slot_table


def _darts(d: Diagram):
    out = []
    for ci, comp in enumerate(d.components):
        for g in range(len(comp)):
            out.append((ci, g, +1))
            out.append((ci, g, -1))
    return out


def _next_dart(d: Diagram, by_port, slot_table, dart):
    ci, g, direction = dart
    L = len(d.components[ci])
    if direction > 0:
        arrive = (ci, (g + 1) % L, _IN)
    else:
        arrive = (ci, g, _OUT)
    cid, slot = by_port[arrive]
    ci2, i2, side2 = slot_table[(cid, (slot - 1) % 4)]
    L2 = len(d.components[ci2])
    if side2 == _OUT:
        return (ci2, i2, +1)
    return (ci2, (i2 - 1) % L2, -1)


def faces(d: Diagram) -> list[tuple[tuple[int, int, int], ...]]:
    """Face boundaries as dart cycles, in a deterministic order."""
    by_port, slot_table = _port_slots(d)
    darts = _darts(d)
    remaining = set(darts)
    out = []
    for start in darts:
        if start not in remaining:
            continue
        cycle = []
        dart = start
        while True:
            cycle.append(dart)
            remaining.discard(dart)
            dart = _next_dart(d, by_port, slot_table, dart)
            if dart == start:
                break
        out.append(tuple(cycle))
    return out


def genus(d: Diagram) -> int:
    """Genus of the carrier surface, summed over connected pieces of the
    underlying 4-valent graph.  Crossing-free circles contribute 0."""
    if not d.crossings:
        return 0
    parent: dict[int, int] = {cid: cid for cid in d.crossings}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for comp in d.components:
        for i in range(len(comp)):
            union(comp[i].crossing, comp[(i + 1) % len(comp)].crossing)

    verts: dict[int, int] = {}
    edges: dict[int, int] = {}
    faces_count: dict[int, int] = {}
    for cid in d.crossings:
        verts[find(cid)] = verts.get(find(cid), 0) + 1
    for ci, comp in enumerate(d.components):
        for i in range(len(comp)):
            root = find(comp[i].crossing)
            edges[root] = edges.get(root, 0) + 1
    for cycle in faces(d):
        ci, g, _ = cycle[0]
        root = find(d.components[ci][g].crossing)
        faces_count[root] = faces_count.get(root, 0) + 1
    total = 0
    for root, v in verts.items():
        chi = v - edges[root] + faces_count.get(root, 0)
        assert chi % 2 == 0, "Euler characteristic of a closed surface is even"
        total += (2 - chi) // 2
    return total


# -- planarization ---------------------------------------------------------


def realize(d: Diagram) -> Diagram:
    """Return a genus-0 diagram with the same real passages in the same order.

    Already-planar diagrams are returned unchanged.  Otherwise the real
    skeleton is laid out deterministically: crossings become stations on a
    line, each connection is routed up to a private horizontal lane and back
    down, and every incidental intersection of the routing becomes a virtual
    crossing whose sign is read off the drawing.
    """
    if genus(d) == 0:
        return d
    base = _strip_virtual(d)
    if genus(base) == 0:
        return base
    return _rail_layout(base)


def _strip_virtual(d: Diagram) -> Diagram:
    components = tuple(
        tuple(p for p in comp if p.role is not Role.THROUGH) for comp in d.components
    )
    crossings = {cid: rec for cid, rec in d.crossings.items() if not rec.virtual}
    return Diagram(components, crossings)


def _rail_layout(d: Diagram) -> Diagram:
    # Station port order, left to right; all four stubs point up, so the
    # counterclockwise order around the vertex is the reverse.
    PORTS_POS = [("under", _IN), ("over", _IN), ("under", _OUT), ("over", _OUT)]
    PORTS_NEG = [("under", _OUT), ("over", _IN), ("under", _IN), ("over", _OUT)]

    station: dict[int, int] = {}
    for _, _, p in d.passages():
        if p.crossing not in station:
            station[p.crossing] = len(station)

    portx: dict[tuple[int, str, str], int] = {}
    for cid, s in station.items():
        layout = PORTS_POS if d.crossings[cid].sign > 0 else PORTS_NEG
        for off, (strand, side) in enumerate(layout):
            portx[(cid, strand, side)] = 4 * s + off

    def port_of(ci: int, i: int, side: str) -> int:
        p = d.components[ci][i]
        strand = "over" if p.role is Role.OVER else "under"
        return portx[(p.crossing, strand, side)]

    # One lane per edge; edge (ci, g) runs out of passage g into passage g+1.
    edge_list = [
        (ci, g) for ci, comp in enumerate(d.components) for g in range(len(comp))
    ]
    lane = {e: h + 1 for h, e in enumerate(edge_list)}
    span = {}
    for ci, g in edge_list:
        L = len(d.components[ci])
        a = port_of(ci, g, _OUT)
        b = port_of(ci, (g + 1) % L, _IN)
        span[(ci, g)] = (a, b)

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
                out.append(Passage(cid, Role.THROUGH))
        new_components.append(out)
    out_d = Diagram(tuple(tuple(c) for c in new_components), crossings)
    out_d.validate()
    if genus(out_d) != 0:
        raise ValidationError("rail layout produced a non-planar code")
    return out_d
