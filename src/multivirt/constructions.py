"""Multiplexed links, coverings, and component extraction.

`multiplex(d, r)` takes r parallel copies of a knot diagram.  Copies are
numbered 1..r left to right across the strand direction at the basepoint, and
output component i is the circle occupying copy position i there.  Each real
crossing becomes an r x r grid of intersections between the over bundle and
the under bundle: the position-diagonal ones stay real with the source sign,
the rest are virtual (r real + r^2 - r virtual).  Each virtual crossing
becomes an all-virtual r x r grid followed, immediately downstream on each
bundle, by a cyclic relabeling braid of r - 1 virtual self-crossings
(r^2 + 2r - 2 virtual in total).  Every intersection inside a tile inherits
the frame orientation of the two source strands.

The braid orientation is a single global bit: at a virtual tile the bundle
that the other bundle crosses left to right shifts its copies one step, the
other bundle shifts the opposite way.  `_SHIFT_ORIENTATION` fixes which step
is +1; it is pinned so that the linking numbers of the multiplexed link equal
the writhe sums over index classes n = i - j (mod r), and flipping it would
flip that congruence to j - i.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import BadComponent, BadR, NotAKnot, ValidationError, checked
from .invariants import crossing_indices
from .model import CrossingRecord, Diagram, Passage, Role
from .planar import genus

_SHIFT_ORIENTATION = -1


@dataclass(frozen=True)
class Provenance:
    """Where every crossing and edge of a multiplexed diagram came from.

    crossing_map: output crossing id -> ("diag", source id, copy)
                  | ("off", source id, a, b) | ("shift", source id, bundle, p)
    edge_map:     (source edge index, copy position) -> (component, gap index)
                  with gap None for a crossing-free circle
    component_map: output component (1-based) -> copy position at the basepoint
    """

    r: int
    crossing_map: dict[int, tuple]
    edge_map: dict[tuple[int, int], tuple[int, int | None]]
    component_map: dict[int, int]

    def tile_census(self) -> dict[int, dict[str, int]]:
        census: dict[int, dict[str, int]] = {}
        for _, info in self.crossing_map.items():
            kind, src = info[0], info[1]
            c = census.setdefault(src, {"diag": 0, "off": 0, "shift": 0})
            c[kind] += 1
        return census

    def to_json(self) -> dict:
        cmap = {}
        for cid in sorted(self.crossing_map):
            info = self.crossing_map[cid]
            if info[0] == "diag":
                cmap[str(cid)] = {"role": "diagonal", "source": info[1], "copy": info[2]}
            elif info[0] == "off":
                cmap[str(cid)] = {
                    "role": "offdiagonal",
                    "source": info[1],
                    "copies": [info[2], info[3]],
                }
            else:
                cmap[str(cid)] = {
                    "role": "bundle_shift",
                    "source": info[1],
                    "bundle": info[2],
                    "position": info[3],
                }
        emap = [
            {
                "source_edge": t,
                "copy": q,
                "component": comp + 1,
                "gap": gap,
            }
            for (t, q), (comp, gap) in sorted(self.edge_map.items())
        ]
        return {
            "r": self.r,
            "crossing_map": cmap,
            "edge_map": emap,
            "component_map": {str(k): v for k, v in sorted(self.component_map.items())},
        }


def multiplex(d: Diagram, r: int) -> tuple[Diagram, Provenance]:
    """Build the r-component multiplexed link of a knot diagram, with provenance."""
    d = checked(d, Diagram, ValidationError, "diagram")
    if d.n_components() != 1:
        raise NotAKnot("multiplexing is defined for one-component diagrams")
    r = checked(r, int, BadR, "r")
    if r < 2:
        raise BadR(f"need r >= 2, got {r}")
    if d.crossings and genus(d) != 0:
        warnings.warn(
            "multiplexing an abstract (positive genus) code; "
            "identities tied to planarity are not guaranteed",
            stacklevel=2,
        )

    comp, frames = d.components[0], d._frames[0]
    m = len(comp)
    crossings: dict[int, CrossingRecord] = {}
    crossing_map: dict[int, tuple] = {}
    slot_ids: dict[tuple, int] = {}
    out_components: list[list[Passage]] = []
    edge_map: dict[tuple[int, int], tuple[int, int | None]] = {}
    for ell in range(1, r + 1):
        cur = ell
        trace: list[Passage] = []

        def emit(key: tuple, role: Role, sign: int) -> None:
            # Passages are emitted in canonical order, so the first emission
            # of a slot is its first passage and `sign`, the frame read from
            # it (the source sign for a diagonal crossing), fixes its record.
            cid = slot_ids.get(key)
            if cid is None:
                cid = slot_ids[key] = len(slot_ids) + 1
                crossings[cid] = CrossingRecord(cid, role is Role.THROUGH, sign)
                crossing_map[cid] = key
            trace.append(Passage(cid, role))

        # A passage rides bundle 1 when it is the over passage of a real
        # crossing or the first passage of a virtual one, that is when the
        # frame f read from it is the stored sign.  It meets the other
        # bundle's copies in the order f fixes, and every intersection keeps
        # the frame f read from it; only the diagonal intersection of a real
        # tile keeps the passage's role.
        for t, p in enumerate(comp):
            rec = d.crossings[p.crossing]
            f = frames[t]
            on_a = f == rec.sign
            for o in range(1, r + 1) if f > 0 else range(r, 0, -1):
                a, b = (cur, o) if on_a else (o, cur)
                if a == b and not rec.virtual:
                    emit(("diag", p.crossing, a), p.role, rec.sign)
                else:
                    emit(("off", p.crossing, a, b), Role.THROUGH, f)
            if rec.virtual:
                # The mover crosses the rest of its bundle with frame -s.
                s = -f * _SHIFT_ORIENTATION
                bundle = 1 if on_a else 2
                if cur == (r if s > 0 else 1):
                    for q in range(r - 1, 0, -1) if s > 0 else range(2, r + 1):
                        emit(("shift", p.crossing, bundle, q), Role.THROUGH, -s)
                else:
                    emit(("shift", p.crossing, bundle, cur), Role.THROUGH, s)
                cur = (cur - 1 + s) % r + 1
            edge_map[(t, cur)] = (ell - 1, len(trace) - 1)
        if m == 0:
            edge_map[(0, ell)] = (ell - 1, None)
        assert cur == ell, "bundle shifts around the circle must cancel"
        out_components.append(trace)

    out = Diagram(tuple(tuple(c) for c in out_components), crossings)
    out.validate()
    prov = Provenance(
        r=r,
        crossing_map=crossing_map,
        edge_map=edge_map,
        component_map={i: i for i in range(1, r + 1)},
    )
    return out, prov


def covering(d: Diagram, r: int) -> Diagram:
    """Replace every real crossing whose index is not divisible by r with a
    virtual crossing carrying the same frame orientation."""
    d = checked(d, Diagram, ValidationError, "diagram")
    if d.n_components() != 1:
        raise NotAKnot("coverings are defined for one-component diagrams")
    r = checked(r, int, BadR, "r")
    if r < 1:
        raise BadR(f"need r >= 1, got {r}")
    if r == 1:
        return d
    to_virtualize = []
    for cid, rec in d.crossings.items():
        if not rec.virtual and crossing_indices(d, cid).ind % r != 0:
            to_virtualize.append(cid)
    if not to_virtualize:
        return d
    crossings = dict(d.crossings)
    comp = list(d.components[0])
    for cid in to_virtualize:
        a, b = d.passage_index[cid]
        crossings[cid] = CrossingRecord(cid, True, d.frame(cid, a))
        comp[a[1]] = comp[b[1]] = Passage(cid, Role.THROUGH)
    out = Diagram((tuple(comp),), crossings)
    out.validate()
    return out


def extract_component(d: Diagram, i: int) -> Diagram:
    """Keep component `i` (1-based) and only the crossings lying entirely on it."""
    d = checked(d, Diagram, ValidationError, "diagram")
    i = checked(i, int, BadComponent, "component index")
    if not 1 <= i <= d.n_components():
        raise BadComponent(f"component {i} of {d.n_components()}")
    ci = i - 1
    pos = d.passage_index
    keep = {
        p.crossing for p in d.components[ci] if all(cj == ci for cj, _ in pos[p.crossing])
    }
    comp = tuple(p for p in d.components[ci] if p.crossing in keep)
    crossings = {cid: d.crossings[cid] for cid in keep}
    out = Diagram((comp,), crossings)
    out.validate()
    return out
