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

Each output crossing is made once, at its first passage, in a slot looked up
by an integer index in a table per source crossing (its r^2 grid slots, then
its shift slots).  The two passages of a virtual output crossing are one
shared `Passage` value; `Passage` is frozen, so sharing it is not observable.

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

from .errors import BadComponent, BadR, NotAKnot, TooLarge, ValidationError, checked
from .invariants import crossing_indices
from .model import _THROUGH, CrossingRecord, Diagram, Passage
from .planar import genus

_SHIFT_ORIENTATION = -1

# `multiplex` refuses an output of more passages than this (of more circles,
# for a crossing-free source) before it allocates any of it.
MAX_PASSAGES = 10**6


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
        for kind, src, *_ in self.crossing_map.values():
            census.setdefault(src, {"diag": 0, "off": 0, "shift": 0})[kind] += 1
        return census

    def to_json(self) -> dict:
        cmap = {}
        for cid in sorted(self.crossing_map):
            kind, src, *at = self.crossing_map[cid]
            if kind == "diag":
                cmap[str(cid)] = {"role": "diagonal", "source": src, "copy": at[0]}
            elif kind == "off":
                cmap[str(cid)] = {"role": "offdiagonal", "source": src, "copies": at}
            else:
                cmap[str(cid)] = {
                    "role": "bundle_shift", "source": src, "bundle": at[0], "position": at[1]
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
    """Build the r-component multiplexed link of a knot diagram, with provenance.

    Raises TooLarge when the link would have more than MAX_PASSAGES passages,
    or a crossing-free source more than MAX_PASSAGES circles."""
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
    m, rr = len(comp), r * r
    # Each source passage meets r copies on each of r circles, and a virtual
    # one adds 2(r - 1) shift passages in all.
    size = m * rr + 2 * (r - 1) * sum(p.role is _THROUGH for p in comp) if m else r
    if size > MAX_PASSAGES:
        raise TooLarge(f"{r}-fold multiplex: {size} passages or circles, over {MAX_PASSAGES}")

    crossings: dict[int, CrossingRecord] = {}
    crossing_map: dict[int, tuple] = {}
    # The slots of a source crossing, in one table of rows of r: grid slot
    # (a, b) at (a - 1) * r + b - 1, then for a virtual crossing shift slot
    # (bundle, q) at (r + bundle - 1) * r + q - 1.  A slot holds the output
    # passage emitted at its first visit.  Passages are emitted in canonical
    # order, so that visit fixes the id and the record: the frame read there,
    # or the source sign for a diagonal crossing.
    tables = {c: [None] * (rr + 2 * r if rec.virtual else rr) for c, rec in d.crossings.items()}
    out_components: list[tuple[Passage, ...]] = []
    edge_map: dict[tuple[int, int], tuple[int, int | None]] = {}
    for ell in range(1, r + 1):
        cur = ell
        trace: list[Passage] = []
        # A passage rides bundle 1 when it is the over passage of a real
        # crossing or the first passage of a virtual one, that is when the
        # frame f read from it is the stored sign.  It meets the other
        # bundle's copies in the order f fixes, and every intersection keeps
        # the frame f read from it; only the diagonal intersection of a real
        # tile keeps the passage's role.
        for t, p in enumerate(comp):
            c = p.crossing
            rec = d.crossings[c]
            f = frames[t]
            on_a = f == rec.sign
            row = range((cur - 1) * r, cur * r) if on_a else range(cur - 1, rr, r)
            runs = [(row if f > 0 else reversed(row), f)]  # slot indices, frame
            if rec.virtual:
                # The mover crosses the rest of its bundle (q = r - 1..1 or
                # 2..r) with frame -s, any other copy shifts past one strand.
                s = -f * _SHIFT_ORIENTATION
                base = rr if on_a else rr + r
                if cur == (r if s > 0 else 1):
                    qs = range(base + r - 2, base - 1, -1) if s > 0 else range(base + 1, base + r)
                    runs.append((qs, -s))
                else:
                    runs.append((range(base + cur - 1, base + cur), s))
                cur = (cur - 1 + s) % r + 1
            slots = tables[c]
            for ks, sign in runs:
                for k in ks:
                    op = slots[k]
                    if op is None:
                        cid = len(crossings) + 1
                        a, b = divmod(k, r)
                        diag = a == b and not rec.virtual
                        crossings[cid] = CrossingRecord(cid, not diag, rec.sign if diag else sign)
                        crossing_map[cid] = ("diag", c, a + 1) if diag else (
                            ("off", c, a + 1, b + 1) if a < r else ("shift", c, a - r + 1, b + 1))
                        op = slots[k] = Passage(cid, p.role if diag else _THROUGH)
                    elif op.role is not _THROUGH:
                        op = Passage(op.crossing, p.role)  # a diagonal's other passage
                    trace.append(op)
            edge_map[(t, cur)] = (ell - 1, len(trace) - 1)
        if m == 0:
            edge_map[(0, ell)] = (ell - 1, None)
        assert cur == ell, "bundle shifts around the circle must cancel"
        out_components.append(tuple(trace))

    prov = Provenance(
        r=r,
        crossing_map=crossing_map,
        edge_map=edge_map,
        component_map={i: i for i in range(1, r + 1)},
    )
    return Diagram(tuple(out_components), crossings), prov


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
        a, b = d._passage_index[cid]
        crossings[cid] = CrossingRecord(cid, True, d.frame(cid, a))
        comp[a[1]] = comp[b[1]] = Passage(cid, _THROUGH)
    return Diagram((tuple(comp),), crossings)


def extract_component(d: Diagram, i: int) -> Diagram:
    """Keep component `i` (1-based) and only the crossings lying entirely on it."""
    d = checked(d, Diagram, ValidationError, "diagram")
    i = checked(i, int, BadComponent, "component index")
    if not 1 <= i <= d.n_components():
        raise BadComponent(f"component {i} of {d.n_components()}")
    ci, pos = i - 1, d._passage_index
    # A crossing lies on the component when both of its passages do.
    comp = tuple(
        p for p in d.components[ci] if pos[p.crossing][0][0] == ci == pos[p.crossing][1][0]
    )
    return Diagram((comp,), {p.crossing: d.crossings[p.crossing] for p in comp})
