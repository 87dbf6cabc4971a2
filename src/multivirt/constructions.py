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
its shift slots).  Its passages and its record come from `model._passage`
and `model._record`, which intern every value whose crossing id is below
`model._INTERN_BOUND` (2**14); the values of a virtual one are first
looked up in the intern tables inline, which saves two calls per crossing.
Every multiplex after the first reuses the values of the ids it shares
with earlier builds instead of allocating them, and the two passages of a
virtual output crossing are one shared `Passage`, shared across builds too.
Both classes are frozen, so sharing is not observable.  `covering` takes
its virtualized crossings' values from there.  The ids of the diagonal
crossings, the link's real ones, are listed as they are made, in id order,
and handed to `Diagram._made` with the tables: the link's memo holds them
from the start, so its invariants and `n_real` never scan its virtual
crossings.

`covering` reads the index of each real crossing off the memoized prefix
sums of `invariants._indices`, and `extract_component` reads what it keeps
off one memoized sweep of the passage index (`_own`), so the r extractions
of one link read its index once.

The build emits only the link: `Provenance.crossing_map` is read off the slot
tables on first use.  A slot's index k gives (a, b) = divmod(k, r), and its
first-visit passage gives the kind: a passage that is not THROUGH is a
diagonal, a row a >= r is a shift slot, and a `None` slot is a shift slot
that no copy takes.  Until a caller reads the map, it costs one reference to
the tables.  Like every map of a `Provenance`, it refuses every change.

`multiplex` keeps its last build in a one-slot cache, `_LAST`, so that a
caller that asks for the same multiplex several times in a row, as `verify`
does with its three per-r checks, builds it once.  A call hits the slot after
every argument check, the size limit and the abstract-genus warning, so it
raises and warns as a build would, when its source is the very `Diagram`
object of the kept build (a `Diagram` cannot change) and its r is equal; it
returns the kept link and provenance themselves, which nothing can change.
A miss empties the slot before it emits, so the old build can be freed
while the new one is made, and keeps the new build only when it has fewer
crossings than `model._INTERN_BOUND`, read at each call: a huge build is
never pinned.  The slot is one tuple replaced in a single store, so threads
that share it never read a torn entry; a race between them can only cost a
spare build.

The braid orientation is a single global bit: at a virtual tile the bundle
that the other bundle crosses left to right shifts its copies one step, the
other bundle shifts the opposite way.  `_SHIFT_ORIENTATION` fixes which step
is +1; it is pinned so that the linking numbers of the multiplexed link equal
the writhe sums over index classes n = i - j (mod r), and flipping it would
flip that congruence to j - i.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass

from . import model
from .errors import BadComponent, BadR, NotAKnot, TooLarge, ValidationError, checked
from .invariants import _indices
from .model import _THROUGH, Diagram, _fill, _memoized, _passage, _ReadOnly, _record
from .planar import genus

_SHIFT_ORIENTATION = -1

# `multiplex` refuses an output of more passages than this (of more circles,
# for a crossing-free source) before it allocates any of it.
MAX_PASSAGES = 10**6

# The last build that `multiplex` kept: one tuple (source, r, link,
# provenance), replaced in a single store, or None.
_LAST = None


class _CrossingMap(Mapping):
    """The crossing map of one build, read off its slot tables (source
    crossing id -> the first-visit passage of each slot, or None) on first
    use.  The first read fills a read-only dict in id order, and every read,
    comparison, print and pickle goes to that dict; every change is refused
    as that dict refuses it."""

    __slots__ = ("_r", "_tables", "_map")

    def __init__(self, r: int, tables: dict[int, list]):
        self._r, self._tables, self._map = r, tables, None

    def _filled(self) -> dict[int, tuple]:
        if self._map is None:
            r, keys = self._r, {}
            for c, slots in self._tables.items():
                for k, op in enumerate(slots):
                    if op is not None:
                        a, b = divmod(k, r)
                        keys[op.crossing] = ("diag", c, a + 1) if op.role is not _THROUGH else (
                            ("off", c, a + 1, b + 1) if a < r else ("shift", c, a - r + 1, b + 1))
            self._map = _ReadOnly(sorted(keys.items()))
        return self._map

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = (
        _ReadOnly._refuse
    )

    def __getitem__(self, cid):
        return self._filled()[cid]

    def __iter__(self):
        return iter(self._filled())

    def __len__(self):
        return len(self._filled())

    def __repr__(self):
        return repr(self._filled())

    def __reduce__(self):
        return self._filled().__reduce__()


@dataclass(frozen=True)
class Provenance:
    """Where every crossing and edge of a multiplexed diagram came from.

    crossing_map: output crossing id -> ("diag", source id, copy)
                  | ("off", source id, a, b) | ("shift", source id, bundle, p);
                  in a `multiplex` result a mapping that reads it off the
                  build's slot tables on first use and then acts as that
                  table
    edge_map:     (source edge index, copy position) -> (component, gap index)
                  with gap None for a crossing-free circle
    component_map: output component (1-based) -> copy position at the basepoint

    The constructor reads r as `multiplex` does and refuses with
    ValidationError a map that is not a `Mapping` or an entry of another
    shape than the above: crossing ids and source ids ints >= 1, copies in
    1..r, a bundle 1 or 2, edge indices, components and gaps ints >= 0, a
    number equal to such an int being read as it, as `colorings` reads a
    gap.  It keeps a copy of each map in a table that refuses every change
    (`model._ReadOnly`).  `multiplex` hands over the maps it has just
    written through `_made`, unchecked.  A provenance is checked once and
    never changed, so `multiplex` hands out the one it keeps.
    """

    r: int
    crossing_map: Mapping[int, tuple]
    edge_map: Mapping[tuple[int, int], tuple[int, int | None]]
    component_map: Mapping[int, int]

    def __post_init__(self):
        r = _fold(self.r, 2)
        maps = []
        for name in ("crossing_map", "edge_map", "component_map"):
            table = checked(getattr(self, name), Mapping, ValidationError, name)
            for key, value in table.items():
                if not _fits(name, key, value, r):
                    raise ValidationError(f"{name}: {key!r} -> {value!r} is no entry at r = {r}")
            maps.append(_ReadOnly(table))
        _fill(self, r, *maps)

    @classmethod
    def _made(cls, r, crossing_map, edge_map, component_map) -> Provenance:
        """The provenance of the maps that `multiplex` has just written, kept
        without the check: `crossing_map` a `_CrossingMap`, the other two
        dicts, which are kept as `_ReadOnly` copies."""
        edge_map, component_map = _ReadOnly(edge_map), _ReadOnly(component_map)
        return _fill(object.__new__(cls), r, crossing_map, edge_map, component_map)

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


def _fits(name: str, key, value, r: int) -> bool:
    """Whether `key` -> `value` has the shape of an entry of the map `name`
    of a `Provenance` at r."""
    one, copy, some = (1, None), (1, r), (0, None)  # (least, greatest) of an int
    if name == "crossing_map":
        tile = {"diag": (one, copy), "off": (one, copy, copy), "shift": (one, (1, 2), copy)}
        kind = value[0] if type(value) is tuple and value and type(value[0]) is str else ""
        return _ints((key,), one) and kind in tile and _ints(value[1:], *tile[kind])
    if name == "edge_map":  # a gap of None is read as 0
        at = (*value[:1], 0) if type(value) is tuple and value[1:] == (None,) else value
        return _ints(key, some, copy) and _ints(at, some, some)
    return _ints((key, value), copy, copy)


def _ints(values, *bounds) -> bool:
    """Whether `values` is a tuple of numbers equal to ints (1.0 and True
    equal 1), one per (least, greatest) pair of `bounds`, each within its
    pair; a greatest of None bounds nothing."""
    one_each = type(values) is tuple and len(values) == len(bounds)
    return one_each and all(map(_within, values, bounds))


def _within(v, bounds) -> bool:
    """Whether `v` equals an int within the (least, greatest) pair `bounds`."""
    lo, hi = bounds
    try:
        return v == int(v) and lo <= v and (hi is None or v <= hi)
    except (TypeError, ValueError, OverflowError):  # no number, or not finite
        return False


def _fold(r, least: int) -> int:
    """`r` as an int if it is an integer >= `least`; else raise BadR."""
    r = checked(r, int, BadR, "r")
    if r < least:
        raise BadR(f"need r >= {least}, got {r}")
    return r


def multiplex(d: Diagram, r: int) -> tuple[Diagram, Provenance]:
    """Build the r-component multiplexed link of a knot diagram, with provenance.

    Raises TooLarge when the link would have more than MAX_PASSAGES passages,
    or a crossing-free source more than MAX_PASSAGES circles.  A repeated
    call on the same diagram object and r returns the kept link and
    provenance of the last call (see the module docstring)."""
    d = checked(d, Diagram, ValidationError, "diagram")
    if d.n_components() != 1:
        raise NotAKnot("multiplexing is defined for one-component diagrams")
    r = _fold(r, 2)
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
    global _LAST
    last = _LAST
    if last is not None and last[0] is d and last[1] == r:
        return last[2], last[3]
    # Drop the old build before emitting, so that it is not alive beside the new one.
    _LAST = last = None

    crossings: dict[int, CrossingRecord] = {}
    nid = 1  # the next crossing id
    # The slots of a source crossing, in one table of rows of r: grid slot
    # (a, b) at (a - 1) * r + b - 1, then for a virtual crossing shift slot
    # (bundle, q) at (r + bundle - 1) * r + q - 1.  A slot holds the output
    # passage emitted at its first visit.  Passages are emitted in canonical
    # order, so that visit fixes the id and the record: the frame read there,
    # or the source sign for a diagonal crossing.  The tables are kept as the
    # crossing map of the provenance.
    tables = {c: [None] * (rr + 2 * r if rec.virtual else rr) for c, rec in d.crossings.items()}
    grid = [divmod(k, r) for k in range(rr + 2 * r)]  # slot index -> (row, column)
    # The intern tables of virtual values, read inline: most output crossings
    # are virtual, and a warm build finds each of them there.
    vpassages, vrecs = model._PASSAGES[_THROUGH._value_], model._RECORDS[True]
    # The tables that `validate` would sweep, written as passages are emitted:
    # a crossing's first position when its slot is made, so that the index
    # is keyed in id order, which is first-appearance order, and its second
    # at the second visit; the frame of a passage is the frame of its run.
    out_components, out_frames, index = [], [], {}
    real = []  # the diagonal crossings of the real tiles, in id order
    edge_map: dict[tuple[int, int], tuple[int, int | None]] = {}
    for ell in range(1, r + 1):
        cur = ell
        trace, frame, pos = [], [], 0  # pos: the next position on the circle
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
                        cid, nid = nid, nid + 1
                        a, b = grid[k]
                        if a == b and not rec.virtual:
                            crossings[cid] = _record(cid, False, rec.sign)
                            op = _passage(cid, p.role)
                            real.append(cid)
                        else:
                            crossings[cid] = vrecs[sign].get(cid) or _record(cid, True, sign)
                            op = vpassages.get(cid) or _passage(cid, _THROUGH)
                        slots[k] = op
                        index[cid] = (ell - 1, pos)
                    else:
                        index[op.crossing] = (index[op.crossing], (ell - 1, pos))
                        if op.role is not _THROUGH:
                            op = _passage(op.crossing, p.role)  # a diagonal's other passage
                    trace.append(op)
                    pos += 1
                frame += [sign] * (pos - len(frame))
            edge_map[(t, cur)] = (ell - 1, pos - 1)
        if m == 0:
            edge_map[(0, ell)] = (ell - 1, None)
        assert cur == ell, "bundle shifts around the circle must cancel"
        out_components.append(tuple(trace))
        out_frames.append(frame)

    prov = Provenance._made(r, _CrossingMap(r, tables), edge_map, {i: i for i in range(1, r + 1)})
    out = Diagram._made(tuple(out_components), crossings, index, out_frames, {"real": real})
    if len(crossings) < model._INTERN_BOUND:
        _LAST = (d, r, out, prov)
    return out, prov


def covering(d: Diagram, r: int) -> Diagram:
    """Replace every real crossing whose index is not divisible by r with a
    virtual crossing carrying the same frame orientation."""
    d = checked(d, Diagram, ValidationError, "diagram")
    if d.n_components() != 1:
        raise NotAKnot("coverings are defined for one-component diagrams")
    r = _fold(r, 1)
    if r == 1:
        return d
    to_virtualize = [c for c, n in _indices(d).items() if n % r]
    if not to_virtualize:
        return d
    crossings = dict(d.crossings)
    comp = list(d.components[0])
    for cid in to_virtualize:
        a, b = d._passage_index[cid]
        crossings[cid] = _record(cid, True, d.frame(cid, a))
        comp[a[1]] = comp[b[1]] = _passage(cid, _THROUGH)
    # Read from the first passage, a virtualized crossing's sign is the frame
    # read there before, so the positions and frames stay as they were.
    return Diagram._made((tuple(comp),), crossings, d._passage_index, d._frames)


def extract_component(d: Diagram, i: int) -> Diagram:
    """Keep component `i` (1-based) and only the crossings lying entirely on it."""
    d = checked(d, Diagram, ValidationError, "diagram")
    i = checked(i, int, BadComponent, "component index")
    if not 1 <= i <= d.n_components():
        raise BadComponent(f"component {i} of {d.n_components()}")
    kept, spots = _own(d)[i - 1]
    # The kept crossings keep their order, so each keeps the frame read from it.
    comp, frames = d.components[i - 1], d._frames[i - 1]
    comps = (tuple([comp[k] for k in kept]),)
    index = {cid: ((0, a), (0, b)) for cid, a, b in spots}
    crossings = {cid: d.crossings[cid] for cid in index}
    return Diagram._made(comps, crossings, index, [[frames[k] for k in kept]])


def _own(d: Diagram) -> list[tuple[list[int], list[tuple[int, int, int]]]]:
    """Per component of `d`, what `extract_component` keeps of it: the
    positions of the passages whose crossing lies entirely on it, in order,
    and each such crossing with the positions of its passages among them,
    in order of first appearance.  One sweep of the passage index, kept in
    the memo, so that the r extractions of an r-component link read it
    once."""
    return _memoized(d, "own", _swept)


def _swept(d: Diagram) -> list[tuple[list[int], list[tuple[int, int, int]]]]:
    """What `_own` keeps, computed afresh."""
    rows: list[list[tuple[int, int, int]]] = [[] for _ in d.components]
    for cid, ((c1, i1), (c2, i2)) in d._passage_index.items():
        if c1 == c2:
            rows[c1].append((cid, i1, i2))
    own = []
    for row in rows:
        kept = sorted([i for _, i1, i2 in row for i in (i1, i2)])
        at = {k: n for n, k in enumerate(kept)}
        own.append((kept, [(cid, at[i1], at[i2]) for cid, i1, i2 in row]))
    return own
