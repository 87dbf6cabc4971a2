"""Rewrites on diagram codes: kink insertion/deletion, strand pokes across a
face, triangle slides, and the underpass slide through a virtual crossing.

All rewrites are strict token-level templates: deletions require the bound
passages to be literally adjacent, and triangle slides are read off the
triangular faces of the embedding.  Insertion loci are taken from the face
structure too, so every applied rewrite is a local planar patch and genus-0
diagrams stay genus-0.

One enumeration per move kind defines the sites: `apply_move` accepts exactly
the sites that `find_moves` lists for the diagram (ignoring the size cap) and
raises `StaleSite` for any other.  Every group of sites is counted before it
is built: a deletion or triangle group keeps the (variant, locus) entry of
each site, an insertion group of a kind is every variant at every locus,
and a `MoveSite` is built only when it is read, so a walk step draws
uniformly over the counted list that `find_moves` returns, in its order, and
builds only the site it applies.  A group finds a given site by comparing
its entry, without building a site.  Kink loci are the gaps, counted per
component and each built when it is read.  Face sites are read off the
integer face trace of `planar._trace`, which traces the diagram once; only a
search that asks for a poke kind has `faces` name its cycles.  Poke loci are
counted from the lengths of the integer cycles: a cycle that runs along an
edge twice (it holds both darts of the edge) is the only one listed, and a
dart pair is read off the named cycle only when it is read.  A given poke
is found in the one named cycle that holds its first dart, compared by
equality.  The triangle stage reads each integer 3-dart cycle once, dart k
on gap k >> 1 of the component found by bisecting the component offsets:
its bound gaps, crossing ids and pattern together.  It looks the pattern up
in a table built once from the templates and their six labelings, keyed by
the pattern of the bound triangle with no labeling in it.  One sweep over
the gaps lists the sites of every deletion kind (R1del, VR1del, R2del,
VR2del), testing each gap where it sits: a cancelling pair is found at its
first gap, and its partner gap is read off the passage index.  The site
search reads frames off the diagram's frame table and compares roles by
identity rather than hashing them.  Both stages list the entries of every
kind of their stage and keep them in the diagram's memo, beside the face
trace, so a diagram is searched once.

A rewrite is a set of position edits applied by one splice, `_rewrite`: a
deletion replaces every passage of the crossings it removes by nothing, a
kink or poke places a pair of new passages after a gap, and a triangle slide
swaps the two passages of each of its three bound gaps.  New crossing signs
follow the frame rule of `model`.  `_rewrite` checks its patch, not the
whole diagram: it hands the crossings that the edits or the new records
touch to `model._tables`, the routine that `Diagram.validate` runs on every
crossing, which sweeps the passage index, checks each of those crossings,
writes both its frames by the frame rule and refuses a record left without
passages.  It then hands its tables over to `Diagram._made`, sharing every
frame row it did not write with the diagram it rewrote.

A rewrite also carries the site entries of the diagram it rewrote, as far
as its memo holds them, to the diagram it makes (`_carry`).  The splice cuts
the gaps next to a passage it removes or inside which it places passages,
and lays the gaps that run to or from a placed passage or join two passages
that a removal left adjacent (`_Patch`); a component whose length changes
from or to 2, where the kink rule reads the length, is cut and laid whole.
Every other gap is kept, shifted by the splice.  Both stages carry by one
rule: an entry that reads only kept gaps is carried with its positions
shifted, and the stage's own test runs where the splice laid gaps, the
deletion stage on the laid gaps and the triangle stage on the 3-dart faces
of the new diagram that hold a laid dart, on its face trace, which the
rewrite traces afresh and keeps.  The results merge by the orders that the
stages define, so a carried entry list equals the one computed afresh; the
tests check that on every rewrite.  The stages computed from scratch remain
the definition for a diagram that no rewrite made.  The face trace itself
is not carried: its cycles and marks are positional, so carrying them
means rewriting every dart after the patch, which at walk sizes costs as
much as tracing afresh.

The triangle template table is generated from an explicit drawing: three
oriented lines A(t) = (t, 1-t), B(t) = (t, 0), C(t) = (t, 1+t) meeting at
x = A^B, y = A^C, z = B^C, with all eight orientation choices.  The crossing
order along each strand follows the line parameters and the sign of each
crossing is the cross product of the two strand directions.  A slide
transposes the two passages inside each of the three bound gaps, so templates
are recorded together with their transposed forms.

Each triangle family is one or more rows of `_FAMILY_ROLES`, a role
character (O, U or V) per passage of the drawing: x on A, x on B, y on A,
y on C, z on B, z on C.  A template's roles, its virtual set (the crossings
passed V) and the family's move kind are all derived from its row, so a new
family is one more row.  The families, by which crossings are virtual and
who is on top:

  R3   all real; one strand over both its crossings, one under both
  VR3  all virtual
  VR4  the slid strand crosses virtually; the crossing it slides past is real
  FU   the slid strand passes under two real crossings and slides past a
       virtual one; not an equivalence move, but it preserves virtual
       coloring counts
"""

from __future__ import annotations

import os
import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, permutations, product
from operator import itemgetter

from .errors import ParseError, StaleSite, ValidationError, checked
from .model import _OVER, _THROUGH, CrossingRecord, Diagram, Passage, Role, _memoized, _tables
from .planar import _trace, _traced, faces

MOVE_KINDS = (
    "R1+ins",
    "R1-ins",
    "R1del",
    "R2ins",
    "R2del",
    "R3",
    "VR1ins",
    "VR1del",
    "VR2ins",
    "VR2del",
    "VR3",
    "VR4",
    "FU",
)

DEFAULT_SIZE_CAP = 64
_POKE_WINDOW = 2  # how far around a face boundary a poke may reach
# Variants of each insertion kind: kinks go into a gap, pokes across a face.
_VARIANTS = {
    "R1+ins": (("OU", 1), ("UO", 1)),
    "R1-ins": (("OU", -1), ("UO", -1)),
    "VR1ins": (("VV", 1), ("VV", -1)),
    "R2ins": (("over",), ("under",)),
    "VR2ins": (("virtual",),),
}
_POKE_KINDS = {"R2ins", "VR2ins"}
_DELETION_KINDS = {"R1del", "VR1del", "R2del", "VR2del"}


def size_cap_from_env() -> int:
    raw = os.environ.get("MULTIVIRT_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"MULTIVIRT_SIZE_CAP must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class MoveSite:
    kind: str
    variant: tuple
    locus: tuple

    def to_json(self) -> dict:
        return {"kind": self.kind, "variant": list(self.variant), "locus": _deep_list(self.locus)}

    @staticmethod
    def from_json(obj: dict) -> "MoveSite":
        if not isinstance(obj, dict):
            raise ParseError(f"a move site is a JSON object, got {type(obj).__name__}")
        missing = [key for key in ("kind", "variant", "locus") if key not in obj]
        if missing:
            raise ParseError(f"move site lacks {', '.join(missing)}")
        if not isinstance(obj["kind"], str):
            raise ParseError("move site kind must be a string")
        try:
            return MoveSite(obj["kind"], _deep_tuple(obj["variant"]), _deep_tuple(obj["locus"]))
        except RecursionError:
            raise ParseError("move site nested too deeply") from None


def _deep_list(x):
    return [_deep_list(v) for v in x] if isinstance(x, (tuple, list)) else x


def _deep_tuple(x):
    return tuple(_deep_tuple(v) for v in x) if isinstance(x, (tuple, list)) else x


# -- triangle templates ------------------------------------------------------

_STRANDS = ("A", "B", "C")
_PAIR_OF = {"x": ("A", "B"), "y": ("A", "C"), "z": ("B", "C")}
# The passages of the drawing, (strand, crossing), in the order of a row of
# `_FAMILY_ROLES`: x on A, x on B, y on A, y on C, z on B, z on C.
_SLOTS = tuple((s, c) for c, pair in _PAIR_OF.items() for s in pair)
# One row per role pattern of a triangle family: the role of each slot.
_FAMILY_ROLES = (
    ("R3", "OUOUOU"),
    ("VR3", "VVVVVV"),
    ("VR4", "VVVVOU"),
    ("VR4", "VVVVUO"),
    ("FU", "UOUOVV"),
)
_TRIANGLE_KINDS = {fam for fam, _ in _FAMILY_ROLES}


@dataclass(frozen=True)
class _Template:
    orders: tuple[tuple[str, str], ...]  # crossing labels met along A, B, C
    roles: tuple  # ((strand, crossing, role-char), ...)
    virtual: frozenset
    frames: tuple[tuple[str, int], ...]  # crossing -> frame(dir first strand, dir second)


def _generate_triangle_templates() -> dict[str, tuple[_Template, ...]]:
    """The templates of every family, each row of `_FAMILY_ROLES` under all
    eight orientations, each with its orders transposed too; a crossing is
    virtual when its passages are "V"."""
    out: dict[str, list[_Template]] = {fam: [] for fam, _ in _FAMILY_ROLES}
    for dA, dB, dC in product((1, -1), repeat=3):
        orders = {
            "A": ("y", "x") if dA > 0 else ("x", "y"),
            "B": ("z", "x") if dB > 0 else ("x", "z"),
            "C": ("z", "y") if dC > 0 else ("y", "z"),
        }
        frames = (("x", dA * dB), ("y", dA * dC), ("z", dB * dC))
        for family, row in _FAMILY_ROLES:
            roles = tuple(sorted((s, c, r) for (s, c), r in zip(_SLOTS, row)))
            virtual = frozenset(c for (_, c), r in zip(_SLOTS, row) if r == "V")
            for flip in (False, True):
                o = tuple(orders[s][::-1] if flip else orders[s] for s in _STRANDS)
                tpl = _Template(o, roles, virtual, frames)
                if tpl not in out[family]:
                    out[family].append(tpl)
    return {k: tuple(v) for k, v in out.items()}


_TRIANGLE_TEMPLATES = _generate_triangle_templates()


@cache
def _triangle_table() -> dict[tuple, list[tuple[str, int, tuple[int, int, int]]]]:
    """Lookup, built on first use, from the pattern of a bound triangle to
    every (family, template index, labeling) it matches, in labeling order.
    The pattern numbers the three crossings 0, 1, 2 in id order and lists
    each bound gap as its two flanks (number, role, frame read from that
    passage), gaps sorted; a labeling gives the numbers of the crossings x,
    y, z."""
    table: dict[tuple, list] = {}
    for perm in permutations(range(3)):
        number = dict(zip(("x", "y", "z"), perm))
        for fam, tpls in _TRIANGLE_TEMPLATES.items():
            for ti, tpl in enumerate(tpls):
                role = {(s, c): r for s, c, r in tpl.roles}
                frame = dict(tpl.frames)  # read from the crossing's first strand
                gaps = (
                    tuple(
                        (number[c], role[(s, c)], frame[c] if _PAIR_OF[c][0] == s else -frame[c])
                        for c in order
                    )
                    for s, order in zip(_STRANDS, tpl.orders)
                )
                table.setdefault(tuple(sorted(gaps)), []).append((fam, ti, perm))
    return table


# -- the splice --------------------------------------------------------------

# Roles of an inserted pair: a kink's two passages in order, or a poke's
# poking strand then poked strand.
_ROLES = {
    "OU": (Role.OVER, Role.UNDER),
    "UO": (Role.UNDER, Role.OVER),
    "VV": (Role.THROUGH, Role.THROUGH),
    "over": (Role.OVER, Role.UNDER),
    "under": (Role.UNDER, Role.OVER),
    "virtual": (Role.THROUGH, Role.THROUGH),
}


def _rewrite(d: Diagram, edits, records) -> Diagram:
    """The one splice every rewrite goes through.  `edits` maps a passage
    position (ci, i) to the passages that replace it, (ci, -1) standing for
    the start of an empty component; `records` is merged into the crossing
    table, None dropping a crossing.  Later positions are spliced first, so
    the positions of the edits are those of `d`; the frame rows are spliced
    alike.

    The patch is checked, not the diagram: `model._tables`, the routine
    that `Diagram.validate` runs on every crossing, sweeps the passage index
    and checks and writes the crossings the patch touches, those of the
    passages an edit replaces or places and those of `records`, and refuses
    a record left without passages, with `validate`'s messages.  Every
    other crossing keeps its passages, record and frames from `d`, and each
    frame row that no write reaches stays shared with `d`.

    The deletion and triangle entries that `d`'s memo holds are carried to
    the child by `_carry`, which tests again only what the patch touched,
    in a memo dict of the child's own.  The tables and that memo, or None
    when `d` holds no entries, go to `Diagram._made`."""
    components, frames, touched = list(d.components), list(d._frames), set(records)
    for (ci, i), new in sorted(edits.items(), reverse=True):
        touched.update(p.crossing for p in components[ci][i : i + 1] + new)
        components[ci] = components[ci][:i] + new + components[ci][i + 1 :]
        frames[ci] = frames[ci][:i] + [0] * len(new) + frames[ci][i + 1 :]
    crossings = {**d.crossings, **records}
    for cid in [cid for cid, rec in records.items() if rec is None]:
        del crossings[cid]
    index, frames = _tables(components, crossings, frames, touched, d._frames)
    components = tuple(components)
    carried = d._memo.keys() & {"deletions", "triangles"}
    memo = _carry(d, components, crossings, index, frames, edits) if carried else None
    return Diagram._made(components, crossings, index, frames, memo)


class _Patch:
    """Where a splice of `_rewrite` changed its parent.  A gap (ci, g) runs
    from passage g of component ci to the next; counted over the whole
    diagram it is gap P = offset[ci] + g, and its darts are 2P and 2P + 1.

    The splice cuts a gap of the parent when it removes a passage at
    either end or places passages inside, and lays a gap of the child that
    runs from or to a passage it placed, or between two passages it kept
    that were not adjacent; `laid` maps each component to the gaps g it
    lays.  A component whose length changes from or to 2 is cut and laid
    whole, since the kink rule of `_deletion_entries` reads that length.
    Every other gap joins two passages that the splice keeps, adjacent in
    both, and its darts turn at both ends as in the parent, so a face that
    runs along such gaps only is a face of both.  `gap_map` gives the child
    gap P of each parent gap P, -1 for a cut one; the shift is constant
    between two edit positions, so the kept gaps map in order.  `offset`
    and `parent_offset` are the child's and the parent's offsets, each with
    the passage count last."""

    def __init__(self, d: Diagram, components, edits):
        comps = d.components
        poff = self.parent_offset = [0, *accumulate(map(len, comps))]
        offset = self.offset = [0, *accumulate(map(len, components))]
        gap_map, cut, runs = [], [], []
        start = delta = 0
        for (ci, i), new in sorted(edits.items()):
            # Passages start .. end - 1 keep their shift; the edit at i (at
            # the start of an empty component when i is -1) changes it.
            end = poff[ci] + i + 1
            gap_map += range(start + delta, end + delta)
            kept = i >= 0 and len(new) > 0 and new[0] is comps[ci][i]
            if i >= 0:
                cut.append(end - 1)
                if not kept:
                    cut.append(poff[ci] + (i - 1) % len(comps[ci]))
            # From the gap before the first passage placed to the last one
            # placed; when none is, the gap that joins the passages beside a
            # removal.
            first = max(end - 1, poff[ci]) + delta - offset[ci] + kept
            runs.append((ci, first - 1, first + len(new) - kept))
            start, delta = end, delta + len(new) - (i >= 0)
        gap_map += range(start + delta, poff[-1] + delta)
        for ci in {ci for ci, _ in edits}:
            n, m = len(comps[ci]), len(components[ci])
            if n != m and 2 in (n, m):
                cut += range(poff[ci], poff[ci + 1])
                runs.append((ci, 0, m))
        for gap in cut:
            gap_map[gap] = -1
        self.gap_map, self.laid = gap_map, {}
        for ci, a, b in runs:
            n = len(components[ci])
            if n:
                self.laid.setdefault(ci, set()).update([g % n for g in range(a, b)])


# How many gaps the locus of a site of each kind that `_carry` carries reads.
_LOCUS_GAPS = {"R1del": 1, "VR1del": 1, "R2del": 2, "VR2del": 2}
_LOCUS_GAPS |= dict.fromkeys(_TRIANGLE_KINDS, 3)


def _carry(d: Diagram, components, crossings, index, frames, edits) -> dict:
    """The child's memo, from the site entries that `d`'s memo holds.  Both
    stages carry by one rule over the gaps that `_Patch` keeps and lays:
    the entries on kept gaps only are moved by `_kept_entries` and merged,
    by the order the stage defines, with those that the stage's own test
    finds at the laid gaps.  The deletion stage tests the laid gaps with
    `_deletion_entries`; the triangle stage tests the child's 3-dart faces
    that hold a laid dart, found by the marks of the child's face trace,
    with `_triangle_entries`, and keeps that trace.  No list of `d`'s memo
    is changed."""
    parent, memo, stages = d._memo, {}, {}
    patch = _Patch(d, components, edits)
    laid, offset, poff = patch.laid, patch.offset, patch.parent_offset
    if "triangles" in parent:
        cycles, marks = memo["trace"] = _traced(components, index, frames)
        darts = [2 * (offset[ci] + g) + s for ci in laid for g in laid[ci] for s in (0, 1)]
        faces3 = [cycles[c] for c in {~marks[k] for k in darts} if len(cycles[c]) == 3]
        stages["triangles"] = (
            _triangle_entries(components, frames, offset, faces3),
            lambda entry: _triangle_key(components, entry[1]),
        )
    if "deletions" in parent:
        stages["deletions"] = (
            _deletion_entries(components, crossings, index, frames, laid),
            itemgetter(1),
        )
    for stage, (found, key) in stages.items():
        memo[stage] = {
            kind: _merged(
                _kept_entries(listed, patch.gap_map, poff, offset, _LOCUS_GAPS[kind]),
                found[kind],
                key,
            )
            for kind, listed in parent[stage].items()
        }
    return memo


def _kept_entries(entries, gap_map, parent_offset, offset, gaps: int) -> list:
    """The (variant, locus) entries whose gaps (ci, g) all survive a splice,
    each moved to the child's gap by `gap_map`, -1 standing for a cut gap:
    a locus is one gap when `gaps` is 1, else a tuple of `gaps` gaps.
    Written out per width, so no entry builds a list."""
    if not entries:
        return entries
    gm, po, of = gap_map, parent_offset, offset  # short names keep the lines whole
    if gaps == 1:
        return [(v, (ci, x - of[ci])) for v, (ci, g) in entries if (x := gm[po[ci] + g]) >= 0]
    if gaps == 2:
        return [
            (v, ((c1, x - of[c1]), (c2, y - of[c2])))
            for v, ((c1, g1), (c2, g2)) in entries
            if (x := gm[po[c1] + g1]) >= 0 and (y := gm[po[c2] + g2]) >= 0
        ]
    return [
        (v, ((c1, x - of[c1]), (c2, y - of[c2]), (c3, z - of[c3])))
        for v, ((c1, g1), (c2, g2), (c3, g3)) in entries
        if (x := gm[po[c1] + g1]) >= 0 and (y := gm[po[c2] + g2]) >= 0
        and (z := gm[po[c3] + g3]) >= 0
    ]


def _merged(kept: list, found, key) -> list:
    """The entries kept, sorted by `key`, and those found (a list in any
    order, or None), as one list sorted by `key`."""
    return sorted(kept + found, key=key) if found else kept


def _fresh_ids(d: Diagram, k: int) -> list[int]:
    base = max(d.crossings, default=0)
    return [base + i + 1 for i in range(k)]


def _after(d: Diagram, ci: int, g: int, pair: tuple) -> dict:
    """The edit that inserts `pair` into gap g of component ci."""
    comp = d.components[ci]
    return {(ci, g): (comp[g], *pair)} if comp else {(ci, -1): pair}


def _apply_deletion(d: Diagram, site: MoveSite) -> Diagram:
    """Remove the crossings flanking the first bound gap (a kink's one, a
    cancelling pair's two) together with all their passages."""
    ci, g = site.locus[0] if site.kind in ("R2del", "VR2del") else site.locus
    comp = d.components[ci]
    cids = {comp[g].crossing, comp[(g + 1) % len(comp)].crossing}
    edits = {pos: () for cid in cids for pos in d._passage_index[cid]}
    return _rewrite(d, edits, dict.fromkeys(cids))


def _apply_kink_insertion(d: Diagram, site: MoveSite) -> Diagram:
    (ci, g), (order, sign) = site.locus, site.variant
    (cid,) = _fresh_ids(d, 1)
    pair = tuple(Passage(cid, role) for role in _ROLES[order])
    return _rewrite(d, _after(d, ci, g, pair), {cid: CrossingRecord(cid, order == "VV", sign)})


# -- site lists ------------------------------------------------------------


class _Counted(Sequence):
    """A sequence counted per part, each item built when it is read: ends[c]
    and ends[c + 1] bound the items of part c, and the item at k is read off
    the pair (c, k - ends[c]) of its part and its place in the part."""

    def __len__(self):
        return self.ends[-1]

    def __getitem__(self, k):
        k = range(len(self))[k]  # bounds and negative indices as for a list
        c = bisect_right(self.ends, k) - 1
        return c, k - self.ends[c]


class SiteList(_Counted):
    """The sites `find_moves` lists, the groups of every kind one after the
    other in MOVE_KINDS order, counted per group.  Its length is counted
    without building a site; a site is built when it is indexed or iterated
    to."""

    def __init__(self, groups):
        self._groups, self.ends = groups, [0, *accumulate(map(len, groups))]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        group, k = super().__getitem__(i)
        return self._groups[group][k]

    def __iter__(self):
        for group in self._groups:
            yield from group

    def __eq__(self, other):
        if not isinstance(other, (SiteList, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


class _Group(SiteList):
    """The sites of one kind, each built from its (variant, locus) entry
    only when it is read; the deletion and triangle stages list the
    entries.  Like any SiteList it equals the list of its sites."""

    def __init__(self, kind: str, entries):
        self.kind, self.entries = kind, entries

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return MoveSite(self.kind, *self.entries[i])

    def __iter__(self):
        return (MoveSite(self.kind, variant, locus) for variant, locus in self.entries)

    def index(self, site):
        """Position of the first entry equal to the variant and locus of
        `site`, a site of this kind, compared by tuple equality (1.0 and
        True name 1) without building a site; ValueError if none is."""
        return self.entries.index((site.variant, site.locus))


# -- poke (two-crossing) sites -----------------------------------------------


def _window(s: int) -> list[tuple[int, int]]:
    """The position pairs (i, j) of a cycle of s darts within the poke
    window, by i, then by the distance from i to j."""
    reach = range(1, min(_POKE_WINDOW, s - 1) + 1)
    return [(i, (i + w) % s) for i in range(s) for w in reach]


class _Pokes(_Counted):
    """The poke candidates of a diagram's face cycles, each built when it is
    read: ordered co-facial dart pairs (d1, d2) within the poke window, d1
    and d2 on distinct edges, by cycle, then by the position of d1, then by
    the distance to d2.  d1 is the poking strand, d2 the edge poked across.

    `traced` is what `planar._trace` returns, integer cycles with their
    dart marks, and `named` is what `faces` returns, the same cycles named.
    A cycle of s darts on distinct edges has s * min(window, s - 1)
    candidates and is only counted; a cycle runs along edge e twice exactly
    when it holds both darts 2e and 2e + 1, and such a cycle is listed as
    pairs of positions.  A candidate is found by bisecting the per-cycle
    ends and read off `named`."""

    def __init__(self, traced, named):
        cycles, marks = traced
        self.named = named
        counts = [s * min(_POKE_WINDOW, s - 1) for s in map(len, cycles)]
        self.listed = {}
        for c in {~mark for mark, other in zip(marks[::2], marks[1::2]) if mark == other}:
            cycle = cycles[c]
            pairs = _window(len(cycle))
            self.listed[c] = [(i, j) for i, j in pairs if cycle[i] >> 1 != cycle[j] >> 1]
            counts[c] = len(self.listed[c])
        self.ends = [0, *accumulate(counts)]

    def __getitem__(self, k):
        c, k = super().__getitem__(k)  # the cycle and the place in its candidates
        cycle = self.named[c]
        if c in self.listed:
            i, j = self.listed[c][k]
        else:
            i, w = divmod(k, min(_POKE_WINDOW, len(cycle) - 1))
            j = (i + w + 1) % len(cycle)
        return cycle[i], cycle[j]

    def __iter__(self):
        """The candidates in order, cycle by cycle, with no bisection."""
        for c, cycle in enumerate(self.named):
            for i, j in self.listed[c] if c in self.listed else _window(len(cycle)):
                yield cycle[i], cycle[j]

    def index(self, pair):
        """Position of the candidate equal to `pair`, looked for among those
        of the one cycle that holds its first dart, found by tuple equality
        (1.0 and True name 1); ValueError if none is."""
        if isinstance(pair, tuple) and len(pair) == 2:
            for c, cycle in enumerate(self.named):
                if pair[0] in cycle:
                    return super().index(pair, self.ends[c], self.ends[c + 1])
        raise ValueError(f"{pair!r} is not a poke candidate")


def _apply_poke(d: Diagram, site: MoveSite) -> Diagram:
    ((c1, g1, dir1), (c2, g2, dir2)), (variant,) = site.locus, site.variant
    cids = _fresh_ids(d, 2)
    role1, role2 = _ROLES[variant]
    pair1 = tuple(Passage(cid, role1) for cid in cids)
    pair2 = tuple(Passage(cid, role2) for cid in (cids[::-1] if dir1 == dir2 else cids))
    # The frame read from the poking strand is dir2 at the first new crossing
    # and -dir2 at the second.  A stored sign is the frame read from the over
    # passage, or at a virtual crossing from the first passage, which lies in
    # the earlier of the two gaps.
    reads_poking = (role1 is not _OVER, (c1, g1)) < (role2 is not _OVER, (c2, g2))
    sign = dir2 if reads_poking else -dir2
    virtual = role1 is _THROUGH
    records = {cid: CrossingRecord(cid, virtual, s) for cid, s in zip(cids, (sign, -sign))}
    return _rewrite(d, {**_after(d, c1, g1, pair1), **_after(d, c2, g2, pair2)}, records)


# -- deletion sites ----------------------------------------------------------


def _deletions(d: Diagram, kinds) -> dict[str, _Group]:
    """Deletion sites of the given kinds, read off the entries of every
    deletion kind that `_deletion_entries` lists from one sweep over all
    gaps, kept in the diagram's memo (or carried there by `_rewrite`)."""
    if not kinds:
        return {}
    entries = _memoized(d, "deletions", lambda d: _deletion_entries(
        d.components, d.crossings, d._passage_index, d._frames,
        {ci: range(len(comp)) for ci, comp in enumerate(d.components)}
    ))
    return {kind: _Group(kind, entries[kind]) for kind in kinds}


def _deletion_entries(components, crossings, index, frames, gaps) -> dict[str, list]:
    """The (variant, locus) entries of every deletion kind at the gaps that
    `gaps` maps each component to, each gap tested where it sits.  A kink
    (R1del, VR1del) is a gap flanked twice by one crossing.  A cancelling
    pair (R2del, VR2del) is found at either of its gaps (ci, g): flanks p
    and q of one role at two crossings a != b, with opposite frames read at
    the two passages.  Its partner is the gap between the other passages of
    a and b, in either order; a circle of two passages holds both gaps
    between its passages, and both are partners.  A real crossing is
    passed once over and once under, so the partner's flanks share a role
    too, and reading both frames from the other strands keeps them
    opposite.  A pair is listed once, at the first of its gaps that is
    tested, as (first gap, second gap).  Tested in order, every gap of
    every component, the sites come out by the first gap, then by the
    second."""
    out: dict[str, list] = {k: [] for k in _DELETION_KINDS}
    for ci, gs in gaps.items():
        comp, fr = components[ci], frames[ci]
        L = len(comp)
        if L < 2:
            continue  # a lone passage is not a kink: its partner is elsewhere
        for g in gs:
            h = (g + 1) % L
            p, q = comp[g], comp[h]
            a, b = p.crossing, q.crossing
            if a == b:
                if L > 2 or g == 0:  # a length-2 kink is matched at gap 0 only
                    out["VR1del" if crossings[a].virtual else "R1del"].append(((), (ci, g)))
            elif p.role is q.role and fr[g] == -fr[h]:
                (a1, a2), (b1, b2) = index[a], index[b]
                cx, i = a2 if a1 == (ci, g) else a1
                cy, j = b2 if b1 == (ci, h) else b1
                if cx != cy:
                    continue
                listed = out["VR2del" if p.role is _THROUGH else "R2del"]
                lo, hi = (i, j) if i < j else (j, i)
                # Gap lo joins adjacent passages; gap hi runs from the last
                # passage of the circle to the first.
                for k in [lo] * (hi - lo == 1) + [hi] * (hi - lo == len(components[cx]) - 1):
                    if (cx, k) > (ci, g):
                        listed.append(((), ((ci, g), (cx, k))))
                    elif k not in gaps.get(cx, ()):
                        listed.append(((), ((cx, k), (ci, g))))
    return out


# -- triangle sites ----------------------------------------------------------


def _triangle_sites(d: Diagram, kinds) -> dict[str, _Group]:
    """Triangle sites of the given kinds, read off the entries of every
    family that `_triangle_entries` lists from the 3-dart cycles of the
    diagram's integer face trace, kept in the diagram's memo (or carried
    there by `_rewrite`)."""
    if not kinds:
        return {}
    entries = _memoized(d, "triangles", lambda d: _triangle_entries(
        d.components, d._frames, [0, *accumulate(map(len, d.components))],
        [cycle for cycle in _trace(d)[0] if len(cycle) == 3]
    ))
    return {fam: _Group(fam, entries[fam]) for fam in kinds}


def _triangle_entries(components, frames, offset, faces3) -> dict[str, list]:
    """The (variant, locus) entries of every triangle family at the 3-dart
    faces `faces3`, integer cycles of `planar._traced`: dart k lies on gap
    P = k >> 1, of the last component ci whose offset (`offset`, the
    passage count last) is at most P, at g = P - offset[ci].  A face is a
    candidate when its three edges join three distinct crossings.  A 3-dart
    face never holds both darts of an edge, so its edges are distinct and
    sorting its darts sorts them.  A slide is only geometric when its three
    bound edges border a common empty triangle of the embedding; the role
    and sign patterns alone cannot see strands threaded through the corner
    vertices.

    Each face is read once: its bound gaps in edge order, its crossing ids,
    and the pattern that keys `_triangle_table`, whose first match of each
    family is the site.  Sites are listed by `_triangle_key`.  Two 3-dart
    faces cannot share all three edges at 4-valent crossings, so no edge
    set is listed twice."""
    out: dict[str, list] = {k: [] for k in _TRIANGLE_KINDS}
    table = _triangle_table()
    found = []
    for face in faces3:
        gaps = []  # (ci, g, p, q, frame at p, frame at q) per bound gap
        for k in sorted(face):
            ci = bisect_right(offset, k >> 1) - 1
            comp, fr, g = components[ci], frames[ci], (k >> 1) - offset[ci]
            h = (g + 1) % len(comp)
            gaps.append((ci, g, comp[g], comp[h], fr[g], fr[h]))
        cids = sorted({c for gap in gaps for c in (gap[2].crossing, gap[3].crossing)})
        if len(cids) != 3:
            continue
        # `_value_` is the role character; `.value` reads it through a descriptor.
        matches = table.get(tuple(sorted(
            ((cids.index(p.crossing), p.role._value_, fp), (cids.index(q.crossing), q.role._value_, fq))
            for _, _, p, q, fp, fq in gaps
        )))
        if matches is not None:
            locus = tuple(gap[:2] for gap in gaps)
            found.append((_triangle_key(components, locus), locus, matches, cids))
    found.sort(key=itemgetter(0))
    for _, locus, matches, cids in found:
        seen = set()
        for fam, ti, perm in matches:
            if fam not in seen:  # later matches are symmetries
                seen.add(fam)
                out[fam].append(((ti, tuple(cids[i] for i in perm)), locus))
    return out


def _triangle_key(components, locus):
    """The order of triangle sites: the lowest bound edge (ci, g), then the
    edge that shares that edge's first crossing comp[g].crossing, then the
    third edge."""
    first, u, v = locus
    (ci, g), (cu, gu) = first, u
    comp = components[cu]
    if components[ci][g].crossing not in (comp[gu].crossing, comp[(gu + 1) % len(comp)].crossing):
        u, v = v, u
    return first, u, v


def _apply_triangle(d: Diagram, site: MoveSite) -> Diagram:
    """Transpose the two passages inside each of the three bound gaps."""
    moved: dict[tuple[int, int], tuple[int, int]] = {}
    for ci, g in site.locus:
        h = (g + 1) % len(d.components[ci])
        moved[(ci, g)], moved[(ci, h)] = (ci, h), (ci, g)
    # A slide keeps the frame read from every strand, but swapping the
    # wrap-around gap of a component moves a passage between the ends of the
    # linear order, which can change which passage of a virtual crossing is
    # first; its sign is the frame read from the passage that is first now.
    records = {}
    for ci, i in moved:
        cid = d.components[ci][i].crossing
        if d.crossings[cid].virtual:
            first = min(d._passage_index[cid], key=lambda pos: moved.get(pos, pos))
            records[cid] = CrossingRecord(cid, True, d._frames[first[0]][first[1]])
    edits = {pos: (d.components[ci][i],) for pos, (ci, i) in moved.items()}
    return _rewrite(d, edits, records)


# -- insertion sites ---------------------------------------------------------


class _Insertions(_Group):
    """The sites of one insertion kind, counted, not listed: every variant
    at every locus, loci the outer loop, so site i is variant
    i % len(variants) at locus i // len(variants)."""

    def __init__(self, kind: str, loci):
        self.kind, self.variants, self.loci = kind, _VARIANTS[kind], loci

    def __len__(self):
        return len(self.loci) * len(self.variants)

    def __getitem__(self, i):
        locus, variant = divmod(i, len(self.variants))
        return MoveSite(self.kind, self.variants[variant], self.loci[locus])

    def __iter__(self):
        return (MoveSite(self.kind, v, locus) for locus in self.loci for v in self.variants)

    def index(self, site):
        """Position of the first site equal to `site`, a site of this kind,
        read off its locus and variant without building a site."""
        return self.loci.index(site.locus) * len(self.variants) + self.variants.index(site.variant)


class _Gaps(_Counted):
    """The gaps (ci, g) of a diagram, by component, then g, counted from the
    component lengths: the gap is the pair itself.  An empty component has
    the one gap (ci, 0)."""

    def __init__(self, d: Diagram):
        self.ends = [0, *accumulate(max(1, len(comp)) for comp in d.components)]

    def index(self, locus):
        """Position of the gap equal to `locus`, compared by equality as in
        a list of the gaps (1.0 and True name 1); ValueError if none is."""
        # A locus of another shape is read as (), which is no index.
        ci, g = locus if isinstance(locus, tuple) and len(locus) == 2 else ((), ())
        ci = range(len(self.ends) - 1).index(ci)
        return self.ends[ci] + range(self.ends[ci + 1] - self.ends[ci]).index(g)


def _insertions(d: Diagram, kinds) -> dict[str, _Insertions]:
    """Insertion sites of the given kinds: every variant at every gap for a
    kink (an empty component has one gap) and at every poke candidate of the
    face cycles that `faces` names for a poke, the gaps counted per
    component and the candidates per cycle."""
    gaps = _Gaps(d) if kinds - _POKE_KINDS else ()
    pokes = _Pokes(_trace(d), faces(d)) if kinds & _POKE_KINDS else ()
    return {kind: _Insertions(kind, pokes if kind in _POKE_KINDS else gaps) for kind in kinds}


# -- public API ---------------------------------------------------------------


_REWRITES = {
    **{k: _apply_poke if k in _POKE_KINDS else _apply_kink_insertion for k in _VARIANTS},
    **dict.fromkeys(_DELETION_KINDS, _apply_deletion),
    **dict.fromkeys(_TRIANGLE_KINDS, _apply_triangle),
}


def _sites(d: Diagram, kinds) -> list[Sequence[MoveSite]]:
    """The sites of the given kinds as one group per kind, in MOVE_KINDS
    order: the one definition of a site, shared by find_moves and apply_move.
    Faces are traced at most once (`planar._trace` keeps the integer trace
    on the diagram) and named by `faces` only for a poke kind, and the gaps
    are swept once for all deletion kinds.  No group builds a site before
    it is read."""
    by_kind = {
        **_insertions(d, kinds & _VARIANTS.keys()),
        **_deletions(d, kinds & _DELETION_KINDS),
        **_triangle_sites(d, kinds & _TRIANGLE_KINDS),
    }
    return [by_kind[kind] for kind in MOVE_KINDS if kind in kinds]


def _move_args(d, kinds, size_cap) -> tuple[Diagram, set, int]:
    """The checked diagram, set of move kinds and size cap (from
    MULTIVIRT_SIZE_CAP when None) of a site search."""
    d = checked(d, Diagram, ValidationError, "diagram")
    if isinstance(kinds, str):
        raise ValidationError(f"move kinds must be an iterable of names, got the string {kinds!r}")
    try:
        kinds = set(MOVE_KINDS if kinds is None else kinds)
    except TypeError:  # not iterable, or holding an unhashable kind
        raise ValidationError(f"move kinds must be an iterable of names, got {kinds!r}") from None
    unknown = kinds - set(MOVE_KINDS)
    if unknown:
        raise ValidationError(f"unknown move kinds: {sorted(unknown, key=str)}")
    if size_cap is None:
        size_cap = size_cap_from_env()
    return d, kinds, checked(size_cap, int, ValidationError, "size cap")


def find_moves(d: Diagram, kinds=None, size_cap: int | None = None) -> SiteList:
    """Every applicable rewriting site of the requested kinds, as a SiteList
    whose sites are built only when read.

    Insertion kinds are suppressed once the diagram has `size_cap` crossings."""
    d, kinds, size_cap = _move_args(d, kinds, size_cap)
    if len(d.crossings) >= size_cap:
        kinds -= _VARIANTS.keys()
    return SiteList(_sites(d, kinds))


def apply_move(d: Diagram, site: MoveSite) -> Diagram:
    """Apply a site that `find_moves` lists for `d`, whatever the size cap.
    Any other site raises StaleSite."""
    d = checked(d, Diagram, ValidationError, "diagram")
    site = checked(site, MoveSite, ValidationError, "move site")
    if site.kind not in MOVE_KINDS:
        raise ValidationError(f"unknown move kind {site.kind!r}")
    (group,) = _sites(d, {site.kind})
    try:
        i = group.index(site)
    except ValueError:
        raise StaleSite(f"not a {site.kind} site of this diagram") from None
    # Rewrite the listed site: a given one may compare equal to it while
    # holding floats where the rewrite indexes with integers.
    return _REWRITES[site.kind](d, group[i])


def random_walk(
    d: Diagram,
    steps: int,
    seed: int,
    kinds=None,
    size_cap: int | None = None,
) -> tuple[Diagram, list[MoveSite]]:
    """Apply `steps` rewrites, deterministically in `seed`.  Each step draws
    uniformly over the counted site list that `find_moves` returns for the
    current diagram, in its order, and builds and applies only the chosen
    site.  Insertions stop being offered at the size cap."""
    d, kinds, size_cap = _move_args(d, kinds, size_cap)
    steps = checked(steps, int, ValidationError, "step count")
    if steps < 0:
        raise ValidationError(f"step count must be >= 0, got {steps}")
    rng = random.Random(checked(seed, int, ValidationError, "seed"))
    trace: list[MoveSite] = []
    cur = d
    for _ in range(steps):
        sites = find_moves(cur, kinds, size_cap)
        if not sites:
            break
        site = sites[rng.randrange(len(sites))]
        # The site is listed for cur, so apply_move's membership check holds.
        cur = _REWRITES[site.kind](cur, site)
        trace.append(site)
    return cur, trace
