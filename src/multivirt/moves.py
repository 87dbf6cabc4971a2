"""Rewrites on diagram codes: kink insertion/deletion, strand pokes across a
face, triangle slides, and the underpass slide through a virtual crossing.

All rewrites are strict token-level templates: deletions require the bound
passages to be literally adjacent, and triangle slides are read off the
triangular faces of the embedding.  Insertion loci are taken from the face
structure too, so every applied rewrite is a local planar patch and genus-0
diagrams stay genus-0.

One enumeration per move kind defines the sites: `apply_move` accepts exactly
the sites that `find_moves` lists for the diagram (ignoring the size cap) and
raises `StaleSite` for any other.  The list is counted before it is built:
the insertion sites of a kind are every variant at every locus, and one is
built only when it is read, so a walk step draws uniformly over the counted
list that `find_moves` returns, in its order, and builds only the site it
applies.  Kink loci are the gaps.  Face sites are read off the named face
cycles of `faces`, which trace the diagram once.  Poke loci are counted from
the lengths of the integer cycles of `planar._trace`: a cycle that runs along
an edge twice (it holds both darts of the edge) is the only one listed, and
a dart pair is read off the named cycle only when it is read.  A given poke
is found in the one named cycle that holds its first dart, compared by
equality.  The triangle stage reads each 3-dart face once, its bound gaps,
crossing ids and pattern together, and looks the pattern up in a table built
once from the templates and their six labelings, keyed by the pattern of the
bound triangle with no labeling in it.  One sweep over the gaps lists the
sites of every deletion kind (R1del, VR1del, R2del, VR2del), filing for the
cancelling pairs only the gaps whose two flanks share a role.  The site
search reads frames off the diagram's frame table and compares roles by
identity rather than hashing them.

A rewrite is a set of position edits applied by one splice, `_rewrite`, which
builds the rewritten diagram, checked when it is made: a deletion replaces every
passage of the crossings it removes by nothing, a kink or poke places a pair
of new passages after a gap, and a triangle slide swaps the two passages of
each of its three bound gaps.  New crossing signs follow the frame rule of
`model`.

The triangle template table is generated from an explicit drawing: three
oriented lines A(t) = (t, 1-t), B(t) = (t, 0), C(t) = (t, 1+t) meeting at
x = A^B, y = A^C, z = B^C, with all eight orientation choices.  The crossing
order along each strand follows the line parameters and the sign of each
crossing is the cross product of the two strand directions.  A slide
transposes the two passages inside each of the three bound gaps, so templates
are recorded together with their transposed forms.

Families (by which crossings are virtual and who is on top):

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
from itertools import accumulate, combinations, permutations, product

from .errors import ParseError, StaleSite, ValidationError, checked
from .model import _OVER, _THROUGH, CrossingRecord, Diagram, Passage, Role
from .planar import _trace, faces

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
_TRIANGLE_KINDS = {"R3", "VR3", "VR4", "FU"}
_FACE_KINDS = {*_POKE_KINDS, *_TRIANGLE_KINDS}


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


@dataclass(frozen=True)
class _Template:
    orders: tuple[tuple[str, str], ...]  # crossing labels met along A, B, C
    roles: tuple  # ((strand, crossing, role-char), ...)
    virtual: frozenset
    frames: tuple[tuple[str, int], ...]  # crossing -> frame(dir first strand, dir second)


def _generate_triangle_templates() -> dict[str, tuple[_Template, ...]]:
    out: dict[str, list[_Template]] = {"R3": [], "VR3": [], "VR4": [], "FU": []}
    for dA, dB, dC in product((1, -1), repeat=3):
        orders = {
            "A": ("y", "x") if dA > 0 else ("x", "y"),
            "B": ("z", "x") if dB > 0 else ("x", "z"),
            "C": ("z", "y") if dC > 0 else ("y", "z"),
        }
        frames = {"x": dA * dB, "y": dA * dC, "z": dB * dC}
        configs = [
            ("R3", {("A", "x"): "O", ("B", "x"): "U", ("A", "y"): "O",
                    ("C", "y"): "U", ("B", "z"): "O", ("C", "z"): "U"}, frozenset()),
            ("VR3", {(s, c): "V" for c, (s1, s2) in _PAIR_OF.items() for s in (s1, s2)},
             frozenset({"x", "y", "z"})),
            ("VR4", {("A", "x"): "V", ("B", "x"): "V", ("A", "y"): "V",
                     ("C", "y"): "V", ("B", "z"): "O", ("C", "z"): "U"},
             frozenset({"x", "y"})),
            ("VR4", {("A", "x"): "V", ("B", "x"): "V", ("A", "y"): "V",
                     ("C", "y"): "V", ("B", "z"): "U", ("C", "z"): "O"},
             frozenset({"x", "y"})),
            ("FU", {("A", "x"): "U", ("B", "x"): "O", ("A", "y"): "U",
                    ("C", "y"): "O", ("B", "z"): "V", ("C", "z"): "V"},
             frozenset({"z"})),
        ]
        for family, roles, virt in configs:
            for flip in (False, True):
                o = {
                    s: (orders[s][1], orders[s][0]) if flip else orders[s]
                    for s in _STRANDS
                }
                tpl = _Template(
                    orders=tuple(o[s] for s in _STRANDS),
                    roles=tuple(sorted((s, c, r) for (s, c), r in roles.items())),
                    virtual=virt,
                    frames=tuple(sorted(frames.items())),
                )
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
    the positions of the edits are those of `d`."""
    components = list(d.components)
    for (ci, i), new in sorted(edits.items(), reverse=True):
        comp = components[ci]
        components[ci] = comp[:i] + new + comp[i + 1 :]
    crossings = {**d.crossings, **records}
    for cid, rec in records.items():
        if rec is None:
            del crossings[cid]
    return Diagram(tuple(components), crossings)


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


# -- poke (two-crossing) sites -----------------------------------------------


def _window(s: int) -> list[tuple[int, int]]:
    """The position pairs (i, j) of a cycle of s darts within the poke
    window, by i, then by the distance from i to j."""
    reach = range(1, min(_POKE_WINDOW, s - 1) + 1)
    return [(i, (i + w) % s) for i in range(s) for w in reach]


class _Pokes(Sequence):
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
        # ends[c] and ends[c + 1] bound the candidates of cycle c.
        self.ends = [0, *accumulate(counts)]

    def __len__(self):
        return self.ends[-1]

    def __getitem__(self, k):
        k = range(len(self))[k]  # bounds and negative indices as for a list
        c = bisect_right(self.ends, k) - 1
        k -= self.ends[c]
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

# The role of both flanks of the first gap and of the second, for every
# cancelling pair.  Roles are compared by identity: hashing an Enum member
# runs Python code.
_CANCELLING_ROLES = (
    (Role.OVER, Role.UNDER),
    (Role.UNDER, Role.OVER),
    (Role.THROUGH, Role.THROUGH),
)


def _is_poke_deletion(frames, gap1, gap2) -> bool:
    """Whether two gaps (position, passage, next position, passage), each
    flanked by two passages of one role and both by the same two crossings,
    hold a cancelling pair: four distinct passages, one gap over both
    crossings and the other under both (R2del) or all four virtual (VR2del),
    and frames read from gap1 opposite.  `frames` is the diagram's frame
    table."""
    (s1, p1, t1, _), (s2, p2, t2, _) = gap1, gap2
    if s1 in (s2, t2) or t1 in (s2, t2):
        return False
    return (p1.role, p2.role) in _CANCELLING_ROLES and frames[s1[0]][s1[1]] == -frames[t1[0]][t1[1]]


def _deletions(d: Diagram, kinds) -> dict[str, list[MoveSite]]:
    """Deletion sites of the given kinds from one sweep over the gaps.  A kink
    (R1del, VR1del) is a gap flanked twice by one crossing; a cancelling pair
    (R2del, VR2del) is two gaps loc1 < loc2 flanked by the same two crossings,
    each by two passages of one role, so only such gaps are filed.  The kind
    is read off the crossings.

    Leaving out the other gaps keeps the order of the sites.  A gap with
    flanks of two roles, x1 y2, lies between the gaps x2 x1 and y2 y1 of any
    cancelling pair of its crossings, so it comes first in the sweep only at
    gap 0, and then the pair's gap y2 y1 is gap 1: the pair is filed before
    any other pair of crossings either way."""
    if not kinds:
        return {}
    out: dict[str, list[MoveSite]] = {k: [] for k in kinds}
    by_pair: dict[tuple[int, int], list] = {}  # keyed by the sorted crossing ids
    for ci, comp in enumerate(d.components):
        L = len(comp)
        if L < 2:
            continue  # a lone passage is not a kink: its partner is elsewhere
        for g in range(L):
            h = (g + 1) % L
            p, q = comp[g], comp[h]
            a, b = p.crossing, q.crossing
            if a != b:
                if p.role is q.role:
                    by_pair.setdefault((a, b) if a < b else (b, a), []).append(
                        ((ci, g), p, (ci, h), q)
                    )
            elif L > 2 or g == 0:  # a length-2 kink is matched at gap 0 only
                kind = "VR1del" if d.crossings[a].virtual else "R1del"
                if kind in out:
                    out[kind].append(MoveSite(kind, (), (ci, g)))
    frames = d._frames
    for gaps in by_pair.values():
        for gap1, gap2 in combinations(gaps, 2):
            kind = "VR2del" if d.crossings[gap1[1].crossing].virtual else "R2del"
            if kind in out and _is_poke_deletion(frames, gap1, gap2):
                out[kind].append(MoveSite(kind, (), (gap1[0], gap2[0])))
    return out


# -- triangle sites ----------------------------------------------------------


def _triangle_sites(d: Diagram, kinds, named) -> dict[str, list[MoveSite]]:
    """Triangle sites of the given kinds from one pass over the 3-dart faces
    of `named`, the face cycles that `faces` gives.  A face is a candidate
    when its three edges join three distinct crossings.  A 3-dart face never
    holds both darts of an edge, so its edges are distinct and sorting its
    darts sorts them.  A slide is only geometric when its three bound edges
    border a common empty triangle of the embedding; the role and sign
    patterns alone cannot see strands threaded through the corner vertices.

    Each face is read once: its bound gaps in edge order, its crossing ids,
    and the pattern that keys `_triangle_table`, whose first match of each
    family is the site.  Sites are listed by the lowest edge (ci, g), then
    the edge that shares that edge's first crossing comp[g].crossing, then
    the third edge.  Two 3-dart faces cannot share all three edges at
    4-valent crossings, so no edge set is listed twice."""
    out: dict[str, list[MoveSite]] = {k: [] for k in kinds}
    if not kinds:
        return out
    components, frames, table = d.components, d._frames, _triangle_table()
    found = []
    for face in named:
        if len(face) != 3:
            continue
        gaps = []  # (ci, g, p, q, frame at p, frame at q) per bound gap
        for ci, g, _ in sorted(face):
            comp, fr = components[ci], frames[ci]
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
        if matches is None:
            continue
        first, u, v = gaps
        if first[2].crossing not in (u[2].crossing, u[3].crossing):
            u, v = v, u
        found.append(((first[:2], u[:2], v[:2]), tuple(gap[:2] for gap in gaps), matches, cids))
    found.sort(key=lambda entry: entry[0])
    for _, locus, matches, cids in found:
        seen = set()
        for fam, ti, perm in matches:
            if fam in kinds and fam not in seen:  # later matches are symmetries
                seen.add(fam)
                out[fam].append(MoveSite(fam, (ti, tuple(cids[i] for i in perm)), locus))
    return out


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


class _Insertions(Sequence):
    """The sites of one insertion kind, each built when it is read: every
    variant at every locus, loci the outer loop, so site i is variant
    i % len(variants) at locus i // len(variants)."""

    def __init__(self, kind: str, loci):
        self.kind, self.variants, self.loci = kind, _VARIANTS[kind], loci

    def __len__(self):
        return len(self.loci) * len(self.variants)

    def __getitem__(self, i):
        locus, variant = divmod(i, len(self.variants))
        return MoveSite(self.kind, self.variants[variant], self.loci[locus])

    def __iter__(self):
        for locus in self.loci:
            for variant in self.variants:
                yield MoveSite(self.kind, variant, locus)

    def index(self, site):
        """Position of the first listed site equal to `site`, read off its
        locus and variant without building a site; ValueError if none is."""
        if site.kind != self.kind:
            raise ValueError(f"{site!r} is not a {self.kind} site")
        return self.loci.index(site.locus) * len(self.variants) + self.variants.index(site.variant)


def _insertions(d: Diagram, kinds, named) -> dict[str, _Insertions]:
    """Insertion sites of the given kinds: every variant at every gap for a
    kink (an empty component has one gap) and at every poke candidate of the
    face cycles `named` for a poke, the candidates counted per cycle."""
    gaps = (
        [(ci, g) for ci, comp in enumerate(d.components) for g in range(max(1, len(comp)))]
        if kinds - _POKE_KINDS
        else ()
    )
    pokes = _Pokes(_trace(d), named) if kinds & _POKE_KINDS else ()
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
    Faces are traced at most once (`faces` keeps the integer trace on the
    diagram), and the gaps are swept once for all deletion kinds.  Insertion
    groups are counted, not built."""
    named = faces(d) if kinds & _FACE_KINDS else None
    by_kind = {
        **_insertions(d, kinds & _VARIANTS.keys(), named),
        **_deletions(d, kinds & _DELETION_KINDS),
        **_triangle_sites(d, kinds & _TRIANGLE_KINDS, named),
    }
    return [by_kind[kind] for kind in MOVE_KINDS if kind in kinds]


class SiteList(Sequence):
    """The sites `find_moves` lists, the groups of every kind one after the
    other in MOVE_KINDS order.  Its length is counted without building a
    site; a site is built when it is indexed or iterated to."""

    def __init__(self, groups):
        self._groups = groups
        self._len = sum(map(len, groups))

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(self._len)[i]]
        i = range(self._len)[i]  # bounds and negative indices as for a list
        for group in self._groups:
            if i < len(group):
                return group[i]
            i -= len(group)

    def __iter__(self):
        for group in self._groups:
            yield from group

    def __eq__(self, other):
        if not isinstance(other, (SiteList, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


def _move_args(d, kinds, size_cap) -> tuple[Diagram, set, int]:
    """The checked diagram, set of move kinds and size cap (from
    MULTIVIRT_SIZE_CAP when None) of a site search."""
    d = checked(d, Diagram, ValidationError, "diagram")
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
