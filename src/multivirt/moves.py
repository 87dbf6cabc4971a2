"""Rewrites on diagram codes: kink insertion/deletion, strand pokes across a
face, triangle slides, and the underpass slide through a virtual crossing.

All rewrites are strict token-level templates: deletions require the bound
passages to be literally adjacent, and triangle slides are read off the
triangular faces of the embedding.  Insertion loci are taken from the face
structure too, so every applied rewrite is a local planar patch and genus-0
diagrams stay genus-0.

One enumeration per move kind defines the sites: `apply_move` accepts exactly
the sites that `find_moves` lists for the diagram (ignoring the size cap) and
raises `StaleSite` for any other.

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
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import permutations, product

from .errors import ParseError, StaleSite, ValidationError, checked
from .model import CrossingRecord, Diagram, Passage, Role
from .planar import faces

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
_KINK_VARIANTS = {
    "R1+ins": (("OU", 1), ("UO", 1)),
    "R1-ins": (("OU", -1), ("UO", -1)),
    "VR1ins": (("VV", 1), ("VV", -1)),
}
_POKE_VARIANTS = {"R2ins": (("over",), ("under",)), "VR2ins": (("virtual",),)}
_INSERTION_KINDS = {*_KINK_VARIANTS, *_POKE_VARIANTS}
_TRIANGLE_KINDS = {"R3", "VR3", "VR4", "FU"}
_FACE_KINDS = {*_POKE_VARIANTS, *_TRIANGLE_KINDS}


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
    family: str
    orders: tuple[tuple[str, str], ...]  # crossing labels met along A, B, C
    roles: tuple  # ((strand, crossing, role-char), ...)
    virtual: frozenset
    frames: tuple[tuple[str, int], ...]  # crossing -> frame(dir first strand, dir second)


def _generate_triangle_templates() -> dict[str, tuple[_Template, ...]]:
    out: dict[str, list[_Template]] = {"R3": [], "VR3": [], "VR4": [], "FU": []}
    seen = set()
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
                    family=family,
                    orders=tuple(o[s] for s in _STRANDS),
                    roles=tuple(sorted((s, c, r) for (s, c), r in roles.items())),
                    virtual=virt,
                    frames=tuple(sorted(frames.items())),
                )
                key = (tpl.orders, tpl.roles, tpl.virtual, tpl.frames)
                if key not in seen:
                    seen.add(key)
                    out[family].append(tpl)
    return {k: tuple(v) for k, v in out.items()}


_TRIANGLE_TEMPLATES = _generate_triangle_templates()

# Lookup from the full pattern of a bound triangle to the one template it
# matches: the key is the generator's dedup key, so no two templates share it.
_TEMPLATE_INDEX: dict[tuple, tuple[str, int]] = {
    (tpl.orders, tpl.roles, tpl.virtual, tpl.frames): (fam, ti)
    for fam, tpls in _TRIANGLE_TEMPLATES.items()
    for ti, tpl in enumerate(tpls)
}


# -- shared helpers ----------------------------------------------------------


def _gap_pairs(d: Diagram):
    """Gaps whose two flanking passages belong to two different crossings."""
    out = []
    for ci, comp in enumerate(d.components):
        L = len(comp)
        if L < 2:
            continue
        for g in range(L):
            p, q = comp[g], comp[(g + 1) % L]
            if p.crossing != q.crossing:
                out.append((ci, g, p, q))
    return out


def _fresh_ids(d: Diagram, k: int) -> list[int]:
    base = max(d.crossings, default=0)
    return [base + i + 1 for i in range(k)]


def _apply_deletion(d: Diagram, site: MoveSite) -> Diagram:
    """Remove the crossings flanking the first bound gap (a kink's one, a
    cancelling pair's two) together with all their passages."""
    ci, g = site.locus[0] if site.kind in ("R2del", "VR2del") else site.locus
    comp = d.components[ci]
    cids = {comp[g].crossing, comp[(g + 1) % len(comp)].crossing}
    out = Diagram(
        tuple(tuple(p for p in c if p.crossing not in cids) for c in d.components),
        {k: v for k, v in d.crossings.items() if k not in cids},
    )
    out.validate()
    return out


# -- kink sites --------------------------------------------------------------


def _kink_insertions(d: Diagram, kind: str):
    return [
        MoveSite(kind, variant, (ci, g))
        for ci, comp in enumerate(d.components)
        for g in range(max(1, len(comp)))
        for variant in _KINK_VARIANTS[kind]
    ]


def _kink_deletions(d: Diagram, kind: str):
    sites = []
    want_virtual = kind == "VR1del"
    for ci, comp in enumerate(d.components):
        L = len(comp)
        if L < 2:
            continue  # a lone passage is not a kink: its partner is elsewhere
        for g in range(L):
            p, q = comp[g], comp[(g + 1) % L]
            if p.crossing != q.crossing:
                continue
            if L == 2 and g == 1:
                continue  # the same kink already matched at gap 0
            rec = d.crossings[p.crossing]
            if rec.virtual == want_virtual:
                sites.append(MoveSite(kind, (), (ci, g)))
    return sites


def _apply_kink_insertion(d: Diagram, site: MoveSite) -> Diagram:
    ci, g = site.locus
    order, sign = site.variant
    comp = list(d.components[ci])
    (cid,) = _fresh_ids(d, 1)
    if order == "VV":
        pair = [Passage(cid, Role.THROUGH), Passage(cid, Role.THROUGH)]
        rec = CrossingRecord(cid, True, sign)
    else:
        roles = (Role.OVER, Role.UNDER) if order == "OU" else (Role.UNDER, Role.OVER)
        pair = [Passage(cid, roles[0]), Passage(cid, roles[1])]
        rec = CrossingRecord(cid, False, sign)
    pos = g + 1 if comp else 0
    comp[pos:pos] = pair
    components = tuple(tuple(comp) if j == ci else c for j, c in enumerate(d.components))
    out = Diagram(components, {**d.crossings, cid: rec})
    out.validate()
    return out


# -- poke (two-crossing) sites -----------------------------------------------


def _poke_candidates(cycles):
    """Ordered co-facial dart pairs (d1, d2) within the poke window, d1 and d2
    on distinct edges, over the face cycles of a diagram.  d1 is the poking
    strand, d2 the edge poked across."""
    out = []
    for cycle in cycles:
        size = len(cycle)
        for i in range(size):
            for w in range(1, min(_POKE_WINDOW, size - 1) + 1):
                d1 = cycle[i]
                d2 = cycle[(i + w) % size]
                if d1[:2] != d2[:2]:
                    out.append((d1, d2))
    return out


def _poke_insertions(candidates, kind: str):
    return [
        MoveSite(kind, variant, (d1, d2))
        for d1, d2 in candidates
        for variant in _POKE_VARIANTS[kind]
    ]


def _apply_poke(d: Diagram, site: MoveSite) -> Diagram:
    (d1, d2) = site.locus
    (variant,) = site.variant
    (c1, g1, dir1), (c2, g2, dir2) = d1, d2
    o1 = dir1
    o2 = -dir2
    cid_c, cid_d = _fresh_ids(d, 2)
    virtual = variant == "virtual"
    role1 = Role.THROUGH if virtual else (Role.OVER if variant == "over" else Role.UNDER)
    role2 = Role.THROUGH if virtual else (Role.UNDER if variant == "over" else Role.OVER)
    pair1 = [Passage(cid_c, role1), Passage(cid_d, role1)]
    pair2 = [Passage(cid_c, role2), Passage(cid_d, role2)]
    if o1 * o2 < 0:
        pair2.reverse()
    # frame(poking strand, poked strand) at the first and second new crossing
    frame_c, frame_d = -o2, o2

    components = [list(c) for c in d.components]
    if c1 == c2:
        g_lo, ins_lo, g_hi, ins_hi = (
            (g1, pair1, g2, pair2) if g1 < g2 else (g2, pair2, g1, pair1)
        )
        comp = components[c1]
        components[c1] = (
            comp[: g_lo + 1] + ins_lo + comp[g_lo + 1 : g_hi + 1] + ins_hi + comp[g_hi + 1 :]
        )
    else:
        components[c1] = components[c1][: g1 + 1] + pair1 + components[c1][g1 + 1 :]
        components[c2] = components[c2][: g2 + 1] + pair2 + components[c2][g2 + 1 :]

    crossings = dict(d.crossings)
    if virtual:
        # Both poking-strand passages come first in canonical order exactly
        # when the poking strand's edge does.
        first = 1 if (c1, g1) < (c2, g2) else -1
        crossings[cid_c] = CrossingRecord(cid_c, True, first * frame_c)
        crossings[cid_d] = CrossingRecord(cid_d, True, first * frame_d)
    else:
        s1_over = variant == "over"
        eps_c = -o2 if s1_over else o2
        crossings[cid_c] = CrossingRecord(cid_c, False, eps_c)
        crossings[cid_d] = CrossingRecord(cid_d, False, -eps_c)
    out = Diagram(tuple(tuple(c) for c in components), crossings)
    out.validate()
    return out


def _is_poke_deletion(d: Diagram, kind: str, loc1, loc2) -> bool:
    """Whether the gaps loc1 < loc2 (each (component, gap)) hold a cancelling
    pair of the kind: two real crossings, one gap over both and the other
    under both (R2del), or two virtual crossings (VR2del), whose frames read
    from loc1 are opposite."""
    if not loc1 < loc2:
        return False
    flanks = []
    for ci, g in (loc1, loc2):
        comp = d.components[ci]
        h = (g + 1) % len(comp)
        flanks.append(((ci, g), comp[g], (ci, h), comp[h]))
    (s1, p1, t1, q1), (s2, p2, t2, q2) = flanks
    cids = {p1.crossing, q1.crossing}
    if len(cids) != 2 or cids != {p2.crossing, q2.crossing} or {s1, t1} & {s2, t2}:
        return False
    if any(d.crossings[c].virtual != (kind == "VR2del") for c in cids):
        return False
    if kind == "R2del":
        roles = ({p1.role, q1.role}, {p2.role, q2.role})
        if roles not in (({Role.OVER}, {Role.UNDER}), ({Role.UNDER}, {Role.OVER})):
            return False
    return d.frame(p1.crossing, s1) == -d.frame(q1.crossing, t1)


def _poke_deletions(d: Diagram, kind: str):
    by_set: dict[frozenset, list] = {}
    for ci, g, p, q in _gap_pairs(d):
        by_set.setdefault(frozenset((p.crossing, q.crossing)), []).append((ci, g))
    return [
        MoveSite(kind, (), (loc1, loc2))
        for locs in by_set.values()
        for loc1, loc2 in permutations(locs, 2)
        if _is_poke_deletion(d, kind, loc1, loc2)
    ]


# -- triangle sites ----------------------------------------------------------


def _facial_trios(d: Diagram, cycles):
    """Gap records (ci, g, p, q) of the triangular faces among a diagram's face
    cycles: 3-dart faces whose three distinct edges join three distinct
    crossings.  Consecutive darts of a face meet at a corner, so three
    distinct crossings make the edges distinct as well.  A slide is only geometric when its three bound edges border a
    common empty triangle of the embedding; the role and sign patterns alone
    cannot see strands threaded through the corner vertices.

    Each edge set is listed once, ordered by its lowest edge (ci, g), then by
    the edge that shares that lowest edge's first crossing comp[g].crossing,
    then by the third edge.  Each trio is sorted by edge."""
    keyed = {}
    for cycle in cycles:
        if len(cycle) != 3:
            continue
        trio = []
        for ci, g, _ in sorted(cycle):
            comp = d.components[ci]
            trio.append((ci, g, comp[g], comp[(g + 1) % len(comp)]))
        if len({c for _, _, p, q in trio for c in (p.crossing, q.crossing)}) != 3:
            continue
        first, u, v = trio
        if first[2].crossing not in (u[2].crossing, u[3].crossing):
            u, v = v, u
        keyed[(first[:2], u[:2], v[:2])] = tuple(trio)
    return [keyed[key] for key in sorted(keyed)]


def _match_triangle(d: Diagram, trio, families):
    """Yield (family, template index, strand assignment) for every way the
    three bound gaps fit a slide template of one of the families."""
    cids = sorted({c for _, _, p, q in trio for c in (p.crossing, q.crossing)})
    # Per bound gap, its two flanking passages as (crossing, role, frame read
    # from it); none of these depends on the labeling.
    gap_of_pair = {}
    for ci, g, p, q in trio:
        h = (g + 1) % len(d.components[ci])
        gap_of_pair[frozenset((p.crossing, q.crossing))] = (
            (p.crossing, p.role.value, d.frame(p.crossing, (ci, g))),
            (q.crossing, q.role.value, d.frame(q.crossing, (ci, h))),
        )
    virtual = [c for c in cids if d.crossings[c].virtual]
    for perm in permutations(cids):
        label = dict(zip(("x", "y", "z"), perm))
        unlabel = {cid: lbl for lbl, cid in label.items()}
        strand_pair = {}
        for s in _STRANDS:
            want = frozenset(label[c] for c in ("x", "y", "z") if s in _PAIR_OF[c])
            flanks = gap_of_pair.get(want)
            if flanks is None:
                break
            strand_pair[s] = flanks
        if len(strand_pair) != 3:
            continue
        orders, roles, frames = [], [], {}  # frames: read from each pair's first strand
        for s in _STRANDS:
            flanks = [(unlabel[cid], role, f) for cid, role, f in strand_pair[s]]
            orders.append((flanks[0][0], flanks[1][0]))
            for c, role, f in flanks:
                roles.append((s, c, role))
                if _PAIR_OF[c][0] == s:
                    frames[c] = f
        virt = frozenset(unlabel[c] for c in virtual)
        key = (tuple(orders), tuple(sorted(roles)), virt, tuple(sorted(frames.items())))
        match = _TEMPLATE_INDEX.get(key)
        if match is not None and match[0] in families:
            yield *match, perm


def _triangle_sites(d: Diagram, kinds, cycles) -> dict[str, list[MoveSite]]:
    out: dict[str, list[MoveSite]] = {k: [] for k in kinds}
    if not kinds:
        return out
    for trio in _facial_trios(d, cycles):
        locus = tuple((ci, g) for ci, g, _, _ in trio)
        seen_families = set()
        for fam, ti, perm in _match_triangle(d, trio, kinds):
            if fam in seen_families:
                continue  # one slide per triangle; extra matches are symmetries
            seen_families.add(fam)
            out[fam].append(MoveSite(fam, (ti, perm), locus))
    return out


def _apply_triangle(d: Diagram, site: MoveSite) -> Diagram:
    components = [list(c) for c in d.components]
    moved: dict[tuple[int, int], tuple[int, int]] = {}
    for ci, g in site.locus:
        L = len(components[ci])
        h = (g + 1) % L
        components[ci][g], components[ci][h] = components[ci][h], components[ci][g]
        moved[(ci, g)] = (ci, h)
        moved[(ci, h)] = (ci, g)
    # A slide keeps the frame read from every strand, but swapping the
    # wrap-around gap of a component moves a passage between the ends of the
    # linear order, which can change which passage of a virtual crossing is
    # first; its sign is the frame read from the passage that is first now.
    crossings = dict(d.crossings)
    for ci, i in moved:
        cid = d.components[ci][i].crossing
        if crossings[cid].virtual:
            first = min(d.passage_index[cid], key=lambda pos: moved.get(pos, pos))
            crossings[cid] = CrossingRecord(cid, True, d.frame(cid, first))
    out = Diagram(tuple(tuple(c) for c in components), crossings)
    out.validate()
    return out


# -- public API ---------------------------------------------------------------


_REWRITES = {
    **dict.fromkeys(_KINK_VARIANTS, _apply_kink_insertion),
    **dict.fromkeys(("R1del", "VR1del", "R2del", "VR2del"), _apply_deletion),
    **dict.fromkeys(_POKE_VARIANTS, _apply_poke),
    **dict.fromkeys(_TRIANGLE_KINDS, _apply_triangle),
}


def _sites(d: Diagram, kinds) -> list[MoveSite]:
    """Every site of the given kinds, in MOVE_KINDS order: the one definition
    of a site, shared by find_moves and apply_move.  Faces are traced at most
    once."""
    cycles = faces(d) if kinds & _FACE_KINDS else ()
    by_kind = _triangle_sites(d, kinds & _TRIANGLE_KINDS, cycles)
    poke_kinds = kinds & _POKE_VARIANTS.keys()
    candidates = _poke_candidates(cycles) if poke_kinds else ()
    for kind in poke_kinds:
        by_kind[kind] = _poke_insertions(candidates, kind)
    for kind in kinds & _KINK_VARIANTS.keys():
        by_kind[kind] = _kink_insertions(d, kind)
    for kind in kinds & {"R1del", "VR1del"}:
        by_kind[kind] = _kink_deletions(d, kind)
    for kind in kinds & {"R2del", "VR2del"}:
        by_kind[kind] = _poke_deletions(d, kind)
    return [site for kind in MOVE_KINDS if kind in kinds for site in by_kind[kind]]


def find_moves(d: Diagram, kinds=None, size_cap: int | None = None) -> list[MoveSite]:
    """Every applicable rewriting site of the requested kinds.

    Insertion kinds are suppressed once the diagram has `size_cap` crossings."""
    if kinds is not None:
        checked(kinds, Iterable, ValidationError, "move kinds")
    kinds = set(MOVE_KINDS if kinds is None else kinds)
    unknown = kinds - set(MOVE_KINDS)
    if unknown:
        raise ValidationError(f"unknown move kinds: {sorted(unknown)}")
    if size_cap is None:
        size_cap = size_cap_from_env()
    if len(d.crossings) >= checked(size_cap, int, ValidationError, "size cap"):
        kinds -= _INSERTION_KINDS
    return _sites(d, kinds)


def apply_move(d: Diagram, site: MoveSite) -> Diagram:
    """Apply a site that `find_moves` lists for `d`, whatever the size cap.
    Any other site raises StaleSite."""
    if site.kind not in _REWRITES:
        raise ValidationError(f"unknown move kind {site.kind!r}")
    for listed in _sites(d, {site.kind}):
        if listed == site:
            # Rewrite the listed site: a given one may compare equal to it
            # while holding floats where the rewrite indexes with integers.
            return _REWRITES[site.kind](d, listed)
    raise StaleSite(f"not a {site.kind} site of this diagram")


def random_walk(
    d: Diagram,
    steps: int,
    seed: int,
    kinds=None,
    size_cap: int | None = None,
) -> tuple[Diagram, list[MoveSite]]:
    """Apply `steps` uniformly chosen applicable rewrites, deterministically in
    `seed`.  Insertions stop being offered at the size cap."""
    steps = checked(steps, int, ValidationError, "step count")
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
