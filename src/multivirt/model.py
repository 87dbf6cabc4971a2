"""Diagram model and the VGC text format.

A diagram is an ordered list of oriented circles ("components"), each a cyclic
sequence of passages through crossings.  A real crossing is passed once as Over
and once as Under; a virtual crossing is passed twice (role Through).

The frame rule: every crossing carries one sign, the orientation of its frame
read from one strand, (direction of that strand, direction of the other
strand).  A real crossing is read from its over passage, a virtual one from
its first passage, "first" meaning lexicographically smaller (component
index, position); read from the other passage the frame is the negative.
`Diagram.validate` is the one writer of this rule: as it checks a crossing
it writes the frame read from each of its passages into the frame table of
the diagram, one list per component, and `Diagram.frame` and every module
that needs a frame read that table.  Rotating a basepoint past
exactly one passage of a virtual crossing therefore negates the stored sign;
`rotate` takes care of that.

VGC grammar (serialized form is bit-exact):

    diagram   := component (" ; " component)*
    component := "." | passage (" " passage)*
    passage   := ("O" | "U" | "V") id sign      id >= 1, sign in "+-"

Both tokens of one crossing carry the same sign character.

Every diagram carries one passage index: crossing id -> positions
(component, index) of its passages, in canonical order.  It depends only on
`components`, is built on first use (`validate` builds it as its own sweep)
and is kept in a dict field of the instance; `positions_of`, `real_positions`,
the frame table and every module that needs to know where a crossing sits
read it.  The frame table, `Diagram._frames`, is kept in a list field the
same way.  `validate` fills it, and the first read of a diagram not validated
yet validates it, so a reader never gets frames of a diagram that breaks a
rule of the model but a ValidationError.  It is read, never written, outside
`model`.  A third list field keeps the integer face trace that
`planar._trace` builds on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .errors import BadComponent, NotReal, ParseError, UnknownCrossing, ValidationError, checked

_TOKEN_RE = re.compile(r"([OUV])([0-9]+)([+-])\Z")


class Role(Enum):
    OVER = "O"
    UNDER = "U"
    THROUGH = "V"


# The roles a crossing is passed with, in canonical order, keyed by `virtual`.
_PASSES = {
    False: ([Role.OVER, Role.UNDER], [Role.UNDER, Role.OVER]),
    True: ([Role.THROUGH, Role.THROUGH],),
}
# Plain names for the roles: reading an attribute of an Enum class is slow,
# and so is calling it to look up a value.
_OVER, _UNDER, _THROUGH = Role
_ROLE_OF = {role.value: role for role in Role}


@dataclass(frozen=True)
class Passage:
    crossing: int
    role: Role


@dataclass(frozen=True)
class CrossingRecord:
    cid: int
    virtual: bool
    sign: int  # the frame read from the over passage (real) or the first passage (virtual)


@dataclass(frozen=True)
class Diagram:
    """Immutable diagram value.  All operations in this package are pure."""

    components: tuple[tuple[Passage, ...], ...]
    crossings: dict[int, CrossingRecord]
    # The passage index, filled on first use.  A field set in __init__ keeps
    # attribute reads on the fast path, which writing the instance __dict__
    # later (as functools.cached_property does) would leave for good.
    _index: dict[int, tuple[tuple[int, int], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # The frame table, filled on first use in the same way.
    _frame_table: list[list[int]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    # The integer face trace of `planar._trace`, filled on first use.
    _face_trace: list[tuple] = field(default_factory=list, init=False, repr=False, compare=False)

    # -- basic queries ----------------------------------------------------

    def n_components(self) -> int:
        return len(self.components)

    def n_real(self) -> int:
        return sum(1 for c in self.crossings.values() if not c.virtual)

    def n_virtual(self) -> int:
        return sum(1 for c in self.crossings.values() if c.virtual)

    def n_passages(self) -> int:
        return sum(len(c) for c in self.components)

    def passages(self):
        """Yield (component index, position, Passage) over the whole diagram."""
        for ci, comp in enumerate(self.components):
            for i, p in enumerate(comp):
                yield ci, i, p

    @property
    def passage_index(self) -> Mapping[int, tuple[tuple[int, int], ...]]:
        """Read-only map from crossing id to the positions of its passages, in
        canonical order.  Built once on demand; it depends only on `components`."""
        return MappingProxyType(self._passage_index)

    # A plain dict is kept, not the proxy: a mappingproxy cannot be pickled.
    @property
    def _passage_index(self) -> dict[int, tuple[tuple[int, int], ...]]:
        index = self._index
        if not index:
            sweep: dict[int, list[tuple[int, int]]] = {}
            for ci, comp in enumerate(self.components):
                for i, p in enumerate(comp):
                    sweep.setdefault(p.crossing, []).append((ci, i))
            # One update from a finished dict: another thread sees it empty or whole.
            index.update({cid: tuple(ps) for cid, ps in sweep.items()})
        return index

    @property
    def _frames(self) -> list[list[int]]:
        """The frame table: `_frames[ci][i]` is the frame read from passage i
        of component ci.  `validate` writes it; a first read of a diagram not
        validated yet validates it, so it raises ValidationError on a diagram
        that breaks a rule of the model."""
        table = self._frame_table
        if not table:
            self.validate()
        return table

    def positions_of(self, cid: int) -> list[tuple[int, int]]:
        """Positions of the (one or two) passages of `cid`, in canonical order."""
        try:
            return list(self._passage_index.get(cid, ()))
        except TypeError:  # an unhashable id
            return []

    def frame(self, cid: int, pos: tuple[int, int]) -> int:
        """Orientation of the frame (direction of the strand passing `cid` at
        `pos`, direction of the other strand): the stored sign read from the
        over passage of a real crossing or the first passage of a virtual
        one, its negative read from the other passage; read off the frame
        table, which a first read fills by validating the diagram.  Raises
        UnknownCrossing for an unknown id, and ValidationError for a `pos`
        that is not a passage of `cid` and on a diagram that `validate`
        rejects."""
        try:
            self.crossings[cid]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownCrossing(f"no crossing {cid}") from None
        # Read at the listed position equal to `pos`: one with float entries
        # compares equal to it but cannot index the table.
        for listed in self._passage_index.get(cid, ()):
            if listed == pos:
                return self._frames[listed[0]][listed[1]]
        raise ValidationError(f"{pos!r} is not a passage of crossing {cid}")

    def real_positions(self, cid: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """(over position, under position) of a real crossing."""
        try:
            rec = self.crossings[cid]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownCrossing(f"no crossing {cid}") from None
        if rec.virtual:
            raise NotReal(f"crossing {cid} is virtual")
        a, b = self.passage_index[cid]
        return (a, b) if self.components[a[0]][a[1]].role is _OVER else (b, a)

    def validate(self) -> None:
        """Raise ValidationError unless every rule of the model holds:

        - the components are sequences of Passages and the crossing table is
          a dict;
        - every crossing passed has a CrossingRecord filed under its own id;
        - every crossing id is an integer >= 1;
        - every sign is the int +1 or -1 (not True, 1.0 or -1.0);
        - a real crossing is passed once Over and once Under, in either
          order, and a virtual one twice Through;
        - every record in the table is passed.

        The roles of a crossing with a bool `virtual` flag and two passages
        are compared by identity; any other flag or count is looked up among
        the passing patterns, with the same rules, order and messages.

        The same loop writes the frame table: the frame read from each
        passage, published once every rule holds and only if no earlier call
        published it."""
        try:
            index = self._passage_index
            comps = self.components
            built = [[0] * len(comp) for comp in comps]
            for cid, ps in index.items():
                rec = self.crossings.get(cid)
                if not isinstance(rec, CrossingRecord) or rec.cid != cid:
                    raise ValidationError(f"crossing {cid!r} has no record filed under its id")
                if not isinstance(cid, int) or cid < 1:
                    raise ValidationError(f"crossing ids must be integers >= 1, got {cid!r}")
                if type(rec.sign) is not int or rec.sign not in (+1, -1):
                    raise ValidationError(f"crossing {cid}: sign must be +1 or -1")
                v = rec.virtual
                if (v is True or v is False) and len(ps) == 2:
                    (c1, i1), (c2, i2) = ps
                    x, y = comps[c1][i1].role, comps[c2][i2].role
                    real = x is _OVER and y is _UNDER or x is _UNDER and y is _OVER
                    ok = x is y is _THROUGH if v else real
                else:
                    roles = [comps[ci][i].role for ci, i in ps]
                    ok = roles in _PASSES.get(v, ())
                    # Read only when ok, that is when ps holds two passages.
                    (c1, i1), (c2, i2), x = ps[0], ps[-1], roles[0]
                if not ok:
                    raise ValidationError(
                        f"crossing {cid} must be passed once Over and once Under (real)"
                        " or twice Through (virtual)"
                    )
                # Read from the over passage of a real crossing or the first
                # passage of a virtual one, the frame is the stored sign.
                f = rec.sign if v or x is _OVER else -rec.sign
                built[c1][i1], built[c2][i2] = f, -f
            # Every passed crossing has its record, so any other record is unused.
            if len(self.crossings) != len(index):
                unused = [cid for cid in self.crossings if cid not in index]
                raise ValidationError(f"crossings recorded but never passed: {unused!r}")
            # One extend from a finished list: another thread sees it empty or whole.
            if not self._frame_table:
                self._frame_table.extend(built)
        except (AttributeError, TypeError):
            raise ValidationError(
                "components must be sequences of passages and crossings a dict of records"
            ) from None


def parse_vgc(text: str) -> Diagram:
    """Parse VGC text into a validated Diagram.

    Only what a Diagram cannot express is checked here: the grammar, and that
    both tokens of a crossing carry the same sign character.  A crossing is
    recorded from its first token; every other rule is `validate`'s."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty VGC text")
    components: list[tuple[Passage, ...]] = []
    crossings: dict[int, CrossingRecord] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk == ".":
            components.append(())
            continue
        if not chunk:
            raise ParseError("empty component (use '.' for a crossing-free circle)")
        passages = []
        for token in chunk.split():
            m = _TOKEN_RE.match(token)
            if not m:
                raise ParseError(f"malformed token {token!r}")
            role, cid, sign = _ROLE_OF[m[1]], int(m[2]), +1 if m[3] == "+" else -1
            rec = crossings.setdefault(cid, CrossingRecord(cid, role is _THROUGH, sign))
            if rec.sign != sign:
                raise ValidationError(f"crossing {cid}: mismatched signs")
            passages.append(Passage(cid, role))
        components.append(tuple(passages))
    d = Diagram(tuple(components), crossings)
    d.validate()
    return d


def serialize_vgc(d: Diagram) -> str:
    """Serialize to the canonical textual form (single spaces, ' ; ' separators)."""
    d = checked(d, Diagram, ValidationError, "diagram")
    parts = []
    for comp in d.components:
        if not comp:
            parts.append(".")
            continue
        tokens = []
        for p in comp:
            rec = d.crossings[p.crossing]
            tokens.append(f"{p.role.value}{p.crossing}{'+' if rec.sign > 0 else '-'}")
        parts.append(" ".join(tokens))
    return " ; ".join(parts)


# -- rotation and renaming -----------------------------------------------


def rotate(d: Diagram, ci: int, k: int) -> Diagram:
    """Move the basepoint of component `ci` forward by `k` passages.

    Stored signs of virtual crossings with both passages on `ci` are negated
    whenever the rotation swaps which passage comes first.  Raises
    BadComponent unless 0 <= ci < n_components, and ValidationError unless
    `k` is an integer.
    """
    d = checked(d, Diagram, ValidationError, "diagram")
    ci = checked(ci, int, BadComponent, "component index")
    k = checked(k, int, ValidationError, "rotation step")
    if not 0 <= ci < d.n_components():
        raise BadComponent(f"component {ci} of {d.n_components()}")
    comp = d.components[ci]
    L = len(comp)
    if L == 0 or k % L == 0:
        return d
    k %= L
    crossings = dict(d.crossings)
    index = d._passage_index
    for p in comp[:k]:
        # A virtual crossing with both passages on ci, at p1 < k <= p2, flips.
        (c1, _), (c2, p2) = index[p.crossing]
        rec = crossings[p.crossing]
        if rec.virtual and c1 == c2 and p2 >= k:
            crossings[p.crossing] = CrossingRecord(p.crossing, True, -rec.sign)
    components = tuple(comp[k:] + comp[:k] if j == ci else c for j, c in enumerate(d.components))
    return Diagram(components, crossings)


def relabel(d: Diagram, mapping: dict[int, int]) -> Diagram:
    components = tuple(
        tuple(Passage(mapping[p.crossing], p.role) for p in comp) for comp in d.components
    )
    crossings = {
        mapping[cid]: CrossingRecord(mapping[cid], rec.virtual, rec.sign)
        for cid, rec in d.crossings.items()
    }
    return Diagram(components, crossings)


def canonical_form(d: Diagram) -> str:
    """Minimal serialization over basepoint choices, ids renamed by first appearance.

    Component order is fixed.  Two diagrams have equal canonical forms exactly
    when they agree up to basepoint rotation and crossing relabeling.

    Components are minimized in order.  A tie is a choice of rotations of the
    components done so far that spells the least prefix.  It is kept only as
    the labels it gave to the crossings that later components pass again,
    since nothing else of it matters from then on, and ties that agree there
    are merged.  Each rotation of the next component is read against the
    running best token by token, with labels assigned on the fly (a crossing
    met before keeps its tie's label, a new one takes the next number), and
    dropped at the first token that differs: every token ends in its sign, so
    no token is a prefix of another and the first differing token orders the
    strings.  Rotations that differ by a period of the component's
    rotation-equivariant code (per passage: role, frame read from it, and the
    offset to its partner, or its crossing id when the partner lies on
    another component) read alike, so only rotations below the least period,
    found with a KMP failure function, are read; this is the least circular
    shift idea of Booth (1980) applied to labels assigned while reading.

    Cost: reading one rotation of a component of L passages costs O(L) at
    most, and a rotation is dropped at its first token that differs from the
    best, so the total is near-linear unless many rotations agree on long
    prefixes: T(2, 801) (1602 passages) and the 16-fold multiplex of asym3
    (8400 passages) take milliseconds.
    """
    d = checked(d, Diagram, ValidationError, "diagram")
    index = d._passage_index
    table = d._frames
    ties: list[dict[int, str]] = [{}]  # per tie: crossing -> label and sign
    live: list[int] = []  # labelled crossings that a later component passes
    n_labels = 0
    parts = []
    for ci, comp in enumerate(d.components):
        L = len(comp)
        if L == 0:
            parts.append(".")
            continue
        roles, cids, frames, code = [], [], [], []
        for i, p in enumerate(comp):
            rec = d.crossings[p.crossing]
            (c1, p1), (c2, p2) = index[p.crossing]
            # The sign a crossing is printed with when first met here: for a
            # virtual one the frame read from this passage, as `rotate` stores it.
            sign = table[ci][i] if rec.virtual else rec.sign
            if c1 != c2:
                # No other passage of this component has this crossing, so a
                # component linked to another one has no period below L.
                code.append((p.role, sign, None, p.crossing))
            else:
                code.append((p.role, sign, ((p2 if i == p1 else p1) - i) % L, None))
            roles.append(p.role.value)
            cids.append(p.crossing)
            frames.append("+" if sign > 0 else "-")
        roles, cids, frames = roles * 2, cids * 2, frames * 2

        def read(labels: dict[int, str], k: int, new: dict[int, str]):
            n = n_labels
            for i in range(k, k + L):
                c = cids[i]
                tail = labels.get(c) or new.get(c)
                if tail is None:
                    n += 1
                    tail = new[c] = f"{n}{frames[i]}"
                yield roles[i] + tail

        period = _least_period(code)
        best: list[str] = []
        kept: list[tuple[dict[int, str], dict[int, str]]] = []
        for labels in ties:
            for k in range(period):
                new: dict[int, str] = {}
                tokens = read(labels, k, new)
                if not best:
                    best = list(tokens)
                    kept = [(labels, new)]
                    continue
                for t, tok in enumerate(tokens):
                    if tok != best[t]:
                        if tok < best[t]:
                            best[t:] = [tok, *tokens]
                            kept = [(labels, new)]
                        break
                else:
                    kept.append((labels, new))
        parts.append(" ".join(best))
        n_labels += len(kept[0][1])
        live = [c for c in dict.fromkeys(live + cids[:L]) if index[c][-1][0] > ci]
        merged: dict[tuple[str, ...], dict[int, str]] = {}
        for labels, new in kept:
            tails = {c: labels.get(c) or new[c] for c in live}
            merged.setdefault(tuple(tails.values()), tails)
        ties = list(merged.values())
    return " ; ".join(parts)


def _least_period(seq: list) -> int:
    """Least p > 0 such that rotating `seq` by p gives `seq` back."""
    n = len(seq)
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and seq[i] != seq[k]:
            k = fail[k - 1]
        if seq[i] == seq[k]:
            k += 1
        fail[i] = k
    p = n - fail[-1]
    return p if n % p == 0 else n


# -- segmentation ----------------------------------------------------------


class Granularity(Enum):
    EDGE = "edge"
    ARC = "arc"
    VIRTUAL_ARC = "virtual_arc"


_CUT_ROLES = {
    Granularity.EDGE: {Role.OVER, Role.UNDER, Role.THROUGH},
    Granularity.ARC: {Role.UNDER},
    Granularity.VIRTUAL_ARC: {Role.UNDER, Role.THROUGH},
}


@dataclass(frozen=True)
class Piece:
    """A contiguous stretch of one component between two cut passages.

    `start` is the cut passage the piece leaves (None for a closed piece
    covering a whole component), and `gaps` lists the edge slots it covers,
    gap g meaning the edge from passage g to passage g+1.  The gaps say where
    every passage sits: the piece that leaves passage i covers gap i, and the
    piece that enters it covers gap i - 1 (mod the component length); a
    passage that is not cut lies inside the piece that enters it.
    """

    component: int
    start: int | None
    gaps: tuple[int, ...]


@dataclass(frozen=True)
class Segments:
    """The pieces of a diagram at one granularity.

    `index_of_gap` is the one lookup: the piece leaving passage (ci, i) is
    `index_of_gap(ci, i)`, the piece entering it (or containing it, when it is
    not cut) is `index_of_gap(ci, (i - 1) % L)`, and a crossing-free circle's
    closed piece is `index_of_gap(ci, None)`.
    """

    granularity: Granularity
    pieces: tuple[Piece, ...]

    def __len__(self) -> int:
        return len(self.pieces)

    def index_of_gap(self, ci: int, gap: int | None) -> int:
        return self._gap_map[(ci, gap)]

    @cached_property
    def _gap_map(self) -> dict[tuple[int, int | None], int]:
        m = {}
        for k, piece in enumerate(self.pieces):
            if piece.start is None:
                m[(piece.component, None)] = k
            for g in piece.gaps:
                m[(piece.component, g)] = k
        return m


def segments(d: Diagram, granularity: Granularity) -> Segments:
    """Partition every component into pieces cut at the granularity's passages.

    Edges are cut everywhere, arcs only at Under passages, virtual arcs at
    Under and Through passages.  A component with no cut point contributes a
    single closed piece.
    """
    d = checked(d, Diagram, ValidationError, "diagram")
    cut_roles = _CUT_ROLES[checked(granularity, Granularity, ValidationError, "granularity")]
    pieces: list[Piece] = []
    for ci, comp in enumerate(d.components):
        L = len(comp)
        cuts = [i for i, p in enumerate(comp) if p.role in cut_roles]
        if not cuts:
            pieces.append(Piece(ci, None, tuple(range(L))))
            continue
        for j, s in enumerate(cuts):
            e = cuts[(j + 1) % len(cuts)]
            span = (e - s) % L or L  # s == e means the piece wraps the whole circle
            pieces.append(Piece(ci, s, tuple((s + t) % L for t in range(span))))
    return Segments(granularity, tuple(pieces))
