"""Diagram model and the VGC text format.

A diagram is an ordered list of oriented circles ("components"), each a cyclic
sequence of passages through crossings.  A real crossing is passed once as Over
and once as Under; a virtual crossing is passed twice (role Through).

The frame rule: every crossing carries one sign, the orientation of its frame
read from one strand, (direction of that strand, direction of the other
strand).  A real crossing is read from its over passage, a virtual one from
its first passage, "first" meaning lexicographically smaller (component
index, position); read from the other passage the frame is the negative.
The diagram keeps the frame read from each passage in a frame table, one
list per component, which `Diagram.frame` and every module that needs a
frame read.  The rule is written where the table is: `_tables` writes it
for each crossing it checks, which is every crossing for `Diagram.validate`
and the crossings of the patch for `moves._rewrite`, and
`constructions.multiplex` writes the frames and signs of the passages it
emits, while `covering` hands the source's table over and
`extract_component` filters it.  Rotating a basepoint past exactly one
passage of a virtual crossing therefore negates the stored sign; `rotate`
takes care of that.

VGC grammar (serialized form is bit-exact):

    diagram   := component (" ; " component)*
    component := "." | passage (" " passage)*
    passage   := ("O" | "U" | "V") id sign      id >= 1, sign in "+-"

Both tokens of one crossing carry the same sign character.

A diagram is checked once, where it enters the package or is rewritten:
the public constructor `Diagram(components, crossings)` runs `validate`,
which raises ValidationError unless every rule of the model holds.
`parse_vgc`, `relabel` and `planar._rail_layout` build through it.
The check also gives the two tables that the diagram keeps in plain fields:
the passage index `_passage_index`, crossing id -> positions (component,
index) of its passages in canonical order, keyed in order of first
appearance (`planar._rail_layout` numbers its stations in that key order),
and the frame table `_frames`.  One routine, `_tables`, sweeps the index,
checks the crossings it is given with the per-crossing rule `_frame`,
writes their frames and refuses a record that is never passed; `validate`
runs it on every crossing.  A producer that builds a diagram from a
checked one, and so knows both tables as it writes it, hands them over
through `Diagram._made`, which keeps them unchecked:
`constructions.multiplex` writes them as it emits passages, `covering`
keeps the source's, `extract_component` reads both off one memoized sweep
of its source's index, `rotate` and `planar._strip_virtual` rotate or
filter the frames and take the index from `_tables`, checking no
crossing, and every move of `moves` runs `_tables` on the crossings it
rewrote and keeps the rest of the parent's tables.  Either way the diagram
keeps its components as tuples of tuples and its crossings as a read-only
dict, so nothing can change it afterwards.  `positions_of`,
`real_positions`, `frame` and every module that needs to know where a
crossing sits or which frame it reads use the tables; they are read, never
written, outside their producer.  A third field, the memo, keeps what the
searches and invariants derive once: the sorted ids of the real crossings
(`_real`), the integer face trace of `planar._trace`, the deletion and
triangle entries of `moves`, the crossing indices of `invariants` and the
passages that `constructions.extract_component` keeps.  Each part is
computed on first use and never changed after; a diagram that
`moves._rewrite` made is handed the site entries it carried from its
parent's memo, with its face trace, and one that `constructions.multiplex`
made its real crossings, by `_made`, before anyone else can see it.

`Passage` and `CrossingRecord` are frozen slotted dataclasses.  The values
that a producer emits are interned: `_passage(cid, role)` and
`_record(cid, virtual, sign)` return the one shared instance of their value
for a crossing id below `_INTERN_BOUND` (2**14), and a fresh one above it.
The shared instances sit in plain dicts keyed by crossing id, which hold
only the ids that builds used and are filed without a lock.
`constructions.multiplex` and `covering` emit through them, so the repeated
builds of one (diagram, r) share every passage and record; `parse_vgc`, the
moves, `planar`'s layouts and the public constructors build fresh values.
The same bound decides which build `multiplex` keeps for its next call: a
link of fewer crossings than `_INTERN_BOUND`, whose values are all interned.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

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


@dataclass(frozen=True, slots=True)
class Passage:
    crossing: int
    role: Role


@dataclass(frozen=True, slots=True)
class CrossingRecord:
    cid: int
    virtual: bool
    sign: int  # the frame read from the over passage (real) or the first passage (virtual)


# The interning tables, keyed by crossing id: one per role and one per
# (virtual, sign).  A table holds only the ids that builds used.  Ids at or
# above _INTERN_BOUND get fresh values, so that one huge build cannot pin its
# values for the life of the process; 2**14 covers every catalog multiplex up
# to r = 32 (asym3 at r = 32 has 16104 ids).  Filing a value is one dict
# store and needs no lock: a race between threads can only build a spare,
# equal value.
_INTERN_BOUND = 2**14
_PASSAGES: dict[str, dict] = {role._value_: {} for role in Role}
_RECORDS: dict[bool, dict[int, dict]] = {v: {1: {}, -1: {}} for v in (False, True)}
# A miss is built through the slot descriptors, not the frozen `__init__`.
_new = object.__new__
_set_crossing, _set_role = Passage.crossing.__set__, Passage.role.__set__
_set_cid, _set_virtual, _set_sign = (
    CrossingRecord.cid.__set__, CrossingRecord.virtual.__set__, CrossingRecord.sign.__set__
)


def _passage(cid: int, role: Role) -> Passage:
    """The shared `Passage(cid, role)`, for a producer that builds from a
    checked diagram: `cid` an int >= 1 and `role` a Role."""
    table = _PASSAGES[role._value_]
    if cid in table:
        return table[cid]
    p = _new(Passage)
    _set_crossing(p, cid)
    _set_role(p, role)
    if cid < _INTERN_BOUND:
        table[cid] = p
    return p


def _record(cid: int, virtual: bool, sign: int) -> CrossingRecord:
    """The shared `CrossingRecord(cid, virtual, sign)`, for a producer that
    builds from a checked diagram: `cid` an int >= 1, `virtual` a bool and
    `sign` the int +1 or -1."""
    table = _RECORDS[virtual][sign]
    if cid in table:
        return table[cid]
    rec = _new(CrossingRecord)
    _set_cid(rec, cid)
    _set_virtual(rec, virtual)
    _set_sign(rec, sign)
    if cid < _INTERN_BOUND:
        table[cid] = rec
    return rec


class _Crossings(dict):
    """The crossing table of a checked diagram: a dict that refuses every
    change, so that no answer can go stale after the check.  It pickles and
    copies as the dict it holds."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("the crossing table of a Diagram is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _Crossings, (dict(self),)


@dataclass(frozen=True)
class Diagram:
    """Immutable diagram value.  The public constructor checks it: it raises
    ValidationError unless every rule of the model holds.  `_made` keeps the
    tables of a producer that wrote them from a checked diagram (multiplex,
    covering, component extraction, the rewrites of `moves`) without
    checking again.  Either way the diagram keeps the components as tuples
    of tuples and the crossings as a read-only dict.  All operations in this
    package are pure."""

    components: tuple[tuple[Passage, ...], ...]
    crossings: Mapping[int, CrossingRecord]
    # What the searches and invariants derived once: the sorted real
    # crossing ids under "real", the integer face trace of `planar._trace`
    # under "trace", the entries of `moves`' deletion and triangle stages
    # under "deletions" and "triangles", the index of each real
    # self-crossing under "ind" (`invariants._indices`), and the passages
    # that `extract_component` keeps of each component under "own".
    _memo: dict[str, object] = field(default_factory=dict, init=False, repr=False, compare=False)
    # The passage index, keyed in order of first appearance, and the frame
    # table that `validate` sweeps or a producer hands to `_made`.  A plain
    # dict is kept, not a mappingproxy: a mappingproxy cannot be pickled.
    _passage_index: dict[int, tuple[tuple[int, int], ...]] = field(
        init=False, repr=False, compare=False
    )
    _frames: list[list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Called through `self`, so a wrapper put on the class sees every check.
        tables = self.validate()
        _fill(self, tuple(map(tuple, self.components)), _Crossings(self.crossings), {}, *tables)

    @classmethod
    def _made(cls, components, crossings, index, frames, memo=None) -> Diagram:
        """The diagram whose tables a producer has just written, kept without
        the full check: `components` a tuple of tuples, `crossings` a dict,
        and `index` and `frames` exactly what `validate` would return, the
        index keyed in order of first appearance.  Only a producer that wrote
        all four from a checked diagram may call it: `constructions.multiplex`,
        `covering` and `extract_component`; `rotate` and
        `planar._strip_virtual`, whose index `_tables` sweeps; and
        `moves._rewrite`, which checks the crossings of its patch with
        `_tables` and keeps the rest of the parent's tables.  `memo` holds
        the parts of the memo that `moves._rewrite` derived from its
        parent's, in a dict that is never the parent's, or the real
        crossings that `constructions.multiplex` emitted; no part it holds
        is changed after, and a part it lacks is computed from scratch on
        first use, as for any other diagram."""
        memo = {} if memo is None else memo
        return _fill(object.__new__(cls), components, _Crossings(crossings), memo, index, frames)

    # -- basic queries ----------------------------------------------------

    def n_components(self) -> int:
        return len(self.components)

    def n_real(self) -> int:
        return len(_real(self))

    def n_virtual(self) -> int:
        return len(self.crossings) - len(_real(self))

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
        canonical order."""
        return MappingProxyType(self._passage_index)

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
        table.  Raises UnknownCrossing for an unknown id, and ValidationError
        for a `pos` that is not a passage of `cid`."""
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
        a, b = self._passage_index[cid]
        return (a, b) if self.components[a[0]][a[1]].role is _OVER else (b, a)

    def validate(self) -> tuple[dict[int, tuple[tuple[int, int], ...]], list[list[int]]]:
        """Raise ValidationError unless every rule of the model holds:

        - the components are sequences of Passages, none of them a string,
          and the crossing table is a dict;
        - every crossing passed has a CrossingRecord filed under its own id;
        - every crossing id is an int >= 1 (not True);
        - every sign is the int +1 or -1 (not True, 1.0 or -1.0);
        - a real crossing is passed once Over and once Under, in either
          order, and a virtual one twice Through;
        - every record in the table is passed.

        The check is `_tables` run on every crossing, the routine that
        `moves._rewrite` runs on the crossings of its patch: it sweeps the
        passage index and checks each passed crossing by `_frame`, in the
        order of the index.  Return the passage index and the frame table,
        the frame read from each passage, which the crossing loop writes.
        The diagram keeps the tables of the check run when it is made, so a
        later call checks again and changes nothing."""
        try:
            comps = self.components
            # A string is no sequence of passages, not even an empty one.
            if isinstance(comps, (str, bytes)) or any(isinstance(c, (str, bytes)) for c in comps):
                raise TypeError
            return _tables(comps, self.crossings, [[0] * len(comp) for comp in comps])
        except (AttributeError, KeyError, TypeError):
            # KeyError: a dict given as a component or as the component list.
            raise ValidationError(
                "components must be sequences of passages and crossings a dict of records"
            ) from None


def _real(d: Diagram) -> list[int]:
    """The ids of the real crossings of `d` in increasing order, kept in its
    memo: handed over by `constructions.multiplex`, which emits them in that
    order, or listed on first use.  `n_real`, `n_virtual` and every
    invariant of `invariants` read it, so a diagram's crossing table is
    scanned for them at most once."""
    memo = d._memo
    if "real" in memo:
        return memo["real"]
    return memo.setdefault("real", sorted([c for c, rec in d.crossings.items() if not rec.virtual]))


def _tables(components, crossings, frames, cids=None, shared=None):
    """Sweep the passage index of `components`, crossing id -> positions of
    its passages in canonical order, keyed in order of first appearance,
    and check and write the crossings of `cids` (every crossing when None)
    in the order of the index: each is checked by `_frame`, and the frames
    read from its two passages are written into `frames`, one row per
    component, a row that is still the row of `shared` (the parent's frame
    table) being copied first.  Raise ValidationError as `_frame` does, or
    for a record that is never passed.  Return the index and `frames`.
    `Diagram.validate` runs it on every crossing, `moves._rewrite` on the
    crossings of its patch, and `rotate` and `planar._strip_virtual` on
    none, for the index alone."""
    sweep: dict[int, list[tuple[int, int]]] = {}
    for ci, comp in enumerate(components):
        for i, p in enumerate(comp):
            sweep.setdefault(p.crossing, []).append((ci, i))
    index = {cid: tuple(ps) for cid, ps in sweep.items()}
    for cid in index if cids is None else [cid for cid in index if cid in cids]:
        ps = index[cid]
        f = _frame(components, crossings, cid, ps)
        (c1, i1), (c2, i2) = ps
        if shared:
            for ci in (c1, c2):
                if frames[ci] is shared[ci]:
                    frames[ci] = frames[ci][:]
        frames[c1][i1], frames[c2][i2] = f, -f
    # Every passed crossing has its record, so any other record is unused.
    if len(crossings) != len(index):
        unused = [cid for cid in crossings if cid not in index]
        raise ValidationError(f"crossings recorded but never passed: {unused!r}")
    return index, frames


def _frame(comps, crossings, cid, ps) -> int:
    """The frame read from the first of the passages of crossing `cid` at
    the positions `ps` of `comps`, which is the stored sign when it is the
    over passage of a real crossing or the first passage of a virtual one.
    Raise ValidationError unless the crossing keeps the rules of the model:
    `crossings` files a CrossingRecord under `cid`, `cid` is an int >= 1,
    the sign is the int +1 or -1, and the crossing is passed once Over and
    once Under, in either order (real), or twice Through (virtual).  The
    list of the roles of its passages is looked up among the passing
    patterns `_PASSES` under its `virtual` flag, so a flag equal to a bool
    (1, 1.0, 0) reads as that bool, any other passes no crossing, and an
    unhashable one raises TypeError, which `validate` reports.  `_tables`
    runs it on each crossing it checks, for `validate` and
    `moves._rewrite`."""
    rec = crossings.get(cid)
    if not isinstance(rec, CrossingRecord) or rec.cid != cid:
        raise ValidationError(f"crossing {cid!r} has no record filed under its id")
    if type(cid) is not int or cid < 1:
        raise ValidationError(f"crossing ids must be integers >= 1, got {cid!r}")
    if type(rec.sign) is not int or rec.sign not in (+1, -1):
        raise ValidationError(f"crossing {cid}: sign must be +1 or -1")
    roles = [comps[ci][i].role for ci, i in ps]
    if roles not in _PASSES.get(rec.virtual, ()):
        raise ValidationError(
            f"crossing {cid} must be passed once Over and once Under (real)"
            " or twice Through (virtual)"
        )
    return rec.sign if rec.virtual or roles[0] is _OVER else -rec.sign


def _fill(obj, *values):
    """Set the fields of the frozen dataclass instance `obj` to `values`, in
    field order, and return it; `object.__new__(cls)` filled so is an
    instance made without `__post_init__`.  Each field is set on its own, so
    the instance keeps no materialized `__dict__` and reads stay fast."""
    for name, value in zip(obj.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def parse_vgc(text: str) -> Diagram:
    """Parse VGC text into a Diagram.

    Only what a Diagram cannot express is checked here: the grammar, and that
    both tokens of a crossing carry the same sign character.  A crossing is
    recorded from its first token; every other rule is `validate`'s."""
    if not isinstance(text, str):
        raise ParseError(f"VGC text must be a str, got {type(text).__name__}")
    if not text.strip():
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
            try:
                role, cid, sign = _ROLE_OF[m[1]], int(m[2]), +1 if m[3] == "+" else -1
            except ValueError:  # more digits than the interpreter converts to an int
                raise ParseError(f"crossing id of {len(m[2])} digits is too long") from None
            rec = crossings.setdefault(cid, CrossingRecord(cid, role is _THROUGH, sign))
            if rec.sign != sign:
                raise ValidationError(f"crossing {cid}: mismatched signs")
            passages.append(Passage(cid, role))
        components.append(tuple(passages))
    return Diagram(tuple(components), crossings)


def serialize_vgc(d: Diagram) -> str:
    """Serialize to the canonical textual form (single spaces, ' ; ' separators)."""
    d = checked(d, Diagram, ValidationError, "diagram")
    # One plain dict of sign characters: the read-only crossing table is a
    # dict subclass, which the interpreter reads slower than a dict.
    sign = {cid: "+" if rec.sign > 0 else "-" for cid, rec in d.crossings.items()}
    return " ; ".join(
        " ".join([f"{p.role._value_}{p.crossing}{sign[p.crossing]}" for p in comp]) if comp else "."
        for comp in d.components
    )


# -- rotation and renaming -----------------------------------------------


def rotate(d: Diagram, ci: int, k: int) -> Diagram:
    """Move the basepoint of component `ci` forward by `k` passages.

    Stored signs of virtual crossings with both passages on `ci` are negated
    whenever the rotation swaps which passage comes first.  Raises
    BadComponent unless 0 <= ci < n_components, and ValidationError unless
    `k` is an integer.  The rotated tables are handed to `Diagram._made`:
    the frame row of `ci` rotates with it, and the index is swept by
    `_tables`, checking no crossing.
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
    # The frame read from a passage moves with it; the other rows are shared.
    frames = list(d._frames)
    frames[ci] = frames[ci][k:] + frames[ci][:k]
    index, frames = _tables(components, crossings, frames, ())
    return Diagram._made(components, crossings, index, frames)


def relabel(d: Diagram, mapping: Mapping[int, int]) -> Diagram:
    """Rename every crossing `cid` to `mapping[cid]`.  Raises ValidationError
    unless `mapping` is a mapping that holds every crossing id of `d` and
    the renamed code is a diagram: two ids renamed alike, or a new id that is
    not an integer >= 1, break a rule of the model."""
    d = checked(d, Diagram, ValidationError, "diagram")
    mapping = checked(mapping, Mapping, ValidationError, "mapping")
    try:
        components = tuple(
            tuple(Passage(mapping[p.crossing], p.role) for p in comp) for comp in d.components
        )
        crossings = {
            mapping[cid]: CrossingRecord(mapping[cid], rec.virtual, rec.sign)
            for cid, rec in d.crossings.items()
        }
    except (KeyError, TypeError):  # TypeError: an unhashable new id
        raise ValidationError("mapping must give every crossing a hashable new id") from None
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
    rotation-equivariant code read alike, so only rotations below the least
    period, found with a KMP failure function, are read; this is the least
    circular shift idea of Booth (1980) applied to labels assigned while
    reading.  The code is shared: `_code` writes it (per passage: role,
    printed sign, and the offset to its partner), and `verify` matches knots
    by it.  A component that passes a crossing once is linked to another
    one, and no rotation below L maps that passage to one of the same
    crossing, so its period is L and none is sought.

    Cost: per tie, the first token of every rotation below the period is
    built in one pass (role, then the tie's label or the next new label, then
    the frame).  A tie whose least first token is above the best one's is
    skipped, and only the rotations that start with the least token are read
    on, each O(L) at most and dropped at its first token that differs from
    the best.  The crossings that a later component passes are carried from
    one component to the next, each passage adding or dropping its own, and
    when one tie is kept its labels are extended in place.  Only when several
    ties are kept are their labels rebuilt over the carried crossings and
    merged, O(carried) per tie: the trefoil multiplex keeps three ties on
    every component, so it still costs O(r * P) in all.  The 48-fold
    multiplex of asym3 (71376 passages) takes 0.15 to 0.25 s on a 2-vCPU host.
    """
    d = checked(d, Diagram, ValidationError, "diagram")
    index = d._passage_index
    ties: list[dict[int, str]] = [{}]  # per tie: crossing -> label and sign
    live: dict[int, None] = {}  # labelled crossings that a later component passes
    n_labels = 0
    parts = []
    for ci, comp in enumerate(d.components):
        L = len(comp)
        if L == 0:
            parts.append(".")
            continue
        roles = [p.role._value_ for p in comp]  # `value` is a slow property
        cids = [p.crossing for p in comp]
        # The sign a crossing is printed with when first met here: for a virtual
        # one the frame read from this passage, as `rotate` stores it, and for a
        # real one the frame read from its over passage.
        frames = [
            "+" if (-f if p.role is _UNDER else f) > 0 else "-"
            for p, f in zip(comp, d._frames[ci])
        ]
        spots = [index[c] for c in cids]
        for c, ((c1, _), (c2, _)) in zip(cids, spots):
            if c2 > ci:
                live[c] = None
            elif c1 < ci:
                del live[c]
        period = L
        if all(c1 == c2 for (c1, _), (c2, _) in spots):
            period = _least_period(_code(d, ci))
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

        fresh = str(n_labels + 1)
        best: list[str] = []
        kept: list[tuple[dict[int, str], dict[int, str]]] = []
        for labels in ties:
            firsts = [roles[k] + (labels.get(cids[k]) or fresh + frames[k]) for k in range(period)]
            least = min(firsts)
            if not best or least < best[0]:
                best, kept = [], []
            elif least > best[0]:
                continue
            for k in [k for k, tok in enumerate(firsts) if tok == least]:
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
        if len(kept) == 1:
            labels, new = kept[0]
            labels.update(new)
            ties = [labels]
            continue
        merged: dict[tuple[str, ...], dict[int, str]] = {}
        for labels, new in kept:
            tails = {c: labels.get(c) or new[c] for c in live}
            merged.setdefault(tuple(tails.values()), tails)
        ties = list(merged.values())
    return " ; ".join(parts)


# A passage's role letter and the sign it is printed with, keyed by its role
# and the frame read from it: a real crossing prints the frame read from its
# over passage, a virtual one the frame read from the passage itself.
_PRINTED = {
    (role, f): role._value_ + ("+" if (f > 0) != (role is _UNDER) else "-")
    for role in Role
    for f in (1, -1)
}


def _code(d: Diagram, ci: int = 0) -> list[str]:
    """The rotation-equivariant code of component `ci`, whose crossings all
    lie on it: per passage, its role, the sign it is printed with and the
    offset to the other passage of its crossing, ended by ",".  The code of a
    rotation is the rotated code, and the canonical string of a rotation is
    a function of its code that determines the code back.  So two knot
    diagrams have equal canonical forms exactly when their codes are
    rotations of each other: when one joined code occurs in the other joined
    code written twice, and the two have equal lengths, since a role letter
    begins each token and occurs nowhere else in it."""
    comp, index = d.components[ci], d._passage_index
    L = len(comp)
    code = []
    for i, (p, f) in enumerate(zip(comp, d._frames[ci])):
        (_, p1), (_, p2) = index[p.crossing]
        code.append(f"{_PRINTED[p.role, f]}{(p1 + p2 - 2 * i) % L},")
    return code


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


# Tuples, so that `in` compares roles by identity and never runs Enum.__hash__.
_CUT_ROLES = {
    Granularity.EDGE: (_OVER, _UNDER, _THROUGH),
    Granularity.ARC: (_UNDER,),
    Granularity.VIRTUAL_ARC: (_UNDER, _THROUGH),
}


@dataclass(frozen=True)
class Segments:
    """The pieces of a diagram at one granularity, as one table per gap.

    Gap g of component ci is the edge from passage g to passage g + 1, and
    `of_gap[ci][g]` is the piece that covers it; a crossing-free circle has
    one gap, covered by its closed piece.  So the piece leaving passage
    (ci, i) is `of_gap[ci][i]`, and the piece entering it (or containing it,
    when it is not cut) is `of_gap[ci][i - 1]`, the index -1 wrapping to the
    last gap.  The pieces are numbered 0 .. n_pieces - 1 by component, then
    from the first cut passage of the component, the piece that wraps past
    its basepoint last.  The public constructor raises ValidationError unless
    the piece count is an integer >= 0 and the table a tuple of tuples of
    ints below it; `segments` hands over the table it writes through `_made`,
    unchecked.
    """

    granularity: Granularity
    of_gap: tuple[tuple[int, ...], ...]
    n_pieces: int

    def __post_init__(self) -> None:
        checked(self.granularity, Granularity, ValidationError, "granularity")
        n = checked(self.n_pieces, int, ValidationError, "piece count")
        object.__setattr__(self, "n_pieces", n)
        rows = self.of_gap
        ok = n >= 0 and type(rows) is tuple and all(type(r) is tuple for r in rows)
        if not ok or any(type(k) is not int or not 0 <= k < n for r in rows for k in r):
            raise ValidationError(f"a gap table must hold tuples of ints in range({n})")

    @classmethod
    def _made(cls, granularity, of_gap, n_pieces) -> Segments:
        """The table that `segments` has just written, kept without the check."""
        return _fill(object.__new__(cls), granularity, of_gap, n_pieces)

    def __len__(self) -> int:
        return self.n_pieces


def segments(d: Diagram, granularity: Granularity) -> Segments:
    """Partition every component into pieces cut at the granularity's passages.

    Edges are cut everywhere, arcs only at Under passages, virtual arcs at
    Under and Through passages.  A component with no cut point contributes a
    single closed piece.
    """
    d = checked(d, Diagram, ValidationError, "diagram")
    cut_roles = _CUT_ROLES[checked(granularity, Granularity, ValidationError, "granularity")]
    of_gap = []
    n = 0
    for comp in d.components:
        cuts = [i for i, p in enumerate(comp) if p.role in cut_roles]
        first, n = n, n + (len(cuts) or 1)
        # The last piece wraps past the basepoint, or closes the circle when
        # nothing is cut; each other piece runs from its cut to the next.
        row = [n - 1] * (len(comp) or 1)
        for k, (s, e) in enumerate(zip(cuts, cuts[1:]), first):
            row[s:e] = [k] * (e - s)
        of_gap.append(tuple(row))
    return Segments._made(granularity, tuple(of_gap), n)
