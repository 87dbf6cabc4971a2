import copy
import dataclasses
import itertools
import pickle
from collections import namedtuple
from functools import cache
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JUNK, diagrams
import multivirt
from multivirt import catalog
from multivirt.constructions import covering, extract_component, multiplex
from multivirt.errors import (
    BadComponent,
    MultivirtError,
    NotReal,
    ParseError,
    UnknownCrossing,
    ValidationError,
)
from multivirt.model import (
    _PASSES,
    _passage,
    _record,
    CrossingRecord,
    Diagram,
    Granularity,
    Passage,
    Role,
    canonical_form,
    parse_vgc,
    relabel,
    rotate,
    segments,
    serialize_vgc,
)
from multivirt.moves import apply_move, find_moves, random_walk
from multivirt.planar import faces, genus, realize


class TestParse:
    def test_empty_component(self):
        d = parse_vgc(".")
        assert d.n_components() == 1
        assert d.components == ((),)

    def test_kink(self):
        d = parse_vgc("O1+ U1+")
        assert d.n_components() == 1
        assert d.n_real() == 1
        assert d.crossings[1].sign == 1

    def test_triple_passage_rejected(self):
        with pytest.raises(ValidationError):
            parse_vgc("O1+ ; U1+ O1+")

    def test_mismatched_signs_rejected(self):
        with pytest.raises(ValidationError):
            parse_vgc("O1+ U1-")

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0], ids=repr)
    def test_sign_that_is_not_an_int_rejected(self, sign):
        # Such a sign compares equal to +1 or -1 but would turn the writhe
        # and the other sign sums into floats.
        d = parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+")
        crossings = {**d.crossings, 2: CrossingRecord(2, False, sign)}
        with pytest.raises(ValidationError, match="crossing 2: sign must be"):
            Diagram(d.components, crossings).validate()

    def test_wrong_roles_rejected(self):
        with pytest.raises(ValidationError):
            parse_vgc("O1+ O1+")
        with pytest.raises(ValidationError):
            parse_vgc("V1+ U1+")

    def test_single_passage_rejected(self):
        with pytest.raises(ValidationError):
            parse_vgc("O1+")

    @pytest.mark.parametrize(
        "components,crossings",
        [
            ((("x",),), {}),
            (((Passage(1, "O"), Passage(1, "U")),), {1: CrossingRecord(1, False, 1)}),
            (((Passage([1], Role.OVER), Passage([1], Role.UNDER)),), {}),
            ((Passage(1, Role.OVER),), {1: CrossingRecord(1, False, 1)}),
            (
                ((Passage("a", Role.OVER), Passage("a", Role.UNDER)),),
                {"a": CrossingRecord("a", False, 1)},
            ),
            (((Passage(1, Role.OVER), Passage(1, Role.UNDER)),), {1: "rec"}),
            (((Passage(1, Role.OVER), Passage(1, Role.UNDER)),), None),
            (
                ((Passage(True, Role.OVER), Passage(True, Role.UNDER)),),
                {True: CrossingRecord(True, False, 1)},
            ),
        ],
        ids=[
            "non-passage",
            "string-roles",
            "unhashable-id",
            "bare-passage-component",
            "string-id",
            "non-record-value",
            "no-crossing-table",
            "bool-id",
        ],
    )
    def test_malformed_components_rejected(self, components, crossings):
        with pytest.raises(ValidationError):
            Diagram(components, crossings).validate()

    @pytest.mark.parametrize(
        "components",
        [
            ({Passage(1, Role.THROUGH): 0},),
            {(Passage(1, Role.THROUGH), Passage(1, Role.THROUGH)): 0},
        ],
        ids=["dict-component", "dict-component-list"],
    )
    def test_a_dict_of_passages_is_refused_as_malformed(self, components):
        # Iterating a dict gives its keys, but indexing it by position does not.
        with pytest.raises(ValidationError, match="components must be sequences of passages"):
            Diagram(components, {1: CrossingRecord(1, True, 1)})

    def test_malformed_tokens(self):
        huge = "9" * 5000  # more digits than CPython converts to an int
        for bad in ("X1+", "O0+", "O1", "O1*", "", "O1+ ;; U1+", f"O{huge}+ U{huge}+", b"O1+ U1+"):
            with pytest.raises((ParseError, ValidationError)):
                parse_vgc(bad)

    # Bytes read as empty text: the message said "empty VGC text".
    @pytest.mark.parametrize("text,name", [(b"O1+ U1+", "bytes"), (None, "NoneType"), (7, "int")])
    def test_a_non_str_text_is_refused_by_its_type(self, text, name):
        with pytest.raises(ParseError, match=f"must be a str, got {name}$"):
            parse_vgc(text)

    @pytest.mark.parametrize("text", ["", "   ", "\n\t"])
    def test_an_empty_text_is_refused_as_empty(self, text):
        with pytest.raises(ParseError, match="^empty VGC text$"):
            parse_vgc(text)

    def test_multi_component(self):
        d = parse_vgc("O1+ ; U1+")
        assert d.n_components() == 2
        assert serialize_vgc(d) == "O1+ ; U1+"


_VALUES = [
    Passage(3, Role.THROUGH),
    CrossingRecord(3, True, -1),
    _passage(7, Role.UNDER),
    _record(7, False, 1),
]


class TestSlottedValues:
    """`Passage` and `CrossingRecord` are frozen slotted dataclasses, whether
    the public constructor or a producer's interning one made them."""

    @pytest.mark.parametrize("value", _VALUES, ids=repr)
    def test_no_dict_and_no_assignment(self, value):
        assert not hasattr(value, "__dict__")
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, 9)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, f.name)
        # A name that is no field cannot be set either.  CPython 3.11 raises
        # TypeError there, as its frozen `__setattr__` calls `super()` on the
        # class from before the slots were added.
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 9
        assert not hasattr(value, "extra")

    @pytest.mark.parametrize("value", _VALUES, ids=repr)
    def test_copies_are_equal_values(self, value):
        twins = [copy.copy(value), copy.deepcopy(value), dataclasses.replace(value)]
        twins += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        fields = dataclasses.fields(value)
        assert dataclasses.asdict(value) == {f.name: getattr(value, f.name) for f in fields}

    def test_equality_hash_and_repr(self):
        assert _passage(7, Role.UNDER) == Passage(7, Role.UNDER) != Passage(7, Role.OVER)
        assert hash(_record(7, False, 1)) == hash(CrossingRecord(7, False, 1))
        assert repr(Passage(3, Role.THROUGH)) == "Passage(crossing=3, role=<Role.THROUGH: 'V'>)"
        assert repr(_record(7, False, 1)) == "CrossingRecord(cid=7, virtual=False, sign=1)"


class TestSerialize:
    def test_unknot(self):
        assert serialize_vgc(parse_vgc(".")) == "."

    def test_kink_roundtrip(self):
        assert serialize_vgc(parse_vgc("O1+ U1+")) == "O1+ U1+"

    @given(diagrams())
    def test_roundtrip(self, d):
        assert parse_vgc(serialize_vgc(d)) == d


class TestPassageMultiplicities:
    @given(diagrams())
    def test_role_counts(self, d):
        overs = sum(1 for _, _, p in d.passages() if p.role is Role.OVER)
        unders = sum(1 for _, _, p in d.passages() if p.role is Role.UNDER)
        throughs = sum(1 for _, _, p in d.passages() if p.role is Role.THROUGH)
        assert overs == unders == d.n_real()
        assert throughs == 2 * d.n_virtual()


class TestPassageIndex:
    @given(diagrams())
    def test_lookups_match_a_brute_force_sweep(self, d):
        for cid, rec in d.crossings.items():
            sweep = sorted((ci, i) for ci, i, p in d.passages() if p.crossing == cid)
            assert d.positions_of(cid) == sweep
            if rec.virtual:
                with pytest.raises(NotReal):
                    d.real_positions(cid)
                continue
            over, under = d.real_positions(cid)
            assert d.components[over[0]][over[1]] == Passage(cid, Role.OVER)
            assert d.components[under[0]][under[1]] == Passage(cid, Role.UNDER)
            assert sorted((over, under)) == sweep
        unknown = max(d.crossings, default=0) + 1
        assert d.positions_of(unknown) == []
        with pytest.raises(UnknownCrossing):
            d.real_positions(unknown)

    def test_unhashable_id_is_unknown(self, trefoil):
        assert trefoil.positions_of([1]) == []
        with pytest.raises(UnknownCrossing):
            trefoil.real_positions([1])

    @given(diagrams())
    def test_returned_values_do_not_alias_the_index(self, d):
        for cid in d.crossings:
            before = d.positions_of(cid)
            d.positions_of(cid).clear()
            d.positions_of(cid).append((99, 99))
            assert d.positions_of(cid) == before
        with pytest.raises(TypeError):
            d.passage_index[0] = ()

    def test_index_is_published_whole(self, trefoil):
        """A new diagram holds its whole passage index: it is swept when the
        diagram is made, never on a read."""
        d = Diagram(trefoil.components, trefoil.crossings)
        want = {1: ((0, 0), (0, 3)), 2: ((0, 1), (0, 4)), 3: ((0, 2), (0, 5))}
        assert d.__dict__["_passage_index"] == want
        assert d.__dict__["_passage_index"] == _index_oracle(d)

    @given(diagrams())
    def test_validated_diagram_pickles_and_deep_copies(self, d):
        d.validate()
        for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert twin == d
            assert dict(twin.passage_index) == dict(d.passage_index)


class TestFrame:
    @given(diagrams())
    def test_the_two_passages_read_opposite_frames(self, d):
        for cid, (a, b) in d.passage_index.items():
            assert d.frame(cid, a) == -d.frame(cid, b) in (1, -1)

    @given(diagrams())
    def test_over_or_first_passage_reads_the_stored_sign(self, d):
        for cid, rec in d.crossings.items():
            lead = d.positions_of(cid)[0] if rec.virtual else d.real_positions(cid)[0]
            assert d.frame(cid, lead) == rec.sign

    @given(diagrams(), st.data())
    def test_rotation_keeps_the_frame_read_from_every_strand(self, d, data):
        ci = data.draw(st.integers(0, d.n_components() - 1))
        k = data.draw(st.integers(-5, 5))
        r = rotate(d, ci, k)
        L = len(d.components[ci])
        for cj, i, p in d.passages():
            moved = (ci, (i - k) % L) if cj == ci else (cj, i)
            assert r.components[moved[0]][moved[1]] == p
            assert r.frame(p.crossing, moved) == d.frame(p.crossing, (cj, i))

    @pytest.mark.parametrize("cid", [0, -1, 3, "1", None, 1.5, [1]])
    def test_unknown_crossing_rejected(self, cid):
        with pytest.raises(UnknownCrossing):
            parse_vgc("O1+ V2- U1+ V2-").frame(cid, (0, 0))

    @pytest.mark.parametrize("pos", [(0, 1), (0, 4), (1, 0), (0,), 0, None, "0,0", [0, 0]])
    def test_position_off_the_crossing_rejected(self, pos):
        with pytest.raises(ValidationError):
            parse_vgc("O1+ V2- U1+ V2-").frame(1, pos)

    @pytest.mark.parametrize("pos", [(0, 0.0), (0.0, 0), (0.0, 3.0), (True, 1.0)])
    def test_float_entries_read_the_frame_of_the_int_position(self, pos):
        d = parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+ ; O4+ U4+")
        cid = d.components[int(pos[0])][int(pos[1])].crossing
        assert d.frame(cid, pos) == d.frame(cid, (int(pos[0]), int(pos[1])))

    @pytest.mark.parametrize("pos", [(0, 0.5), (0.0, 1.0), (0, 6.0), (2.0, 0)])
    def test_float_entries_off_the_crossing_rejected(self, pos):
        with pytest.raises(ValidationError):
            parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+ ; O4+ U4+").frame(1, pos)

    @pytest.mark.parametrize(
        "components",
        [
            ((Passage(1, Role.OVER),),),
            ((Passage(1, Role.OVER), Passage(1, Role.UNDER), Passage(1, Role.OVER)),),
            ((),),
        ],
        ids=["passed-once", "passed-three-times", "never-passed"],
    )
    def test_unvalidated_diagram_raises_validation_error(self, components):
        # A crossing not passed twice has no frame to read, and such a
        # diagram is refused when it is made, before any frame is read.
        with pytest.raises(ValidationError):
            Diagram(components, {1: CrossingRecord(1, False, 1)}).frame(1, (0, 0))

    def test_another_crossings_position_rejected_on_an_unvalidated_diagram(self):
        passages = (Passage(1, Role.OVER), Passage(2, Role.OVER))
        with pytest.raises(ValidationError):
            Diagram(
                (passages,), {1: CrossingRecord(1, False, 1), 2: CrossingRecord(2, False, 1)}
            ).frame(1, (0, 1))

    @given(diagrams())
    def test_frame_table_matches_the_first_frame_reader(self, d):
        for ci, i, p in d.passages():
            assert d._frames[ci][i] == d.frame(p.crossing, (ci, i)) == _frame_oracle(d, p.crossing, (ci, i))

    @pytest.mark.parametrize("name", catalog.KNOT_NAMES)
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_frame_table_matches_the_first_frame_reader_on_multiplexes(self, name, r):
        L, _ = multiplex(catalog.diagram(name), r)
        for ci, i, p in L.passages():
            assert L._frames[ci][i] == _frame_oracle(L, p.crossing, (ci, i))

    def test_frame_table_is_published_whole(self):
        """A new diagram holds its whole frame table: it is written when the
        diagram is made, never on a read."""
        d = parse_vgc("O1+ V2- ; U1+ V2- ; .")
        assert d.__dict__["_frames"] == [[1, -1], [-1, 1], []]
        assert d.__dict__["_frames"] == _frame_table_oracle(d)


_O, _U = Role.OVER, Role.UNDER
# Builders of diagrams that each break one rule, so building one raises.
_UNVALIDATED = {
    # Crossing 1 is passed Over twice.
    "over-twice": lambda: Diagram(
        ((Passage(1, _O), Passage(2, _U), Passage(1, _O), Passage(2, _O)),),
        {1: CrossingRecord(1, False, 1), 2: CrossingRecord(2, False, 1)},
    ),
    "unused-record": lambda: Diagram(
        ((Passage(1, _O), Passage(1, _U)),),
        {1: CrossingRecord(1, False, 1), 7: CrossingRecord(7, False, 1)},
    ),
    "id-0-float-sign": lambda: Diagram(
        ((Passage(0, _O), Passage(0, _U)),), {0: CrossingRecord(0, False, 1.0)}
    ),
}
_FRAME_READERS = {
    "genus": genus,
    "faces": faces,
    "canonical_form": canonical_form,
    "find_moves": find_moves,
    "multiplex": lambda d: multiplex(d, 2),
}


class TestFrameReaders:
    """No reader of the frame table gets an invalid diagram: building one
    raises ValidationError.  Before diagrams were checked, the first one
    had genus 1, canonical form 'O1+ O2+ O1+ U2+' and 66 move sites, the
    second raised a bare AssertionError from `genus` and `multiplex`, and
    the third had canonical form 'O1+ U1+'."""

    @pytest.mark.parametrize("reader", _FRAME_READERS)
    @pytest.mark.parametrize("name", _UNVALIDATED)
    def test_an_invalid_diagram_is_rejected(self, name, reader):
        with pytest.raises(ValidationError):
            _FRAME_READERS[reader](_UNVALIDATED[name]())

    def test_parse_leaves_the_frame_table_filled(self):
        d = parse_vgc("O1+ V2- ; U1+ V2- ; .")
        assert d._frames == [[1, -1], [-1, 1], []]

    @given(diagrams())
    def test_validate_fills_the_table_once(self, d):
        fresh = Diagram(d.components, d.crossings)
        index, table = fresh._passage_index, fresh._frames
        assert index == _index_oracle(fresh)
        assert table == _frame_table_oracle(fresh) == d._frames
        # A later check returns the same tables and leaves the kept ones alone.
        assert fresh.validate() == (index, table)
        assert fresh._passage_index is index and fresh._frames is table


def _validate_oracle(components, crossings) -> None:
    """The first `Diagram.validate`, kept as an oracle on the parts of a
    diagram: it sweeps the passage index, builds the list of roles of every
    crossing and looks it up among the passing patterns."""
    try:
        index = {}
        for ci, comp in enumerate(components):
            for i, p in enumerate(comp):
                index.setdefault(p.crossing, []).append((ci, i))
        for cid, ps in index.items():
            rec = crossings.get(cid)
            if not isinstance(rec, CrossingRecord) or rec.cid != cid:
                raise ValidationError(f"crossing {cid!r} has no record filed under its id")
            if not isinstance(cid, int) or cid < 1:
                raise ValidationError(f"crossing ids must be integers >= 1, got {cid!r}")
            if rec.sign not in (+1, -1):
                raise ValidationError(f"crossing {cid}: sign must be +1 or -1")
            roles = [components[ci][i].role for ci, i in ps]
            if roles not in _PASSES.get(rec.virtual, ()):
                raise ValidationError(
                    f"crossing {cid} must be passed once Over and once Under (real)"
                    " or twice Through (virtual)"
                )
        # Every passed crossing has its record, so any other record is unused.
        if len(crossings) != len(index):
            unused = [cid for cid in crossings if cid not in index]
            raise ValidationError(f"crossings recorded but never passed: {unused!r}")
    except (AttributeError, TypeError):
        raise ValidationError(
            "components must be sequences of passages and crossings a dict of records"
        ) from None


def _verdicts(components, crossings):
    """The message that building a diagram from these parts and the oracle
    raise, or None when they accept."""
    out = []
    for check in (Diagram, _validate_oracle):
        table = dict(crossings) if isinstance(crossings, dict) else crossings
        try:
            check(tuple(tuple(c) for c in components), table)
        except ValidationError as e:
            out.append(str(e))
        else:
            out.append(None)
    return out


# Crossing 1 is real, 3 virtual; on one circle, and on two.
_HOSTS = ("O1+ V3- O2+ U1+ V3- U2+", "O1+ V3- U2+ ; O2+ V3- U1+")
_ROLE = {"O": Role.OVER, "U": Role.UNDER, "V": Role.THROUGH}
_FLAGS = [False, True, 1, 1.0, 0, "yes", None, []]
_NoRole = namedtuple("_NoRole", "crossing")


def _parts(code):
    d = parse_vgc(code)
    return [list(c) for c in d.components], dict(d.crossings)


def _positions(comps, cid):
    return [(ci, i) for ci, c in enumerate(comps) for i, p in enumerate(c) if p.crossing == cid]


class TestValidateAgainstTheOracle:
    @given(diagrams())
    def test_valid_diagrams(self, d):
        assert _verdicts(d.components, d.crossings) == [None, None]

    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog_and_multiplexes(self, name):
        d = catalog.diagram(name)
        assert _verdicts(d.components, d.crossings) == [None, None]
        if d.n_components() == 1:
            L, _ = multiplex(d, 3)
            assert _verdicts(L.components, L.crossings) == [None, None]

    @pytest.mark.parametrize("host", _HOSTS)
    @pytest.mark.parametrize("flag", _FLAGS, ids=repr)
    @pytest.mark.parametrize("cid", [1, 3])
    def test_passed_one_to_three_times_with_any_roles_and_flag(self, host, flag, cid):
        """Every role word of length 1..3 on a crossing (OO, UU, OV, VO among
        them), under every `virtual` flag, truthy and falsy alike."""
        for k in (1, 2, 3):
            for word in itertools.product("OUV", repeat=k):
                comps, crossings = _parts(host)
                (c1, i1), (c2, i2) = _positions(comps, cid)
                del comps[c2][i2]
                del comps[c1][i1]
                # Put the passages back at the first position, in order.
                comps[c1][i1:i1] = [Passage(cid, _ROLE[x]) for x in word]
                crossings[cid] = CrossingRecord(cid, flag, crossings[cid].sign)
                got, want = _verdicts(comps, crossings)
                assert got == want, word

    @pytest.mark.parametrize("host", _HOSTS)
    @pytest.mark.parametrize("cid", [1, 3])
    @pytest.mark.parametrize("change", [
        ("sign", 0), ("sign", 2), ("sign", True), ("sign", -1.0),
        ("id", 0), ("id", -1), ("id", "a"), ("id", 2.0),
        ("filed", 2), ("filed", 99), ("filed", "a"),
        ("record", None), ("record", (1, False, 1)), ("record", "missing"),
        ("unused", 99), ("unused", "a"),
        ("item", 1), ("item", "O1+"), ("item", (1, Role.OVER)), ("item", None),
        ("item", CrossingRecord(1, False, 1)), ("item", _NoRole(1)), ("item", _NoRole(3)),
    ], ids=repr)
    def test_hostile_mutations(self, host, cid, change):
        comps, crossings = _parts(host)
        what, value = change
        rec = crossings[cid]
        if what == "sign":
            crossings[cid] = CrossingRecord(cid, rec.virtual, value)
        elif what == "id":
            for ci, i in _positions(comps, cid):
                comps[ci][i] = Passage(value, comps[ci][i].role)
            del crossings[cid]
            crossings[value] = CrossingRecord(value, rec.virtual, rec.sign)
        elif what == "filed":
            crossings[cid] = CrossingRecord(value, rec.virtual, rec.sign)
        elif what == "record":
            if value == "missing":
                del crossings[cid]
            else:
                crossings[cid] = value
        elif what == "unused":
            crossings[value] = CrossingRecord(value, rec.virtual, rec.sign)
        else:
            ci, i = _positions(comps, cid)[0]
            comps[ci][i] = value
        got, want = _verdicts(comps, crossings)
        if what == "sign" and type(value) is not int:
            # True and -1.0 compare equal to a sign; only the oracle takes them.
            assert (got, want) == (f"crossing {cid}: sign must be +1 or -1", None)
        else:
            assert got == want

    @pytest.mark.parametrize("crossings", [None, [], "x", ((1, 2),)], ids=repr)
    def test_crossing_table_of_another_kind(self, crossings):
        comps, _ = _parts(_HOSTS[0])
        got, want = _verdicts(comps, crossings)
        assert got == want
        assert got is not None


_UNPASSED = "crossing {} must be passed once Over and once Under (real) or twice Through (virtual)"
_NOT_SEQUENCES = "components must be sequences of passages and crossings a dict of records"


@pytest.mark.parametrize("code, flags, want", [
    ("O1 V2 U1 V2", (False, 1), [[1, -1, -1, 1]]),
    ("O1 V2 U1 V2", (False, 1.0), [[1, -1, -1, 1]]),
    ("O1 V2 U1 V2", (0, True), [[1, -1, -1, 1]]),
    ("U1 V2 O1 V2", (False, True), [[-1, -1, 1, 1]]),
    ("O1 V2 U1 V2", (False, 2), _UNPASSED.format(2)),
    ("O1 V2 U1 V2", (None, True), _UNPASSED.format(1)),
    ("O1 V2 O1 V2", (False, True), _UNPASSED.format(1)),
    ("O1 V2 V2", (False, True), _UNPASSED.format(1)),
    ("O1 V2 U1 O1 V2", (False, True), _UNPASSED.format(1)),
    ("O1 O2 U1 U2", (False, True), _UNPASSED.format(2)),
    ("O1 V2 U1 V2", (False, []), _NOT_SEQUENCES),
], ids=repr)
def test_the_crossing_check_is_pinned(code, flags, want):
    """What building a diagram does with `virtual` flags that are not a
    bool and with passing patterns of the wrong roles or counts: the frame
    table it fills, or the message it raises.  Crossing 1 has sign +1,
    crossing 2 sign -1."""
    comps = (tuple(Passage(int(token[1:]), _ROLE[token[0]]) for token in code.split()),)
    crossings = {
        cid: CrossingRecord(cid, flag, sign) for cid, flag, sign in zip((1, 2), flags, (1, -1))
    }
    try:
        got = Diagram(comps, crossings)._frames
    except ValidationError as e:
        got = str(e)
    assert got == want


def _index_oracle(d):
    """The passage index by a brute-force sweep over the passages."""
    index = {}
    for ci, i, p in d.passages():
        index[p.crossing] = index.get(p.crossing, ()) + ((ci, i),)
    return index


def _frame_table_oracle(d):
    """The frame table read passage by passage with `_frame_oracle`."""
    return [
        [_frame_oracle(d, p.crossing, (ci, i)) for i, p in enumerate(comp)]
        for ci, comp in enumerate(d.components)
    ]


def _frame_oracle(d, cid, pos):
    """The first frame reader, kept as an oracle: the stored sign read from
    the over passage of a real crossing or the first passage of a virtual
    one, its negative read from the other passage."""
    rec = d.crossings[cid]
    a, b = d.passage_index[cid]
    if not rec.virtual and d.components[a[0]][a[1]].role is not Role.OVER:
        a = b
    return rec.sign if pos == a else -rec.sign


class TestCheckedConstruction:
    """Every producer returns a diagram checked when it was made, which
    keeps the passage index and the frame table of that check."""

    @given(diagrams(), st.data())
    def test_every_producer_keeps_the_tables_of_a_fresh_sweep(self, d, data):
        ci = data.draw(st.integers(0, d.n_components() - 1))
        ids = list(d.crossings)
        new_ids = data.draw(st.lists(st.integers(1, 99), min_size=len(ids), max_size=len(ids), unique=True))
        knot = realize(extract_component(d, 1))
        r = data.draw(st.integers(2, 3))
        final, trace = random_walk(d, 6, data.draw(st.integers(0, 3)), size_cap=10**9)
        made = [
            parse_vgc(serialize_vgc(d)),
            rotate(d, ci, data.draw(st.integers(-5, 5))),
            relabel(d, dict(zip(ids, new_ids))),
            extract_component(d, ci + 1),
            realize(d),
            knot,
            multiplex(knot, r)[0],
            covering(knot, r),
            final,
        ]
        for site in trace:
            d = apply_move(d, site)
            made.append(d)
        for out in made:
            assert out._passage_index == _index_oracle(out)
            assert out._frames == _frame_table_oracle(out)

    @pytest.mark.parametrize("name", _UNVALIDATED)
    def test_an_invalid_diagram_cannot_be_made(self, name):
        with pytest.raises(ValidationError):
            _UNVALIDATED[name]()

    @pytest.mark.parametrize(
        "mapping",
        [{1: 2, 2: 2, 3: 3}, {1: 0, 2: 2, 3: 3}, {1: "a", 2: 2, 3: 3}, {1: True, 2: 2, 3: 3},
         {1: 1, 2: 2}, {1: [1], 2: 2, 3: 3}, [0, 1, 2, 3], None],
        ids=["two-ids-alike", "id-0", "string-id", "bool-id", "missing-id", "unhashable-id",
             "list", "none"],
    )
    def test_relabel_refuses_a_mapping_that_breaks_the_model(self, trefoil, mapping):
        # Before, the first four gave codes that break the model (a bool id
        # serializes as OTrue+, which parse_vgc refuses), and a missing id a
        # bare KeyError.
        with pytest.raises(ValidationError):
            relabel(trefoil, mapping)

    def test_a_checked_diagram_cannot_be_changed(self, trefoil):
        # Before, `trefoil.crossings[1] = CrossingRecord(1, False, -1)` made
        # serialize_vgc print O1- while the frame table still read +1.
        def assign_passage():
            trefoil.components[0][0] = Passage(2, Role.OVER)

        changes = [
            assign_passage,
            lambda: trefoil.crossings.__setitem__(1, CrossingRecord(1, False, -1)),
            lambda: trefoil.crossings.__delitem__(1),
            lambda: trefoil.crossings.update({9: CrossingRecord(9, False, 1)}),
            lambda: trefoil.crossings.setdefault(9, CrossingRecord(9, False, 1)),
            lambda: trefoil.crossings.pop(1),
            lambda: trefoil.crossings.popitem(),
            lambda: trefoil.crossings.clear(),
        ]
        for change in changes:
            with pytest.raises(TypeError):
                change()
        assert serialize_vgc(trefoil) == "O1+ U2+ O3+ U1+ O2+ U3+"
        assert trefoil.frame(1, (0, 0)) == 1 and trefoil.n_real() == 3

    def test_the_arguments_are_copied_into_tuples_and_a_read_only_table(self):
        comps = [[Passage(1, Role.OVER), Passage(1, Role.UNDER)]]
        crossings = {1: CrossingRecord(1, False, 1)}
        d = Diagram(comps, crossings)
        comps[0].reverse()
        crossings[1] = CrossingRecord(1, False, -1)
        assert serialize_vgc(d) == "O1+ U1+"
        assert type(d.components) is tuple and all(type(c) is tuple for c in d.components)
        assert d == parse_vgc("O1+ U1+")
        for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d), copy.copy(d)):
            assert twin == d
            with pytest.raises(TypeError):
                twin.crossings[1] = CrossingRecord(1, False, -1)


class TestCanonicalForm:
    def test_rotation(self):
        assert canonical_form(parse_vgc("O1+ U1+")) == canonical_form(parse_vgc("U1+ O1+"))

    def test_relabel(self):
        assert canonical_form(parse_vgc("O7- U7-")) == canonical_form(parse_vgc("O1- U1-"))

    def test_sign_distinguishes(self):
        assert canonical_form(parse_vgc("O1+ U1+")) != canonical_form(parse_vgc("O1- U1-"))

    def test_trefoil_rotations(self, trefoil):
        want = canonical_form(trefoil)
        for k in range(6):
            assert canonical_form(rotate(trefoil, 0, k)) == want

    @given(diagrams(max_real=3, max_virtual=2, max_components=2))
    def test_rotation_invariance(self, d):
        want = canonical_form(d)
        for ci, comp in enumerate(d.components):
            for k in range(len(comp)):
                assert canonical_form(rotate(d, ci, k)) == want

    def test_virtual_sign_reorients_on_rotation(self):
        # Moving the basepoint past one passage of a virtual crossing flips
        # which passage comes first, so the stored sign must flip with it.
        d = parse_vgc("V1+ O2+ V1+ U2+")
        r = rotate(d, 0, 1)
        assert r.crossings[1].sign == -1
        assert parse_vgc(serialize_vgc(r)) == r
        assert canonical_form(r) == canonical_form(d)

    @pytest.mark.parametrize("ci", [-1, 1, 3, 0.5, "0", None])
    def test_rotation_of_a_missing_component_rejected(self, ci):
        # Unchecked, -1 would flip the virtual sign without rotating, and 3
        # would raise a bare IndexError.
        with pytest.raises(BadComponent):
            rotate(parse_vgc("O1+ V2- U1+ V2-"), ci, 2)

    @pytest.mark.parametrize("k", [1.5, 2.0, "2", None])
    def test_non_integer_rotation_step_rejected(self, k):
        with pytest.raises(ValidationError):
            rotate(parse_vgc("O1+ V2- U1+ V2-"), 0, k)

    def test_bool_component_and_step_act_as_ints(self):
        d = parse_vgc("O1+ U1+ ; V2+ V2+")
        assert rotate(d, True, True) == rotate(d, 1, 1)


# The passages at which each granularity cuts a component into pieces.
_CUT_ROLES = {
    Granularity.EDGE: {Role.OVER, Role.UNDER, Role.THROUGH},
    Granularity.ARC: {Role.UNDER},
    Granularity.VIRTUAL_ARC: {Role.UNDER, Role.THROUGH},
}


class TestSegments:
    def test_granularity_must_be_a_member(self):
        with pytest.raises(ValidationError, match="'edge'"):
            segments(parse_vgc("O1+ U1+"), "edge")

    def test_kink_arcs(self):
        d = parse_vgc("O1+ U1+")
        assert len(segments(d, Granularity.ARC)) == 1

    def test_trefoil_arcs(self, trefoil):
        assert len(segments(trefoil, Granularity.ARC)) == 3

    def test_virtual_arcs(self):
        d = parse_vgc("O1+ U1+ V2+ V2+")
        assert len(segments(d, Granularity.VIRTUAL_ARC)) == 3

    def test_closed_piece(self):
        d = parse_vgc(".")
        segs = segments(d, Granularity.ARC)
        assert len(segs) == 1
        assert segs.of_gap == ((0,),)  # one gap, in the closed piece

    def test_over_only_component_is_closed_at_arc_level(self):
        d = parse_vgc("O1+ ; U1+")
        segs = segments(d, Granularity.ARC)
        assert len(segs) == 2  # one closed piece on the over circle, one arc
        assert segs.of_gap == ((0,), (1,))

    @given(diagrams())
    def test_counts(self, d):
        for gran, cut_roles in (
            (Granularity.EDGE, {Role.OVER, Role.UNDER, Role.THROUGH}),
            (Granularity.ARC, {Role.UNDER}),
            (Granularity.VIRTUAL_ARC, {Role.UNDER, Role.THROUGH}),
        ):
            segs = segments(d, gran)
            want = 0
            for comp in d.components:
                cuts = sum(1 for p in comp if p.role in cut_roles)
                want += cuts if cuts else 1
            assert len(segs) == want

    @given(diagrams())
    def test_edge_refinement(self, d):
        """Every edge is a piece of its own, and every virtual arc lies inside
        one arc: all of its gaps are gaps of that arc."""
        arcs = segments(d, Granularity.ARC)
        varcs = segments(d, Granularity.VIRTUAL_ARC)
        edges = segments(d, Granularity.EDGE)
        edge_pieces = [k for row in edges.of_gap for k in row]
        assert len(set(edge_pieces)) == len(edge_pieces)
        arc_of: dict[int, set[int]] = {}
        for vrow, arow in zip(varcs.of_gap, arcs.of_gap):
            for v, a in zip(vrow, arow, strict=True):
                assert 0 <= a < len(arcs)
                assert 0 <= v < len(varcs)
                arc_of.setdefault(v, set()).add(a)
        assert all(len(found) == 1 for found in arc_of.values())

    @given(diagrams())
    def test_gaps_partition(self, d):
        """Every piece covers one cyclic run of gaps of one component: a run
        starts at every cut, and a component cut at most once is one piece.
        A crossing-free circle has one gap."""
        for gran, cut_roles in _CUT_ROLES.items():
            segs = segments(d, gran)
            owner: dict[int, int] = {}
            for ci, (comp, row) in enumerate(zip(d.components, segs.of_gap, strict=True)):
                assert len(row) == max(len(comp), 1)
                cuts = [i for i, p in enumerate(comp) if p.role in cut_roles]
                starts = [g for g in range(len(row)) if row[g - 1] != row[g]]
                assert starts == (cuts if len(cuts) > 1 else [])
                assert len({row[g] for g in starts}) == len(starts)
                for k in row:
                    assert owner.setdefault(k, ci) == ci
            assert sorted(owner) == list(range(len(segs)))


# Every export that takes a diagram first, with the other arguments it needs;
# a dotted name is read off the package's module of that name.
_DIAGRAM_FIRST = [
    ("serialize_vgc", ()),
    ("canonical_form", ()),
    ("rotate", (0, 1)),
    ("segments", (Granularity.ARC,)),
    ("faces", ()),
    ("genus", ()),
    ("realize", ()),
    ("crossing_indices", (1,)),
    ("specified_path", (1,)),
    ("writhe", ()),
    ("n_writhes", ()),
    ("ith_n_writhes", (1,)),
    ("linking_and_lambda", ()),
    ("invariant_report", ()),
    ("model.relabel", ({},)),
    ("invariants.index_defect", ()),
]


@pytest.mark.parametrize("value", [None, "x", 2.5, (), [()]], ids=repr)
@pytest.mark.parametrize("name, args", _DIAGRAM_FIRST, ids=[n for n, _ in _DIAGRAM_FIRST])
def test_non_diagram_rejected(name, args, value):
    with pytest.raises(ValidationError, match="diagram"):
        attrgetter(name)(multivirt)(value, *args)


# The texts of at most two characters that parse: one empty circle, padded
# by one character that `str.strip` drops.
_CIRCLE_TEXTS = [
    text for c in map(chr, range(0x110000)) if c.isspace() for text in (c + ".", "." + c)
] + ["."]


@cache
def _model_calls():
    """One call per argument slot of the model exports, junk going into
    that slot, and the valid values of the slot that junk may equal.  The
    diagram is a knot beside a virtual circle, so both components of
    `rotate` hold passages; `segments` and `Segments` are covered among the
    coloring exports."""
    d = parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+ ; V4+ V4+")
    kink = (Passage(1, Role.OVER), Passage(1, Role.UNDER))
    ids = {1: 1, 2: 2, 3: 3, 4: 4}
    return {
        "Diagram-components": (lambda x: Diagram(x, {}), [(), []]),
        "Diagram-component": (
            lambda x: Diagram((kink, x), {1: CrossingRecord(1, False, 1)}), [(), []]
        ),
        "Diagram-crossings": (lambda x: Diagram(d.components, x), ()),
        "parse_vgc-text": (parse_vgc, _CIRCLE_TEXTS),
        "serialize_vgc-diagram": (serialize_vgc, ()),
        "rotate-diagram": (lambda x: rotate(x, 0, 1), ()),
        "rotate-component": (lambda x: rotate(d, x, 1), range(2)),
        "rotate-step": (lambda x: rotate(d, 0, x), range(-5, 41)),
        "canonical_form-diagram": (canonical_form, ()),
        "relabel-diagram": (lambda x: relabel(x, ids), ()),
        "relabel-mapping": (lambda x: relabel(d, x), ()),
        "relabel-id": (lambda x: relabel(d, {**ids, 1: x}), [1, *range(5, 41)]),
    }


@pytest.mark.parametrize("slot", list(_model_calls()))
@settings(max_examples=40, deadline=None)
@given(junk=JUNK)
@example(junk="")
@example(junk=[])
@example(junk=True)
@example(junk=1.0)
def test_model_exports_refuse_junk_or_read_it_as_its_equal(slot, junk):
    """Junk in any argument slot of a model export raises a MultivirtError
    or gives what the valid value that it equals gives: an empty list of
    components, or an empty list as a component, is a sequence like any
    other, and a step of True rotates by 1."""
    call, valid = _model_calls()[slot]
    try:
        got = call(junk)
    except MultivirtError:
        return
    equal = [v for v in valid if v == junk]
    assert equal, f"{slot} accepted {junk!r}"
    assert got == call(equal[0])
