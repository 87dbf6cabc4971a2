import pytest
from hypothesis import strategies as st

from multivirt import moves
from multivirt.colorings import ColoringSystem
from multivirt.constructions import Provenance, _CrossingMap
from multivirt.invariants import crossing_indices
from multivirt.model import CrossingRecord, Diagram, Passage, Role, Segments, _ReadOnly, parse_vgc
from multivirt.planar import _trace


def fresh_memo(d: Diagram, parts=None, ref=None) -> dict:
    """The parts of the memo of `d` named in `parts` (every part when None)
    computed afresh, from scratch, on the equal diagram `ref`, by default
    `Diagram(d.components, d.crossings)`: the real crossings, read off the
    over passages; the face trace; the entries of every deletion kind and
    every triangle family; the index of every real self-crossing, walked
    along its path by `crossing_indices`; and what `extract_component`
    keeps of each component, found passage by passage."""
    ref = Diagram(d.components, d.crossings) if ref is None else ref
    makers = {
        "real": lambda: sorted(p.crossing for _, _, p in ref.passages() if p.role is Role.OVER),
        "trace": lambda: _trace(ref),
        **{part: lambda lister=lister: lister(ref) for part, (_, lister) in moves._STAGES.items()},
        "ind": lambda: {
            cid: crossing_indices(ref, cid).ind
            for cid in sorted(ref.crossings)
            if not ref.crossings[cid].virtual
            and len({ci for ci, _ in ref.positions_of(cid)}) == 1
        },
        "own": lambda: [_kept(ref, ci) for ci in range(ref.n_components())],
    }
    return {part: makers[part]() for part in (makers if parts is None else parts)}


def _kept(d: Diagram, ci: int):
    """The positions on component `ci` of the passages whose crossing lies
    entirely on it, and each such crossing with the positions of its
    passages among them, in order of first appearance."""
    kept = [
        i for i, p in enumerate(d.components[ci])
        if {c for c, _ in d.positions_of(p.crossing)} == {ci}
    ]
    at: dict[int, list[int]] = {}
    for n, i in enumerate(kept):
        at.setdefault(d.components[ci][i].crossing, []).append(n)
    return kept, [(cid, a, b) for cid, (a, b) in at.items()]


def assert_memo_matches(d: Diagram, ref=None) -> None:
    """Each part of the memo that `d` holds equals the part computed afresh
    (on `ref`, as `fresh_memo` takes it): the cycles, the marks, the entry
    lists of each kind, the real crossings, the indices and the kept
    passages, as values and in order."""
    want = fresh_memo(d, d._memo.keys(), ref)
    for key, got in d._memo.items():
        if key == "trace":
            assert got[0] == want["trace"][0], "face cycles"
            assert got[1] == want["trace"][1], "face marks"
        elif key in ("deletions", "triangles"):
            assert got.keys() == want[key].keys(), key
            for kind, entries in got.items():
                assert entries == want[key][kind], (key, kind)
        elif key == "ind":  # a dict, compared in key order too
            assert list(got.items()) == list(want[key].items()), key
        else:
            assert got == want[key], key


@pytest.fixture(scope="session", autouse=True)
def trusted_builds_match_the_check():
    """The oracle on every table that a producer hands over unchecked.

    `Diagram._made`, `Segments._made`, `ColoringSystem._made` and
    `Provenance._made` are wrapped for the whole session (session scope, as
    hypothesis refuses function-scoped fixtures): each trusted build is also
    made through the public, checked constructor, which must accept it (a
    provenance's crossing map read off the same slot tables by a map of its
    own, so that the build's map stays unfilled and a test that counts
    fills sees none), and a diagram's passage index must equal the checked
    one item for item, key order included, its frame table and its
    components likewise.  A diagram
    handed a memo (the parts that `moves._rewrite` carried from its parent,
    or the real crossings that `constructions.multiplex` emitted) must hold
    what `fresh_memo` computes, part for part, and a diagram that
    `moves._rewrite` makes never shares its parent's memo dict."""
    diagram, segments, system, provenance = (
        cls._made.__func__ for cls in (Diagram, Segments, ColoringSystem, Provenance)
    )
    rewrite, fill = moves._rewrite, _CrossingMap._filled

    def made_diagram(cls, components, crossings, index, frames, memo=None):
        d = diagram(cls, components, crossings, index, frames, memo)
        ref = Diagram(components, crossings)
        assert type(d.components) is tuple and all(type(c) is tuple for c in d.components)
        assert d.components == ref.components and type(d.crossings) is _ReadOnly
        assert list(d._passage_index.items()) == list(ref._passage_index.items())
        assert d._frames == ref._frames
        if memo:
            assert_memo_matches(d, ref)
        return d

    def rewritten(d, edits, records):
        child = rewrite(d, edits, records)
        assert child._memo is not d._memo
        return child

    def made_segments(cls, granularity, of_gap, n_pieces):
        segs = segments(cls, granularity, of_gap, n_pieces)
        assert segs == Segments(granularity, of_gap, n_pieces)
        return segs

    def made_system(cls, mode, unknowns, rows):
        sys = system(cls, mode, unknowns, rows)
        assert sys == ColoringSystem(mode, unknowns, rows)
        return sys

    def made_provenance(cls, r, crossing_map, edge_map, component_map):
        prov = provenance(cls, r, crossing_map, edge_map, component_map)
        ref = Provenance(r, fill(_CrossingMap(r, crossing_map._tables)), edge_map, component_map)
        assert type(prov.edge_map) is _ReadOnly and type(prov.component_map) is _ReadOnly
        assert (prov.r, prov.edge_map) == (ref.r, ref.edge_map)
        assert prov.component_map == ref.component_map
        return prov

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Diagram, "_made", classmethod(made_diagram))
        mp.setattr(Segments, "_made", classmethod(made_segments))
        mp.setattr(ColoringSystem, "_made", classmethod(made_system))
        mp.setattr(Provenance, "_made", classmethod(made_provenance))
        mp.setattr(moves, "_rewrite", rewritten)
        yield


# Junk for the argument slots of an export: wrong types, out-of-range values,
# floats, bools, strings and None.
JUNK = st.one_of(
    st.floats(-3, 40),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.integers(-5, 40),
    st.lists(st.integers(0, 2), max_size=2),
)


@st.composite
def diagrams(draw, max_real=4, max_virtual=3, max_components=3):
    """Random valid diagrams: any distribution of the passage multiset over
    ordered components is a legal (possibly abstract) code."""
    n_real = draw(st.integers(0, max_real))
    n_virtual = draw(st.integers(0, max_virtual))
    passages = []
    crossings = {}
    for cid in range(1, n_real + 1):
        passages += [Passage(cid, Role.OVER), Passage(cid, Role.UNDER)]
        crossings[cid] = CrossingRecord(cid, False, draw(st.sampled_from((1, -1))))
    for cid in range(n_real + 1, n_real + n_virtual + 1):
        passages += [Passage(cid, Role.THROUGH), Passage(cid, Role.THROUGH)]
        crossings[cid] = CrossingRecord(cid, True, draw(st.sampled_from((1, -1))))
    passages = draw(st.permutations(passages))
    n_comps = draw(st.integers(1, max_components))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, len(passages)),
                min_size=n_comps - 1,
                max_size=n_comps - 1,
            )
        )
    )
    bounds = [0] + cuts + [len(passages)]
    components = tuple(
        tuple(passages[a:b]) for a, b in zip(bounds, bounds[1:])
    )
    d = Diagram(components, crossings)
    d.validate()
    return d


def torus_2(n: int) -> Diagram:
    """The closed 2-braid T(2, n), n odd: crossing c is passed at c - 1 and n + c - 1."""
    return parse_vgc(" ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)))


@pytest.fixture
def trefoil():
    return parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+")
