import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JUNK, diagrams
from multivirt import catalog
from multivirt.constructions import multiplex
from multivirt.errors import ValidationError
from multivirt.model import (
    CrossingRecord,
    Diagram,
    Passage,
    Role,
    canonical_form,
    parse_vgc,
    relabel,
    rotate,
    serialize_vgc,
)
from multivirt.moves import apply_move, random_walk
from multivirt.planar import _ccw_ports, _strip_virtual, _trace, faces, genus, realize


def _faces_oracle(d):
    """The first face tracer, kept verbatim as an oracle: two port tables
    keyed by "out"/"in" and one successor lookup per dart."""
    OUT, IN = "out", "in"
    by_port, slot_table = {}, {}
    for cid, (a, b) in d.passage_index.items():
        if d.frame(cid, a) > 0:
            order = [(a, OUT), (b, OUT), (a, IN), (b, IN)]
        else:
            order = [(a, OUT), (b, IN), (a, IN), (b, OUT)]
        for slot, ((ci, i), side) in enumerate(order):
            by_port[(ci, i, side)] = (cid, slot)
            slot_table[(cid, slot)] = (ci, i, side)

    def next_dart(dart):
        ci, g, direction = dart
        L = len(d.components[ci])
        arrive = (ci, (g + 1) % L, IN) if direction > 0 else (ci, g, OUT)
        cid, slot = by_port[arrive]
        ci2, i2, side2 = slot_table[(cid, (slot - 1) % 4)]
        if side2 == OUT:
            return (ci2, i2, +1)
        return (ci2, (i2 - 1) % len(d.components[ci2]), -1)

    darts = [
        (ci, g, direction)
        for ci, comp in enumerate(d.components)
        for g in range(len(comp))
        for direction in (+1, -1)
    ]
    remaining = set(darts)
    out = []
    for start in darts:
        if start not in remaining:
            continue
        cycle = []
        dart = start
        while True:
            cycle.append(dart)
            remaining.discard(dart)
            dart = next_dart(dart)
            if dart == start:
                break
        out.append(tuple(cycle))
    return out


def _genus_oracle(d: Diagram) -> int:
    """Genus of the carrier surface, summed over connected pieces of the
    underlying 4-valent graph.  Crossing-free circles contribute 0."""
    if not d.crossings:
        return 0
    parent: dict[int, int] = {cid: cid for cid in d.crossings}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for comp in d.components:
        for i in range(len(comp)):
            union(comp[i].crossing, comp[(i + 1) % len(comp)].crossing)

    verts: dict[int, int] = {}
    edges: dict[int, int] = {}
    faces_count: dict[int, int] = {}
    for cid in d.crossings:
        verts[find(cid)] = verts.get(find(cid), 0) + 1
    for ci, comp in enumerate(d.components):
        for i in range(len(comp)):
            root = find(comp[i].crossing)
            edges[root] = edges.get(root, 0) + 1
    for cycle in faces(d):
        ci, g, _ = cycle[0]
        root = find(d.components[ci][g].crossing)
        faces_count[root] = faces_count.get(root, 0) + 1
    total = 0
    for root, v in verts.items():
        chi = v - edges[root] + faces_count.get(root, 0)
        assert chi % 2 == 0, "Euler characteristic of a closed surface is even"
        total += (2 - chi) // 2
    return total


def _walk_states(name, steps=40, seeds=(0, 1)):
    d = catalog.diagram(name)
    for seed in seeds:
        _, trace = random_walk(d, steps, seed)
        cur = d
        for site in trace:
            cur = apply_move(cur, site)
            yield cur


def _random_word(seed):
    """A seeded abstract code: 1..4 real and 0..2 virtual crossings with random
    signs, shuffled over 1..2 components."""
    rng = random.Random(seed)
    passages, crossings = [], {}
    n_real = rng.randint(1, 4)
    for cid in range(1, n_real + rng.randint(0, 2) + 1):
        virtual = cid > n_real
        crossings[cid] = CrossingRecord(cid, virtual, rng.choice((1, -1)))
        roles = (Role.THROUGH, Role.THROUGH) if virtual else (Role.OVER, Role.UNDER)
        passages += [Passage(cid, role) for role in roles]
    rng.shuffle(passages)
    cut = rng.randint(1, len(passages) - 1) if rng.random() < 0.3 else len(passages)
    components = (tuple(passages[:cut]), tuple(passages[cut:]))
    d = Diagram(components if cut < len(passages) else components[:1], crossings)
    d.validate()
    return d


@st.composite
def abstract_words(draw):
    """The shape of `_random_word`, wider: 1..12 real and 0..3 virtual
    crossings with drawn signs, in a drawn order over 1..2 nonempty
    components."""
    n_real, n_virtual = draw(st.integers(1, 12)), draw(st.integers(0, 3))
    passages, crossings = [], {}
    for cid in range(1, n_real + n_virtual + 1):
        virtual = cid > n_real
        crossings[cid] = CrossingRecord(cid, virtual, draw(st.sampled_from((1, -1))))
        roles = (Role.THROUGH, Role.THROUGH) if virtual else (Role.OVER, Role.UNDER)
        passages += [Passage(cid, role) for role in roles]
    passages = draw(st.permutations(passages))
    cut = draw(st.integers(1, len(passages) - 1)) if draw(st.booleans()) else len(passages)
    components = (tuple(passages[:cut]), tuple(passages[cut:]))
    d = Diagram(components if cut < len(passages) else components[:1], crossings)
    d.validate()
    return d


def _rail_layout_oracle(d: Diagram) -> Diagram:
    """The first rail layout, kept verbatim as an oracle: stations numbered
    while sweeping the passages, intersections filed per vertical leg and
    per horizontal, and each record signed when its first passage is laid
    down."""
    station: dict[int, int] = {}
    for _, _, p in d.passages():
        if p.crossing not in station:
            station[p.crossing] = len(station)

    # All four stubs of a station point up, so left to right its ports run
    # clockwise, ending at out-over.
    portx: dict[tuple[tuple[int, int], int], int] = {}
    for cid, s in station.items():
        over, under = d.real_positions(cid)
        for k, port in enumerate(_ccw_ports(over, under, d.frame(cid, over))):
            portx[port] = 4 * s + 3 - k

    # One lane per edge; edge (ci, g) runs out of passage g into passage g+1.
    edge_list = [
        (ci, g) for ci, comp in enumerate(d.components) for g in range(len(comp))
    ]
    lane = {e: h + 1 for h, e in enumerate(edge_list)}
    span = {}
    for ci, g in edge_list:
        L = len(d.components[ci])
        span[(ci, g)] = (portx[(ci, g), 1], portx[(ci, (g + 1) % L), -1])

    # Intersections: the vertical legs of an edge (x = a rising to its lane,
    # x = b dropping back) against the horizontals of lower lanes.
    next_id = max(d.crossings, default=0) + 1
    vertical_edge: dict[int, tuple[int, int]] = {}
    frames: dict[int, int] = {}
    on_vert: dict[tuple, list] = {(e, leg): [] for e in edge_list for leg in (0, 1)}
    on_horiz: dict[tuple, list] = {e: [] for e in edge_list}
    for e in edge_list:
        a, b = span[e]
        for leg, x, vdir in ((0, a, +1), (1, b, -1)):
            for e2 in edge_list:
                if e2 == e or lane[e2] >= lane[e]:
                    continue
                a2, b2 = span[e2]
                if min(a2, b2) < x < max(a2, b2):
                    cid = next_id
                    next_id += 1
                    vertical_edge[cid] = e
                    hdir = 1 if b2 > a2 else -1
                    # frame(vertical direction, horizontal direction)
                    frames[cid] = -vdir * hdir
                    on_vert[(e, leg)].append((lane[e2], cid))
                    on_horiz[e2].append((x, cid, hdir))

    def edge_sequence(e) -> list[int]:
        a, b = span[e]
        ups = [cid for _, cid in sorted(on_vert[(e, 0)])]
        downs = [cid for _, cid in sorted(on_vert[(e, 1)], reverse=True)]
        hdir = 1 if b > a else -1
        horiz = [cid for x, cid, _ in sorted(on_horiz[e], reverse=(hdir < 0))]
        return ups + horiz + downs

    # Passages are laid down in canonical order, so the first passage met of
    # an intersection fixes its sign: the frame read from it, which is
    # frames[cid] on the vertical side and its negative on the horizontal one.
    crossings = dict(d.crossings)
    new_components: list[list[Passage]] = []
    for ci, comp in enumerate(d.components):
        out: list[Passage] = []
        for g, p in enumerate(comp):
            out.append(p)
            for cid in edge_sequence((ci, g)):
                if cid not in crossings:
                    f = frames[cid] if vertical_edge[cid] == (ci, g) else -frames[cid]
                    crossings[cid] = CrossingRecord(cid, True, f)
                out.append(Passage(cid, Role.THROUGH))
        new_components.append(out)
    out_d = Diagram(tuple(tuple(c) for c in new_components), crossings)
    out_d.validate()
    if genus(out_d) != 0:
        raise ValidationError("rail layout produced a non-planar code")
    return out_d


def _realize_oracle(d: Diagram) -> Diagram:
    """`realize` with the first rail layout."""
    if genus(d) == 0:
        return d
    base = _strip_virtual(d)
    return base if genus(base) == 0 else _rail_layout_oracle(base)


_RAIL_LAYOUT_SHA256 = "3921ae191ddcf517b30b7848635e0c4a850f9d781a4bd4c076436eaa02a7c932"


class TestFacesOracle:
    """`faces` returns the oracle's cycles, in the oracle's order."""

    @given(diagrams(max_real=4, max_virtual=3, max_components=3))
    @settings(max_examples=200, deadline=None)
    def test_random_diagrams(self, d):
        assert faces(d) == _faces_oracle(d)

    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog_walk_states(self, name):
        assert faces(catalog.diagram(name)) == _faces_oracle(catalog.diagram(name))
        for cur in _walk_states(name):
            assert faces(cur) == _faces_oracle(cur)

    @pytest.mark.parametrize("name", catalog.KNOT_NAMES)
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_catalog_multiplexes(self, name, r):
        L, _ = multiplex(catalog.diagram(name), r)
        assert faces(L) == _faces_oracle(L)


class TestKeptTrace:
    """A diagram is traced once; `faces`, `genus` and the site search read
    the trace it keeps."""

    @given(diagrams(max_real=4, max_virtual=3, max_components=3))
    def test_a_kept_trace_names_the_oracles_faces(self, d):
        traced = _trace(d)
        assert _trace(d) is traced
        assert faces(d) == _faces_oracle(d)
        assert genus(d) == genus(Diagram(d.components, d.crossings))
        assert _trace(d) is traced

    def test_the_kept_trace_is_published_whole(self):
        """Another thread reading the kept trace while it is built sees it
        empty or complete."""
        d = parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+")
        sizes = []

        def trace(frame, event, arg):
            if event == "line":
                sizes.append(len(d._memo))
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            traced = _trace(d)
        finally:
            sys.settrace(previous)
        assert len(traced[0]) == len(faces(d)) == 5
        assert sizes and set(sizes) <= {0, 1}


class TestGenus:
    def test_trefoil_planar(self, trefoil):
        assert genus(trefoil) == 0

    def test_interlaced_word_is_not_planar(self):
        # The underlying over/under word of the virtual trefoil needs genus 1.
        assert genus(parse_vgc("O1+ O2+ U1+ U2+")) == 1

    def test_unknot(self):
        assert genus(parse_vgc(".")) == 0

    def test_face_count_euler_oracle(self):
        # One crossing, two edges: a planar curl has three faces (V - E + F = 2).
        d = parse_vgc("O1+ U1+")
        assert len(faces(d)) == 3
        t = parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+")
        assert len(faces(t)) == 6 - 3 + 2

    def test_split_pieces_add(self):
        one = parse_vgc("O1+ O2+ U1+ U2+")
        assert genus(parse_vgc("O1+ O2+ U1+ U2+ ; .")) == genus(one) == 1
        two = parse_vgc("O1+ O2+ U1+ U2+ ; O3+ O4+ U3+ U4+")
        assert genus(two) == 2

    def test_catalog_fixtures_planar(self):
        from multivirt import catalog

        for name in catalog.names():
            assert genus(catalog.diagram(name)) == 0, name

    @given(diagrams(max_real=3, max_virtual=2, max_components=2))
    @settings(max_examples=60)
    def test_rotation_and_relabel_invariance(self, d):
        g = genus(d)
        for ci, comp in enumerate(d.components):
            for k in range(len(comp)):
                assert genus(rotate(d, ci, k)) == g
        mapping = {cid: cid + 7 for cid in d.crossings}
        assert genus(relabel(d, mapping)) == g


class TestGenusOracle:
    """`genus` equals the first per-piece Euler sum, `_genus_oracle`."""

    @given(diagrams(max_components=6))
    @settings(max_examples=200, deadline=None)
    def test_random_diagrams(self, d):
        assert genus(d) == _genus_oracle(d)

    @pytest.mark.parametrize("name", catalog.KNOT_NAMES)
    def test_catalog_multiplexes(self, name):
        # Every catalog knot is planar, and so is each of its multiplexes.
        for r in range(2, 9):
            L, _ = multiplex(catalog.diagram(name), r)
            assert genus(L) == _genus_oracle(L) == 0, r


class TestRealize:
    def test_fixed_point_on_planar(self, trefoil):
        assert realize(trefoil) is trefoil
        assert serialize_vgc(realize(parse_vgc("."))) == "."

    def test_interlaced_word(self):
        d = parse_vgc("O1+ O2+ U1+ U2+")
        r = realize(d)
        assert genus(r) == 0
        assert r.n_virtual() >= 1

    def _real_subsequence(self, d):
        return [
            (p.crossing, p.role, d.crossings[p.crossing].sign)
            for comp in d.components
            for p in comp
            if p.role is not Role.THROUGH
        ]

    @given(diagrams(max_real=3, max_virtual=2, max_components=2))
    @settings(max_examples=40, deadline=None)
    def test_postconditions(self, d):
        r = realize(d)
        assert genus(r) == 0
        if genus(d) == 0:
            assert r == d
            return
        assert self._real_subsequence(r) == self._real_subsequence(d)
        # only virtual crossings were added
        added = set(r.crossings) - set(d.crossings)
        assert all(r.crossings[c].virtual for c in added)

    @pytest.mark.parametrize(
        "word, name",
        [("O1+ O2+ O3+ U1+ U2+ U3+", "index2"), ("O1+ O2+ U1+ O3- U2+ U3-", "asym3")],
    )
    def test_catalog_words_realize_to_their_entries(self, word, name):
        # The two `realized` catalog entries were frozen from these words.
        assert serialize_vgc(realize(parse_vgc(word))) == catalog.get(name).code

    def test_rail_layout_digest(self):
        # Pins the rail layout byte for byte on 200 seeded abstract words.
        lines = [serialize_vgc(realize(_random_word(seed))) for seed in range(200)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == _RAIL_LAYOUT_SHA256

    @given(abstract_words())
    @settings(max_examples=300, deadline=None)
    def test_realize_matches_the_first_rail_layout(self, w):
        assert serialize_vgc(realize(w)) == serialize_vgc(_realize_oracle(w))

    def test_roundtrips_and_canonical_stability(self):
        r = realize(parse_vgc("O1+ O2+ O3+ U1+ U2+ U3+"))
        assert parse_vgc(serialize_vgc(r)) == r
        assert canonical_form(r) == canonical_form(rotate(r, 0, 3))


_PLANAR_EXPORTS = (faces, genus, realize)


@pytest.mark.parametrize("export", _PLANAR_EXPORTS, ids=lambda f: f.__name__)
@settings(max_examples=40, deadline=None)
@given(junk=JUNK)
def test_planar_exports_refuse_junk(export, junk):
    """A diagram is the one argument of each planar export; junk in its
    place raises ValidationError."""
    with pytest.raises(ValidationError):
        export(junk)
