import copy
import hashlib
import json
import random
import warnings
from functools import cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JUNK, assert_memo_matches, diagrams
from multivirt import catalog, moves
from multivirt.cli import main
from multivirt.colorings import ColoringMode, build_system, count_colorings
from multivirt.constructions import multiplex
from multivirt.errors import MultivirtError, StaleSite, ValidationError
from multivirt.invariants import invariant_report, linking_and_lambda, n_writhes
from multivirt.model import (
    CrossingRecord,
    Diagram,
    Passage,
    Role,
    canonical_form,
    parse_vgc,
    serialize_vgc,
)
from multivirt.moves import (
    _PAIR_OF,
    _STRANDS,
    _TRIANGLE_TEMPLATES,
    MOVE_KINDS,
    MoveSite,
    _sites,
    _triangle_table,
    apply_move,
    find_moves,
    random_walk,
)
from multivirt.planar import _darts, _trace, faces, genus

NONFU = tuple(k for k in MOVE_KINDS if k != "FU")


class TestDetection:
    def test_kink_deletion(self):
        sites = find_moves(parse_vgc("O1+ U1+"), {"R1del"})
        assert [s.locus for s in sites] == [(0, 0)]

    def test_lone_passage_is_not_a_kink(self):
        # Each component holds one passage of the mixed crossing 1.
        assert not find_moves(parse_vgc("O1+ ; U1+"), {"R1del"})

    def test_virtual_kink_deletion(self):
        assert find_moves(parse_vgc("V1+ V1+"), {"VR1del"})

    @pytest.mark.parametrize("kinds", [5, 2.5, True])
    def test_non_iterable_kinds_rejected(self, trefoil, kinds):
        with pytest.raises(ValidationError):
            find_moves(trefoil, kinds=kinds)

    @pytest.mark.parametrize("kinds", [[["R3"]], [1, "R3", "x"]])
    def test_unhashable_or_unordered_kinds_rejected(self, trefoil, kinds):
        with pytest.raises(ValidationError):
            find_moves(trefoil, kinds=kinds)

    @pytest.mark.parametrize("kinds", ["", "R3", "R1del"])
    def test_a_string_of_kinds_rejected(self, trefoil, kinds):
        # Before, a string was read one character at a time: "" found no
        # site and "R3" reported the unknown kinds '3' and 'R'.
        with pytest.raises(ValidationError, match="string"):
            find_moves(trefoil, kinds)
        with pytest.raises(ValidationError, match="string"):
            random_walk(trefoil, 5, 0, kinds=kinds)

    def test_unknot_only_insertions(self):
        kinds = {s.kind for s in find_moves(parse_vgc("."))}
        assert kinds <= {"R1+ins", "R1-ins", "VR1ins"}
        assert kinds

    def test_cancelling_pair_detected(self):
        sites = find_moves(parse_vgc("O1+ O2- U2- U1+"), {"R2del"})
        assert sites

    def test_same_sign_pair_not_an_r2(self):
        assert not find_moves(parse_vgc("O1+ O2+ U2+ U1+"), {"R2del"})

    def test_size_cap_suppresses_insertions(self, trefoil):
        sites = find_moves(trefoil, size_cap=3)
        assert not any(s.kind.endswith("ins") for s in sites)


class TestApply:
    def test_kink_deletion_gives_unknot(self):
        d = parse_vgc("O1+ U1+")
        (site,) = find_moves(d, {"R1del"})
        assert serialize_vgc(apply_move(d, site)) == "."

    def test_cancelling_pair_gives_unknot(self):
        d = parse_vgc("O1+ O2- U2- U1+")
        (site,) = find_moves(d, {"R2del"})
        assert serialize_vgc(apply_move(d, site)) == "."

    def test_stale_site(self, trefoil):
        kink = parse_vgc("O1+ U1+")
        (site,) = find_moves(kink, {"R1del"})
        with pytest.raises(StaleSite):
            apply_move(trefoil, site)

    @pytest.mark.parametrize("site", [None, "R3", ("R3", (), ()), MoveSite(["R3"], (), ())])
    def test_non_site_rejected(self, trefoil, site):
        with pytest.raises(ValidationError):
            apply_move(trefoil, site)

    def test_site_json_roundtrip(self, trefoil):
        for site in find_moves(trefoil)[:20]:
            back = MoveSite.from_json(site.to_json())
            assert back == site
            assert apply_move(trefoil, back) == apply_move(trefoil, site)

    def test_site_with_float_entries_applies_as_the_listed_site(self, trefoil):
        site = MoveSite("R1+ins", ("OU", 1), (0, 1))
        floats = MoveSite("R1+ins", ("OU", 1.0), (0, 1.0))
        assert apply_move(trefoil, floats) == apply_move(trefoil, site)

    @pytest.mark.parametrize("kind", ["R1+ins", "R2ins"])
    def test_insertion_site_found_without_listing_the_group(self, kind, monkeypatch):
        # apply_move reads the position of an insertion site off its locus and
        # variant, so it costs no walk over every site of its kind.
        L, _ = multiplex(catalog.diagram("asym3"), 2)
        site = find_moves(L, kinds={kind}, size_cap=10**9)[-1]
        expected = apply_move(L, site)

        def no_listing(self):
            raise AssertionError("apply_move listed the insertion sites")

        monkeypatch.setattr(moves._Insertions, "__iter__", no_listing)
        assert apply_move(L, site) == expected
        with pytest.raises(StaleSite):
            apply_move(L, MoveSite(kind, site.variant, (len(L.components), 0)))


TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"

# Sites that find_moves never lists but that used to apply: a VR2del bound to
# two same-sign real crossings (it returned ". ; ." and lost lk), an R2ins
# across darts of different faces (it returned a genus-1 diagram), kink
# insertions with the wrong sign, roles or gap (a negative kink labelled R1+,
# a real kink labelled VR1, an unknown order, gap -1), and kink deletions out
# of range (they raised IndexError).
CRAFTED = [
    ("O1+ O2+ ; U1+ U2+", MoveSite("VR2del", (), ((0, 0), (1, 0)))),
    (TREFOIL, MoveSite("R2ins", ("over",), ((0, 0, 1), (0, 2, -1)))),
    (TREFOIL, MoveSite("R1+ins", ("OU", -1), (0, 0))),
    (TREFOIL, MoveSite("VR1ins", ("OU", 1), (0, 0))),
    (TREFOIL, MoveSite("R1-ins", ("XX", -1), (0, 0))),
    (TREFOIL, MoveSite("R1+ins", ("OU", 1), (0, -1))),
    (TREFOIL, MoveSite("R1del", (), (5, 0))),
    (TREFOIL, MoveSite("R1del", (), (0, 9))),
]

_JUNK_VARIANTS = [
    (), ("OU", 1), ("UO", -1), ("OU", -1), ("VV", 1), ("VV", -1), ("XX", 1),
    ("over",), ("under",), ("virtual",),
]


@st.composite
def crafted_sites(draw, d):
    """Sites of any kind built from junk and from the parts of listed sites:
    variants and loci of other kinds, out-of-range and negative indices, and
    float entries that compare equal to integers."""
    listed = find_moves(d, size_cap=10**9)
    ints = st.integers(-2, 12)
    index = st.one_of(ints, ints.map(float))
    gap = st.tuples(index, index)
    dart = st.tuples(index, index, st.sampled_from((1, -1, 0)))
    perm = st.permutations(sorted(d.crossings)).map(tuple)
    variants = [st.sampled_from(_JUNK_VARIANTS), st.tuples(st.integers(-1, 8), perm)]
    loci = [gap, st.tuples(dart, dart), st.tuples(gap, gap), st.tuples(gap, gap, gap)]
    if listed:
        variants.append(st.sampled_from([s.variant for s in listed]))
        loci.append(st.sampled_from([s.locus for s in listed]))
    kind = draw(st.sampled_from(MOVE_KINDS))
    return MoveSite(kind, draw(st.one_of(variants)), draw(st.one_of(loci)))


class TestCraftedSites:
    @pytest.mark.parametrize("code,site", CRAFTED)
    def test_api_raises_stale_site(self, code, site):
        d = parse_vgc(code)
        assert site not in find_moves(d)
        with pytest.raises(StaleSite):
            apply_move(d, site)

    @pytest.mark.parametrize("code,site", CRAFTED)
    def test_cli_exits_with_domain_error(self, code, site, capsys):
        rc = main(["moves", "--code", code, "--apply", json.dumps(site.to_json())])
        out = capsys.readouterr()
        assert rc == 1 and out.out == "" and "error" in out.err

    @given(diagrams(), st.data())
    def test_crafted_poke_raises_or_preserves_genus_and_invariants(self, d, data):
        valid = _darts(d)
        any_dart = st.tuples(st.integers(-1, 3), st.integers(-1, 12), st.sampled_from((1, -1, 0)))
        dart = st.one_of(st.sampled_from(valid), any_dart) if valid else any_dart
        kind, variant = data.draw(
            st.sampled_from(
                [("R2ins", ("over",)), ("R2ins", ("under",)), ("VR2ins", ("virtual",)),
                 ("R2ins", ("virtual",)), ("VR2ins", ("over",))]
            )
        )
        site = MoveSite(kind, variant, (data.draw(dart), data.draw(dart)))
        try:
            out = apply_move(d, site)
        except StaleSite:
            return
        assert genus(out) == genus(d)
        assert invariant_report(out).to_json() == invariant_report(d).to_json()

    @given(diagrams(), st.data())
    def test_crafted_site_raises_or_is_listed(self, d, data):
        site = data.draw(crafted_sites(d))
        try:
            apply_move(d, site)
        except MultivirtError:
            return
        assert site in find_moves(d, {site.kind}, size_cap=10**9)


@pytest.mark.parametrize("name", catalog.names())
def test_every_site_preserves_validity_and_genus(name):
    d = catalog.diagram(name)
    g = genus(d)
    for site in find_moves(d):
        out = apply_move(d, site)
        out.validate()
        assert genus(out) == g, (name, site)


@pytest.mark.parametrize("name", catalog.names())
def test_every_equivalence_site_preserves_writhe_tables(name):
    d = catalog.diagram(name)
    knot = d.n_components() == 1
    base_j = n_writhes(d).entries if knot else None
    base_rep = linking_and_lambda(d)
    for site in find_moves(d, set(NONFU)):
        out = apply_move(d, site)
        if knot:
            assert n_writhes(out).entries == base_j, (name, site)
        rep = linking_and_lambda(out)
        assert rep.lk == base_rep.lk and rep.lam == base_rep.lam, (name, site)


@pytest.mark.parametrize("name", ["trefoil", "vtrefoil"])
def test_insertion_deletion_duality(name):
    d = catalog.diagram(name)
    inverse = {
        "R1+ins": "R1del",
        "R1-ins": "R1del",
        "VR1ins": "VR1del",
        "R2ins": "R2del",
        "VR2ins": "VR2del",
    }
    want = canonical_form(d)
    for site in find_moves(d, set(inverse)):
        mid = apply_move(d, site)
        restored = False
        for ds in find_moves(mid, {inverse[site.kind]}):
            probe = apply_move(mid, ds)
            if set(probe.crossings) == set(d.crossings) and canonical_form(probe) == want:
                restored = True
                break
        assert restored, site


TRIANGLE_KINDS = {"R3", "VR3", "VR4", "FU"}


def _brute_force_triangle_sites(d):
    """Triangle sites from every triple of gaps: keep the triples that are the
    edge set of a 3-sided face and whose edges join three distinct crossings
    pairwise, then the first template match per family.  Listed by kind, then
    by the lowest edge, the edge that shares that edge's first crossing, and
    the third edge."""
    facial = {frozenset(dart[:2] for dart in cycle) for cycle in faces(d) if len(cycle) == 3}
    gaps = [
        (ci, g, comp[g], comp[(g + 1) % len(comp)])
        for ci, comp in enumerate(d.components)
        for g in range(len(comp))
    ]
    found = []
    for trio in combinations(gaps, 3):
        locus = tuple((ci, g) for ci, g, _, _ in trio)
        if frozenset(locus) not in facial:
            continue
        pairs = {frozenset((p.crossing, q.crossing)) for _, _, p, q in trio}
        if len(pairs) != 3 or len(set().union(*pairs)) != 3:
            continue  # three distinct edges, each joining two of three crossings
        first = trio[0][2].crossing
        second, third = sorted(
            trio[1:], key=lambda rec: first not in (rec[2].crossing, rec[3].crossing)
        )
        order = (locus[0], second[:2], third[:2])
        families = set()
        for fam, ti, perm in _match_triangle_oracle(d, trio):
            if fam not in families:
                families.add(fam)
                found.append((MOVE_KINDS.index(fam), order, MoveSite(fam, (ti, perm), locus)))
    return [site for _, _, site in sorted(found, key=lambda entry: entry[:2])]


# A walk state where two triangles share their lowest edge and the documented
# order differs from the order of the sorted loci.
SHARED_LOWEST_EDGE = (
    "O1+ V8- U2+ V9+ O7+ O6- O3+ V5- V9+ V4+ V8- U1+ "
    "U10- U11+ U6- U7+ V4+ O2+ V5- U3+ O11+ O10-"
)


@given(diagrams())
@example(parse_vgc(SHARED_LOWEST_EDGE))
def test_triangle_sites_match_a_brute_force_over_gap_triples(d):
    sites = find_moves(d, TRIANGLE_KINDS, size_cap=10**9)
    assert sites == _brute_force_triangle_sites(d)


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_triangle_templates_and_their_table_are_pinned():
    """The templates feed both the triangle stage and its oracle, so a
    changed template would pass every agreement test; their fields, family
    by family in order (each virtual set sorted), and the lookup table are
    pinned by digest."""
    templates = {
        fam: [(t.orders, t.roles, tuple(sorted(t.virtual)), t.frames) for t in tpls]
        for fam, tpls in _TRIANGLE_TEMPLATES.items()
    }
    assert _sha256(templates) == "f588acdd3cf69a4b6773e409b15b6f34e5835d891fd0985e5a9bd66193f4ee6d"
    assert _sha256(list(_triangle_table().items())) == (
        "e4f2ad11056d0908a3094d2e10be41295133003b98cf9d761653d1fba148b501"
    )


def _match_triangle_oracle(d, trio):
    """The matcher as first written: templates looked up by their role and
    order pattern, then each frame checked against the stored signs with the
    over/first passage found by hand."""
    cids = sorted({c for _, _, p, q in trio for c in (p.crossing, q.crossing)})
    gap_of_pair = {frozenset((rec[2].crossing, rec[3].crossing)): rec for rec in trio}
    for perm in permutations(cids):
        label = dict(zip("xyz", perm))
        unlabel = {cid: c for c, cid in label.items()}
        strand_pair = {}
        for s in _STRANDS:
            rec = gap_of_pair.get(frozenset(label[c] for c in "xyz" if s in _PAIR_OF[c]))
            if rec is not None:
                strand_pair[s] = rec
        if len(strand_pair) != 3:
            continue
        orders, roles, pos_of = [], [], {}
        for s in _STRANDS:
            ci, g, p, q = strand_pair[s]
            l1, l2 = unlabel[p.crossing], unlabel[q.crossing]
            orders.append((l1, l2))
            roles += [(s, l1, p.role.value), (s, l2, q.role.value)]
            pos_of[(s, l1)], pos_of[(s, l2)] = (ci, g), (ci, (g + 1) % len(d.components[ci]))
        virt = frozenset(c for c in "xyz" if d.crossings[label[c]].virtual)
        role_of = {(s, c): r for s, c, r in roles}
        pattern = (tuple(orders), tuple(sorted(roles)), virt)
        for fam, tpls in _TRIANGLE_TEMPLATES.items():
            for ti, tpl in enumerate(tpls):
                if (tpl.orders, tpl.roles, tpl.virtual) != pattern:
                    continue
                frames = dict(tpl.frames)
                for c in "xyz":
                    rec, (s1, s2), f = d.crossings[label[c]], _PAIR_OF[c], frames[c]
                    if rec.virtual:
                        lead = min(pos_of[(s1, c)], pos_of[(s2, c)]) == pos_of[(s1, c)]
                    else:
                        lead = role_of[(s1, c)] == "O"
                    if rec.sign != (f if lead else -f):
                        break
                else:
                    yield fam, ti, perm


def _assert_triangle_sites_match_the_first_matcher(d):
    """Every listed triangle site is the first matcher's first match of its
    family on the same three gaps."""
    for site in find_moves(d, TRIANGLE_KINDS):
        trio = []
        for ci, g in site.locus:
            comp = d.components[ci]
            trio.append((ci, g, comp[g], comp[(g + 1) % len(comp)]))
        matches = _match_triangle_oracle(d, trio)
        assert site.variant == next(((ti, perm) for fam, ti, perm in matches if fam == site.kind), None)


@given(diagrams(max_real=5, max_virtual=4))
@example(parse_vgc(SHARED_LOWEST_EDGE))
def test_triangle_matcher_agrees_with_the_first_matcher(d):
    _assert_triangle_sites_match_the_first_matcher(d)


@pytest.mark.parametrize("name", catalog.names())
def test_triangle_matcher_agrees_with_the_first_matcher_on_walks(name):
    for seed in range(2):
        _, trace = random_walk(catalog.diagram(name), 30, seed)
        cur = catalog.diagram(name)
        for site in trace:
            cur = apply_move(cur, site)
            _assert_triangle_sites_match_the_first_matcher(cur)


DELETION_KINDS = ("R1del", "R2del", "VR1del", "VR2del")
_OVER_UNDER = (({Role.OVER}, {Role.UNDER}), ({Role.UNDER}, {Role.OVER}))


def _by_kind_and_locus(site):
    return site.kind, site.locus


def _brute_force_deletion_sites(d):
    """Deletion sites from every pair of gaps, sorted by kind and locus.  A
    kink is one gap flanked twice by the same crossing on a component of
    length at least 2, listed once (at gap 0) on a component of length 2.  A
    cancelling pair is two gaps loc1 < loc2 with disjoint flanks, each flanked
    by the same two crossings, one gap over both and the other under both
    (R2del) or all four passages virtual (VR2del), whose frames read from
    loc1 are opposite."""
    gaps = []
    for ci, comp in enumerate(d.components):
        for g in range(len(comp) if len(comp) >= 2 else 0):
            h = (g + 1) % len(comp)
            gaps.append(((ci, g), (ci, g), comp[g], (ci, h), comp[h]))
    found = []
    for (loc1, s1, p1, t1, q1), (loc2, s2, p2, t2, q2) in product(gaps, repeat=2):
        roles = ({p1.role, q1.role}, {p2.role, q2.role})
        if loc1 == loc2:
            if p1.crossing == q1.crossing and (len(d.components[s1[0]]), s1[1]) != (2, 1):
                found.append(MoveSite("VR1del" if Role.THROUGH in roles[0] else "R1del", (), loc1))
            continue
        if not loc1 < loc2 or p1.crossing == q1.crossing or {s1, t1} & {s2, t2}:
            continue
        if {p1.crossing, q1.crossing} != {p2.crossing, q2.crossing}:
            continue
        if roles == ({Role.THROUGH}, {Role.THROUGH}):
            kind = "VR2del"
        elif roles in _OVER_UNDER:
            kind = "R2del"
        else:
            continue
        if d.frame(p1.crossing, s1) == -d.frame(q1.crossing, t1):
            found.append(MoveSite(kind, (), (loc1, loc2)))
    return sorted(found, key=_by_kind_and_locus)


@given(diagrams())
@example(parse_vgc("O1+ U1+"))
@example(parse_vgc("O1+ O2- U2- U1+"))
def test_deletion_sites_match_a_brute_force_over_gap_pairs(d):
    sites = find_moves(d, DELETION_KINDS)
    assert sorted(sites, key=_by_kind_and_locus) == _brute_force_deletion_sites(d)


@pytest.mark.parametrize("name", catalog.names())
def test_deletion_sites_match_a_brute_force_on_walks(name):
    for seed in range(2):
        _, trace = random_walk(catalog.diagram(name), 30, seed)
        cur = catalog.diagram(name)
        for site in trace:
            cur = apply_move(cur, site)
            sites = find_moves(cur, DELETION_KINDS)
            assert sorted(sites, key=_by_kind_and_locus) == _brute_force_deletion_sites(cur)


_ORACLE_CANCELLING_ROLES = (
    (Role.OVER, Role.UNDER),
    (Role.UNDER, Role.OVER),
    (Role.THROUGH, Role.THROUGH),
)


def _is_poke_deletion_oracle(frames, gap1, gap2) -> bool:
    """The cancelling-pair test of the first sweep, kept for its oracle."""
    (s1, p1, t1, q1), (s2, p2, t2, q2) = gap1, gap2
    r1, r2 = p1.role, p2.role
    if q1.role is not r1 or q2.role is not r2 or s1 in (s2, t2) or t1 in (s2, t2):
        return False
    return (r1, r2) in _ORACLE_CANCELLING_ROLES and frames[s1[0]][s1[1]] == -frames[t1[0]][t1[1]]


def _deletions_oracle(d, kinds):
    """The first one-sweep deletion search, kept as an oracle for the order of
    the sites: it files every gap flanked by two crossings, whatever the
    roles of its flanks, under the sorted pair of their ids."""
    if not kinds:
        return {}
    out = {k: [] for k in kinds}
    by_pair = {}
    for ci, comp in enumerate(d.components):
        L = len(comp)
        if L < 2:
            continue
        for g in range(L):
            h = (g + 1) % L
            p, q = comp[g], comp[h]
            a, b = p.crossing, q.crossing
            if a != b:
                by_pair.setdefault((a, b) if a < b else (b, a), []).append(
                    ((ci, g), p, (ci, h), q)
                )
            elif L > 2 or g == 0:
                kind = "VR1del" if d.crossings[a].virtual else "R1del"
                if kind in out:
                    out[kind].append(MoveSite(kind, (), (ci, g)))
    frames = d._frames
    for gaps in by_pair.values():
        for gap1, gap2 in combinations(gaps, 2):
            kind = "VR2del" if d.crossings[gap1[1].crossing].virtual else "R2del"
            if kind in out and _is_poke_deletion_oracle(frames, gap1, gap2):
                out[kind].append(MoveSite(kind, (), (gap1[0], gap2[0])))
    return out


def _assert_deletions_match_the_oracle(d, kinds=DELETION_KINDS):
    kinds = set(kinds)
    want = _deletions_oracle(d, kinds)
    assert dict(zip(sorted(kinds, key=MOVE_KINDS.index), moves._sites(d, kinds))) == want
    assert list(find_moves(d, kinds)) == [s for k in MOVE_KINDS if k in kinds for s in want[k]]


# Gaps that pair crossings 1 and 2 with flanks of two roles: a run of three
# such gaps inside a longer circle, and circles whose four gaps all pair them,
# the first gap's flanks of two roles or of one.  Then circles of two
# passages, both of whose gaps pair the same two crossings, so that a
# cancelling pair is listed at each of the two gaps.
_PAIR_RUNS = (
    "O3+ O1+ U2- U1+ O2- U3+",
    "O3+ O1+ U2+ U1+ O2+ U3+ ; V4+ V4+",
    "V5+ O4- O1+ U2- U1+ O2- U4- V5+",
    "O1+ U2- U1+ O2-",
    "O2- U1+ U2- O1+",
    "U1+ U2- O1+ O2-",
    "O1+ U2- U1+ O2- ; O3+ O4- U4- U3+",
    "O4- U3+ ; O2- U1+ U2- O1+ ; O3+ U4-",
    "V1+ V2- ; V1+ V2-",
    "O1+ O2- ; U1+ U2-",
    "O1+ O2- ; U2- U1+",
    ". ; V2+ V1- V3+ V2+ ; V1- V3+",
)


@given(diagrams(), st.sets(st.sampled_from(DELETION_KINDS)))
@example(parse_vgc(_PAIR_RUNS[0]), set(DELETION_KINDS))
@example(parse_vgc(_PAIR_RUNS[3]), set(DELETION_KINDS))
@example(parse_vgc(_PAIR_RUNS[4]), {"R2del"})
def test_deletion_sites_keep_the_order_of_the_first_sweep(d, kinds):
    _assert_deletions_match_the_oracle(d, kinds)


@pytest.mark.parametrize("code", _PAIR_RUNS)
def test_deletion_order_on_runs_of_gaps_that_pair_two_crossings(code):
    _assert_deletions_match_the_oracle(parse_vgc(code))


def test_four_gaps_on_one_pair_give_one_cancelling_pair():
    assert [s.locus for s in find_moves(parse_vgc("O1+ U2- U1+ O2-"), {"R2del"})] == [
        ((0, 1), (0, 3))
    ]


@pytest.mark.parametrize("name", catalog.names())
def test_deletion_order_on_walks(name):
    for seed in range(2):
        _, trace = random_walk(catalog.diagram(name), 30, seed)
        cur = catalog.diagram(name)
        for site in trace:
            cur = apply_move(cur, site)
            _assert_deletions_match_the_oracle(cur)


@pytest.mark.parametrize("name", [n for n in catalog.names() if catalog.diagram(n).n_components() == 1])
def test_deletion_order_on_multiplexes(name):
    for r in (2, 3, 4):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "multiplexing an abstract")
            L, _ = multiplex(catalog.diagram(name), r)
        _assert_deletions_match_the_oracle(L)


@pytest.mark.parametrize("name", catalog.names())
def test_walk_trace_replays_through_apply_move(name):
    d = catalog.diagram(name)
    for seed in range(4):
        out, trace = random_walk(d, 40, seed)
        cur = d
        for site in trace:
            cur = apply_move(cur, site)
        assert serialize_vgc(cur) == serialize_vgc(out), (name, seed)


def _walk_oracle(d, steps, seed, kinds=None, size_cap=None):
    """The walk as first written: list every site of the current diagram,
    draw one uniformly and apply it through apply_move."""
    rng = random.Random(seed)
    trace, cur = [], d
    for _ in range(steps):
        sites = list(find_moves(cur, kinds, size_cap))
        if not sites:
            break
        site = sites[rng.randrange(len(sites))]
        cur = apply_move(cur, site)
        trace.append(site)
    return cur, trace


def _assert_walk_matches_oracle(d, steps, seed, kinds=None, size_cap=None):
    out, trace = random_walk(d, steps, seed, kinds, size_cap)
    want, want_trace = _walk_oracle(d, steps, seed, kinds, size_cap)
    assert trace == want_trace, (seed, kinds, size_cap)
    assert serialize_vgc(out) == serialize_vgc(want), (seed, kinds, size_cap)


INSERTION_KINDS = ("R1+ins", "R1-ins", "R2ins", "VR1ins", "VR2ins")
WALK_KINDS = [None, NONFU, INSERTION_KINDS, {"FU"}, ()]
WALK_SIZE_CAPS = (6, 20, 64)


@pytest.mark.parametrize("name", catalog.names())
def test_walk_matches_the_listing_oracle(name):
    d = catalog.diagram(name)
    for kinds, size_cap, seed in product(WALK_KINDS, WALK_SIZE_CAPS, range(4)):
        _assert_walk_matches_oracle(d, 40, seed, kinds, size_cap)


@given(
    diagrams(),
    st.integers(0, 3),
    st.sampled_from(WALK_KINDS),
    st.sampled_from(WALK_SIZE_CAPS),
)
def test_walk_matches_the_listing_oracle_on_random_diagrams(d, seed, kinds, size_cap):
    _assert_walk_matches_oracle(d, 10, seed, kinds, size_cap)


def test_walk_matches_the_listing_oracle_on_a_large_multiplex():
    L, _ = multiplex(catalog.diagram("asym3"), 4)
    _assert_walk_matches_oracle(L, 10, 0, size_cap=10**9)


@pytest.mark.parametrize("size_cap", WALK_SIZE_CAPS)
@settings(max_examples=40, deadline=None)
@given(d=diagrams(max_real=5, max_virtual=4), seed=st.integers(0, 3))
def test_a_carried_memo_is_the_memo_computed_afresh(size_cap, d, seed):
    """A walk with every kind, FU included: at every step the rewritten
    diagram holds its face trace, traced as it is made, and its deletion
    and triangle entries, carried from its parent's, and each equals the
    part computed afresh, in order.  The parent's memo is left as it was."""
    rng = random.Random(seed)
    cur = d
    for _ in range(30):
        sites = find_moves(cur, None, size_cap)
        if not sites:
            break
        before = copy.deepcopy(cur._memo)
        child = apply_move(cur, sites[rng.randrange(len(sites))])
        assert cur._memo == before
        assert set(child._memo) == {"trace", "deletions", "triangles"}
        assert_memo_matches(child)
        cur = child


def test_a_child_of_a_diagram_with_an_empty_memo_has_a_memo_of_its_own():
    """A kink insertion searches no face and no site, so the parent's memo
    is still empty when it is rewritten; searching the child must not fill
    the parent's memo, and the parent's faces stay its own."""
    d = parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+")
    child = apply_move(d, MoveSite("R1+ins", ("OU", 1), (0, 0)))
    assert child._memo is not d._memo
    genus(child)
    find_moves(child)
    assert not d._memo
    assert faces(d) == faces(Diagram(d.components, d.crossings))
    assert find_moves(d) == find_moves(Diagram(d.components, d.crossings))


@pytest.mark.parametrize("name, r", [*((name, 1) for name in catalog.names()), ("asym3", 2)])
def test_a_search_without_poke_kinds_names_no_face(name, r, monkeypatch):
    """Only a poke reads named face cycles.  With `faces` refusing every
    call, a search for every other kind, the rewrite of each listed
    triangle and deletion site, and a walk that never falls below its size
    cap all run on the integer face trace alone, on each catalog entry and
    the 2-fold multiplex of asym3."""
    d = catalog.diagram(name) if r == 1 else multiplex(catalog.diagram(name), r)[0]
    d = Diagram(d.components, d.crossings)  # an empty memo: every stage runs afresh

    def refuse(d):
        raise AssertionError("a search without a poke kind named the faces")

    monkeypatch.setattr(moves, "faces", refuse)
    kinds = set(MOVE_KINDS) - {"R2ins", "VR2ins"}
    for site in find_moves(d, kinds, size_cap=10**9):
        if site.kind in moves._DELETION_KINDS | moves._TRIANGLE_KINDS:
            apply_move(d, site)
    random_walk(d, 20, 0, size_cap=0)


@given(diagrams(), st.sets(st.sampled_from(MOVE_KINDS)))
def test_find_moves_is_the_concatenation_of_the_groups(d, kinds):
    sites = find_moves(d, kinds, size_cap=10**9)
    listed = [site for group in _sites(d, kinds) for site in group]
    assert list(sites) == listed
    assert [sites[i] for i in range(len(sites))] == listed
    assert [sites[i] for i in range(-len(sites), 0)] == listed
    assert listed == [site for site in find_moves(d, size_cap=10**9) if site.kind in kinds]


@pytest.mark.parametrize(
    "call,args",
    [
        (find_moves, ("x",)),
        (apply_move, (None, MoveSite("R1del", (), (0, 0)))),
        (random_walk, ("x", 3, 0)),
        (random_walk, ("x", 0, 0)),
    ],
    ids=["find_moves", "apply_move", "random_walk", "random_walk-0-steps"],
)
def test_non_diagram_rejected(call, args):
    with pytest.raises(ValidationError):
        call(*args)


def _poke_candidates(cycles):
    """The poke candidates as first listed, kept as an oracle: ordered
    co-facial dart pairs (d1, d2) within the poke window, d1 and d2 on
    distinct edges, over the face cycles of a diagram."""
    out = []
    for cycle in cycles:
        size = len(cycle)
        for i in range(size):
            for w in range(1, min(moves._POKE_WINDOW, size - 1) + 1):
                d1 = cycle[i]
                d2 = cycle[(i + w) % size]
                if d1[:2] != d2[:2]:
                    out.append((d1, d2))
    return out


def _pokes(d):
    """The poke candidates of a diagram, as the site search counts them."""
    return moves._Pokes(_trace(d), faces(d))


def _listed_cycles(d):
    """Indices of the face cycles whose poke candidates are listed, not counted."""
    return set(_pokes(d).listed)


def _assert_pokes_match_the_oracle(d):
    pokes, want = _pokes(d), _poke_candidates(faces(d))
    assert len(pokes) == len(want)
    assert list(pokes) == want
    assert [pokes[k] for k in range(-len(want), len(want))] == want + want
    for k, (d1, d2) in enumerate(want):
        assert pokes.index((d1, d2)) == k
        # Entries that compare equal find the candidate; other shapes do not.
        assert pokes.index(tuple(tuple(map(float, dart)) for dart in (d1, d2))) == k
        for junk in ([d1, d2], (d1, d2, d2), ((*d1[:2], 0), d2), (d1[:2], d2), (list(d1), d2),
                     *_off_diagram_pokes(d, d1, d2)):
            with pytest.raises(ValueError):
                pokes.index(junk)
        # A neighbouring gap is a candidate only if the oracle lists it.
        for near in ((d1, (d2[0], d2[1] + 1, d2[2])), ((d1[0], d1[1] + 1, d1[2]), d2)):
            if near in want:
                assert pokes.index(near) == want.index(near)
            else:
                with pytest.raises(ValueError):
                    pokes.index(near)
    for k in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            pokes[k]
    for d1, d2 in want[:1]:
        for junk in _off_diagram_pokes(d, d1, d2):
            with pytest.raises(StaleSite):
                apply_move(d, MoveSite("R2ins", ("over",), junk))


def _off_diagram_pokes(d, d1, d2):
    """Dart pairs shaped like a poke whose first dart is compared with every
    named dart and equals none: one entry unhashable, or a gap past the end
    of its component."""
    return ((d1[0], [d1[1]], d1[2]), d2), ((d1[0], len(d.components[d1[0]]), d1[2]), d2)


@given(diagrams())
@example(parse_vgc("O1+ U1+"))
@example(parse_vgc("U1- ; O1-"))
@example(parse_vgc("."))
def test_counted_pokes_match_the_listing_oracle(d):
    _assert_pokes_match_the_oracle(d)


@given(diagrams())
@example(parse_vgc("O1+ U1+"))
@example(parse_vgc("U1- ; O1-"))
@example(parse_vgc("."))
def test_iterated_pokes_are_the_indexed_ones(d):
    pokes = _pokes(d)
    assert list(pokes) == [pokes[k] for k in range(len(pokes))]


@pytest.mark.parametrize("name", catalog.KNOT_NAMES)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_iterated_pokes_are_the_indexed_ones_on_multiplexes(name, r):
    pokes = _pokes(multiplex(catalog.diagram(name), r)[0])
    assert list(pokes) == [pokes[k] for k in range(len(pokes))]


def test_poke_filter_drops_pairs_along_one_edge():
    # One 4-dart face runs along both edges twice: of its 8 pairs in the
    # window, the 4 at distance 2 lie on one edge.
    d = parse_vgc("U1- ; O1-")
    assert [len(cycle) for cycle in faces(d)] == [4]
    assert len(_pokes(d)) == 4
    sizes = sorted(len(cycle) for cycle in faces(parse_vgc("O1+ U1+")))
    assert sizes == [1, 1, 2]


def _cycles_along_an_edge_twice(d):
    """The first rule for a listed cycle: fewer distinct edges than darts."""
    return {c for c, cycle in enumerate(faces(d)) if len({dart[:2] for dart in cycle}) < len(cycle)}


@given(diagrams())
@example(parse_vgc("O1+ U1+"))
@example(parse_vgc("U1- ; O1-"))
@example(parse_vgc("."))
def test_listed_poke_cycles_are_those_along_an_edge_twice(d):
    assert _listed_cycles(d) == _cycles_along_an_edge_twice(d)


def test_listed_poke_cycles_on_the_smallest_cases():
    # The kink's 2-dart face runs along both of its edges once each; the
    # 4-dart face of two circles through one crossing runs along both twice.
    assert _listed_cycles(parse_vgc("O1+ U1+")) == set()
    assert _listed_cycles(parse_vgc("U1- ; O1-")) == {0}


@pytest.mark.parametrize("name", catalog.names())
def test_counted_pokes_match_the_listing_oracle_on_walks(name):
    for seed in range(2):
        _, trace = random_walk(catalog.diagram(name), 30, seed)
        cur = catalog.diagram(name)
        for site in trace:
            cur = apply_move(cur, site)
            assert list(_pokes(cur)) == _poke_candidates(faces(cur))
            assert _listed_cycles(cur) == _cycles_along_an_edge_twice(cur)


class TestRandomWalk:
    def test_zero_steps(self, trefoil):
        out, trace = random_walk(trefoil, 0, seed=1)
        assert out == trefoil and trace == []

    @pytest.mark.parametrize("steps", [1.5, 2.0, "2", None])
    def test_non_integer_step_count_rejected(self, trefoil, steps):
        with pytest.raises(ValidationError):
            random_walk(trefoil, steps, 0)

    @pytest.mark.parametrize("steps", [-1, -3])
    def test_negative_step_count_rejected(self, trefoil, steps):
        with pytest.raises(ValidationError):
            random_walk(trefoil, steps, 0)

    @pytest.mark.parametrize("seed", [None, 1.5, "x"])
    def test_non_integer_seed_rejected(self, trefoil, seed):
        # Random(None) would seed from the OS and give a new trace per call.
        with pytest.raises(ValidationError):
            random_walk(trefoil, 3, seed)

    @pytest.mark.parametrize("size_cap", ["5", 5.0, [5]])
    def test_non_integer_size_cap_rejected(self, trefoil, size_cap):
        with pytest.raises(ValidationError):
            find_moves(trefoil, size_cap=size_cap)
        with pytest.raises(ValidationError):
            random_walk(trefoil, 3, 0, size_cap=size_cap)

    @pytest.mark.parametrize("kw", [{"kinds": ["bogus"]}, {"kinds": 5}, {"size_cap": "5"}])
    def test_zero_step_walk_checks_its_arguments(self, trefoil, kw):
        with pytest.raises(ValidationError):
            random_walk(trefoil, 0, 0, **kw)

    def test_zero_step_walk_checks_the_size_cap_from_the_environment(self, trefoil, monkeypatch):
        monkeypatch.setenv("MULTIVIRT_SIZE_CAP", "x")
        with pytest.raises(ValidationError):
            random_walk(trefoil, 0, 0)

    def test_deterministic(self, trefoil):
        a, ta = random_walk(trefoil, 12, seed=42, kinds=NONFU, size_cap=20)
        b, tb = random_walk(trefoil, 12, seed=42, kinds=NONFU, size_cap=20)
        assert a == b and ta == tb
        c, _ = random_walk(trefoil, 12, seed=43, kinds=NONFU, size_cap=20)
        assert a != c  # overwhelmingly likely for distinct seeds

    def test_respects_size_cap(self, trefoil):
        out, _ = random_walk(trefoil, 40, seed=7, kinds=NONFU, size_cap=12)
        # one move can add at most 2 crossings beyond the cap boundary
        assert len(out.crossings) <= 14

    @pytest.mark.parametrize("seed", range(8))
    def test_walks_preserve_knot_invariants(self, seed):
        d = catalog.diagram("vtrefoil")
        base = n_writhes(d).entries
        fox = [count_colorings(build_system(d, ColoringMode.FOX), n) for n in (2, 3, 4, 5)]
        out, _ = random_walk(d, 16, seed, kinds=NONFU, size_cap=24)
        assert genus(out) == 0
        assert n_writhes(out).entries == base
        assert [
            count_colorings(build_system(out, ColoringMode.FOX), n) for n in (2, 3, 4, 5)
        ] == fox

    def test_walks_preserve_link_invariants(self):
        d = catalog.diagram("vhopf")
        base = linking_and_lambda(d)
        for seed in range(4):
            out, _ = random_walk(d, 14, seed, kinds=NONFU, size_cap=20)
            rep = linking_and_lambda(out)
            assert rep.lk == base.lk and rep.lam == base.lam


class TestLongWalks:
    """Spot checks with the walk length and default size cap of the CLI."""

    def _coloring_counts(self, d):
        return [
            count_colorings(build_system(d, mode), n)
            for mode in (ColoringMode.FOX, ColoringMode.VIRTUAL_FOX)
            for n in range(2, 7)
        ]

    def test_trefoil_200_steps(self, trefoil):
        base_counts = self._coloring_counts(trefoil)
        out, trace = random_walk(trefoil, 200, seed=42, kinds=NONFU)
        assert len(trace) == 200
        assert genus(out) == 0
        assert n_writhes(out).entries == {}
        assert self._coloring_counts(out) == base_counts

    @pytest.mark.parametrize("seed", [0, 42])
    def test_virtual_trefoil_200_steps(self, seed):
        d = catalog.diagram("vtrefoil")
        out, _ = random_walk(d, 200, seed=seed, kinds=NONFU)
        assert n_writhes(out).entries == {1: 1, -1: 1}


def test_underpass_slide_preserves_virtual_counts():
    d = catalog.diagram("kishino")
    sites = find_moves(d, {"FU"})
    assert sites
    before = [
        count_colorings(build_system(d, ColoringMode.VIRTUAL_FOX), n) for n in range(2, 7)
    ]
    for site in sites:
        out = apply_move(d, site)
        after = [
            count_colorings(build_system(out, ColoringMode.VIRTUAL_FOX), n)
            for n in range(2, 7)
        ]
        assert after == before


# -- the patch check of _rewrite ----------------------------------------------

_O, _U = Role.OVER, Role.UNDER


def _bad_patches():
    """Patches of the trefoil that each break one rule of the model at the
    crossings they touch, as (edits, records) for `_rewrite`."""
    d = parse_vgc(TREFOIL)
    first = d.components[0][0]
    new = {4: CrossingRecord(4, False, 1)}
    return d, {
        "new-crossing-passed-over-twice": (
            {(0, 0): (first, Passage(4, _O), Passage(4, _O))}, new),
        "record-with-sign-2": (
            {(0, 0): (first, Passage(4, _O), Passage(4, _U))}, {4: CrossingRecord(4, False, 2)}),
        "new-crossing-with-one-passage": ({(0, 0): (first, Passage(4, _O))}, new),
        "dropped-record-whose-passages-remain": ({}, {1: None}),
        "old-crossing-re-signed-with-2": ({}, {1: CrossingRecord(1, False, 2)}),
        "old-real-crossing-recorded-virtual": ({}, {1: CrossingRecord(1, True, 1)}),
        "record-never-passed": ({}, new),
        "old-crossing-left-with-one-passage": ({(0, 0): ()}, {}),
        "record-filed-under-another-id": (
            {(0, 0): (first, Passage(4, _O), Passage(4, _U))}, {4: CrossingRecord(5, False, 1)}),
        "virtual-record-of-a-real-crossing": (
            {(0, 0): (first, Passage(4, _O), Passage(4, _U))}, {4: CrossingRecord(4, True, 1)}),
    }


def _no_hand_over(cls, *tables):
    raise AssertionError("_rewrite handed over the tables of a patch that breaks the model")


@pytest.mark.parametrize("patch", list(_bad_patches()[1]))
def test_rewrite_refuses_a_patch_that_breaks_the_model(patch, monkeypatch):
    d, patches = _bad_patches()
    edits, records = patches[patch]
    # The session oracle would refuse the patch as well; `_rewrite` must
    # refuse it itself, before it hands its tables to `Diagram._made`.
    monkeypatch.setattr(Diagram, "_made", classmethod(_no_hand_over))
    with pytest.raises(ValidationError):
        moves._rewrite(d, edits, records)


def _spliced(d, edits, records):
    """The parts that `_rewrite` splices from `d`, spliced by hand: each
    edit's passages in place of the passage at its position, and the
    crossing table with `records` merged in and None dropped."""
    components = [list(comp) for comp in d.components]
    for (ci, i), new in sorted(edits.items(), reverse=True):
        components[ci][i : i + 1] = new
    table = {**d.crossings, **records}
    return components, {cid: rec for cid, rec in table.items() if rec is not None}


@pytest.mark.parametrize("patch", list(_bad_patches()[1]))
def test_rewrite_refuses_a_patch_with_the_message_of_the_full_check(patch):
    d, patches = _bad_patches()
    edits, records = patches[patch]
    with pytest.raises(ValidationError) as full:
        Diagram(*_spliced(d, edits, records))
    with pytest.raises(ValidationError) as patched:
        moves._rewrite(d, edits, records)
    assert str(patched.value) == str(full.value)


def test_rewrite_hands_over_a_good_patch():
    # The session oracle compares the tables it hands over with `validate`.
    d = parse_vgc(TREFOIL)
    edits = {(0, 0): (d.components[0][0], Passage(4, _U), Passage(4, _O))}
    out = moves._rewrite(d, edits, {4: CrossingRecord(4, False, -1)})
    assert serialize_vgc(out) == "O1+ U4- O4- U2+ O3+ U1+ O2+ U3+"


def test_a_kink_shares_the_frame_rows_it_does_not_write():
    # Every crossing lies on one circle, so a kink writes only its own row.
    d = parse_vgc("O1+ U2+ O3+ U1+ O2+ U3+ ; V4+ V4+ ; .")
    rows = [list(row) for row in d._frames]
    for site in find_moves(d, {"R1+ins", "R1-ins", "VR1ins"}):
        out = apply_move(d, site)
        shared = [row is parent for row, parent in zip(out._frames, d._frames)]
        assert shared == [ci != site.locus[0] for ci in range(3)], site
    assert d._frames == rows


# Each shape of edit that `_rewrite` splices: a kink into an empty circle,
# which is the (ci, -1) edit; deletions on circles of two passages; and a
# slide across the wrap-around gap of a circle, which moves V3 from the last
# position to the first and so re-signs it.
EDIT_SHAPES = [
    ("O1+ U1+ ; .", MoveSite("R1+ins", ("OU", 1), (1, 0)), "O1+ U1+ ; O2+ U2+"),
    ("O1+ U1+", MoveSite("R1del", (), (0, 0)), "."),
    ("V1+ V2- ; V1+ V2-", MoveSite("VR2del", (), ((0, 0), (1, 0))), ". ; ."),
    ("V1+ V2- ; V1+ V2-", MoveSite("VR2del", (), ((0, 1), (1, 1))), ". ; ."),
    (
        "U1+ V2+ V3- O1+ V2+ V3-",
        MoveSite("VR4", (10, (3, 2, 1)), ((0, 1), (0, 3), (0, 5))),
        "V3+ V3+ V2+ V2+ O1+ U1+",
    ),
]


@pytest.mark.parametrize("code,site,want", EDIT_SHAPES)
def test_each_edit_shape_rewrites_as_the_full_check_does(code, site, want):
    d = parse_vgc(code)
    assert site in find_moves(d, size_cap=10**9)
    assert serialize_vgc(apply_move(d, site)) == want


@given(diagrams())
@example(parse_vgc(EDIT_SHAPES[0][0]))
@example(parse_vgc(EDIT_SHAPES[2][0]))
@example(parse_vgc(EDIT_SHAPES[4][0]))
def test_every_listed_site_goes_through_the_patch_check(d):
    """Every site of every kind is rewritten by `_rewrite`, which hands its
    tables to `Diagram._made`; the session oracle in conftest compares them
    with the full check, index key order included.  The parent's tables
    are never written."""
    index, frames = list(d._passage_index.items()), [list(row) for row in d._frames]
    for site in find_moves(d, size_cap=10**9):
        apply_move(d, site)  # checked against `validate` by the oracle
    assert list(d._passage_index.items()) == index and d._frames == frames


def _placed_or_removed(d, site, out) -> set:
    """The crossings a rewrite of `site` places or removes, read off `d`
    and its rewrite `out`: the new crossings of a kink or poke, the removed
    crossings of a deletion, and the three crossings of a slide, those that
    flank its bound gaps."""
    if site.kind in moves._VARIANTS:
        return out.crossings.keys() - d.crossings.keys()
    if site.kind in moves._DELETION_KINDS:
        return d.crossings.keys() - out.crossings.keys()
    comps = d.components
    return {comps[ci][k % len(comps[ci])].crossing for ci, g in site.locus for k in (g, g + 1)}


def _walk_states():
    """RICH, every catalog diagram, and the states of a seeded 4-step walk
    from each catalog diagram."""
    states = [parse_vgc(RICH)]
    for name in catalog.names():
        cur = catalog.diagram(name)
        states.append(cur)
        for site in random_walk(cur, 4, seed=len(states))[1]:
            cur = apply_move(cur, site)
            states.append(cur)
    return states


def test_a_splice_checks_only_the_crossings_it_places_or_removes(monkeypatch):
    """Every listed site hands `model._tables` exactly the crossings that
    its rewrite places or removes: a kink or poke keeps the passage before
    its new ones, with its frame, and does not check that passage's
    crossing again."""
    handed = []

    def spy(*args):
        handed.append(args[3])  # the crossings to check
        return tables(*args)

    tables = moves._tables
    monkeypatch.setattr(moves, "_tables", spy)
    checked_sites = 0
    for d in _walk_states():
        for site in find_moves(d, size_cap=10**9):
            handed.clear()
            out = apply_move(d, site)
            assert handed == [_placed_or_removed(d, site, out)], site
            checked_sites += 1
    assert checked_sites > 1000


# -- hostile input to the move exports -----------------------------------------

# A walk state with a site of every kind but VR3.
RICH = (
    "O1- O3- O4+ V7+ V9- V9- V7+ O2- U3- U4+ U2- O5+ U5+ U1- "
    "O6+ O8+ V10- V11+ U8+ V10- V11+ U6+"
)


@cache
def _move_calls():
    """One call per argument slot of find_moves, apply_move and random_walk
    on RICH, junk going into that slot, and the valid values of the slot
    that junk may equal.  Sites are built around a listed one of each lazy
    group: a kink insertion, a kink deletion and a triangle slide."""
    d = parse_vgc(RICH)
    kink = find_moves(d, {"R1del"})[0]
    tri = find_moves(d, {"R3"})[0]
    gaps = range(len(d.components[0]))
    sizes = [None, *range(-5, 41)]
    kinds = [None, []]
    return {
        "find_moves-diagram": (lambda x: find_moves(x), ()),
        "find_moves-kinds": (lambda x: find_moves(d, x), kinds),
        "find_moves-size_cap": (lambda x: find_moves(d, size_cap=x), sizes),
        "apply_move-diagram": (lambda x: apply_move(x, kink), ()),
        "apply_move-site": (lambda x: apply_move(d, x), ()),
        "apply_move-kind": (lambda x: apply_move(d, MoveSite(x, (), kink.locus)), ["R1del"]),
        "apply_move-order": (
            lambda x: apply_move(d, MoveSite("R1+ins", (x, 1), (0, 0))), ["OU", "UO"]),
        "apply_move-sign": (
            lambda x: apply_move(d, MoveSite("R1+ins", ("OU", x), (0, 0))), [1]),
        "apply_move-insertion-component": (
            lambda x: apply_move(d, MoveSite("R1+ins", ("OU", 1), (x, 0))), [0]),
        "apply_move-insertion-gap": (
            lambda x: apply_move(d, MoveSite("R1+ins", ("OU", 1), (0, x))), gaps),
        "apply_move-deletion-gap": (
            lambda x: apply_move(d, MoveSite("R1del", (), (0, x))), [kink.locus[1]]),
        "apply_move-triangle-gap": (
            lambda x: apply_move(d, MoveSite("R3", tri.variant, (*tri.locus[:2], (0, x)))),
            [tri.locus[2][1]],
        ),
        "apply_move-triangle-template": (
            lambda x: apply_move(d, MoveSite("R3", (x, tri.variant[1]), tri.locus)),
            [tri.variant[0]],
        ),
        "random_walk-diagram": (lambda x: random_walk(x, 3, 0), ()),
        "random_walk-steps": (lambda x: random_walk(d, x, 0), range(41)),
        "random_walk-seed": (lambda x: random_walk(d, 3, x), range(-5, 41)),
        "random_walk-kinds": (lambda x: random_walk(d, 3, 0, x), kinds),
        "random_walk-size_cap": (lambda x: random_walk(d, 3, 0, size_cap=x), sizes),
    }


@pytest.mark.parametrize("slot", list(_move_calls()))
@settings(max_examples=40, deadline=None)
@given(junk=JUNK)
@example(junk=-1)
@example(junk=1.0)
@example(junk=True)
@example(junk=[])
def test_move_exports_refuse_junk_or_read_it_as_its_equal(slot, junk):
    """Junk in any argument slot of a move export raises a MultivirtError
    or gives what the valid value that it equals gives."""
    call, valid = _move_calls()[slot]
    try:
        got = call(junk)
    except MultivirtError:
        return
    equal = [v for v in valid if v == junk]
    assert equal, f"{slot} accepted {junk!r}"
    assert got == call(equal[0])


def _floats(x):
    return tuple(map(_floats, x)) if isinstance(x, tuple) else float(x)


@pytest.mark.parametrize("kind", ["R1+ins", "R2ins", "R1del", "R2del", "VR2del", "R3", "VR4"])
def test_the_lazy_groups_refuse_junk_loci_and_variants(kind):
    """A group finds a site by its entry, compared by tuple equality: a
    locus held in a list or a dict, or a None variant, is no listed site,
    and a locus of floats is the listed site of the equal integers."""
    d = parse_vgc(RICH)
    site = find_moves(d, {kind}, size_cap=10**9)[-1]
    for junk in (
        MoveSite(kind, site.variant, list(site.locus)),
        MoveSite(kind, site.variant, dict(enumerate(site.locus))),
        MoveSite(kind, None, site.locus),
    ):
        with pytest.raises(StaleSite):
            apply_move(d, junk)
    assert apply_move(d, MoveSite(kind, site.variant, _floats(site.locus))) == apply_move(d, site)
