"""`canonical_form` against the quadratic definition it replaces.

The oracle spells a first-appearance relabeling of the prefix for every
rotation of every tied candidate, component by component, and keeps every
tie.  It is the definition of the canonical form, so the fast function must
return exactly its string.  `_token_oracle` spells the same definition on
plain token tuples, with no diagram built per rotation; it is pinned to the
first oracle here and checks the thousands of random-walk states.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import diagrams
from multivirt import catalog
from multivirt.constructions import covering, multiplex
from multivirt.model import (
    canonical_form,
    parse_vgc,
    relabel,
    rotate,
    serialize_vgc,
)
from multivirt.moves import apply_move, random_walk


def _relabel_first_appearance(d):
    mapping = {}
    for _, _, p in d.passages():
        if p.crossing not in mapping:
            mapping[p.crossing] = len(mapping) + 1
    return relabel(d, mapping)


def _prefix_text(d, n):
    """The VGC text of the first `n` components of `d`, crossings renamed by
    first appearance, each printed with its stored sign.  Spelled from the
    tokens: the prefix alone is no diagram when a crossing it passes once is
    passed again by a later component."""
    labels = {}
    parts = []
    for comp in d.components[:n]:
        tokens = []
        for p in comp:
            label = labels.setdefault(p.crossing, len(labels) + 1)
            sign = "+" if d.crossings[p.crossing].sign > 0 else "-"
            tokens.append(f"{p.role.value}{label}{sign}")
        parts.append(" ".join(tokens) or ".")
    return " ; ".join(parts)


def _canonical_form_oracle(d):
    candidates = [d]
    for ci, comp in enumerate(d.components):
        best = None
        kept = []
        for cand in candidates:
            for k in range(max(1, len(comp))):
                rot = rotate(cand, ci, k)
                prefix = _prefix_text(rot, ci + 1)
                if best is None or prefix < best:
                    best, kept = prefix, [rot]
                elif prefix == best:
                    kept.append(rot)
        candidates = kept
    return serialize_vgc(_relabel_first_appearance(candidates[0]))


def _token_oracle(d):
    """The definition of `_canonical_form_oracle` on plain token tuples.

    A passage is (role, crossing, sign character), the sign being the frame
    read from that passage for a virtual crossing and the stored sign for a
    real one, so a crossing labelled at its first passage in rotated order
    prints the sign `rotate` would store.  Every tie is kept, as the list of
    its rotated components."""
    comps = []
    for ci, comp in enumerate(d.components):
        tokens = []
        for i, p in enumerate(comp):
            rec = d.crossings[p.crossing]
            sign = d.frame(p.crossing, (ci, i)) if rec.virtual else rec.sign
            tokens.append((p.role.value, p.crossing, "+" if sign > 0 else "-"))
        comps.append(tokens)

    def spell(rotated):
        labels = {}
        parts = []
        for comp in rotated:
            for _, cid, sign in comp:
                labels.setdefault(cid, f"{len(labels) + 1}{sign}")
            parts.append(" ".join(role + labels[cid] for role, cid, _ in comp) or ".")
        return " ; ".join(parts)

    ties = [[]]
    for comp in comps:
        by_prefix = {}
        for t in ties:
            for k in range(max(1, len(comp))):
                cand = t + [comp[k:] + comp[:k]]
                by_prefix.setdefault(spell(cand), []).append(cand)
        ties = by_prefix[min(by_prefix)]
    return spell(ties[0])


def _scramble(d, rnd):
    """Rotate every component by a random step, then rename the crossings to
    random ids, some of several digits."""
    for ci, comp in enumerate(d.components):
        d = rotate(d, ci, rnd.randrange(max(1, len(comp))))
    ids = list(d.crossings)
    return relabel(d, dict(zip(ids, rnd.sample(range(1, 3 * len(ids) + 20), len(ids)))))


# The first component reads the same after a rotation by 3, but the two
# rotations give crossings 2 and 4, which the second component also passes,
# different labels; the second component prefers the rotation that does not
# start at passage 0.
PERIODIC_AND_LINKED = parse_vgc("O1+ U1+ V2+ O3+ U3+ V4+ ; V2+ O5+ U5+ V4+")


@settings(max_examples=300)
@given(diagrams(max_real=6, max_virtual=6, max_components=4), st.randoms(use_true_random=False))
@example(PERIODIC_AND_LINKED, random.Random(0))
@example(parse_vgc("V1+ V2+ ; V1+ O3+ U3+ V2+"), random.Random(1))
def test_matches_oracle_on_random_diagrams(d, rnd):
    d = _scramble(d, rnd)
    assert canonical_form(d) == _canonical_form_oracle(d)


@settings(max_examples=300)
@given(diagrams(max_real=6, max_virtual=6, max_components=4), st.randoms(use_true_random=False))
@example(PERIODIC_AND_LINKED, random.Random(0))
@example(parse_vgc("V1+ V2+ ; V1+ O3+ U3+ V2+"), random.Random(1))
def test_token_oracle_matches_oracle_on_random_diagrams(d, rnd):
    d = _scramble(d, rnd)
    assert _token_oracle(d) == _canonical_form_oracle(d)


@pytest.mark.parametrize("name", catalog.KNOT_NAMES)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_token_oracle_matches_oracle_on_multiplexes(name, r):
    L, _ = multiplex(catalog.diagram(name), r)
    assert _token_oracle(L) == _canonical_form_oracle(L)


@pytest.mark.parametrize("name", catalog.KNOT_NAMES)
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_matches_oracle_on_multiplexes(name, r):
    L, _ = multiplex(catalog.diagram(name), r)
    assert canonical_form(L) == _canonical_form_oracle(L)


@pytest.mark.parametrize("name", catalog.KNOT_NAMES)
def test_matches_oracle_on_coverings(name):
    d = catalog.diagram(name)
    for r in range(1, 6):
        c = covering(d, r)
        assert canonical_form(c) == _canonical_form_oracle(c), r


@pytest.mark.parametrize("name", catalog.names())
def test_matches_oracle_on_walk_states(name):
    for seed in range(3):
        cur = catalog.diagram(name)
        _, trace = random_walk(cur, 60, seed)
        for site in trace:
            cur = apply_move(cur, site)
            assert canonical_form(cur) == _token_oracle(cur), (seed, site)


def _torus_2(n):
    """The closed 2-braid T(2, n), n odd: crossing c is passed at c - 1 and n + c - 1."""
    return parse_vgc(" ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)))


LARGE = {
    "asym3-r16": lambda: multiplex(catalog.diagram("asym3"), 16)[0],
    "T(2,801)": lambda: _torus_2(801),
}


@pytest.mark.parametrize("name", list(LARGE))
def test_large_inputs_are_invariant_under_rotation_and_relabeling(name):
    # Too large for the oracle, so the function is checked against itself.
    d = LARGE[name]()
    want = canonical_form(d)
    rnd = random.Random(7)
    for _ in range(3):
        assert canonical_form(_scramble(d, rnd)) == want
