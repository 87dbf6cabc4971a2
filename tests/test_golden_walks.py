"""Golden pin of random walks: one SHA-256 per (start diagram, seed).

A digest runs over the JSON of the trace and the VGC of the final diagram,
as `perfbench` digests its walks.  Pinned: 150-step walks from every catalog
entry with every move kind but FU, size cap 64, seeds 0 and 1; and 20-step
walks with every move kind, size cap 10**9, seed 0, from the asym3 and
index2 multiplexes at r = 2..4 and the asym3 and trefoil multiplexes at
r = 8.  Refactors of `moves`, `planar` and `model`
must leave it unchanged.  To write it from the current code (only when the
output is meant to change):

    PYTHONPATH=src python tests/test_golden_walks.py
"""

import hashlib
import json
from pathlib import Path

from multivirt import catalog
from multivirt.constructions import multiplex
from multivirt.model import serialize_vgc
from multivirt.moves import MOVE_KINDS, random_walk

GOLDEN = Path(__file__).parent / "golden" / "walks_sha256.json"
NONFU = tuple(k for k in MOVE_KINDS if k != "FU")


def walks():
    """(key, diagram, steps, seed, kinds, size cap) for every pinned walk."""
    out = [
        (f"{name} seed{seed}", catalog.diagram(name), 150, seed, NONFU, 64)
        for name in catalog.names()
        for seed in (0, 1)
    ]
    for name in ("asym3", "index2"):
        for r in (2, 3, 4):
            L, _ = multiplex(catalog.diagram(name), r)
            out.append((f"{name} r{r} seed0", L, 20, 0, None, 10**9))
    for name in ("asym3", "trefoil"):
        L, _ = multiplex(catalog.diagram(name), 8)
        out.append((f"{name} r8 seed0", L, 20, 0, None, 10**9))
    return out


def digest(final, trace) -> str:
    obj = {"trace": [site.to_json() for site in trace], "final": serialize_vgc(final)}
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {
        key: digest(*random_walk(d, steps, seed, kinds, size_cap))
        for key, d, steps, seed, kinds, size_cap in walks()
    }


def test_walks_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"{len(changed)} walk digests changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
