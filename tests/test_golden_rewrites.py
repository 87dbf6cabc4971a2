"""Golden pin of single rewrites: one SHA-256 per (diagram, move kind).

For every catalog entry, and for the 2-fold multiplex of every catalog knot,
the hash of a kind runs over `serialize_vgc(apply_move(d, site))` for every
site of that kind that `find_moves(d, size_cap=10**9)` lists, in listing
order, one line per site.  Refactors of `moves` must leave it unchanged.  To
write it from the current code (only when the output is meant to change):

    PYTHONPATH=src python tests/test_golden_rewrites.py
"""

import hashlib
import json
from pathlib import Path

from multivirt import catalog
from multivirt.constructions import multiplex
from multivirt.model import serialize_vgc
from multivirt.moves import MOVE_KINDS, apply_move, find_moves

GOLDEN = Path(__file__).parent / "golden" / "rewrites_sha256.json"


def diagrams():
    """(key, diagram) for every pinned diagram."""
    out = [(name, catalog.diagram(name)) for name in catalog.names()]
    out += [(f"{name} r2", multiplex(catalog.diagram(name), 2)[0]) for name in catalog.KNOT_NAMES]
    return out


def digests() -> dict[str, str]:
    out = {}
    for key, d in diagrams():
        rewritten = {kind: [] for kind in MOVE_KINDS}
        for site in find_moves(d, size_cap=10**9):
            rewritten[site.kind].append(serialize_vgc(apply_move(d, site)) + "\n")
        for kind, lines in rewritten.items():
            out[f"{key} {kind}"] = hashlib.sha256("".join(lines).encode()).hexdigest()
    return out


def test_rewrites_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"{len(changed)} rewrite digests changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
