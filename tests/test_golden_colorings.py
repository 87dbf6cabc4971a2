"""Golden pin of the coloring theorem's data: one SHA-256 per (knot, n).

For every catalog knot K, its 2-fold multiplex L and n = 2..5, a digest runs
over the JSON of the constrained rows of L, the solutions mod n that
`enumerate_colorings` lists for the virtual-Fox system of K and for the
constrained system of L (null where n^k exceeds its default limit), and the
`psi` image of every listed virtual coloring of K.  Also pinned, on the
trefoil's multiplex with n = 3: the same data when the edge map places the
first copy of source edge 0 at a value equal to a gap but of another type
(an error is pinned by its class name).  Refactors of `colorings` and
`model.segments` must leave it unchanged.  To write it from the current code
(only when the output is meant to change):

    PYTHONPATH=src python tests/test_golden_colorings.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from multivirt import catalog
from multivirt.colorings import ColoringMode, build_system, enumerate_colorings, psi
from multivirt.constructions import multiplex
from multivirt.errors import MultivirtError, TooLarge

GOLDEN = Path(__file__).parent / "golden" / "colorings_sha256.json"
# Equal to gap (0, 1), where the trefoil's multiplex places edge (0, 1), or
# to gap (1, 1).
EQUAL_GAPS = ((0, True), (0.0, 1), (True, 1), (0, 1.0))


def _solutions(system, n):
    try:
        return enumerate_colorings(system, n)
    except TooLarge:
        return None


def data(d, l2, prov, n) -> dict:
    """The pinned data of knot `d` with multiplex `l2` and provenance `prov`, mod n."""
    try:
        constrained = build_system(l2, ColoringMode.CONSTRAINED, prov)
    except MultivirtError as exc:
        return {"error": type(exc).__name__}
    virtual = _solutions(build_system(d, ColoringMode.VIRTUAL_FOX), n)
    paired = _solutions(constrained, n)
    try:
        images = [psi(d, col, l2, prov).values for col in virtual or ()]
    except MultivirtError as exc:
        images = type(exc).__name__
    return {
        "rows": constrained.rows,
        "virtual": None if virtual is None else [col.values for col in virtual],
        "constrained": None if paired is None else [col.values for col in paired],
        "psi": images,
    }


def cases():
    """(key, knot, multiplex, provenance, n) for every pinned case."""
    out = []
    for name in catalog.KNOT_NAMES:
        d = catalog.diagram(name)
        l2, prov = multiplex(d, 2)
        out += [(f"{name} n{n}", d, l2, prov, n) for n in range(2, 6)]
    d = catalog.diagram("trefoil")
    l2, prov = multiplex(d, 2)
    for gap in EQUAL_GAPS:
        moved = replace(prov, edge_map={**prov.edge_map, (0, 1): gap})
        out.append((f"trefoil edge (0, 1) at {gap!r} n3", d, l2, moved, 3))
    return out


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {key: digest(data(d, l2, prov, n)) for key, d, l2, prov, n in cases()}


def test_colorings_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"{len(changed)} coloring digests changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
