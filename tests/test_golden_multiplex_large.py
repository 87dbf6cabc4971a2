"""Golden pin of large multiplexes: one SHA-256 per (knot, r, output).

For asym3 and the trefoil at r = 8, 16 and 32, the multiplex L and its
provenance are pinned by the SHA-256 of `serialize_vgc(L)`, of the JSON of
`Provenance.to_json()`, of `canonical_form(L)`, of the JSON of
`invariant_report(L).to_json()`, of `genus(L)`, and of the Fox and
virtual-Fox divisor chains of L with their nullity.  Refactors of
`constructions`, `model` and `colorings` must leave it unchanged.  To write
it from the current code (only when the output is meant to change):

    PYTHONPATH=src python tests/test_golden_multiplex_large.py
"""

import hashlib
import json
from pathlib import Path

from multivirt import catalog
from multivirt.colorings import ColoringMode, build_system
from multivirt.constructions import multiplex
from multivirt.invariants import invariant_report
from multivirt.model import canonical_form, serialize_vgc
from multivirt.planar import genus

GOLDEN = Path(__file__).parent / "golden" / "multiplex_large_sha256.json"
KNOTS = ("asym3", "trefoil")
RS = (8, 16, 32)


def sha256(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def chain(L, mode: ColoringMode) -> dict:
    """The nonzero Smith divisors of the system of `mode` on L, and its nullity."""
    system = build_system(L, mode)
    snf = system.snf()
    return {
        "divisors": [d for d in snf.diagonal if d],
        "nullity": system.n_unknowns - snf.rank,
    }


def digests() -> dict[str, str]:
    out = {}
    for name in KNOTS:
        for r in RS:
            L, prov = multiplex(catalog.diagram(name), r)
            pinned = {
                "vgc": serialize_vgc(L),
                "provenance": prov.to_json(),
                "canonical": canonical_form(L),
                "invariants": invariant_report(L).to_json(),
                "genus": genus(L),
                "fox": chain(L, ColoringMode.FOX),
                "virtual_fox": chain(L, ColoringMode.VIRTUAL_FOX),
            }
            out.update({f"{name} r{r} {key}": sha256(v) for key, v in pinned.items()})
    return out


def test_large_multiplexes_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"{len(changed)} multiplex digests changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
