"""Golden pin of the CLI: SHA-256 of stdout, plus the exit code, per command.

The pinned file covers every catalog entry for parse, canon, genus, realize,
invariants and colorings (all three modes, n = 2..9); on knots also
multiplex --provenance (r = 2..5), cover (r = 1..5) and component -i for every
component of the r <= 5 multiplexes; moves --find and moves --walk 40 with
seeds 0 and 1 on every catalog entry; and verify --r-max 5.  Refactors must
leave it unchanged.  To write it from the current code (only when the output
is meant to change):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from multivirt import catalog
from multivirt.cli import main
from multivirt.constructions import multiplex
from multivirt.model import serialize_vgc

GOLDEN = Path(__file__).parent / "golden" / "cli_sha256.json"
R_MAX = 5
WALK_STEPS = 40
WALK_SEEDS = (0, 1)


def cases() -> list[tuple[str, list[str]]]:
    """(key, argv) for every pinned invocation."""
    out = []
    for name in catalog.names():
        for cmd in ("parse", "canon", "genus", "realize", "invariants"):
            out.append((f"{cmd} {name}", [cmd, "--name", name]))
        for mode in ("fox", "virtual", "constrained"):
            for n in range(2, 10):
                argv = ["colorings", "--name", name, "--mode", mode, "-n", str(n)]
                out.append((f"colorings {name} {mode} {n}", argv))
        out.append((f"moves find {name}", ["moves", "--name", name, "--find"]))
        for seed in WALK_SEEDS:
            argv = ["moves", "--name", name, "--walk", str(WALK_STEPS), "--seed", str(seed)]
            out.append((f"moves walk {name} {seed}", argv))
    for name in catalog.KNOT_NAMES:
        for r in range(2, R_MAX + 1):
            argv = ["multiplex", "--name", name, "-r", str(r), "--provenance"]
            out.append((f"multiplex {name} {r}", argv))
        for r in range(1, R_MAX + 1):
            out.append((f"cover {name} {r}", ["cover", "--name", name, "-r", str(r)]))
        for r in range(2, R_MAX + 1):
            code = serialize_vgc(multiplex(catalog.diagram(name), r)[0])
            for i in range(1, r + 1):
                argv = ["component", "--code", code, "-i", str(i)]
                out.append((f"component {name} r{r} {i}", argv))
    out.append(("verify", ["verify", "--r-max", str(R_MAX)]))
    return out


def run(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}


def test_cli_output_matches_golden_file():
    golden = json.loads(GOLDEN.read_text())
    got = {key: run(argv) for key, argv in cases()}
    assert sorted(got) == sorted(golden)
    changed = [key for key in golden if got[key] != golden[key]]
    assert not changed, f"{len(changed)} outputs changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    pinned = {key: run(argv) for key, argv in cases()}
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
