"""Time a perfbench workload in one process, alternating this tree with a base.

    python tools/ab_time.py --base REV_OR_DIR [--workload walk_fuzz] [--seed 0]
                            [--rounds 10] [--smoke]

The base is a git revision of this repository or a directory that holds a
`multivirt` package (such as the `src` of another checkout).  It is imported
under the name `multivirt_base` next to this tree's `src/multivirt`; that
works because every import inside the package is relative.  Each round runs
the workload's op list once on each side, the side that goes first
alternating, and times the pass.  Both sides must give equal op digests.
One line per round gives both times and the ratio base / tree (above 1 means
this tree is faster).  Then one line gives the median ratio with the least and
the greatest, and the last line the number of rounds in which this tree was
faster.

Separate processes cannot resolve a gain of a few tens of percent on a shared
host whose speed swings by up to 2x between them; alternating in one process
puts both sides under the same swings.  The tool only reads `perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import multivirt  # noqa: E402
import workloads as wl  # noqa: E402


def import_base(source: Path, name: str = "multivirt_base"):
    """Import the `multivirt` package under `source` as `name`."""
    init = source / "multivirt" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_time: no multivirt package under {source}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def checkout(rev: str, into: Path) -> Path:
    """Write `src/multivirt` of git revision `rev` under `into`; return its `src`."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src/multivirt"], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return into / "src"


def one_pass(mv, ops, inputs) -> tuple[float, list]:
    """Run every op once; return the time taken and each op's digest."""
    gc.collect()
    t0 = perf_counter()
    outputs = [op.run(mv, inputs) for op in ops]
    elapsed = perf_counter() - t0
    return elapsed, [op.digest(mv, inputs, out) for op, out in zip(ops, outputs)]


def ab_time(base, workload: str, seed: int, rounds: int, smoke: bool) -> list[float]:
    """Per-round ratios base time / tree time; raises if the digests differ."""
    sides = {}
    for label, mv in (("base", base), ("tree", multivirt)):
        ops = wl.build_ops(mv, workload, seed, smoke)
        codes = wl.input_codes(mv, ops)
        sides[label] = (mv, ops, {f: mv.model.parse_vgc(code) for f, code in codes.items()})
    ratios = []
    for k in range(rounds):
        order = ("base", "tree") if k % 2 == 0 else ("tree", "base")
        times, digests = {}, {}
        for label in order:
            times[label], digests[label] = one_pass(*sides[label])
        if digests["base"] != digests["tree"]:
            raise SystemExit(f"ab_time: round {k}: the op digests differ")
        ratios.append(times["base"] / times["tree"])
        print(
            f"round {k:2d} ({order[0]} first): base {times['base']:.4f} s"
            f"  tree {times['tree']:.4f} s  ratio {ratios[-1]:.3f}",
            flush=True,
        )
    return ratios


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision or directory holding multivirt/")
    ap.add_argument("--workload", default="walk_fuzz", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--smoke", action="store_true", help="the workload's smoke-size op list")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(args.base)
        if not source.is_dir():
            source = checkout(args.base, Path(tmp))
        base = import_base(source.resolve())
        ratios = ab_time(base, args.workload, args.seed, args.rounds, args.smoke)
    print(
        f"median ratio base / tree over {len(ratios)} rounds: {statistics.median(ratios):.3f}"
        f" (min {min(ratios):.3f}, max {max(ratios):.3f})"
    )
    print(f"tree faster in {sum(ratio > 1 for ratio in ratios)} of {len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
