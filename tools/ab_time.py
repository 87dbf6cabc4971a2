"""Time a perfbench workload in one process, alternating this tree with a base.

    python tools/ab_time.py --base REV_OR_DIR
                            [--workload walk_fuzz | --multiplex KNOT:R | --walk KNOT:R
                             | --verify KNOT | --torus N]
                            [--seed 0] [--rounds 10] [--smoke]

The base is a git revision of this repository or a directory that holds a
`multivirt` package (such as the `src` of another checkout).  It is imported
under the name `multivirt_base` next to this tree's `src/multivirt`; that
works because every import inside the package is relative.  Each round runs
one pass of the op list on each side, the side that goes first alternating,
and times the pass.  Both sides must give equal op digests.
With `--multiplex KNOT:R` the op list is two calls,
`constructions.multiplex(d, R)` on two equal diagrams `d` parsed from the
catalog entry KNOT, each digested by the SHA-256 of the multiplex's VGC
text; parsing is set-up.  `multiplex` keeps its last build and returns it to
a repeated call on the same diagram object, so alternating the two makes
every call a build, on a base without that cache as well.  The multiplex
interns its passages and records, so every build after the first in a
process times warm tables; timing a cold build needs a fresh process per
build.  With `--walk KNOT:R` the op list is one 20-step walk with every
move kind, size cap 10**9 and seed `--seed`, from the R-fold multiplex of
the catalog entry KNOT, digested as `tests/test_golden_walks.py` digests a
walk: the SHA-256 of the JSON of its trace and final VGC.  The multiplex is
built as set-up and every pass walks from it, so after the first pass the
start keeps what its first step traced.  With `--verify KNOT` the op list is
one verify_ladder op, `verify_theorems(names=[KNOT])` at the workload's r and
moduli, digested by the SHA-256 of the report's JSON.  With `--torus N` (N
odd) the op list is one op on the torus knot T(2, N), the closed 2-braid,
parsed as set-up: `invariants.invariant_report` and
`constructions.covering(·, 3)`, each on its own fresh diagram equal to
T(2, N), made from the parsed one's tables by `Diagram._made`, so that no
call reads what an earlier call kept in a diagram's memo; it is digested by
the SHA-256 of the JSON of the report and the covering's VGC text.  An op
list too short to time against the host's noise is repeated within a pass:
the count is doubled from 1 until one pass of the slower side takes at
least 0.2 s, printed on the first line, and used on both sides in every
round, so an op list that already takes 0.2 s on either side runs once per
pass, and a side much faster than the other does not stretch the other's
passes.
One line per round gives both times and the ratio base / tree (above 1 means
this tree is faster).  Then one line gives the median ratio with the least
and the greatest, one the number of rounds in which this tree was faster,
one per side its median time and quartiles, and the last line the verdict:
a gain only when this tree was faster in at least nine tenths of the rounds
and the medians differ by more than the distance between the base's
quartiles.

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
CALIBRATION_S = 0.2  # the least time of one pass
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


def one_pass(mv, ops, inputs, reps: int = 1) -> tuple[float, list]:
    """Run the op list `reps` times; return the time taken and each op's
    digest from the last time."""
    gc.collect()
    t0 = perf_counter()
    for _ in range(reps):
        outputs = [op.run(mv, inputs) for op in ops]
    elapsed = perf_counter() - t0
    return elapsed, [op.digest(mv, inputs, out) for op, out in zip(ops, outputs)]


def multiplex_ops(knot: str, r: int) -> list[wl.Op]:
    """The two ops that multiplex catalog entry `knot` r times: one from the
    parsed entry, one from the equal copy that set-up parses as well."""
    return [
        wl.Op(
            f"{knot}/r{r}{suffix}",
            knot,
            lambda mv, inputs, key=key: mv.constructions.multiplex(inputs[key], r),
            lambda mv, inputs, out: wl.sha256(mv.model.serialize_vgc(out[0])),
        )
        for key, suffix in ((knot, ""), ((knot, "copy"), "/copy"))
    ]


WALK_STEPS, WALK_SIZE_CAP = 20, 10**9


def walk_ops(mv, knot: str, r: int, seed: int) -> list[wl.Op]:
    """The op that walks from the r-fold multiplex of catalog entry `knot`,
    built here as set-up."""
    start, _ = mv.constructions.multiplex(mv.catalog.diagram(knot), r)
    return [
        wl.Op(
            f"{knot}/r{r}/walk{WALK_STEPS}/seed{seed}",
            knot,
            lambda mv, inputs: mv.moves.random_walk(start, WALK_STEPS, seed, None, WALK_SIZE_CAP),
            lambda mv, inputs, out: walk_digest(mv, *out),
        )
    ]


def walk_digest(mv, final, trace) -> str:
    """The SHA-256 of a walk as `tests/test_golden_walks.py` takes it."""
    return wl.json_sha256(
        {"trace": [site.to_json() for site in trace], "final": mv.model.serialize_vgc(final)}
    )


def verify_ops(knot: str) -> list[wl.Op]:
    """The op that runs verify_ladder's checks on catalog entry `knot`."""
    return [
        wl.Op(
            f"{knot}/verify",
            knot,
            lambda mv, inputs: mv.verify.verify_theorems(
                names=[knot], r_range=wl.VERIFY_R, n_range=wl.MODULI
            ),
            lambda mv, inputs, report: wl.json_sha256(report.to_json()),
        )
    ]


def torus_code(n: int) -> str:
    """VGC text of T(2, n), n odd: crossing c is passed at c - 1 and n + c - 1."""
    return " ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n))


def torus_ops(mv, n: int) -> list[wl.Op]:
    """The op that reads the invariant report and the 3-fold covering of
    T(2, n), parsed here as set-up, each from a fresh equal diagram."""
    d = mv.model.parse_vgc(torus_code(n))

    def fresh():
        return mv.model.Diagram._made(d.components, d.crossings, d._passage_index, d._frames)

    return [
        wl.Op(
            f"T(2,{n})",
            f"T(2,{n})",
            lambda mv, inputs: (
                mv.invariants.invariant_report(fresh()), mv.constructions.covering(fresh(), 3)
            ),
            lambda mv, inputs, out: wl.json_sha256(
                {"report": out[0].to_json(), "cover": mv.model.serialize_vgc(out[1])}
            ),
        )
    ]


def torus_spec(text: str) -> int:
    """An odd N >= 1; raises ValueError otherwise."""
    if int(text) < 1 or int(text) % 2 == 0:
        raise ValueError(text)
    return int(text)


def knot_spec(text: str) -> str:
    """A catalog knot; raises ValueError otherwise."""
    if text not in multivirt.catalog.KNOT_NAMES:
        raise ValueError(text)
    return text


def multiplex_spec(text: str) -> tuple[str, int]:
    """KNOT:R as (catalog knot, r >= 2); raises ValueError otherwise."""
    knot, _, r = text.partition(":")
    if int(r) < 2:
        raise ValueError(text)
    return knot_spec(knot), int(r)


def calibrate(*sides) -> int:
    """Repetitions of the op list, doubled from 1 until one pass of the
    slower of `sides` takes at least CALIBRATION_S."""
    reps = 1
    while max(one_pass(*side, reps)[0] for side in sides) < CALIBRATION_S:
        reps *= 2
    return reps


def ab_time(base, build_ops, rounds: int) -> dict[str, list[float]]:
    """Per-round pass times of each side, running the ops that `build_ops`
    makes for each side's package as often as `calibrate` finds on the
    slower side; raises if the digests differ."""
    sides = {}
    for label, mv in (("base", base), ("tree", multivirt)):
        ops = build_ops(mv)
        # A torus op parses its own input; every other op starts from a catalog entry.
        codes = wl.input_codes(mv, [op for op in ops if op.fixture in mv.catalog.CATALOG])
        inputs = {f: mv.model.parse_vgc(code) for f, code in codes.items()}
        # A second, equal parse of each input, under (fixture, "copy"), for
        # `multiplex_ops`, whose two ops must not call on one diagram object.
        inputs |= {(f, "copy"): mv.model.parse_vgc(code) for f, code in codes.items()}
        sides[label] = (mv, ops, inputs)
    reps = calibrate(*sides.values())
    print(
        f"repetitions per pass: {reps}"
        f" (one pass of the slower side takes at least {CALIBRATION_S} s)",
        flush=True,
    )
    runs: dict[str, list[float]] = {"base": [], "tree": []}
    for k in range(rounds):
        order = ("base", "tree") if k % 2 == 0 else ("tree", "base")
        times, digests = {}, {}
        for label in order:
            times[label], digests[label] = one_pass(*sides[label], reps)
            runs[label].append(times[label])
        if digests["base"] != digests["tree"]:
            raise SystemExit(f"ab_time: round {k}: the op digests differ")
        print(
            f"round {k:2d} ({order[0]} first): base {times['base']:.4f} s"
            f"  tree {times['tree']:.4f} s  ratio {times['base'] / times['tree']:.3f}",
            flush=True,
        )
    return runs


def quartiles(times: list[float]) -> tuple[float, float, float]:
    """The lower quartile, the median and the upper quartile of two or more times."""
    return tuple(statistics.quantiles(times, n=4, method="inclusive"))


def verdict(base: list[float], tree: list[float]) -> str:
    """A gain when the tree wins at least nine tenths of the rounds (ties count
    for neither side) and the medians differ by more than the base's
    interquartile range; otherwise no gain."""
    wins = sum(t < b for b, t in zip(base, tree))
    b1, b2, b3 = quartiles(base)
    gap = b2 - quartiles(tree)[1]
    gain = 10 * wins >= 9 * len(base) and gap > b3 - b1
    return (
        f"verdict: {'gain' if gain else 'no gain'} (tree faster in {wins} of {len(base)} rounds,"
        f" medians {gap:+.4f} s apart, base quartiles {b3 - b1:.4f} s apart)"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision or directory holding multivirt/")
    what = ap.add_mutually_exclusive_group()
    what.add_argument("--workload", default="walk_fuzz", choices=wl.WORKLOADS)
    what.add_argument(
        "--multiplex", type=multiplex_spec, metavar="KNOT:R",
        help="time one multiplex of a catalog knot, r >= 2, instead of a workload",
    )
    what.add_argument(
        "--walk", type=multiplex_spec, metavar="KNOT:R",
        help="time a 20-step walk from the multiplex of a catalog knot, r >= 2",
    )
    what.add_argument(
        "--verify", type=knot_spec, metavar="KNOT",
        help="time verify_ladder's op on one catalog knot",
    )
    what.add_argument(
        "--torus", type=torus_spec, metavar="N",
        help="time invariant_report and covering(., 3) on the torus knot T(2, N), N odd",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--smoke", action="store_true", help="the workload's smoke-size op list")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2, to give quartiles")
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(args.base)
        if not source.is_dir():
            source = checkout(args.base, Path(tmp))
        base = import_base(source.resolve())
        if args.multiplex:
            runs = ab_time(base, lambda mv: multiplex_ops(*args.multiplex), args.rounds)
        elif args.walk:
            runs = ab_time(base, lambda mv: walk_ops(mv, *args.walk, args.seed), args.rounds)
        elif args.verify:
            runs = ab_time(base, lambda mv: verify_ops(args.verify), args.rounds)
        elif args.torus:
            runs = ab_time(base, lambda mv: torus_ops(mv, args.torus), args.rounds)
        else:
            runs = ab_time(
                base, lambda mv: wl.build_ops(mv, args.workload, args.seed, args.smoke), args.rounds
            )
    ratios = [b / t for b, t in zip(runs["base"], runs["tree"])]
    print(
        f"median ratio base / tree over {len(ratios)} rounds: {statistics.median(ratios):.3f}"
        f" (min {min(ratios):.3f}, max {max(ratios):.3f})"
    )
    print(f"tree faster in {sum(ratio > 1 for ratio in ratios)} of {len(ratios)} rounds")
    for label, times in runs.items():
        q1, q2, q3 = quartiles(times)
        print(f"{label} median {q2:.4f} s (quartiles {q1:.4f}, {q3:.4f})")
    print(verdict(runs["base"], runs["tree"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
