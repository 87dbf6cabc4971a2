"""Benchmark of multivirt, end to end and per layer.

    python3 perfbench/run.py --workload multiplex_ladder --seed 0 --seconds 24 --trace 0

Run from the root of a source checkout: the package is imported from `src/`.
Each workload is a fixed list of ops run as a closed loop in this process
(see `workloads.py`).  With `--trace 0` the op list is repeated until
`--seconds` have passed, and the end-to-end metrics are printed: `wall_s`
(median pass time), `op_p50_ms` and `op_max_ms` (median and maximum over the
op list of each op's median latency across passes), `setup_s` (median of
several fresh interpreters that import multivirt and parse the inputs) and
`peak_rss_mb`; the times are scaled to a reference host speed (see "host
speed" below).  Ops that raise are counted in `failed` against `attempted`.
With `--trace 1` one untraced pass is followed by one pass with the tracer's
wrappers installed, and the per-layer metrics are printed, among them
`tracing_overhead_s` (traced minus untraced pass time).

Every op's output is checked against `reference.json`; on a mismatch the
result says `"correct": false` and the exit code is 1.  The last line of
standard output is the JSON result; run facts, the checks and (traced runs)
the spans are written to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 9

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_max_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RATIOS = (
    "constructions.multiplex.per_fixture_r",
    "planar.faces.per_find_moves",
    "colorings.build_system.per_psi",
    "invariants.linking_and_lambda.per_ith_n_writhes",
    "moves.site_use_ratio",
)


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_multivirt():
    """Import multivirt from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "multivirt" / "__init__.py").is_file():
        raise BenchError(f"no multivirt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import multivirt

    if Path(multivirt.__file__).resolve().parent != (SRC / "multivirt").resolve():
        raise BenchError(f"imported multivirt from {multivirt.__file__}, not from {SRC}")
    return multivirt


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


# -- run facts ------------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout, read from `.git` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_facts(mv, workload: str, seed: int, trace: bool) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((SRC / "multivirt").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "multivirt": mv.__version__,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


# -- host speed -------------------------------------------------------------------
#
# On a shared 2-vCPU cloud host the speed available to one process can flip by
# 2x within seconds and shift by 40% between one set of runs and the next,
# more than any bound.  So each run also times a fixed kernel owned by the
# benchmark, never multivirt: a small dense integer elimination and a cycle
# trace over tuples, the kind of code multivirt spends its time in.  During the
# passes a timer runs the kernel every SAMPLE_INTERVAL_S, inside long ops too,
# and its time is taken out of the op it interrupted; between set-up samples it
# runs directly.  The times of each phase are scaled by
# CALIBRATION_REF_S / (median kernel time in that phase): seconds at the host
# speed where CALIBRATION_REF_S was taken.  A change to multivirt leaves the
# kernel alone and shows in full.  The unscaled times and the speed factors are
# kept in the run's output file.

CALIBRATION_REF_S = 0.012
SAMPLE_INTERVAL_S = 0.2


def _kernel_inputs(n: int = 70):
    rng = random.Random(1)
    rows = []
    for _ in range(n):
        row = [0] * n
        row[rng.randrange(n)] += 1
        row[rng.randrange(n)] += 1
        row[rng.randrange(n)] -= 2
        rows.append(row)
    perm = list(range(3000))
    rng.shuffle(perm)
    return rows, perm


_KERNEL_ROWS, _KERNEL_PERM = _kernel_inputs()


def calibration_kernel() -> int:
    """Fixed work that does not depend on multivirt or on the workload."""
    m = [row[:] for row in _KERNEL_ROWS]
    n = len(m)
    for t in range(n):
        pivot = None
        for i in range(t, n):
            for j in range(t, n):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        for i in range(t + 1, n):
            q = m[i][t] // m[t][t]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[t])]
    seen: set[int] = set()
    cycles = []
    for start in range(0, len(_KERNEL_PERM), 7):
        x, cycle = start, []
        while x not in seen:
            seen.add(x)
            cycle.append((x, x % 5, x % 3))
            x = _KERNEL_PERM[x]
        cycles.append(tuple(cycle))
    return len({(c[0], c[-1]) for c in cycles if c})


def calibrate(samples: list[float]) -> float:
    """Time one kernel run with the collector off, so the size of the heap does
    not count; return the time spent, bookkeeping included."""
    t_in = perf_counter()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        calibration_kernel()
        samples.append(perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return perf_counter() - t_in


class SpeedSampler:
    """While entered, runs the kernel from a SIGALRM timer every SAMPLE_INTERVAL_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time taken by the handler, to subtract from ops

    def _tick(self, signum, frame) -> None:
        self.spent += calibrate(self.samples)

    def __enter__(self):
        calibrate(self.samples)  # one sample per pass, however short the pass
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# -- measuring ------------------------------------------------------------------


def parse_inputs(mv, codes: dict[str, str]) -> dict:
    return {name: mv.model.parse_vgc(code) for name, code in codes.items()}


def measure_setup(codes: dict[str, str], cal: list[float], samples: int = SETUP_SAMPLES) -> float:
    """Median wall time of a fresh interpreter importing multivirt and parsing the inputs."""
    snippet = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import multivirt\n"
        f"for code in {list(codes.values())!r}:\n"
        "    multivirt.parse_vgc(code)\n"
    )
    times = []
    for _ in range(samples):
        for _ in range(3):
            calibrate(cal)
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", snippet], cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    calibrate(cal)
    return statistics.median(times)


class Pass:
    """One run of a workload's op list."""

    def __init__(self):
        self.wall = 0.0
        self.latencies: list[float] = []
        self.outputs: list = []  # None for an op that raised
        self.failed = 0


def run_pass(mv, ops, inputs, tracer=None, sampler: SpeedSampler | None = None) -> Pass:
    """Run the ops one after another, each timed on its own, less the time the
    sampler's kernel took while it ran."""
    p = Pass()
    for op in ops:
        spent = sampler.spent if sampler else 0.0
        t0 = perf_counter()
        try:
            if tracer is None:
                out = op.run(mv, inputs)
            else:
                tracer.op = op.key
                out = tracer.span("bench.op", op.run, mv, inputs)
        except Exception:
            traceback.print_exc()
            out = None
            p.failed += 1
        p.latencies.append(perf_counter() - t0 - ((sampler.spent if sampler else 0.0) - spent))
        p.outputs.append(out)
    p.wall = sum(p.latencies)
    if tracer is not None:
        tracer.op = None
    return p


def check_pass(mv, workload, ops, inputs, p: Pass, reference) -> tuple[list[str], list[dict]]:
    """Check a pass's outputs against the reference, then drop them."""
    problems, records = [], []
    for op, out in zip(ops, p.outputs):
        if out is None:
            continue
        record = op.digest(mv, inputs, out)
        records.append({"op": op.key, **record})
        problems += wl.check(mv, workload, op, inputs, record, reference)
    p.outputs = []
    return problems, records


def measure(mv, workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """Untraced run: passes until `seconds` have passed, then set-up and memory."""
    reference = load_reference()
    ops = wl.build_ops(mv, workload, seed, smoke)
    codes = wl.input_codes(mv, ops)
    inputs = parse_inputs(mv, codes)
    passes, problems, records, setup_cal = [], [], [], []
    sampler = SpeedSampler()
    t_start = perf_counter()
    while True:
        with sampler:
            p = run_pass(mv, ops, inputs, sampler=sampler)
        passes.append(p)
        found, records = check_pass(mv, workload, ops, inputs, p, reference)
        problems += found
        if perf_counter() - t_start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = measure_setup(codes, setup_cal, samples=3 if smoke else SETUP_SAMPLES)
    latencies = [t for p in passes for t in p.latencies]
    per_op = [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]
    raw = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_max_ms": max(per_op) * 1e3,
        "setup_s": setup_s,
    }
    speed = {
        "passes": CALIBRATION_REF_S / statistics.median(sampler.samples),
        "setup": CALIBRATION_REF_S / statistics.median(setup_cal),
    }
    values = {k: v * speed["setup" if k == "setup_s" else "passes"] for k, v in raw.items()}
    values["peak_rss_mb"] = peak_rss_mb
    attempted = len(latencies)
    failed = sum(p.failed for p in passes)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "problems": problems,
        "records": records,
        "raw": raw,
        "speed": speed,
        "samples": {
            "passes": len(passes),
            "ops": attempted,
            "latencies_s": [p.latencies for p in passes],
            "kernel_s": {"passes": sampler.samples, "setup": setup_cal},
        },
        "fail_ratio": failed / attempted,
    }


def traced(mv, workload: str, seed: int, smoke: bool = False) -> dict:
    """One untraced pass, then one pass with every wrapper installed."""
    reference = load_reference()
    ops = wl.build_ops(mv, workload, seed, smoke)
    codes = wl.input_codes(mv, ops)
    inputs = parse_inputs(mv, codes)
    plain = run_pass(mv, ops, inputs)
    problems, _ = check_pass(mv, workload, ops, inputs, plain, reference)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        inputs = tracer.span("bench.setup", parse_inputs, mv, codes)
        p = run_pass(mv, ops, inputs, tracer)
    finally:
        tracer.uninstall()
    found, records = check_pass(mv, workload, ops, inputs, p, reference)
    problems += found
    values = layer_metrics(mv, tracer, ops, inputs)
    values["tracing_overhead_s"] = p.wall - plain.wall
    attempted = len(plain.latencies) + len(p.latencies)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": plain.failed + p.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in per_layer_names(mv)},
        "problems": problems,
        "records": records,
        "spans": tracer.spans,
        "module_self_ms": module_self_ms(tracer),
    }


# -- per-layer metrics ----------------------------------------------------------


def walk_kind_names(mv) -> list[tuple[str, str]]:
    """(move kind, metric-safe name) for the kinds walk_fuzz uses."""
    return [(k, k.replace("+", "pos_").replace("-", "neg_")) for k in wl.walk_kinds(mv)]


def per_layer_names(mv) -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for _, _, span, _, stats in tracing.TARGETS:
        names += [(f"{span}.calls", "count"), (f"{span}.self_ms", "ms")]
        names += [(f"{span}.{stat}", "count") for stat in stats]
    names += [(f"moves.find_moves.sites_per_step.{safe}", "1") for _, safe in walk_kind_names(mv)]
    names += [(name, "1") for name in RATIOS]
    names += [("op.input_passages", "count"), ("op.input_crossings", "count")]
    names += [("tracing_overhead_s", "s")]
    return names


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(mv, tracer, ops, inputs) -> dict[str, float]:
    """Per-layer values by name; `per_layer_names` gives their order and units."""
    c = tracer.counters
    self_ms = tracer.self_ms()
    out: dict[str, float] = {}
    for _, _, span, _, stats in tracing.TARGETS:
        out[f"{span}.calls"] = c[span]["calls"]
        out[f"{span}.self_ms"] = self_ms.get(span, 0.0)
        for stat in stats:
            out[f"{span}.{stat}"] = c[span][stat]
    find = c["moves.find_moves"]
    for kind, safe in walk_kind_names(mv):
        per_step = _ratio(find["sites." + kind], find["calls"])
        out[f"moves.find_moves.sites_per_step.{safe}"] = per_step
    # Waste ratios: builds per distinct multiplex input (fixture, r), faces
    # traced per site search, systems rebuilt inside psi, linking recomputed
    # inside ith_n_writhes, and sites applied per site built.
    mp = c["constructions.multiplex"]
    out["constructions.multiplex.per_fixture_r"] = _ratio(mp["calls"], len(mp.get("inputs", ())))
    out["planar.faces.per_find_moves"] = _ratio(c["planar.faces"]["calls"], find["calls"])
    out["colorings.build_system.per_psi"] = _ratio(
        tracer.count_under("colorings.build_system", "colorings.psi"), c["colorings.psi"]["calls"]
    )
    out["invariants.linking_and_lambda.per_ith_n_writhes"] = _ratio(
        tracer.count_under("invariants.linking_and_lambda", "invariants.ith_n_writhes"),
        c["invariants.ith_n_writhes"]["calls"],
    )
    out["moves.site_use_ratio"] = _ratio(c["moves.apply_move"]["calls"], find["sites"])
    # Input sizes, counted outside every span.
    out["op.input_passages"] = sum(inputs[op.fixture].n_passages() for op in ops)
    out["op.input_crossings"] = sum(len(inputs[op.fixture].crossings) for op in ops)
    return out


def module_self_ms(tracer) -> dict[str, float]:
    """Self time summed per module (the first part of each span name)."""
    out: dict[str, float] = {}
    for name, ms in tracer.self_ms().items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + ms
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        mv = load_multivirt()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    facts = run_facts(mv, args.workload, args.seed, bool(args.trace))
    if args.trace:
        result = traced(mv, args.workload, args.seed)
    else:
        result = measure(mv, args.workload, args.seed, args.seconds)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    spans = result.pop("spans", None)
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump({"facts": facts, **result}, f, indent=1, sort_keys=True)
    if spans is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps(s.to_json()) + "\n")

    print("facts " + json.dumps(facts, sort_keys=True))
    for name, m in result["metrics"].items():
        line = f"{name:<58} {m['value']:>14.4f} {m['unit']}"
        if name.startswith("op_"):
            samples = result["samples"]
            line += f"  ({samples['ops']} op samples over {samples['passes']} passes)"
        print(line)
    if not args.trace:
        print(f"{'fail_ratio':<58} {result['fail_ratio']:>14.4f} 1")
        print("unscaled " + json.dumps(result["raw"]))
        print("speed factors " + json.dumps(result["speed"]))
    else:
        print("self ms per module " + json.dumps(result["module_self_ms"]))
    for problem in result["problems"]:
        print("MISMATCH " + problem)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
