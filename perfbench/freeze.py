"""Regenerate `reference.json`, the frozen outputs the benchmark checks against.

    python3 perfbench/freeze.py

Run it from a source checkout only when the outputs are meant to change; the
file is committed.  Each record is confirmed by an oracle other than the code
under test before it is written:

  multiplex_ladder  every system's divisor chain is recomputed with sympy's
                    Smith normal form, and every count mod n is recomputed
                    from sympy's chain as n^(unknowns - rank) * prod gcd(d, n).
  walk_fuzz         the final diagram of every walk has genus 0 and the
                    start's J_n (n != 0), lk and lambda; trace digests are
                    frozen for walk seeds 0..WALK_SEEDS.
  verify_ladder     every report is ok.

sympy is needed here only, not by the benchmark run or by multivirt.
"""

from __future__ import annotations

import json
import sys
from math import gcd, prod

import run
import workloads as wl

WALK_SEEDS = 21  # frozen trace digests cover workload seeds 0..WALK_SEEDS - 1


def sympy_divisors(system) -> list[int]:
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    rows, cols = len(system.rows), system.n_unknowns
    if rows == 0 or cols == 0:
        return []
    snf = smith_normal_form(Matrix(system.matrix()), domain=ZZ)
    return [abs(int(snf[i, i])) for i in range(min(rows, cols))]


def confirm_rung(key: str, record: dict, systems) -> None:
    for system, _ in systems:
        rec = record["systems"][system.mode.value]
        divisors = sympy_divisors(system)
        if sorted(divisors) != sorted(system.snf().diagonal):
            raise SystemExit(f"{key} {system.mode.value}: sympy divisors disagree")
        nonzero = [d for d in divisors if d]
        counts = [
            n ** (system.n_unknowns - len(nonzero)) * prod(gcd(d, n) for d in nonzero)
            for n in wl.MODULI
        ]
        if counts != rec["counts"]:
            raise SystemExit(f"{key} {system.mode.value}: counts {rec['counts']} != {counts}")
        print(f"  {key} {system.mode.value}: {rec['divisors']} confirmed by sympy", flush=True)


def main() -> int:
    mv = run.load_multivirt()
    ref: dict = {"multiplex_ladder": {}, "walk_fuzz": {}, "verify_ladder": {}}

    for op in wl.build_ops(mv, "multiplex_ladder", 0):
        inputs = run.parse_inputs(mv, wl.input_codes(mv, [op]))
        out = op.run(mv, inputs)
        record = op.digest(mv, inputs, out)
        if record["genus"] != 0:
            raise SystemExit(f"{op.key}: multiplex of a planar knot has genus {record['genus']}")
        _, _, _, _, systems = out
        confirm_rung(op.key, record, systems)
        ref["multiplex_ladder"][op.key] = record

    for seed in range(WALK_SEEDS):
        ops = [o for o in wl.build_ops(mv, "walk_fuzz", seed) if o.key.endswith(f"/seed{seed}")]
        ops += wl.build_ops(mv, "walk_fuzz", seed, smoke=True)
        for op in ops:
            inputs = run.parse_inputs(mv, wl.input_codes(mv, [op]))
            record = op.digest(mv, inputs, op.run(mv, inputs))
            problems = wl.check(mv, "walk_fuzz", op, inputs, record, {"walk_fuzz": {}})
            if problems:
                raise SystemExit("; ".join(problems))
            ref["walk_fuzz"][op.key] = record["trace_sha256"]
        print(f"  walk seed {seed}: {len(ops)} traces frozen", flush=True)

    for op in wl.build_ops(mv, "verify_ladder", 0):
        record = op.digest(mv, {}, op.run(mv, {}))
        if not record["ok"]:
            raise SystemExit(f"{op.key}: verify report not ok")
        ref["verify_ladder"][op.key] = record
        print(f"  verify {op.key}: {record['checks']} checks ok", flush=True)

    with open(run.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
