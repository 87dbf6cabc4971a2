"""The three workloads: their ops, the outputs each op keeps, and the checks.

An op is a closed-loop call into multivirt's public API.  Ops call through
module attributes (`mv.constructions.multiplex`, not a name bound at import)
so that the tracer's wrappers see them.  `digest` turns an op's raw outputs
into the JSON-able record that `check` compares with the frozen reference;
both run outside the timed region with tracing off.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

MODULI = tuple(range(2, 10))
LADDER = (("asym3", 2), ("asym3", 3), ("asym3", 4), ("index2", 2), ("index2", 3), ("index2", 4))
WALK_STEPS = 150
WALK_SIZE_CAP = 64
VERIFY_R = tuple(range(2, 13))
SMOKE_WALK_STEPS = 10

WORKLOADS = ("multiplex_ladder", "walk_fuzz", "verify_ladder")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def json_sha256(obj) -> str:
    return sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")))


@dataclass
class Op:
    key: str  # reference key, e.g. "asym3/r4" or "trefoil/steps150/seed7"
    fixture: str  # catalog entry the op starts from
    run: Callable  # (mv, inputs) -> raw outputs
    digest: Callable  # (mv, inputs, outputs) -> JSON-able record


# -- multiplex_ladder -------------------------------------------------------


def _rung(r: int):
    def run(mv, inputs, fixture):
        L, _ = mv.constructions.multiplex(inputs[fixture], r)
        g = mv.planar.genus(L)
        report = mv.invariants.invariant_report(L)
        canon = mv.model.canonical_form(L)
        systems = []
        for mode in (mv.colorings.ColoringMode.FOX, mv.colorings.ColoringMode.VIRTUAL_FOX):
            system = mv.colorings.build_system(L, mode)
            counts = [mv.colorings.count_colorings(system, n) for n in MODULI]
            systems.append((system, counts))
        return L, g, report, canon, systems

    return run


def divisor_chain(diagonal) -> dict:
    """The SNF diagonal without its unit entries, plus how many units there were."""
    return {
        "ones": sum(1 for d in diagonal if d == 1),
        "other": [d for d in diagonal if d != 1],
    }


def _rung_digest(mv, inputs, fixture, outputs) -> dict:
    L, g, report, canon, systems = outputs
    return {
        "passages": L.n_passages(),
        "genus": g,
        "canonical_sha256": sha256(canon),
        "invariants_sha256": json_sha256(report.to_json()),
        "systems": {
            system.mode.value: {
                "rows": len(system.rows),
                "unknowns": system.n_unknowns,
                "divisors": divisor_chain(system.snf().diagonal),
                "counts": counts,
            }
            for system, counts in systems
        },
    }


# -- walk_fuzz ----------------------------------------------------------------


def walk_kinds(mv) -> tuple[str, ...]:
    return tuple(k for k in mv.moves.MOVE_KINDS if k != "FU")


def _walk(steps: int, seed: int):
    def run(mv, inputs, fixture):
        return mv.moves.random_walk(
            inputs[fixture], steps, seed, kinds=walk_kinds(mv), size_cap=WALK_SIZE_CAP
        )

    return run


def walk_invariants(mv, d) -> dict:
    """What every move of the walk preserves: genus 0, J_n for n != 0, lk, lambda."""
    rep = mv.invariants.linking_and_lambda(d)
    out = {"genus": mv.planar.genus(d), "lk": [list(r) for r in rep.lk], "lambda": list(rep.lam)}
    if d.n_components() == 1:
        out["jn"] = {str(n): v for n, v in sorted(mv.invariants.n_writhes(d).entries.items())}
    return out


def _walk_digest(mv, inputs, fixture, outputs) -> dict:
    final, trace = outputs
    return {
        "steps": len(trace),
        "trace_sha256": json_sha256(
            {"trace": [s.to_json() for s in trace], "final": mv.model.serialize_vgc(final)}
        ),
        "invariants": walk_invariants(mv, final),
    }


# -- verify_ladder ----------------------------------------------------------


def _verify(mv, inputs, fixture):
    return mv.verify.verify_theorems(names=[fixture], r_range=VERIFY_R, n_range=MODULI)


def _verify_digest(mv, inputs, fixture, report) -> dict:
    return {
        "ok": report.ok,
        "checks": len(report.results),
        "report_sha256": json_sha256(report.to_json()),
    }


# -- op lists -----------------------------------------------------------------


def _op(key, fixture, run, digest) -> Op:
    return Op(
        key,
        fixture,
        lambda mv, inputs: run(mv, inputs, fixture),
        lambda mv, inputs, out: digest(mv, inputs, fixture, out),
    )


def build_ops(mv, workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The fixed op list of a workload; only walk_fuzz draws from `seed`."""
    if workload == "multiplex_ladder":
        ladder = LADDER[:1] if smoke else LADDER
        return [_op(f"{f}/r{r}", f, _rung(r), _rung_digest) for f, r in ladder]
    if workload == "walk_fuzz":
        if smoke:
            return [_walk_op("trefoil", SMOKE_WALK_STEPS, seed)]
        names = [e.name for e in mv.catalog.CATALOG.values()]
        return [_walk_op(f, WALK_STEPS, s) for f in names for s in (seed, seed + 1)]
    if workload == "verify_ladder":
        names = ("trefoil",) if smoke else mv.catalog.KNOT_NAMES
        return [_op(f, f, _verify, _verify_digest) for f in names]
    raise ValueError(f"unknown workload {workload!r}")


def _walk_op(fixture: str, steps: int, seed: int) -> Op:
    return _op(f"{fixture}/steps{steps}/seed{seed}", fixture, _walk(steps, seed), _walk_digest)


def input_codes(mv, ops: list[Op]) -> dict[str, str]:
    """VGC text of every catalog entry the ops start from; parsing it is set-up."""
    return {op.fixture: mv.catalog.CATALOG[op.fixture].code for op in ops}


# -- checks -----------------------------------------------------------------


def check(mv, workload: str, op: Op, inputs, record: dict, reference: dict) -> list[str]:
    """Mismatches between one op's record and the frozen reference (empty when correct)."""
    if workload == "walk_fuzz":
        # Any seed: the moves preserve the start's invariants.  Frozen seeds:
        # the whole trace is pinned as well.
        problems = []
        want = walk_invariants(mv, inputs[op.fixture])
        if record["invariants"] != want:
            problems.append(f"{op.key}: invariants {record['invariants']} != start {want}")
        frozen = reference["walk_fuzz"].get(op.key)
        if frozen is not None and frozen != record["trace_sha256"]:
            problems.append(f"{op.key}: trace sha256 {record['trace_sha256']} != {frozen}")
        return problems
    frozen = reference[workload].get(op.key)
    if frozen is None:
        return [f"{op.key}: no frozen reference"]
    if workload == "verify_ladder" and not record["ok"]:
        return [f"{op.key}: verify report not ok"]
    if record != frozen:
        return [f"{op.key}: {record} != frozen {frozen}"]
    return []
