"""The benchmark's own test, at smoke size: one r=2 rung, one 10-step walk,
one verified fixture.  Run with `python -m pytest perfbench`."""

from __future__ import annotations

import json

import pytest

import run
import tracer as tracing
import workloads as wl

mv = run.load_multivirt()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    result = run.measure(mv, workload, seed=0, seconds=0, smoke=True)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_one_off_count_fails_the_run(monkeypatch):
    count = mv.colorings.count_colorings

    def off_by_one(system, n):
        return count(system, n) + (n == 5)

    monkeypatch.setattr(mv.colorings, "count_colorings", off_by_one)
    result = run.measure(mv, "multiplex_ladder", seed=0, seconds=0, smoke=True)
    assert not result["correct"]
    assert any("asym3/r2" in p for p in result["problems"])


def test_changed_trace_step_fails_the_run(monkeypatch):
    walk = mv.moves.random_walk

    def one_step_changed(d, steps, seed, **kw):
        final, trace = walk(d, steps, seed, **kw)
        return final, [trace[1]] + trace[1:]

    monkeypatch.setattr(mv.moves, "random_walk", one_step_changed)
    result = run.measure(mv, "walk_fuzz", seed=0, seconds=0, smoke=True)
    assert not result["correct"]
    assert any("trace sha256" in p for p in result["problems"])


def test_nested_spans_give_self_time():
    now = [0.0]
    t = tracing.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def outer(f):
        now[0] += 1.0
        f()
        f()
        now[0] += 4.0

    inner_w = t.wrap("inner", inner)
    outer_w = t.wrap("outer", outer)
    t.enabled = True
    outer_w(inner_w)
    assert t.self_ms() == {"outer": 5000.0, "inner": 4000.0}
    assert [s.parent for s in t.spans] == [None, 0, 0]
    assert t.counters["inner"]["calls"] == 2
    assert t.count_under("inner", "outer") == 2


def test_traced_run_reports_layers_and_removes_wrappers():
    originals = (mv.moves.faces, mv.planar.faces, mv.model.Diagram.validate)
    result = run.traced(mv, "walk_fuzz", seed=0, smoke=True)
    assert result["correct"]
    assert tracing.installed_wrappers() == []
    assert (mv.moves.faces, mv.planar.faces, mv.model.Diagram.validate) == originals
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["moves.random_walk.steps"] == wl.SMOKE_WALK_STEPS
    assert metrics["moves.find_moves.calls"] == wl.SMOKE_WALK_STEPS
    # find_moves calls faces through the name bound in `moves`; those calls count.
    assert metrics["planar.faces.calls"] >= wl.SMOKE_WALK_STEPS
    assert metrics["model.parse_vgc.calls"] >= 1


def test_traced_verify_counts_multiplex_builds_per_fixture_and_r():
    result = run.traced(mv, "verify_ladder", seed=0, smoke=True)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    pairs = len(wl.VERIFY_R)
    # Three checks build the multiplex per r, and the coloring check builds r=2 once more.
    assert metrics["constructions.multiplex.calls"] == 3 * pairs + 1
    assert metrics["constructions.multiplex.per_fixture_r"] == (3 * pairs + 1) / pairs


def test_benchmark_file_lists_every_per_layer_metric():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.per_layer_names(mv)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
