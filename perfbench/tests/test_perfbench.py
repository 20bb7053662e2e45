"""Tests of the benchmark's own code, on tiny inputs (seconds per workload).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import engine  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402
from repro.graph.io import read_edge_list, write_edge_list  # noqa: E402
from repro.serve import ServingIndex  # noqa: E402


def tiny_run(tmp_path, workload: str, trace: bool = False) -> engine.Run:
    return engine.Run(workload, seed=3, seconds=0.0, trace=trace, size="tiny",
                      work_dir=str(tmp_path), log=lambda message: None)


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail(list(range(999)), 99) is None
    assert stats.tail(list(range(1000)), 99) == 989
    assert stats.tail(list(range(39)), 75) is None
    assert stats.tail(list(range(40)), 75) == 29
    assert stats.tail([], 50) is None
    assert stats.tail(list(reversed(range(1000))), 99) == 989


def test_median_of_nothing_is_none():
    assert stats.median([]) is None
    assert stats.median([3.0, 1.0, 2.0]) == 2.0


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
def test_speed_scales_by_the_recent_calibration_samples():
    speed = stats.Speed()
    speed.costs = [stats.REFERENCE_S] * 20 + [2 * stats.REFERENCE_S] * stats.RECENT
    assert speed.factor() == pytest.approx(0.5)
    assert speed.scaled(3.0) == pytest.approx(1.5)
    assert speed.factor(2 * stats.RECENT) == pytest.approx(2 / 3)


def test_a_step_is_scaled_by_samples_on_both_sides():
    speed = stats.Speed()
    out, t0, t1, scaled = speed.step(sum, [1, 2, 3])
    assert out == 6 and t1 >= t0
    assert len(speed.costs) == 2 * stats.RECENT
    assert scaled == pytest.approx((t1 - t0) * speed.factors[-1])


def test_calibration_allocates_nothing_the_collector_tracks():
    import gc

    stats.calibration()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for _ in range(50):
            stats.calibration()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_inputs(tmp_path, workload: str, seed: int) -> inputs.Inputs:
    path = str(tmp_path / f"{workload}.txt")
    write_edge_list(inputs.make_graph(inputs.SPECS["tiny"][workload]), path)
    return inputs.Inputs(inputs.SPECS["tiny"][workload], read_edge_list(path), seed)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_rounds_repeat_per_seed_and_restore_the_graph(tmp_path, workload):
    spec = inputs.SPECS["tiny"][workload]
    first = make_inputs(tmp_path, workload, 5)
    again = make_inputs(tmp_path, workload, 5)
    assert first.round(0) == again.round(0)
    assert first.round(1) == again.round(1)
    live = first.graph.copy()
    start = sorted(live.edges())
    ops = first.round(1)
    assert sum(op[0] == "write" for op in ops) == spec.writes
    for op in ops:
        if op[0] != "write":
            continue
        _, ins, dels = op
        for u, v in dels:
            assert live.has_edge(u, v)
            live.remove_edge(u, v)
        for u, v in ins:
            assert not live.has_edge(u, v)
            live.add_edge(u, v)
        # No write ever splits a component the queries are drawn from.
        for comp in first.comps:
            assert len(inputs.components(live.induced_subgraph(comp)[0])) == 1
    assert sorted(live.edges()) == start


@pytest.mark.parametrize("workload", ["cold-reads", "hot-churn"])
def test_seeds_change_the_reads_not_the_structure(tmp_path, workload):
    one = make_inputs(tmp_path, workload, 1)
    two = make_inputs(tmp_path, workload, 2)
    assert one.round(0) != two.round(0)
    assert one.round(0) != one.round(1)
    assert sorted(one.graph.edges()) == sorted(two.graph.edges())
    assert one.writes == two.writes and one.first_query == two.first_query
    assert one.pool == two.pool


def test_every_fourth_fresh_query_is_local(tmp_path):
    made = make_inputs(tmp_path, "cold-reads", 4)
    drawn = []
    for op in made.round(0):
        if op[0] in ("batch", "gather"):
            drawn.extend(op[1])
        elif op[0] != "write":
            drawn.append(op[1])
    # A local query's first two vertices are adjacent.
    adjacent = [made.graph.has_edge(q[0], q[1]) for q in drawn]
    assert all(adjacent[::inputs.LOCAL_EVERY])
    assert sum(adjacent) < len(drawn) / 2


def test_read_kinds_sit_at_the_same_positions_for_every_seed(tmp_path):
    spec = inputs.SPECS["tiny"]["cold-reads"]
    kinds = inputs.read_kinds(spec)
    assert len(kinds) == spec.reads
    for kind, share in spec.shares.items():
        assert abs(kinds.count(kind) - share * spec.reads) <= 1
    for seed in (1, 2):
        made = make_inputs(tmp_path, "cold-reads", seed)
        assert [op[0] for op in made.round(0) if op[0] != "write"] == kinds


# ----------------------------------------------------------------------
# Counting attempted and failed operations
# ----------------------------------------------------------------------
def test_a_run_attempts_whole_rounds_and_counts_no_failure(tmp_path):
    run = tiny_run(tmp_path, "hot-churn")
    result = run.execute()
    per_round = len(run.inputs.round(0))
    assert result["attempted"] == run.counts["rounds"] * per_round
    assert result["failed"] == 0 and result["correct"] is True
    assert set(result["metrics"]) == set(engine.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_raising_operations_count_as_failed(tmp_path, monkeypatch):
    def broken(self, q, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(ServingIndex, "smcc", broken)
    run = tiny_run(tmp_path, "hot-churn")
    result = run.execute()
    smcc_per_round = sum(op[0] == "smcc" for op in run.inputs.round(0))
    assert result["attempted"] == run.counts["rounds"] * len(run.inputs.round(0))
    assert result["failed"] == run.counts["rounds"] * smcc_per_round
    assert run.errors == {"RuntimeError": result["failed"]}
    # The operations that answered were all correct.
    assert result["correct"] is True


# ----------------------------------------------------------------------
# The check path catches a wrong answer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["sc", "batch", "smcc", "smcc_l"])
def test_a_corrupted_answer_is_caught(tmp_path, monkeypatch, kind):
    normalized = checks.normalized
    corrupted = []

    def corrupt(op_kind, answer):
        value = normalized(op_kind, answer)
        if op_kind != kind or corrupted:
            return value
        corrupted.append(op_kind)
        if kind == "sc":
            return value + 1
        if kind == "batch":
            return [value[0] + 1] + value[1:]
        vertices, k = value
        return vertices[:-1], k

    monkeypatch.setattr(checks, "normalized", corrupt)
    result = tiny_run(tmp_path, "hot-churn").execute()
    assert corrupted == [kind]
    assert result["correct"] is False
    assert result["failed"] == 1


def test_deep_checks_reject_a_component_that_is_too_weak(tmp_path):
    import dataclasses

    import networkx as nx

    spec = inputs.SPECS["tiny"]["hot-churn"]
    run = tiny_run(tmp_path, "hot-churn")
    run.execute()
    sample = next(s for s in run.samples if s.op[0] == "smcc" and s.edges is not None)
    graph = nx.Graph(sample.edges)
    assert checks.has_properties(sample, graph, spec.size_bound) == ""
    assert checks.matches_baseline(sample, spec.size_bound)
    vertices, k = sample.answer
    inflated = dataclasses.replace(sample, answer=(vertices, k + len(vertices)))
    assert checks.has_properties(inflated, graph, spec.size_bound) != ""
    assert not checks.matches_baseline(inflated, spec.size_bound)
    assert checks.run_checks([inflated], spec.size_bound, lambda message: None)


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_every_metric_the_engine_reports():
    bench = _bench_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == engine.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == engine.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric_as_its_last_line(workload, trace):
    bench = _bench_json()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_run_length_defaults_to_the_benchmark_run_seconds():
    import run

    assert run.parse_args(["--workload", "hot-churn", "--seed", "1"]).seconds is None
    assert run.run_seconds() == _bench_json()["run_seconds"]


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-reads", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
