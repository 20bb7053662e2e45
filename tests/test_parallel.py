"""Tests for repro.parallel and the parallel ConnGraph-BS pipeline.

The load-bearing guarantees:

- parallel builds (any job count) produce *identical* ``weights_dict``
  to the serial build, for every KECC engine, on multi-component
  graphs with singleton vertices (property-tested);
- ``jobs=1`` / ``REPRO_JOBS=1`` takes the serial path without spawning
  a pool (regression-tested by making pool creation explode);
- job resolution, round planning and payload encode/decode behave.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.parallel.executor as executor_mod
from repro.bench.gates import check, run_build_bench, write_artifact
from repro.core.queries import SMCCIndex
from repro.errors import ReproError
from repro.graph.generators import power_law_graph, ssca_graph
from repro.graph.graph import Graph
from repro.index.connectivity_graph import (
    build_connectivity_graph,
    conn_graph_sharing,
)
from repro.kecc import get_engine
from repro.parallel import (
    DEFAULT_MIN_PIECE_EDGES,
    JOBS_ENV_VAR,
    PieceExecutor,
    RoundPlan,
    cpu_count,
    encode_piece,
    kecc_piece_worker,
    largest_first,
    localize_edges,
    piece_arrays_from_edges,
    plan_round,
    resolve_jobs,
    resolve_min_piece_edges,
)


# ----------------------------------------------------------------------
# config: job resolution
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "4")
        assert resolve_jobs() == 4

    def test_env_auto_maps_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "auto")
        assert resolve_jobs() == cpu_count()

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ReproError):
            resolve_jobs()

    def test_nonpositive_raises(self):
        with pytest.raises(ReproError):
            resolve_jobs(0)
        with pytest.raises(ReproError):
            resolve_jobs(-2)

    def test_min_piece_edges_default_and_validation(self):
        assert resolve_min_piece_edges() == DEFAULT_MIN_PIECE_EDGES
        assert resolve_min_piece_edges(0) == 0
        with pytest.raises(ReproError):
            resolve_min_piece_edges(-1)

    def test_cpu_count_positive(self):
        assert cpu_count() >= 1


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------
class TestScheduler:
    def test_largest_first_descending_stable(self):
        assert largest_first([5, 9, 5, 1]) == [1, 0, 2, 3]
        assert largest_first([]) == []

    def test_jobs_one_runs_everything_inline(self):
        plan = plan_round([500, 600], min_piece_size=10, jobs=1)
        assert plan == RoundPlan(pooled=[], inline=[1, 0])
        assert not plan.uses_pool

    def test_single_piece_runs_inline(self):
        plan = plan_round([10_000], min_piece_size=10, jobs=4)
        assert plan.pooled == []
        assert plan.inline == [0]

    def test_threshold_splits_pooled_and_inline(self):
        plan = plan_round([50, 700, 3, 900], min_piece_size=100, jobs=4)
        assert plan.pooled == [3, 1]  # descending size
        assert plan.inline == [0, 2]
        assert plan.uses_pool

    def test_lone_big_piece_without_tail_runs_inline(self):
        plan = plan_round([900, 3], min_piece_size=100, jobs=4)
        # one pooled candidate + an inline tail: pool it (overlap exists)
        assert plan.pooled == [0]
        plan = plan_round([900, 900], min_piece_size=10_000, jobs=4)
        assert plan.pooled == []  # nothing clears the threshold
        assert plan.inline == [0, 1]


# ----------------------------------------------------------------------
# worker payloads
# ----------------------------------------------------------------------
class TestWorker:
    def test_localize_edges_roundtrip(self):
        vertices = np.array([40, 7, 19, 3], dtype=np.int64)
        us = np.array([7, 3, 40], dtype=np.int64)
        vs = np.array([19, 40, 19], dtype=np.int64)
        lu, lv = localize_edges(vertices, us, vs)
        assert vertices[lu].tolist() == us.tolist()
        assert vertices[lv].tolist() == vs.tolist()

    def test_piece_arrays_canonicalize_endpoints(self):
        vertices, us, vs = piece_arrays_from_edges([5, 2, 9], [(9, 2), (2, 5)])
        assert us.tolist() == [2, 2]
        assert vs.tolist() == [9, 5]
        assert vertices.dtype == np.int64

    def test_worker_matches_direct_engine_call(self):
        # two triangles joined by a bridge: 2-eccs are the triangles
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        vertices, us, vs = piece_arrays_from_edges(list(range(6)), edges)
        payload = encode_piece(vertices, us, vs, 2, "exact", {})
        assert payload.num_vertices == 6
        assert payload.num_edges == 7
        owner = kecc_piece_worker(payload)
        groups = get_engine("exact")(6, edges, 2)
        expected = {}
        for gid, group in enumerate(groups):
            for v in group:
                expected[v] = gid
        # same partition up to group relabeling
        assert len(set(owner.tolist())) == len(groups)
        for u, v in edges:
            assert (owner[u] == owner[v]) == (expected[u] == expected[v])


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
class TestPieceExecutor:
    def test_jobs_one_never_spawns(self):
        ex = PieceExecutor(jobs=1)
        assert not ex.pool_started
        with pytest.raises(RuntimeError):
            ex.submit(int, "3")
        assert not ex.pool_started
        ex.shutdown()  # idempotent no-op

    def test_pool_is_lazy_and_context_managed(self):
        with PieceExecutor(jobs=2) as ex:
            assert not ex.pool_started  # nothing submitted yet
            future = ex.submit(int, "7")
            assert future.result() == 7
            assert ex.pool_started
        assert not ex.pool_started  # shutdown cleared it
        ex.shutdown()  # second shutdown is a no-op


# ----------------------------------------------------------------------
# parallel == serial (the core guarantee)
# ----------------------------------------------------------------------
def _multi_component_graph(seed: int, singletons: int = 2) -> Graph:
    """Random graph with >= 2 components and isolated vertices."""
    rng = random.Random(seed)
    parts = []
    for _ in range(rng.randint(2, 3)):
        n = rng.randint(3, 9)
        comp = Graph(n)
        vertices = list(range(n))
        rng.shuffle(vertices)
        for i in range(1, n):
            comp.add_edge(vertices[i], vertices[rng.randrange(i)])
        extra = rng.randint(0, 2 * n)
        for _ in range(extra):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not comp.has_edge(u, v):
                comp.add_edge(u, v)
        parts.append(comp)
    total = sum(p.num_vertices for p in parts) + singletons
    graph = Graph(total)
    offset = 0
    for comp in parts:
        for u, v in comp.edges():
            graph.add_edge(offset + u, offset + v)
        offset += comp.num_vertices
    return graph


ENGINES = [("exact", {}), ("random", {"seed": 7}), ("cut", {})]


@pytest.mark.parametrize("engine,kwargs", ENGINES, ids=[e for e, _ in ENGINES])
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**20))
def test_parallel_serial_identical_weights(engine, kwargs, seed):
    """jobs=2 and jobs=4 reproduce the serial sc map exactly.

    min_piece_edges=0 forces even tiny pieces through the pool, so this
    exercises real worker round-trips, not the inline fallback.
    """
    graph = _multi_component_graph(seed)
    serial = conn_graph_sharing(graph, engine=engine, jobs=1, **kwargs)
    expected = serial.weights_dict()
    for jobs in (2, 4):
        parallel = conn_graph_sharing(
            graph, engine=engine, jobs=jobs, min_piece_edges=0, **kwargs
        )
        assert parallel.weights_dict() == expected
        parallel.validate()


@pytest.mark.parametrize(
    "maker,seed",
    [
        (lambda s: ssca_graph(220, seed=s), 3),
        (lambda s: power_law_graph(220, 700, seed=s), 4),
    ],
    ids=["ssca", "power_law"],
)
def test_parallel_serial_identical_on_generators(maker, seed):
    graph = maker(seed)
    serial = conn_graph_sharing(graph, jobs=1).weights_dict()
    parallel = conn_graph_sharing(graph, jobs=2, min_piece_edges=0).weights_dict()
    assert parallel == serial


def test_build_connectivity_graph_forwards_jobs():
    graph = _multi_component_graph(11)
    serial = build_connectivity_graph(graph, jobs=1).weights_dict()
    parallel = build_connectivity_graph(graph, jobs=2).weights_dict()
    assert parallel == serial


def test_index_build_jobs_keyword():
    graph = ssca_graph(150, seed=5)
    i1 = SMCCIndex.build(graph, jobs=1)
    i2 = SMCCIndex.build(graph, jobs=2)
    assert i1.conn_graph.weights_dict() == i2.conn_graph.weights_dict()
    q = [0, 1, 2]
    assert i1.steiner_connectivity(q) == i2.steiner_connectivity(q)


# ----------------------------------------------------------------------
# jobs=1 regression: the serial path must not touch the pool machinery
# ----------------------------------------------------------------------
class _ExplodingPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("ProcessPoolExecutor spawned on the jobs=1 path")


class TestSerialPathNeverSpawns:
    @pytest.fixture
    def no_pools(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _ExplodingPool)

    def test_env_jobs_one_takes_serial_path(self, no_pools, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "1")
        graph = _multi_component_graph(21)
        conn = conn_graph_sharing(graph)  # jobs resolved from env
        conn.validate()

    def test_unset_env_defaults_to_serial(self, no_pools, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        graph = _multi_component_graph(22)
        build_connectivity_graph(graph).validate()

    def test_explicit_jobs_one_overrides_env(self, no_pools, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "4")
        graph = _multi_component_graph(23)
        conn_graph_sharing(graph, jobs=1).validate()

    def test_small_pieces_stay_inline_even_with_jobs(self, no_pools):
        # every piece is far below the inline threshold: the lazy pool
        # must never be created even though jobs=2 was requested
        graph = _multi_component_graph(24)
        conn_graph_sharing(graph, jobs=2).validate()


# ----------------------------------------------------------------------
# observability + bench integration
# ----------------------------------------------------------------------
def test_parallel_counters_recorded():
    from repro.obs import runtime

    graph = _multi_component_graph(31)
    previous = runtime.REGISTRY
    registry = runtime.enable()
    try:
        conn_graph_sharing(graph, jobs=2, min_piece_edges=0)
    finally:
        # Restore rather than disable(): under REPRO_OBS=1 the suite
        # runs with a process registry that must survive this test.
        runtime.REGISTRY = previous
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert counters.get("conn_graph.parallel.rounds", 0) >= 1
    assert (
        counters.get("conn_graph.parallel.pieces_pooled", 0)
        + counters.get("conn_graph.parallel.pieces_inline", 0)
        > 0
    )
    assert snapshot["gauges"]["conn_graph.parallel.jobs"] == 2


def test_build_bench_record_shape(tmp_path):
    result = run_build_bench(n=400)
    assert result["identical_weights"] is True
    assert result["jobs"] >= 2
    assert result["speedup"] > 0
    assert result["cpu_count"] == cpu_count()
    out = tmp_path / "fresh_build.json"
    write_artifact(str(out), result)
    import json

    fresh = json.loads(out.read_text())
    assert fresh == result
    # Against itself the artifact fails at most the 2-CPU speedup row:
    # a 400-vertex build is too small for the pool to pay off.
    failed = [o.name for o in check("build", fresh, fresh) if o.status == "FAIL"]
    assert set(failed) <= {"at_least_if_2_cpus /speedup"}
