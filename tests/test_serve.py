"""Unit tests for repro.serve: snapshots, cache, planner, admission."""

from __future__ import annotations

import pytest
from conftest import CYCLE_CHORD, chain_with_cycle_graph, random_connected_graph

from repro.core.queries import SMCCIndex
from repro.errors import (
    DeadlineExceededError,
    DisconnectedQueryError,
    EmptyQueryError,
    VertexNotFoundError,
)
from repro.graph.generators import (
    clique_chain_graph,
    complete_graph,
    paper_example_graph,
)
from repro.obs import runtime as obs_runtime
from repro.serve import (
    PublishReport,
    QueryCache,
    ServeConfig,
    ServeWorkloadSpec,
    ServingIndex,
    UpdateReport,
    canonical_query,
    capture_snapshot,
    named_buffers,
    plan_batch,
    run_serve_workload,
    shared_fraction,
)
from repro.serve.workload import reader_queries


# ----------------------------------------------------------------------
# IndexSnapshot
# ----------------------------------------------------------------------
class TestIndexSnapshot:
    def test_snapshot_matches_index(self, paper_index):
        snap = capture_snapshot(paper_index.conn_graph, paper_index.mst, 0)
        assert snap.generation == 0
        assert snap.num_vertices == paper_index.num_vertices
        assert snap.num_edges == paper_index.num_edges
        for q in ([0, 3, 4], [5, 6], [0], [10, 11, 12]):
            assert snap.steiner_connectivity(q) == \
                paper_index.steiner_connectivity(q)
        result = snap.smcc([0, 3, 4])
        expected = paper_index.smcc([0, 3, 4])
        assert sorted(result.vertices) == sorted(expected.vertices)
        assert result.connectivity == expected.connectivity

    def test_smcc_l_matches_index(self, paper_index):
        snap = capture_snapshot(paper_index.conn_graph, paper_index.mst, 0)
        got = snap.smcc_l([0, 3], size_bound=6)
        expected = paper_index.smcc_l([0, 3], size_bound=6)
        assert sorted(got.vertices) == sorted(expected.vertices)
        assert got.connectivity == expected.connectivity

    def test_snapshot_frozen_across_live_mutation(self, paper_graph):
        index = SMCCIndex.build(paper_graph)
        snap = capture_snapshot(index.conn_graph, index.mst, 0)
        before = snap.steiner_connectivity([0, 3, 4])
        edges_before = snap.edges
        index.insert_edge(0, 12)
        index.delete_edge(0, 1)
        # The snapshot's MST* (built from copies) must not see any of it.
        assert snap.steiner_connectivity([0, 3, 4]) == before
        assert snap.edges == edges_before

    def test_snapshot_errors_match_index(self, paper_index):
        snap = capture_snapshot(paper_index.conn_graph, paper_index.mst, 0)
        with pytest.raises(EmptyQueryError):
            snap.steiner_connectivity([])
        with pytest.raises(VertexNotFoundError):
            snap.steiner_connectivity([0, 999])


# ----------------------------------------------------------------------
# QueryCache
# ----------------------------------------------------------------------
class TestQueryCache:
    def test_canonical_query_is_order_and_dup_insensitive(self):
        assert canonical_query("sc", (3, 1, 2)) == canonical_query("sc", (2, 3, 1, 3))
        assert canonical_query("sc", (1, 2)) != canonical_query("smcc", (1, 2))
        assert canonical_query("smcc_l", (1, 2), 5) != \
            canonical_query("smcc_l", (1, 2), 6)

    def test_hit_requires_matching_generation(self):
        cache = QueryCache(capacity=8, generation=3)
        key = canonical_query("sc", (1, 2))
        cache.put(key, 7, generation=3, touch=frozenset({1, 2}))
        assert cache.get(key, 3).value == 7
        assert cache.get(key, 4) is None  # stale generation = miss
        assert cache.get(key, 3).value == 7  # mismatch did not evict
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        k1, k2, k3 = (canonical_query("sc", (i,)) for i in (1, 2, 3))
        cache.put(k1, 1, 0)
        cache.put(k2, 2, 0)
        assert cache.get(k1, 0) is not None  # refresh k1
        cache.put(k3, 3, 0)  # evicts k2 (least recently used)
        assert cache.get(k2, 0) is None
        assert cache.get(k1, 0) is not None
        assert cache.get(k3, 0) is not None
        assert cache.stats()["evictions"] == 1

    def test_advance_region_carries_disjoint_entries(self):
        cache = QueryCache(capacity=8)
        hot = canonical_query("sc", (1, 2))
        cold = canonical_query("sc", (8, 9))
        cache.put(hot, 5, 0, touch=frozenset({1, 2, 3}))
        cache.put(cold, 2, 0, touch=frozenset({8, 9}))
        dropped = cache.advance(1, affected=frozenset({3, 4}))
        assert dropped == 1
        assert cache.get(hot, 1) is None       # region intersected
        assert cache.get(cold, 1).value == 2   # carried over
        assert cache.stats()["carried_over"] == 1

    def test_advance_wholesale_drops_everything(self):
        cache = QueryCache(capacity=8)
        cache.put(canonical_query("sc", (1,)), 1, 0, touch=frozenset({1}))
        cache.put(canonical_query("sc", (2,)), 2, 0, touch=frozenset({2}))
        assert cache.advance(1, affected=None) == 2
        assert len(cache) == 0

    def test_empty_touch_set_never_carries(self):
        cache = QueryCache(capacity=8)
        cache.put(canonical_query("sc", (1,)), 1, 0)  # no touch info
        cache.advance(1, affected=frozenset({99}))
        assert len(cache) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=0)

    def test_stale_put_after_advance_is_discarded(self):
        # A reader computes against generation 0, but its put lands
        # after the publish to generation 1 already invalidated the
        # cache.  The insert was never checked against that publish's
        # affected set, so it must be dropped — a later advance with a
        # disjoint affected set must not resurrect it as current.
        cache = QueryCache(capacity=8)
        key = canonical_query("sc", (1, 2))
        cache.advance(1, affected=frozenset({1}))   # publish gen 1
        cache.put(key, 7, generation=0, touch=frozenset({1, 2}))  # late
        assert cache.stats()["stale_puts"] == 1
        assert len(cache) == 0
        cache.advance(2, affected=frozenset({99}))  # disjoint publish
        assert cache.get(key, 2) is None            # never re-stamped

    def test_carry_only_from_immediately_preceding_generation(self):
        cache = QueryCache(capacity=8)
        key = canonical_query("sc", (8, 9))
        cache.put(key, 2, 0, touch=frozenset({8, 9}))
        cache.advance(1, affected=frozenset({3}))   # gen 0 -> 1: carries
        assert cache.get(key, 1).value == 2
        assert cache.stats()["generation"] == 1

    def test_out_of_order_advance_is_rejected(self):
        # publish() and advance() are not one atomic step, so advance
        # notifications can arrive reordered; an older one must not
        # touch entries already validated at a newer generation.
        cache = QueryCache(capacity=8)
        key = canonical_query("sc", (8, 9))
        cache.advance(2, affected=frozenset({1}))   # gen 2 arrives first
        cache.put(key, 2, 2, touch=frozenset({8, 9}))
        assert cache.advance(1, affected=frozenset({8})) == 0  # late gen 1
        assert cache.stats()["generation"] == 2
        assert cache.get(key, 2).value == 2         # untouched

    def test_generation_gap_invalidates_wholesale(self):
        # If the predecessor's advance never arrived, entries were not
        # validated against it — only wholesale is safe.
        cache = QueryCache(capacity=8)
        key = canonical_query("sc", (8, 9))
        cache.put(key, 2, 0, touch=frozenset({8, 9}))
        dropped = cache.advance(2, affected=frozenset({99}))  # skips gen 1
        assert dropped == 1
        assert cache.get(key, 2) is None
        assert cache.stats()["generation"] == 2


class TestQueryCacheIntervals:
    """Touch sets stored as ``(leaf_position, start, end)`` intervals."""

    # vertex v sits at position POSITIONS[v]: leaf order 9 8 ... 1 0
    POSITIONS = list(range(9, -1, -1))

    def _advance_one(self, start, end, affected):
        cache = QueryCache(capacity=8)
        key = canonical_query("sc", (1, 2))
        cache.put(key, 3, 0, touch=(self.POSITIONS, start, end))
        cache.advance(1, affected=frozenset(affected))
        return cache.get(key, 1) is not None

    @pytest.mark.parametrize("positions", [(3,), (5,), (0, 4, 9)])
    def test_drops_when_affected_lands_inside(self, positions):
        # 3 = start and 5 = end - 1 of [3, 6)
        vertices = {self.POSITIONS.index(p) for p in positions}
        assert not self._advance_one(3, 6, vertices)

    @pytest.mark.parametrize("positions", [(2,), (6,), (2, 6)])
    def test_carries_when_affected_falls_just_outside(self, positions):
        vertices = {self.POSITIONS.index(p) for p in positions}
        assert self._advance_one(3, 6, vertices)

    def test_vertices_past_the_array_are_skipped(self):
        # A vertex added after the answering generation has no position
        # there, so it cannot lie in the interval.
        assert self._advance_one(0, 10, {10, 25})

    def test_mixed_interval_and_frozenset_entries(self):
        cache = QueryCache(capacity=8)
        keys = [canonical_query("sc", (i, i + 1)) for i in range(4)]
        cache.put(keys[0], 1, 0, touch=(self.POSITIONS, 0, 2))  # {9, 8}
        cache.put(keys[1], 1, 0, touch=(self.POSITIONS, 5, 7))  # {4, 3}
        cache.put(keys[2], 1, 0, touch=frozenset({0, 1}))
        cache.put(keys[3], 1, 0, touch=frozenset({5, 6}))
        assert cache.advance(1, affected=frozenset({8, 1})) == 2
        assert [cache.get(k, 1) is not None for k in keys] == [
            False, True, False, True
        ]
        assert cache.stats()["carried_over"] == 2

    def test_two_leaf_position_arrays_live_at_once(self):
        # The same interval names different vertices in two generations'
        # leaf orders; each entry is tested against its own array.
        identity = list(range(10))
        cache = QueryCache(capacity=8)
        old = canonical_query("sc", (0, 1))
        new = canonical_query("sc", (8, 9))
        cache.put(old, 2, 0, touch=(identity, 0, 3))       # {0, 1, 2}
        cache.advance(1, affected=frozenset({5}))          # carries `old`
        cache.put(new, 2, 1, touch=(self.POSITIONS, 0, 3))  # {9, 8, 7}
        assert cache.advance(2, affected=frozenset({8})) == 1
        assert cache.get(old, 2) is not None
        assert cache.get(new, 2) is None
        assert cache.advance(3, affected=frozenset({2})) == 1
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Batch planner
# ----------------------------------------------------------------------
class TestBatchPlanner:
    def test_dedupes_shared_probes(self):
        plan = plan_batch([[0, 3, 4], [4, 3, 0], [0, 3], [5]])
        # Canonical anchor is 0 for the first three; probes (0,3), (0,4).
        assert sorted(plan.probes) == [(0, 3), (0, 4)]
        assert plan.singletons == [5]
        assert plan.probes_requested == 5  # 2 + 2 + 1 naive probes
        assert plan.probes_saved == 3

    def test_batch_matches_per_query_answers(self, paper_index):
        serving = ServingIndex(paper_index)
        queries = [[0, 3, 4], [1, 2], [5, 6, 7], [0], [10, 11, 12], [4, 3, 0]]
        got = serving.sc_batch(queries)
        expected = [paper_index.steiner_connectivity(q) for q in queries]
        assert got == expected

    def test_disconnected_queries_answer_zero(self):
        # Two cliques, bridge removed: cross-component queries answer 0.
        graph = clique_chain_graph([4, 4])
        graph.remove_edge(0, 4)  # the bridge joins the clique anchors
        serving = ServingIndex.build(graph)
        answers = serving.sc_batch([[0, 5], [0, 1], [4, 5]])
        assert answers[0] == 0
        assert answers[1] == 3 and answers[2] == 3

    def test_empty_query_raises(self):
        with pytest.raises(EmptyQueryError):
            plan_batch([[1, 2], []])

    def test_unknown_vertex_raises(self, paper_index):
        serving = ServingIndex(paper_index)
        with pytest.raises(VertexNotFoundError):
            serving.sc_batch([[0, 999]])
        with pytest.raises(VertexNotFoundError):
            serving.sc_batch([[999]])
        with pytest.raises(EmptyQueryError):
            serving.sc_batch([[1, 2], []])


# ----------------------------------------------------------------------
# ServingIndex facade
# ----------------------------------------------------------------------
class TestServingIndex:
    def test_serves_and_caches(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        assert serving.sc([0, 3, 4]) == 4
        assert serving.sc([4, 3, 0]) == 4  # canonical hit
        stats = serving.cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_inflight_counter_survives_concurrent_admission(self, paper_graph):
        # _admit/_release run unsynchronized from every reader thread;
        # lost increments would make the gauge (and stats) drift.
        import threading

        serving = ServingIndex.build(paper_graph)
        n_threads, rounds = 8, 400
        barrier = threading.Barrier(n_threads)

        def hammer():
            barrier.wait()
            for _ in range(rounds):
                serving._admit("sc", None)
                serving._release()

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert serving.stats()["inflight"] == 0

    def test_update_then_publish_changes_answers(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        fresh = SMCCIndex.build(paper_example_graph())
        q = [0, 3, 4]
        before = serving.sc(q)
        serving.apply_updates(inserts=[(0, 12)])
        # Unpublished: the served answer is the old generation's.
        assert serving.sc(q) == before
        assert serving.staleness() == 1
        serving.publish()
        fresh.insert_edge(0, 12)
        assert serving.sc(q) == fresh.steiner_connectivity(q)
        assert serving.generation == 1
        assert serving.staleness() == 0

    def test_old_snapshot_survives_publish(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        old = serving.snapshot()
        before = old.steiner_connectivity([0, 3, 4])
        serving.apply_updates(inserts=[(0, 12)])
        serving.publish()
        assert serving.snapshot().generation == 1
        assert old.generation == 0
        assert old.steiner_connectivity([0, 3, 4]) == before

    def test_cached_equals_uncached_across_generations(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        queries = [[0, 3, 4], [5, 6], [1, 2, 3], [8, 9], [10, 11, 12]]
        for _ in range(2):  # second pass hits the cache
            for q in queries:
                assert serving.sc(q) == \
                    serving.snapshot().steiner_connectivity(q)
        serving.apply_updates(deletes=[(0, 1)])
        serving.publish()
        for q in queries:
            assert serving.sc(q) == serving.snapshot().steiner_connectivity(q)

    def test_smcc_and_smcc_l_cached_results_consistent(self, chain_graph):
        serving = ServingIndex.build(chain_graph)
        index = SMCCIndex.build(clique_chain_graph([5, 4, 6]))
        a1 = serving.smcc([0, 1])
        a2 = serving.smcc([1, 0])  # cache hit returns the same object
        assert a1 is a2
        expected = index.smcc([0, 1])
        assert sorted(a1.vertices) == sorted(expected.vertices)
        b1 = serving.smcc_l([0], size_bound=6)
        b2 = serving.smcc_l([0], size_bound=6)
        assert b1 is b2
        expected_l = index.smcc_l([0], size_bound=6)
        assert b1.connectivity == expected_l.connectivity

    def test_batch_equals_per_query(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        queries = [[0, 3, 4], [1, 2], [5, 6, 7], [0, 3, 4], [12, 11]]
        batched = serving.sc_batch(queries)
        assert batched == [serving.sc(q) for q in queries]

    def test_deadline_already_expired_raises(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        with pytest.raises(DeadlineExceededError):
            serving.sc([0, 3, 4], timeout=-1.0)
        # A generous deadline is a no-op.
        assert serving.sc([0, 3, 4], timeout=60.0) == 4

    def test_default_timeout_from_config(self, paper_graph):
        serving = ServingIndex.build(
            paper_graph, config=ServeConfig(default_timeout=-1.0)
        )
        with pytest.raises(DeadlineExceededError):
            serving.sc([0, 3, 4])
        assert serving.sc([0, 3, 4], timeout=60.0) == 4  # per-query override

    def test_stale_index_degrades_to_direct_engine(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        serving.apply_updates(inserts=[(0, 12)])  # not published: snapshot is stale
        fresh = SMCCIndex.build(paper_example_graph())
        fresh.insert_edge(0, 12)
        q = [0, 11, 12]
        stale_answer = serving.sc(q)
        fresh_answer = serving.sc(q, max_staleness=0)
        assert fresh_answer == fresh.steiner_connectivity(q)
        assert stale_answer == serving.snapshot().steiner_connectivity(q)
        assert serving.stats()["degraded_queries"] == 1
        # Within the staleness budget the snapshot is served.
        assert serving.sc(q, max_staleness=5) == stale_answer

    def test_degraded_smcc_and_smcc_l(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        serving.apply_updates(deletes=[(0, 1)])
        fresh = SMCCIndex.build(paper_example_graph())
        fresh.delete_edge(0, 1)
        got = serving.smcc([0, 3, 4], max_staleness=0)
        expected = fresh.smcc([0, 3, 4])
        assert sorted(got.vertices) == sorted(expected.vertices)
        assert got.connectivity == expected.connectivity
        got_l = serving.smcc_l([0, 3], size_bound=4, max_staleness=0)
        expected_l = fresh.smcc_l([0, 3], size_bound=4)
        assert got_l.connectivity == expected_l.connectivity

    def test_degraded_batch_answers_zero_for_disconnected(self):
        graph = clique_chain_graph([4, 4])
        serving = ServingIndex.build(graph)
        serving.apply_updates(deletes=[(0, 4)])  # cut the bridge: two components, stale
        answers = serving.sc_batch([[0, 1], [0, 5]], max_staleness=0)
        assert answers[0] == 3 and answers[1] == 0

    def test_auto_publish(self, paper_graph):
        serving = ServingIndex.build(
            paper_graph, config=ServeConfig(auto_publish_every=2)
        )
        serving.apply_updates(inserts=[(0, 12)])
        assert serving.generation == 0
        serving.apply_updates(deletes=[(0, 12)])
        assert serving.generation == 1  # second update triggered publish
        assert serving.staleness() == 0

    def test_publish_without_updates_is_noop(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        serving.sc([0, 3, 4])
        snap = serving.publish()
        assert snap.generation == 0
        assert serving.cache.stats()["invalidations"] == 0

    def test_wholesale_invalidation_mode(self, paper_graph):
        serving = ServingIndex.build(
            paper_graph, config=ServeConfig(invalidation="wholesale")
        )
        serving.sc([10, 11, 12])
        serving.apply_updates(inserts=[(0, 12)])
        serving.publish()
        assert len(serving.cache) == 0  # everything dropped

    def test_region_invalidation_carries_far_entries(self):
        # K5 - K4 - K6 chain: churn inside the K6 must not evict K5 answers.
        # (The K6 region is ~40% of the graph, so lift the fraction limit.)
        serving = ServingIndex.build(
            clique_chain_graph([5, 4, 6]),
            config=ServeConfig(region_fraction_limit=0.9),
        )
        far = [0, 1]        # inside the K5
        near = [9, 10]      # inside the K6 (vertices 9..14)
        serving.sc(far)
        serving.sc(near)
        serving.apply_updates(deletes=[(9, 10)])
        serving.publish()
        stats = serving.cache.stats()
        assert stats["carried_over"] >= 1
        # The carried entry still answers correctly (and counts a hit).
        hits_before = stats["hits"]
        assert serving.sc(far) == serving.snapshot().steiner_connectivity(far)
        assert serving.cache.stats()["hits"] == hits_before + 1

    def test_publish_after_vertex_growth(self):
        # Inserting an edge to a new vertex id grows the graph: the
        # publish's affected set then holds a vertex past the end of the
        # cached entries' leaf_position array.
        serving = ServingIndex.build(complete_graph(5))
        assert serving.sc([0, 1]) == 4
        serving.smcc([2, 3])
        serving.smcc_l([3, 4], size_bound=2)
        serving.apply_updates(inserts=[(0, 9)])
        serving.publish()
        assert serving.sc([0, 1]) == 4
        assert serving.sc([0, 9]) == 1
        assert sorted(serving.smcc([2, 3]).vertices) == [0, 1, 2, 3, 4]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(invalidation="sometimes")

    def test_query_errors_propagate(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        with pytest.raises(EmptyQueryError):
            serving.sc([])
        with pytest.raises(VertexNotFoundError):
            serving.sc([0, 999])

    def test_disconnected_raises_per_query_but_not_batch(self):
        graph = clique_chain_graph([4, 4])
        graph.remove_edge(0, 4)
        serving = ServingIndex.build(graph)
        with pytest.raises(DisconnectedQueryError):
            serving.sc([0, 5])
        assert serving.sc_batch([[0, 5]]) == [0]


# ----------------------------------------------------------------------
# Writer API: apply_updates / publish reports and the retired shims
# ----------------------------------------------------------------------
class TestWriterApi:
    def test_apply_updates_reports_applied_and_noops(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        report = serving.apply_updates(
            inserts=[(0, 12), (0, 1), (3, 3)],  # (0,1) present, (3,3) loop
            deletes=[(5, 6), (0, 12)],  # (0,12) absent at delete time
        )
        assert isinstance(report, UpdateReport)
        # Deletes run first: (0,12) is still absent, so it no-ops and
        # the later insert applies.
        assert report.num_applied == 2
        assert set(report.applied) == {("insert", 0, 12), ("delete", 5, 6)}
        assert report.num_noops == 3
        assert {0, 5, 6, 12} <= set(report.affected)

    def test_publish_report_modes_and_generation(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        noop = serving.publish()
        assert isinstance(noop, PublishReport)
        assert noop.mode == "noop"
        assert noop.shared_fraction == 1.0
        serving.apply_updates(inserts=[(0, 12)])
        report = serving.publish()
        assert report.mode in ("delta", "full")
        assert report.generation == 1
        assert report.snapshot.generation == 1
        assert 0.0 <= report.shared_fraction <= 1.0

    def test_insert_delete_edge_shims_removed(self, paper_graph):
        # The one-release grace is over: apply_updates is the writer API.
        serving = ServingIndex.build(paper_graph)
        for target in (serving, serving.publisher):
            assert not hasattr(target, "insert_edge")
            assert not hasattr(target, "delete_edge")

    def test_publish_report_no_longer_forwards_snapshot_attrs(
        self, paper_graph
    ):
        serving = ServingIndex.build(paper_graph)
        serving.apply_updates(inserts=[(0, 12)])
        report = serving.publish()
        with pytest.raises(AttributeError):
            report.edges  # noqa: B018 - read it through report.snapshot
        assert report.snapshot.edges

    def test_serving_index_positional_config_rejected(self, paper_graph):
        index = SMCCIndex.build(paper_graph)
        config = ServeConfig(cache_capacity=16)
        with pytest.raises(TypeError):
            ServingIndex(index, config)
        assert ServingIndex(index, config=config).config.cache_capacity == 16

    def test_query_cache_positional_args_rejected(self):
        with pytest.raises(TypeError):
            QueryCache(8)
        with pytest.raises(TypeError):
            QueryCache(8, 3)
        cache = QueryCache(capacity=8, generation=3)
        assert (cache.capacity, cache.generation) == (8, 3)

    def test_delta_publish_config_deprecated_and_ignored(self):
        with pytest.warns(DeprecationWarning, match="delta_publish"):
            config = ServeConfig(delta_publish=False)
        # Ignored: an unchanged spanning forest still reuses the star.
        serving = ServingIndex.build(chain_with_cycle_graph(), config=config)
        serving.apply_updates(inserts=[CYCLE_CHORD])
        assert serving.publish().mode == "delta"

    def test_forest_change_captures_fully(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        before = serving.snapshot()
        serving.apply_updates(inserts=[(0, 12)])
        report = serving.publish()
        assert report.mode == "full"
        assert report.shared_fraction == 0.0
        assert report.region_size == report.snapshot.num_vertices
        assert report.snapshot.star is not before.star

    def test_unchanged_forest_reuses_the_star(self):
        serving = ServingIndex.build(chain_with_cycle_graph())
        before = serving.snapshot()
        serving.apply_updates(inserts=[CYCLE_CHORD])
        report = serving.publish()
        assert report.mode == "delta"
        assert report.region_size == 0
        assert report.snapshot.star is before.star
        assert report.snapshot.edges != before.edges
        # Every star buffer is shared; the edge log is the new one.
        shared = [
            name
            for name, buf in named_buffers(report.snapshot).items()
            if buf is named_buffers(before)[name]
        ]
        assert sorted(shared) == sorted(
            name for name in named_buffers(before) if name != "edges"
        )
        assert report.shared_fraction == shared_fraction(
            before, report.snapshot
        ) == len(shared) / (len(shared) + 1)


# ----------------------------------------------------------------------
# Observability wiring
# ----------------------------------------------------------------------
class TestServeMetrics:
    def test_serve_counters_land_in_registry(self, paper_graph):
        previous = obs_runtime.REGISTRY
        registry = obs_runtime.enable()
        registry.reset()
        try:
            serving = ServingIndex.build(paper_graph)
            serving.sc([0, 3, 4])
            serving.sc([0, 3, 4])
            serving.sc_batch([[1, 2], [2, 1]])
            serving.apply_updates(inserts=[(0, 12)])
            serving.sc([5, 6], max_staleness=0)
            serving.publish()
            with pytest.raises(DeadlineExceededError):
                serving.sc([0, 3], timeout=-1.0)
            counters = registry.snapshot()["counters"]
            assert counters["serve.sc.count"] == 4
            assert counters["serve.batch.count"] == 1
            assert counters["serve.cache.hit"] == 1
            assert counters["serve.cache.miss"] == 3
            assert counters["serve.degraded"] == 1
            assert counters["serve.publish.count"] == 1
            assert counters["serve.deadline_exceeded"] == 1
            gauges = registry.snapshot()["gauges"]
            assert gauges["serve.snapshot.generation"] == 1
            assert gauges["serve.queue.depth"] == 0
        finally:
            obs_runtime.REGISTRY = previous

    def test_results_identical_with_metrics_enabled(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        baseline = serving.sc([0, 3, 4])
        previous = obs_runtime.REGISTRY
        obs_runtime.enable()
        try:
            assert ServingIndex.build(paper_graph).sc([0, 3, 4]) == baseline
        finally:
            obs_runtime.REGISTRY = previous


# ----------------------------------------------------------------------
# Workload driver
# ----------------------------------------------------------------------
class TestServeWorkload:
    def test_reader_streams_are_deterministic(self):
        spec = ServeWorkloadSpec(seed=7, queries_per_reader=50)
        assert reader_queries(spec, 0, 40) == reader_queries(spec, 0, 40)
        assert reader_queries(spec, 0, 40) != reader_queries(spec, 1, 40)

    def test_workload_runs_and_counts(self):
        serving = ServingIndex.build(random_connected_graph(3, 30, 40))
        spec = ServeWorkloadSpec(
            readers=3,
            queries_per_reader=60,
            updates=6,
            publish_every=2,
            batch_size=4,
            seed=11,
        )
        result = run_serve_workload(serving, spec)
        # Every query either lands in `answered` or its op counts 1 error
        # (a failed batch forfeits at most batch_size answers).
        total_queries = spec.readers * spec.queries_per_reader
        assert result["queries_answered"] + result["query_errors"] * spec.batch_size >= total_queries
        assert result["updates_applied"] == 6
        # At updates 2, 4, 6; the final flush publish is a no-op (update
        # 6 was just published) and no-ops are not counted.
        assert result["publishes"] == 3
        assert result["final_generation"] == serving.generation
        assert result["throughput_qps"] is None or result["throughput_qps"] > 0

    def test_query_pool_makes_the_stream_repeat_heavy(self):
        serving = ServingIndex.build(random_connected_graph(5, 30, 40))
        spec = ServeWorkloadSpec(
            readers=2, queries_per_reader=50, updates=0, query_pool=8, seed=2
        )
        result = run_serve_workload(serving, spec)
        assert result["spec"]["query_pool"] == 8
        # 100 queries over 8 shared sets must re-hit the cache.
        assert serving.cache.stats()["hits"] > 0
        # Pooled streams stay per-reader deterministic but differ between
        # readers (op *kinds* still follow each reader's own rng).
        assert reader_queries(spec, 0, 30) == reader_queries(spec, 0, 30)

    def test_workload_with_no_updates(self, paper_graph):
        serving = ServingIndex.build(paper_graph)
        spec = ServeWorkloadSpec(readers=2, queries_per_reader=30, updates=0, seed=3)
        result = run_serve_workload(serving, spec)
        assert result["updates_applied"] == 0
        assert result["final_generation"] == 0
        assert result["query_errors"] == 0
