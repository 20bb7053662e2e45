"""Differential tests for the flat-array batched query kernels.

Every batched kernel must reproduce its scalar counterpart exactly —
on every index engine, on singleton and duplicate-vertex queries, on
cross-component pairs (where the batch convention answers 0 instead of
raising), and on shared-memory views of full and star-reuse
generations.  Published buffers are read-only, so the kernels must
never write into what they read.
"""

import random

import numpy as np
import pytest
from conftest import publish_star_reuse

import repro.index.mst as mst_mod
from repro.core.queries import SMCCIndex
from repro.errors import (
    DisconnectedQueryError,
    EmptyQueryError,
    InfeasibleSizeConstraintError,
    VertexNotFoundError,
)
from repro.graph.generators import gnm_random_graph, ssca_graph
from repro.graph.graph import Graph
from repro.obs.stats import collect
from repro.serve import ServeConfig, ServingIndex


def _two_component_graph(seed: int) -> Graph:
    """Two ssca islands plus an isolated vertex — exercises components."""
    left = ssca_graph(40, seed=seed)
    n_left = left.num_vertices
    right = ssca_graph(30, seed=seed + 1)
    g = Graph(n_left + right.num_vertices + 1)
    for u, v in left.edges():
        g.add_edge(u, v)
    for u, v in right.edges():
        g.add_edge(u + n_left, v + n_left)
    return g


@pytest.fixture(scope="module", params=["exact", "random", "cut"])
def engine_index(request):
    graph = _two_component_graph(13)
    kwargs = {"seed": 5} if request.param == "random" else {}
    return graph, SMCCIndex.build(graph, engine=request.param, **kwargs)


class TestScPairsBatch:
    def test_matches_scalar_within_component(self, engine_index):
        graph, index = engine_index
        star = index.mst_star
        n = graph.num_vertices
        rng = random.Random(17)
        us, vs = [], []
        while len(us) < 300:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                us.append(u)
                vs.append(v)
        got = star.sc_pairs_batch(us, vs).tolist()
        for u, v, g in zip(us, vs, got):
            try:
                assert g == star.sc_pair(u, v)
            except DisconnectedQueryError:
                assert g == 0  # batch convention: cross-component -> 0
        assert isinstance(star.sc_pairs_batch(us, vs), np.ndarray)

    def test_first_offender_is_reported(self, engine_index):
        graph, index = engine_index
        star = index.mst_star
        n = graph.num_vertices
        # Bad u before bad v in a later pair: the u wins.
        with pytest.raises(VertexNotFoundError) as exc:
            star.sc_pairs_batch([0, -7, 1], [1, 2, n + 3])
        assert exc.value.vertex == -7
        # The v of an earlier pair beats the u of a later one.
        with pytest.raises(VertexNotFoundError) as exc:
            star.sc_pairs_batch([0, -7], [n + 9, 2])
        assert exc.value.vertex == n + 9

    def test_self_pair_rejected_and_empty_ok(self, engine_index):
        _, index = engine_index
        star = index.mst_star
        with pytest.raises(ValueError):
            star.sc_pairs_batch([3, 4], [3, 5])
        assert star.sc_pairs_batch([], []).tolist() == []


class TestSteinerConnectivityBatch:
    def test_matches_scalar_per_query(self, engine_index):
        graph, index = engine_index
        star = index.mst_star
        n = graph.num_vertices
        rng = random.Random(23)
        queries = [
            tuple(rng.randrange(n) for _ in range(rng.randint(1, 5)))
            for _ in range(300)
        ]
        got = star.steiner_connectivity_batch(queries).tolist()
        for q, g in zip(queries, got):
            try:
                assert g == star.steiner_connectivity(q)
            except DisconnectedQueryError:
                assert g == 0  # disconnected / isolated -> 0 in batch

    def test_duplicates_match_dedup(self, engine_index):
        _, index = engine_index
        star = index.mst_star
        got = star.steiner_connectivity_batch(
            [(7, 7), (7, 7, 7), (1, 2, 1), (4,)]
        ).tolist()
        assert got[0] == star.steiner_connectivity([7])
        assert got[1] == star.steiner_connectivity([7])
        assert got[2] == star.steiner_connectivity([1, 2])
        assert got[3] == star.steiner_connectivity([4])

    def test_isolated_singleton_answers_zero(self, engine_index):
        graph, index = engine_index
        star = index.mst_star
        isolated = graph.num_vertices - 1  # last vertex has no edges
        assert star.steiner_connectivity_batch([(isolated,)]).tolist() == [0]
        with pytest.raises(DisconnectedQueryError):
            star.steiner_connectivity([isolated])

    def test_errors(self, engine_index):
        graph, index = engine_index
        star = index.mst_star
        n = graph.num_vertices
        with pytest.raises(EmptyQueryError):
            star.steiner_connectivity_batch([(1, 2), ()])
        with pytest.raises(VertexNotFoundError) as exc:
            star.steiner_connectivity_batch([(0, 1), (2, n + 5), (-1,)])
        assert exc.value.vertex == n + 5  # first offender in flat order
        assert star.steiner_connectivity_batch([]).tolist() == []

    def test_facade_batch_matches_star(self, engine_index):
        graph, index = engine_index
        rng = random.Random(29)
        n = graph.num_vertices
        queries = [
            [rng.randrange(n) for _ in range(rng.randint(1, 3))]
            for _ in range(50)
        ]
        assert index.steiner_connectivity_batch(queries) == \
            index.mst_star.steiner_connectivity_batch(queries).tolist()


class TestSmccLInterval:
    def test_matches_walk(self, engine_index):
        graph, index = engine_index
        star = index.mst_star
        mst = index.mst
        n = graph.num_vertices
        rng = random.Random(31)
        comp = mst.component
        for _ in range(200):
            size = rng.randint(1, 3)
            q = [rng.randrange(n) for _ in range(size)]
            bound = rng.randint(1, 12)
            try:
                walk_v, walk_k = mst.smcc_l(q, bound)
            except DisconnectedQueryError:
                with pytest.raises(DisconnectedQueryError):
                    star.smcc_l_interval(q, bound)
                continue
            except InfeasibleSizeConstraintError as exc:
                with pytest.raises(InfeasibleSizeConstraintError) as got:
                    star.smcc_l_interval(q, bound)
                assert got.value.size_bound == exc.size_bound
                continue
            k, start, end = star.smcc_l_interval(q, bound)
            assert k == walk_k
            assert sorted(star.leaf_order[start:end]) == sorted(walk_v)
            assert all(comp[v] == comp[q[0]] for v in walk_v)


class TestHybridExtraction:
    def test_engines_agree_across_sizes(self):
        for n, seed in ((50, 3), (2100, 4)):
            graph = gnm_random_graph(n, 3 * n, seed=seed)
            index = SMCCIndex.build(graph)
            mst = index.mst
            mst._ensure_derived()
            max_w = mst.max_connectivity()
            rng = random.Random(seed)
            for _ in range(60):
                s = rng.randrange(n)
                k = rng.randint(1, max(max_w, 1))
                hybrid = mst.vertices_with_connectivity(s, k)
                saved = mst_mod.ARRAY_KERNEL_MIN_VERTICES
                mst_mod.ARRAY_KERNEL_MIN_VERTICES = n + 1
                try:
                    pure = mst.vertices_with_connectivity(s, k)
                finally:
                    mst_mod.ARRAY_KERNEL_MIN_VERTICES = saved
                assert sorted(hybrid) == sorted(pure)

    def test_array_kernel_direct(self):
        graph = ssca_graph(120, seed=9)
        mst = SMCCIndex.build(graph).mst
        mst._ensure_derived()
        for k in range(1, mst.max_connectivity() + 2):
            for s in range(0, 120, 17):
                direct = mst._vertices_with_connectivity_array(s, k)
                saved = mst_mod.ARRAY_KERNEL_MIN_VERTICES
                mst_mod.ARRAY_KERNEL_MIN_VERTICES = 10**9
                try:
                    pure = mst.vertices_with_connectivity(s, k)
                finally:
                    mst_mod.ARRAY_KERNEL_MIN_VERTICES = saved
                assert sorted(direct) == sorted(pure)
                assert direct == sorted(direct)  # ascending-id contract

    def test_vectorized_accounting_matches_replay(self):
        """The reduceat scan count equals the per-edge Python replay."""
        graph = ssca_graph(400, seed=21)
        mst = SMCCIndex.build(graph).mst
        mst._ensure_derived()
        rng = random.Random(2)
        for _ in range(40):
            s = rng.randrange(400)
            k = rng.randint(1, max(mst.max_connectivity(), 1))
            with collect() as stats:
                result = mst.vertices_with_connectivity(s, k)
            expected = 0
            for v in result:
                scanned = 0
                for w, _ in mst.sorted_adjacency(v):
                    scanned += 1
                    if w < k:
                        break
                expected += scanned
            assert stats.tree_edges_scanned == expected
            assert stats.vertices_touched == len(result)


class TestBatchPlannerIntegration:
    def test_sc_batch_matches_per_query(self):
        graph = _two_component_graph(47)
        serving = ServingIndex.build(graph)
        snap = serving.snapshot()
        n = graph.num_vertices
        rng = random.Random(53)
        queries = [
            [rng.randrange(n) for _ in range(rng.randint(1, 4))]
            for _ in range(150)
        ] + [[n - 1]]  # isolated singleton -> 0 under the batch convention
        expected = []
        for q in queries:
            try:
                expected.append(snap.steiner_connectivity(q))
            except DisconnectedQueryError:
                expected.append(0)
        assert serving.sc_batch(queries) == expected
        # Cache hits and misses mixed: the answers do not move.
        assert serving.sc_batch(queries[::-1]) == expected[::-1]


class TestSharedMemoryViewDifferential:
    """The shm-mapped view answers byte-identically to the snapshot.

    Same corpus discipline as the batch kernels: every engine, full and
    star-reuse generations, all four served families, cross-component
    queries, and exception parity (the view must raise the same typed
    error the in-process snapshot raises).  The export path reads the
    snapshot's read-only buffers.
    """

    @staticmethod
    def _assert_view_matches(view, snap, n, seed):
        rng = random.Random(seed)
        queries = [
            rng.sample(range(n), rng.randint(1, min(3, n)))
            for _ in range(40)
        ]
        for q in queries:
            try:
                a = view.sc(list(q))
            except Exception as exc:  # noqa: BLE001 - exception parity
                a = type(exc).__name__
            try:
                b = snap.steiner_connectivity(list(q))
            except Exception as exc:  # noqa: BLE001
                b = type(exc).__name__
            assert a == b, (q, a, b)
        pairs = [
            (u, v)
            for u, v in (
                (rng.randrange(n), rng.randrange(n)) for _ in range(120)
            )
            if u != v
        ]
        us = [p[0] for p in pairs]
        vs = [p[1] for p in pairs]
        assert view.sc_pairs_batch(us, vs) == snap.sc_pairs_batch(us, vs)
        assert view.steiner_connectivity_batch(queries) == (
            snap.steiner_connectivity_batch(queries)
        )
        assert view.sc_batch(queries) == snap.steiner_connectivity_batch(queries)
        for q in queries[:12]:
            for call, ref in (
                (lambda q=q: view.smcc(list(q)),
                 lambda q=q: snap.smcc(list(q))),
                (lambda q=q: view.smcc_l(list(q), 3),
                 lambda q=q: snap.smcc_l(list(q), 3)),
            ):
                try:
                    got = call()
                except Exception as exc:  # noqa: BLE001
                    got = type(exc).__name__
                try:
                    result = ref()
                    expected = (list(result.vertices), result.connectivity)
                except Exception as exc:  # noqa: BLE001
                    expected = type(exc).__name__
                assert got == expected, (q, got, expected)

    def test_full_generation_matches_snapshot(self, engine_index):
        from repro.serve import SharedSnapshotStore, SharedSnapshotView
        from repro.serve.shard import system_segments

        graph, index = engine_index
        serving = ServingIndex(
            index, config=ServeConfig(region_fraction_limit=1.0)
        )
        snap = serving.snapshot()
        with SharedSnapshotStore() as store:
            prefix = store.prefix
            store.publish_snapshot(snap)
            view = SharedSnapshotView.attach(prefix, 0)
            try:
                assert tuple(map(tuple, view.edges)) == snap.edges
                self._assert_view_matches(
                    view, snap, graph.num_vertices, 23
                )
            finally:
                view.close()
        assert system_segments(prefix) == []

    def test_delta_generation_matches_snapshot(self, engine_index):
        from repro.serve import SharedSnapshotStore, SharedSnapshotView

        graph, index = engine_index
        serving = ServingIndex(
            index, config=ServeConfig(region_fraction_limit=1.0)
        )
        with SharedSnapshotStore() as store:
            store.publish_snapshot(serving.snapshot())
            serving.publisher.set_exporter(store.publish_snapshot)
            chord = None
            try:
                # A chord that keeps the forest publishes a star reuse.
                report, chord = publish_star_reuse(serving)
                snap = serving.snapshot()
                view = SharedSnapshotView.attach(
                    store.prefix, report.generation
                )
                try:
                    self._assert_view_matches(
                        view, snap, graph.num_vertices, 29
                    )
                finally:
                    view.close()
            finally:
                serving.publisher.set_exporter(None)
                # The engine fixture is module-scoped: undo the churn.
                if chord is not None:
                    serving.apply_updates(deletes=[chord])

    def test_view_matches_read_only_star(self, engine_index):
        # The export reads the published star as it is: a tuple leaf
        # order and read-only tables, never a writeable copy.
        from repro.serve import SharedSnapshotStore, SharedSnapshotView

        graph, index = engine_index
        serving = ServingIndex(
            index, config=ServeConfig(region_fraction_limit=1.0)
        )
        snap = serving.snapshot()
        assert isinstance(snap.star.leaf_order, tuple)
        for table in (snap.star._rmq, snap.star._runs, snap.star._jump_table):
            assert not table.flags.writeable
        with SharedSnapshotStore() as store:
            store.publish_snapshot(snap)
            view = SharedSnapshotView.attach(store.prefix, 0)
            try:
                self._assert_view_matches(view, snap, graph.num_vertices, 31)
            finally:
                view.close()
