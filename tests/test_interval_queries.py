"""Tests for the O(log n) interval view of components on MST*.

Every k-edge connected component is an MST* subtree, hence a contiguous
range of the DFS leaf order; `component_interval` finds it by binary
lifting without touching the component's vertices.
"""

import random

import pytest

from conftest import random_connected_graph
from repro.errors import VertexNotFoundError
from repro.graph.generators import paper_example_graph
from repro.index.connectivity_graph import conn_graph_sharing
from repro.index.mst import build_mst
from repro.index.mst_star import build_mst_star


@pytest.fixture(scope="module")
def stack():
    mst = build_mst(conn_graph_sharing(paper_example_graph()))
    return mst, build_mst_star(mst)


class TestLeafOrder:
    def test_leaf_order_is_permutation(self, stack):
        _, star = stack
        assert sorted(star.leaf_order) == list(range(13))
        for v in range(13):
            assert star.leaf_order[star.leaf_position[v]] == v

    def test_leaf_position_is_one_int64_buffer(self, stack):
        # Cached answers pin their generation's leaf_position: it must
        # cost 8 bytes a vertex, not a list of int objects.
        _, star = stack
        view = star.leaf_position
        assert isinstance(view, memoryview) and view.readonly
        assert view.itemsize == 8 and view.nbytes == 8 * 13
        assert all(type(p) is int for p in view)

    def test_component_slice_matches_bfs(self, stack):
        mst, star = stack
        for v in range(13):
            for k in (1, 2, 3, 4, 5):
                from_interval = sorted(star.component_slice(v, k))
                from_bfs = sorted(mst.vertices_with_connectivity(v, k))
                assert from_interval == from_bfs, (v, k)

    def test_interval_descriptor_size(self, stack):
        _, star = stack
        start, end = star.component_interval(0, 4)
        assert end - start == 5  # K5

    def test_singleton_when_no_kecc(self, stack):
        _, star = stack
        start, end = star.component_interval(0, 5)
        assert end - start == 1
        assert star.component_slice(0, 5) == [0]

    def test_validation(self, stack):
        _, star = stack
        with pytest.raises(VertexNotFoundError):
            star.component_interval(99, 2)
        with pytest.raises(ValueError):
            star.component_interval(0, 0)


class TestSMCCInterval:
    def test_matches_smcc(self, stack):
        mst, star = stack
        for q in ([0, 3, 4], [0, 3, 6], [7, 12], [0, 10]):
            sc, start, end = star.smcc_interval(q)
            verts, expected_sc = mst.smcc(q)
            assert sc == expected_sc
            assert sorted(star.leaf_order[start:end]) == sorted(verts)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_smcc_random(self, seed):
        graph = random_connected_graph(seed + 1100)
        mst = build_mst(conn_graph_sharing(graph))
        star = build_mst_star(mst)
        rng = random.Random(seed)
        for _ in range(12):
            q = rng.sample(range(graph.num_vertices), rng.randint(2, 5))
            sc, start, end = star.smcc_interval(q)
            verts, expected_sc = mst.smcc(q)
            assert sc == expected_sc
            assert sorted(star.leaf_order[start:end]) == sorted(verts)

    def test_forest_intervals(self):
        from repro.graph.graph import Graph

        graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4)])
        mst = build_mst(conn_graph_sharing(graph))
        star = build_mst_star(mst)
        assert sorted(star.component_slice(0, 2)) == [0, 1, 2]
        assert sorted(star.component_slice(3, 1)) == [3, 4]
        assert star.component_slice(3, 2) == [3]
