"""Unit tests for the MST* index (Appendix A.2)."""

import pytest

from conftest import random_connected_graph
from repro.errors import DisconnectedQueryError, EmptyQueryError, VertexNotFoundError
from repro.graph.generators import paper_example_graph
from repro.graph.graph import Graph
from repro.index.connectivity_graph import conn_graph_sharing
from repro.index.mst import build_mst
from repro.index.mst_star import build_mst_star


def star_for(graph):
    mst = build_mst(conn_graph_sharing(graph))
    return mst, build_mst_star(mst)


class TestStructure:
    """Lemma A.1's shape, restated on the gap row.

    MST* has one internal node per tree edge; on the gap row those are
    the positive gaps, and the zero gaps separate trees.  A node's
    subtree is its run, its parent the heavier boundary gap: weights
    fall strictly toward the root, and every parent's run strictly
    contains its child's.
    """

    def test_node_counts(self):
        _, star = star_for(paper_example_graph())
        # 13 leaves + 12 internal (one per tree edge, one gap each)
        assert star.num_leaves == 13
        assert star.gap.shape == (12,)
        assert int((star.gap > 0).sum()) == 12

    def test_full_binary_tree_and_monotone_weights(self):
        mst, star = star_for(paper_example_graph())
        star.validate(mst)
        gap = star.gap
        parent = star._jump_table[0]
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                assert gap[p] < gap[i]
                assert star._runs[0, p] <= star._runs[0, i]
                assert star._runs[1, i] <= star._runs[1, p]

    def test_validate_on_random_graphs(self):
        for seed in range(6):
            mst, star = star_for(random_connected_graph(seed))
            star.validate(mst)

    def test_leaf_weights_zero_internal_positive(self):
        mst, star = star_for(paper_example_graph())
        # Each positive gap is a tree edge's weight; a connected graph
        # has no zero gap, and the multiset of gaps is the tree's.
        assert (star.gap >= 1).all()
        assert sorted(star.gap.tolist()) == sorted(w for _, _, w in mst.tree_edges())

    def test_forest_input(self):
        graph = Graph.from_edges([(0, 1), (2, 3)], num_vertices=4)
        mst, star = star_for(graph)
        assert star.gap.tolist().count(0) == 1  # two trees
        assert int((star.gap > 0).sum()) == 2
        star.validate(mst)


class TestQueries:
    def test_sc_pair_matches_walk(self):
        for seed in range(6):
            graph = random_connected_graph(seed + 200)
            mst, star = star_for(graph)
            n = graph.num_vertices
            for u in range(n):
                for v in range(u + 1, n):
                    assert star.sc_pair(u, v) == mst.steiner_connectivity([u, v])

    def test_steiner_connectivity_matches_walk(self):
        import random

        graph = random_connected_graph(300)
        mst, star = star_for(graph)
        rng = random.Random(300)
        for _ in range(25):
            q = rng.sample(range(graph.num_vertices), rng.randint(2, 6))
            assert star.steiner_connectivity(q) == mst.steiner_connectivity(q)

    def test_paper_appendix_example(self):
        # Example in A.2: sc(v8, v13) = 2; sc(v8, v7) = 3;
        # sc({v8, v13, v7}) = 2.
        _, star = star_for(paper_example_graph())
        assert star.sc_pair(7, 12) == 2
        assert star.sc_pair(7, 6) == 3
        assert star.steiner_connectivity([7, 12, 6]) == 2

    def test_singleton_query_uses_parent_weight(self):
        _, star = star_for(paper_example_graph())
        # v1 (0) sits in the K5: sc({v1}) = 4
        assert star.steiner_connectivity([0]) == 4

    def test_sc_pair_same_vertex_rejected(self):
        _, star = star_for(paper_example_graph())
        with pytest.raises(ValueError):
            star.sc_pair(3, 3)

    def test_empty_query(self):
        _, star = star_for(paper_example_graph())
        with pytest.raises(EmptyQueryError):
            star.steiner_connectivity([])

    def test_unknown_vertex(self):
        _, star = star_for(paper_example_graph())
        with pytest.raises(VertexNotFoundError):
            star.steiner_connectivity([0, 50])

    def test_cross_component_raises(self):
        graph = Graph.from_edges([(0, 1), (2, 3)], num_vertices=4)
        _, star = star_for(graph)
        with pytest.raises(DisconnectedQueryError):
            star.sc_pair(0, 2)
        with pytest.raises(DisconnectedQueryError):
            star.steiner_connectivity([0, 3])

    def test_isolated_vertex_singleton(self):
        graph = Graph.from_edges([(0, 1)], num_vertices=3)
        _, star = star_for(graph)
        with pytest.raises(DisconnectedQueryError):
            star.steiner_connectivity([2])
