"""The LCA/RMQ equivalence behind MST*'s gap table.

MST* lists its leaves in Kruskal leaf-list order and keeps one gap
row, ``gap[i] = weight(LCA(leaf_order[i], leaf_order[i + 1]))`` (0
across trees), under a sparse table.  A range minimum over the gaps
between two leaves is then the weight of their LCA, which is the
minimum weight on their MST path (Lemma A.2).  These tests check that
against a naive MST path walk on hand-built and random forests.
"""

import random

import pytest

from repro.errors import DisconnectedQueryError
from repro.index.mst import MSTIndex
from repro.index.mst_star import build_mst_star


def naive_sc(star, u, v):
    """Minimum weight on the MST path between two vertices; 0 across trees."""
    path = star.mst.tree_path(u, v)
    return 0 if path is None else min(w for _, _, w in path)


class _Star:
    """A star with the forest it was built from, for the naive reference."""

    def __init__(self, mst):
        self.mst = mst
        self.star = build_mst_star(mst)

    def __getattr__(self, name):
        return getattr(self.star, name)


def star_of(num_vertices, tree_edges):
    mst = MSTIndex(num_vertices)
    for u, v, w in tree_edges:
        mst.add_tree_edge(u, v, w)
    return _Star(mst)


def random_forest(n, num_trees, seed):
    """Tree edges of a random weighted forest; single-vertex trees are
    isolated vertices."""
    rng = random.Random(seed)
    tree_of = [rng.randrange(num_trees) for _ in range(n)]
    seen = {}
    edges = []
    for v in rng.sample(range(n), n):
        members = seen.setdefault(tree_of[v], [])
        if members:
            edges.append((rng.choice(members), v, rng.randint(1, n)))
        members.append(v)
    return edges


def range_sc(star, u, v):
    """sc(u, v) through the batched RMQ (no raise across trees)."""
    return int(star.sc_pairs_batch([u], [v])[0])


class TestBasics:
    def test_single_node(self):
        star = star_of(1, [])
        assert star.gap.shape == (0,)
        assert star.steiner_connectivity_batch([[0], [0, 0]]).tolist() == [0, 0]
        with pytest.raises(DisconnectedQueryError):
            star.steiner_connectivity([0])

    def test_chain(self):
        # Path 0 -3- 1 -2- 2 -1- 3: MST* is a chain of internal nodes.
        star = star_of(4, [(0, 1, 3), (1, 2, 2), (2, 3, 1)])
        assert sorted(star.gap.tolist()) == [1, 2, 3]
        assert star.sc_pair(0, 1) == 3
        assert star.sc_pair(0, 2) == 2
        assert star.sc_pair(3, 0) == 1
        assert star.steiner_connectivity([0, 1, 2]) == 2
        for u in range(4):
            for v in range(4):
                if u != v:
                    assert range_sc(star, u, v) == naive_sc(star, u, v)

    def test_balanced_binary(self):
        #        1
        #    3       3
        #   0 1     2 3
        star = star_of(4, [(0, 1, 3), (2, 3, 3), (1, 2, 1)])
        assert star.sc_pair(0, 1) == 3
        assert star.sc_pair(2, 3) == 3
        assert star.sc_pair(0, 3) == 1
        assert star.steiner_connectivity([1, 2]) == 1
        assert star.steiner_connectivity([3]) == 3

    def test_forest_cross_tree_none(self):
        # Two trees {0, 1} and {2, 3}: no LCA across them, so gap 0.
        star = star_of(4, [(0, 1, 2), (2, 3, 5)])
        assert 0 in star.gap.tolist()
        assert range_sc(star, 1, 3) == 0
        assert star.steiner_connectivity_batch([[0, 2], [2, 3]]).tolist() == [0, 5]
        with pytest.raises(DisconnectedQueryError):
            star.steiner_connectivity([0, 2])
        with pytest.raises(DisconnectedQueryError):
            star.sc_pair(1, 3)
        assert star.vertex_component[0] == star.vertex_component[1]
        assert star.vertex_component[0] != star.vertex_component[2]

    def test_empty(self):
        star = star_of(0, [])
        assert star.num_leaves == 0
        assert star.gap.shape == (0,)
        assert star.steiner_connectivity_batch([]).tolist() == []


class TestRandomized:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_on_random_forests(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 60)
        trees = rng.randint(1, max(1, n // 6))
        star = star_of(n, random_forest(n, trees, seed))
        order = star.leaf_order
        for i in range(n - 1):
            assert star.gap[i] == naive_sc(star, order[i], order[i + 1])
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(200)
        ]
        pairs = [(u, v) for u, v in pairs if u != v]
        got = star.sc_pairs_batch([u for u, _ in pairs], [v for _, v in pairs])
        for (u, v), g in zip(pairs, got.tolist()):
            expected = naive_sc(star, u, v)
            assert g == expected, (u, v)
            if expected:
                assert star.sc_pair(u, v) == expected
            else:
                with pytest.raises(DisconnectedQueryError):
                    star.sc_pair(u, v)
        # A set's sc is the lightest LCA against its first vertex.
        queries = [
            [rng.randrange(n) for _ in range(rng.randint(2, 5))]
            for _ in range(100)
        ]
        batch = star.steiner_connectivity_batch(queries).tolist()
        for q, g in zip(queries, batch):
            distinct = list(dict.fromkeys(q))
            if len(distinct) == 1:
                continue
            expected = min(naive_sc(star, distinct[0], v) for v in distinct[1:])
            assert g == expected, q
            if expected:
                assert star.steiner_connectivity(q) == expected

    def test_singleton_matches_parent_weight(self):
        # A leaf's MST* parent is its heaviest incident MST edge.
        n = 40
        for seed in range(4):
            star = star_of(n, random_forest(n, 6, 99 + seed))
            batch = star.steiner_connectivity_batch([[v] for v in range(n)])
            for v in range(n):
                expected = max(star.mst.tree_adj[v].values(), default=0)
                assert batch[v] == expected, (seed, v)
                if expected:
                    assert star.steiner_connectivity([v, v]) == expected
                else:
                    with pytest.raises(DisconnectedQueryError):
                        star.steiner_connectivity([v])

    def test_sparse_table_rows_are_window_minima(self):
        star = star_of(50, random_forest(50, 3, 7))
        gap = star.gap
        for j in range(star._rmq.shape[0]):
            width = 1 << j
            for i in range(gap.shape[0] - width + 1):
                assert star._rmq[j, i] == gap[i : i + width].min()
