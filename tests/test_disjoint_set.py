"""Unit tests for the union-find structure."""

import pytest

from repro.util.disjoint_set import DisjointSet


class TestDisjointSet:
    def test_initial_singletons(self):
        ds = DisjointSet(4)
        assert ds.set_count == 4
        assert len({ds.find(i) for i in range(4)}) == 4

    def test_union_and_connected(self):
        ds = DisjointSet(5)
        assert ds.union(0, 1)
        assert ds.union(1, 2)
        assert ds.connected(0, 2)
        assert not ds.connected(0, 3)
        assert ds.set_count == 3

    def test_union_same_set_returns_false(self):
        ds = DisjointSet(3)
        ds.union(0, 1)
        assert not ds.union(1, 0)
        assert ds.set_count == 2

    def test_add_element(self):
        ds = DisjointSet(2)
        idx = ds.add()
        assert idx == 2
        assert ds.set_count == 3
        ds.union(idx, 0)
        assert ds.connected(2, 0)

    def test_groups_partition(self):
        ds = DisjointSet(6)
        ds.union(0, 1)
        ds.union(2, 3)
        ds.union(3, 4)
        groups = sorted(sorted(g) for g in ds.groups())
        assert groups == [[0, 1], [2, 3, 4], [5]]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DisjointSet(-1)

    def test_path_compression_correctness_on_chain(self):
        ds = DisjointSet(100)
        for i in range(99):
            ds.union(i, i + 1)
        root = ds.find(0)
        assert all(ds.find(i) == root for i in range(100))
        assert ds.set_count == 1

