"""Disjoint-set (union-find) with union by rank and path compression.

Used by Kruskal's algorithm and by the k-edge connected component
engines for super-vertex bookkeeping.  The MST* build inlines its own
union-find (see :func:`repro.index.mst_star.leaf_order_and_gaps`).
"""

from __future__ import annotations

from typing import List


class DisjointSet:
    """Union-find over elements ``0 .. n-1`` with rank + path compression."""

    __slots__ = ("parent", "rank", "_count")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"number of elements must be >= 0, got {n}")
        self.parent: List[int] = list(range(n))
        self.rank: List[int] = [0] * n
        self._count = n

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def set_count(self) -> int:
        """Number of disjoint sets currently represented."""
        return self._count

    def add(self) -> int:
        """Append a fresh singleton element and return its id."""
        idx = len(self.parent)
        self.parent.append(idx)
        self.rank.append(0)
        self._count += 1
        return idx

    def find(self, x: int) -> int:
        """Return the representative of ``x`` (with path halving)."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the sets containing ``x`` and ``y``.

        Returns True if a merge happened (they were in different sets).
        """
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        self._count -= 1
        return True

    def connected(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)

    def groups(self) -> List[List[int]]:
        """Return the sets as lists of member elements."""
        by_root = {}
        for x in range(len(self.parent)):
            by_root.setdefault(self.find(x), []).append(x)
        return list(by_root.values())

