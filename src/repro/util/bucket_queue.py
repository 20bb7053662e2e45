"""Bucket-based priority structures with small integer keys.

The paper relies on bin-sort style bucket structures in two places:

- Algorithm 5 (SMCC_L-OPT) needs a max-priority queue over tree edges
  whose keys are steiner-connectivities in ``1 .. n``; implementing it
  with buckets instead of a binary heap is what makes the algorithm run
  in time linear in the result size (Section 4.5).
- MST maintenance (Section 5.2.3) organizes the non-tree edges ``NT`` of
  the connectivity graph into per-weight buckets so that an update reads
  only the bucket of its own weight k and relocates edges in O(1).
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Set, Tuple, TypeVar

T = TypeVar("T")


class MaxBucketQueue(Generic[T]):
    """Max-priority queue over items with integer keys in ``0 .. max_key``.

    ``push`` is O(1).  ``pop_max`` is amortized O(1) plus the total
    downward movement of the max pointer, which over a whole query is
    bounded by the number of pushes plus ``max_key`` (the pointer only
    moves up when an item with a larger key is pushed).
    """

    __slots__ = ("_buckets", "_cur", "_size")

    def __init__(self, max_key: int) -> None:
        if max_key < 0:
            raise ValueError(f"max_key must be >= 0, got {max_key}")
        self._buckets: List[List[T]] = [[] for _ in range(max_key + 1)]
        self._cur = -1  # index of the highest possibly-non-empty bucket
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def push(self, key: int, item: T) -> None:
        """Insert ``item`` with priority ``key``."""
        self._buckets[key].append(item)
        if key > self._cur:
            self._cur = key
        self._size += 1

    def max_key(self) -> int:
        """Return the largest key currently present (-1 if empty)."""
        if self._size == 0:
            return -1
        buckets = self._buckets
        cur = self._cur
        while not buckets[cur]:
            cur -= 1
        self._cur = cur
        return cur

    def pop_max(self) -> Tuple[int, T]:
        """Remove and return ``(key, item)`` with the largest key."""
        if self._size == 0:
            raise IndexError("pop from an empty MaxBucketQueue")
        key = self.max_key()
        item = self._buckets[key].pop()
        self._size -= 1
        return key, item


class EdgeBuckets:
    """Weight-indexed buckets of undirected edges (the ``NT`` structure).

    Edges are canonical ``(min(u, v), max(u, v))`` tuples.  Supports O(1)
    insert/remove/relocate and iteration in non-increasing weight order,
    mirroring the doubly-linked-list buckets of Section 5.2.3.
    """

    __slots__ = ("_by_weight", "_weight_of")

    def __init__(self) -> None:
        self._by_weight: Dict[int, Set[Tuple[int, int]]] = {}
        self._weight_of: Dict[Tuple[int, int], int] = {}

    @staticmethod
    def _key(u: int, v: int) -> Tuple[int, int]:
        return (u, v) if u <= v else (v, u)

    def __len__(self) -> int:
        return len(self._weight_of)

    def __contains__(self, edge: Tuple[int, int]) -> bool:
        return self._key(*edge) in self._weight_of

    def weight(self, u: int, v: int) -> int:
        """Return the stored weight of edge ``(u, v)``."""
        return self._weight_of[self._key(u, v)]

    def add(self, u: int, v: int, weight: int) -> None:
        """Insert edge ``(u, v)`` with the given weight."""
        key = self._key(u, v)
        if key in self._weight_of:
            raise ValueError(f"edge {key} already present in buckets")
        self._weight_of[key] = weight
        self._by_weight.setdefault(weight, set()).add(key)

    def remove(self, u: int, v: int) -> int:
        """Remove edge ``(u, v)``; return the weight it had."""
        key = self._key(u, v)
        weight = self._weight_of.pop(key)
        bucket = self._by_weight[weight]
        bucket.remove(key)
        if not bucket:
            del self._by_weight[weight]
        return weight

    def relocate(self, u: int, v: int, new_weight: int) -> None:
        """Move edge ``(u, v)`` to the bucket for ``new_weight``."""
        self.remove(u, v)
        self.add(u, v, new_weight)

    def edges_with_weight(self, weight: int) -> List[Tuple[int, int]]:
        """Return a snapshot list of the edges in one weight bucket."""
        return list(self._by_weight.get(weight, ()))

    def iter_non_increasing(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(u, v, weight)`` over all edges, heaviest bucket first.

        The iteration snapshots each bucket so the structure may be
        mutated for already-yielded edges.
        """
        for weight in sorted(self._by_weight, reverse=True):
            for u, v in list(self._by_weight.get(weight, ())):
                yield u, v, weight
