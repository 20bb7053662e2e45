"""Labeled vertices: query the index with application names, not ints.

The core data structures work on dense integer ids for speed; this
module provides the thin, explicit mapping layer a downstream
application needs — build a graph from edges between arbitrary hashable
labels (author names, product SKUs, ...), and run every query of
:class:`~repro.core.queries.SMCCIndex` in label space.

    >>> edges = [("ann", "bob"), ("bob", "cid"), ("ann", "cid")]
    >>> index = LabeledSMCCIndex.from_edges(edges)
    >>> index.steiner_connectivity(["ann", "cid"])
    2
    >>> sorted(index.smcc(["ann", "cid"]).labels)
    ['ann', 'bob', 'cid']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.core.queries import SMCCIndex, SMCCResult
from repro.errors import VertexNotFoundError
from repro.graph.graph import Graph


class VertexLabels:
    """A bijection between hashable labels and dense ids ``0 .. n-1``."""

    __slots__ = ("_id_of", "_label_of")

    def __init__(self) -> None:
        self._id_of: Dict[Hashable, int] = {}
        self._label_of: List[Hashable] = []

    def __len__(self) -> int:
        return len(self._label_of)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._id_of

    def intern(self, label: Hashable) -> int:
        """Return the id of ``label``, assigning a fresh one if new."""
        idx = self._id_of.get(label)
        if idx is None:
            idx = len(self._label_of)
            self._id_of[label] = idx
            self._label_of.append(label)
        return idx

    def id_of(self, label: Hashable) -> int:
        """The id of an existing label (raises VertexNotFoundError)."""
        try:
            return self._id_of[label]
        except KeyError:
            raise VertexNotFoundError(label) from None

    def label_of(self, idx: int) -> Hashable:
        return self._label_of[idx]

    def ids_of(self, labels: Iterable[Hashable]) -> List[int]:
        return [self.id_of(label) for label in labels]

    def labels_of(self, ids: Iterable[int]) -> List[Hashable]:
        return [self._label_of[i] for i in ids]


def graph_from_labeled_edges(
    edges: Iterable[Tuple[Hashable, Hashable]]
) -> Tuple[Graph, VertexLabels]:
    """Build ``(Graph, VertexLabels)`` from edges between labels.

    Duplicate edges and self-loops are dropped; labels are interned in
    first-seen order.
    """
    labels = VertexLabels()
    graph = Graph()
    for a, b in edges:
        u = labels.intern(a)
        v = labels.intern(b)
        while graph.num_vertices < len(labels):
            graph.add_vertex()
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph, labels


@dataclass(frozen=True)
class LabeledSMCCResult:
    """An SMCC-family result translated back to label space."""

    labels: List[Hashable]
    connectivity: int

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in set(self.labels)

    @property
    def label_set(self) -> frozenset:
        return frozenset(self.labels)


class LabeledSMCCIndex:
    """An :class:`SMCCIndex` addressed by vertex labels."""

    def __init__(self, index: SMCCIndex, labels: VertexLabels) -> None:
        self.index = index
        self.labels = labels

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Hashable, Hashable]],
        **build_kwargs,
    ) -> "LabeledSMCCIndex":
        """Build the full index from labeled edges."""
        graph, labels = graph_from_labeled_edges(edges)
        return cls(SMCCIndex.build(graph, **build_kwargs), labels)

    # ------------------------------------------------------------------
    def steiner_connectivity(
        self, q: Sequence[Hashable], *, method: str = "star"
    ) -> int:
        return self.index.steiner_connectivity(self.labels.ids_of(q), method=method)

    def sc_pair(self, a: Hashable, b: Hashable) -> int:
        return self.index.sc_pair(self.labels.id_of(a), self.labels.id_of(b))

    def smcc(self, q: Sequence[Hashable]) -> LabeledSMCCResult:
        return self._translate(self.index.smcc(self.labels.ids_of(q)))

    def smcc_l(
        self, q: Sequence[Hashable], *, size_bound: int
    ) -> LabeledSMCCResult:
        return self._translate(
            self.index.smcc_l(self.labels.ids_of(q), size_bound=size_bound)
        )

    def subset_smcc(
        self, q: Sequence[Hashable], *, cover_bound: int
    ) -> LabeledSMCCResult:
        return self._translate(
            self.index.subset_smcc(self.labels.ids_of(q), cover_bound=cover_bound)
        )

    def smcc_cover(
        self, q: Sequence[Hashable], *, num_components: int
    ) -> List[LabeledSMCCResult]:
        return [
            self._translate(result)
            for result in self.index.smcc_cover(
                self.labels.ids_of(q), num_components=num_components
            )
        ]

    def components_at(self, k: int) -> List[List[Hashable]]:
        return [
            self.labels.labels_of(comp) for comp in self.index.components_at(k)
        ]

    # ------------------------------------------------------------------
    def insert_edge(self, a: Hashable, b: Hashable):
        """Insert an edge; unseen labels become new vertices."""
        u = self.labels.intern(a)
        v = self.labels.intern(b)
        return self.index.insert_edge(u, v)

    def delete_edge(self, a: Hashable, b: Hashable):
        return self.index.delete_edge(self.labels.id_of(a), self.labels.id_of(b))

    def _translate(self, result: SMCCResult) -> LabeledSMCCResult:
        return LabeledSMCCResult(
            self.labels.labels_of(result.vertices), result.connectivity
        )
