"""The public facade: :class:`SMCCIndex`.

Wraps the connectivity graph, the MST index, the MST* index, and the
incremental maintainer behind one object with the paper's three query
types plus the Section 7 extensions:

    >>> from repro import SMCCIndex
    >>> from repro.graph.generators import paper_example_graph
    >>> index = SMCCIndex.build(paper_example_graph())
    >>> index.steiner_connectivity([0, 3, 4])
    4
    >>> sorted(index.smcc([0, 3, 4]).vertices)
    [0, 1, 2, 3, 4]

After ``insert_edge`` / ``delete_edge`` the index is maintained
incrementally (Section 5.2); the MST* read structure is rebuilt lazily
on the next sc query.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.extensions import (
    smcc_cover,
    steiner_connectivity_with_size,
    subset_smcc,
)
from repro.core.smcc import smcc_opt
from repro.core.smcc_l import smcc_l_opt
from repro.graph.graph import Graph
from repro.index.connectivity_graph import ConnectivityGraph, build_connectivity_graph
from repro.index.maintenance import IndexMaintainer
from repro.index.mst import MSTIndex, build_mst
from repro.index.mst_star import MSTStar, build_mst_star
from repro.obs import runtime as _obs
from repro.obs.spans import span
from repro.obs.stats import QueryStats, profiled_query
from repro.obs.timing import monotonic

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class SMCCResult:
    """Result of an SMCC-family query.

    Attributes
    ----------
    vertices:
        The vertex set of the component, in discovery order.  Answers
        read off MST* are tuple slices of its leaf order, so a result
        shared through the serving cache cannot be changed in place.
    connectivity:
        The edge connectivity of the component (= sc of the query for
        plain SMCC queries).
    query_stats:
        Work counters for the query that produced this result, when
        profiling was active (``None`` otherwise).
    """

    vertices: Sequence[int]
    connectivity: int
    query_stats: Optional[QueryStats] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.vertex_set

    @cached_property
    def vertex_set(self) -> frozenset:
        """The vertices as a frozenset, built on first use.

        Most results (every served cache miss, every shard reply) are
        never probed, so the set is not built up front.  Two threads
        racing the first access at worst each build the same set.
        """
        return frozenset(self.vertices)

    def induced_subgraph(self, graph: Graph) -> Tuple[Graph, List[int]]:
        """Materialize the component as an induced subgraph of ``graph``."""
        return graph.induced_subgraph(self.vertices)


@dataclass(frozen=True)
class SMCCInterval:
    """A lazily materialized SMCC: connectivity + leaf-order interval.

    ``len()`` and membership checks are O(1); ``vertices`` materializes
    the component from the MST* leaf order on first access.
    """

    _star: "MSTStar"
    connectivity: int
    start: int
    end: int
    query_stats: Optional[QueryStats] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return self.end - self.start

    def __contains__(self, vertex: int) -> bool:
        if not (0 <= vertex < self._star.num_leaves):
            return False
        return self.start <= self._star.leaf_position[vertex] < self.end

    @property
    def vertices(self) -> Sequence[int]:
        return self._star.leaf_order[self.start:self.end]


@dataclass(frozen=True)
class VerifyReport:
    """Structured outcome of :meth:`SMCCIndex.verify`.

    Failures raise :class:`~repro.errors.IndexStateError`, so a report
    always describes a *passing* check; the counters say how much
    evidence that pass rests on.
    """

    num_vertices: int
    num_edges: int
    num_components: int
    tree_edges_checked: int
    non_tree_edges_checked: int
    weights_checked: int
    pairs_sampled: int
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return True

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "num_components": self.num_components,
            "tree_edges_checked": self.tree_edges_checked,
            "non_tree_edges_checked": self.non_tree_edges_checked,
            "weights_checked": self.weights_checked,
            "pairs_sampled": self.pairs_sampled,
            "elapsed_seconds": self.elapsed_seconds,
        }


class SMCCIndex:
    """Index-based optimal SMCC / SMCC_L / steiner-connectivity queries."""

    def __init__(
        self,
        conn_graph: ConnectivityGraph,
        mst: MSTIndex,
        mst_star: Optional[MSTStar] = None,
        engine: str = "exact",
    ) -> None:
        self.conn_graph = conn_graph
        self.mst = mst
        self._mst_star = mst_star
        self._engine = engine
        self._maintainer = IndexMaintainer(conn_graph, mst, engine=engine)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        *,
        method: str = "sharing",
        engine: str = "exact",
        with_star: bool = True,
        jobs: Optional[int] = None,
        **engine_kwargs,
    ) -> "SMCCIndex":
        """Build the full index for ``graph``.

        ``method`` picks the connectivity-graph construction algorithm
        (``"sharing"`` = ConnGraph-BS, ``"batch"`` = ConnGraph-B);
        ``engine`` picks the KECC engine (``"exact"``, ``"random"``,
        ``"cut"``).  ``jobs`` sets the worker-process count for
        ConnGraph-BS piece fan-out (default: ``REPRO_JOBS``, else 1 =
        serial).  With ``with_star=False`` the MST* structure is built
        lazily on the first sc query.  Options are keyword-only.
        """
        with span("index.build") as build_span:
            with span("index.build.connectivity_graph"):
                conn = build_connectivity_graph(
                    graph, method=method, engine=engine, jobs=jobs, **engine_kwargs
                )
            with span("index.build.mst"):
                mst = build_mst(conn)
            star = None
            if with_star:
                with span("index.build.mst_star"):
                    star = build_mst_star(mst)
            build_span.set("n", graph.num_vertices)
            build_span.set("m", graph.num_edges)
            build_span.set("method", method)
            build_span.set("engine", engine)
        return cls(conn, mst, star, engine=engine)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self.conn_graph.graph

    @property
    def num_vertices(self) -> int:
        return self.conn_graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.conn_graph.num_edges

    @property
    def mst_star(self) -> MSTStar:
        """The MST* read structure (rebuilt lazily after updates)."""
        if self._mst_star is None:
            self._mst_star = build_mst_star(self.mst)
        return self._mst_star

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def steiner_connectivity(self, q: Sequence[int], *, method: str = "star") -> int:
        """``sc(q)``: O(|q|) with ``method="star"``, O(|T_q|) with ``"walk"``."""
        if method == "star":
            if _obs.REGISTRY is None and _obs.get_active_stats() is None:
                return self.mst_star.steiner_connectivity(q)
            with profiled_query("sc", query_size=len(q)), span("query.sc"):
                return self.mst_star.steiner_connectivity(q)
        if method == "walk":
            if _obs.REGISTRY is None and _obs.get_active_stats() is None:
                return self.mst.steiner_connectivity(q)
            with profiled_query("sc_walk", query_size=len(q)), span("query.sc_walk"):
                return self.mst.steiner_connectivity(q)
        raise ValueError(f"unknown method {method!r}; use 'star' or 'walk'")

    def smcc(self, q: Sequence[int]) -> SMCCResult:
        """The SMCC of ``q`` (Algorithm 4), O(result) time."""
        if _obs.REGISTRY is None and _obs.get_active_stats() is None:
            vertices, sc = smcc_opt(self.mst, q, self.mst_star)
            return SMCCResult(vertices, sc)
        with profiled_query("smcc", query_size=len(q)) as stats, span("query.smcc"):
            vertices, sc = smcc_opt(self.mst, q, self.mst_star)
        return SMCCResult(vertices, sc, query_stats=stats)

    def smcc_interval(self, q: Sequence[int]) -> "SMCCInterval":
        """The SMCC of ``q`` as an O(|q| + log |V|) interval descriptor.

        An extension beyond the paper's output-linear bound: every
        k-edge connected component is a contiguous slice of the MST*
        DFS leaf order, so the component's identity and *size* are
        available without enumerating its vertices; materialize them
        lazily via :attr:`SMCCInterval.vertices`.
        """
        if _obs.REGISTRY is None and _obs.get_active_stats() is None:
            sc, start, end = self.mst_star.smcc_interval(q)
            return SMCCInterval(self.mst_star, sc, start, end)
        with profiled_query("smcc_interval", query_size=len(q)) as stats, span(
            "query.smcc_interval"
        ):
            sc, start, end = self.mst_star.smcc_interval(q)
        return SMCCInterval(self.mst_star, sc, start, end, query_stats=stats)

    def smcc_l(self, q: Sequence[int], *, size_bound: int) -> SMCCResult:
        """The SMCC_L of ``q`` — O(|q| + log |V|) via the MST* climb.

        Falls back to Algorithm 5's O(result) prioritized search when
        the MST* is unavailable; see :func:`~repro.core.smcc_l.smcc_l_opt`.
        """
        if _obs.REGISTRY is None and _obs.get_active_stats() is None:
            vertices, k = smcc_l_opt(self.mst, q, size_bound, mst_star=self.mst_star)
            return SMCCResult(vertices, k)
        with profiled_query("smcc_l", query_size=len(q)) as stats, span("query.smcc_l"):
            vertices, k = smcc_l_opt(self.mst, q, size_bound, mst_star=self.mst_star)
        return SMCCResult(vertices, k, query_stats=stats)

    def steiner_connectivity_with_size(
        self, q: Sequence[int], *, size_bound: int
    ) -> int:
        """Connectivity of the SMCC_L (Section 7)."""
        if _obs.REGISTRY is None and _obs.get_active_stats() is None:
            return steiner_connectivity_with_size(self.mst, q, size_bound)
        with profiled_query("sc_with_size", query_size=len(q)), span("query.sc_with_size"):
            return steiner_connectivity_with_size(self.mst, q, size_bound)

    def subset_smcc(
        self, q: Sequence[int], *, cover_bound: int
    ) -> SMCCResult:
        """Max-connectivity component containing >= ``cover_bound`` of ``q``."""
        if _obs.REGISTRY is None and _obs.get_active_stats() is None:
            vertices, k = subset_smcc(self.mst, q, cover_bound)
            return SMCCResult(vertices, k)
        with profiled_query("subset_smcc", query_size=len(q)) as stats, span(
            "query.subset_smcc"
        ):
            vertices, k = subset_smcc(self.mst, q, cover_bound)
        return SMCCResult(vertices, k, query_stats=stats)

    def smcc_cover(
        self, q: Sequence[int], *, num_components: int
    ) -> List[SMCCResult]:
        """``num_components`` components jointly covering ``q`` (Section 7)."""
        if _obs.REGISTRY is None and _obs.get_active_stats() is None:
            return [
                SMCCResult(vertices, k)
                for vertices, k in smcc_cover(self.mst, q, num_components)
            ]
        with profiled_query("smcc_cover", query_size=len(q)) as stats, span(
            "query.smcc_cover"
        ):
            pieces = smcc_cover(self.mst, q, num_components)
        return [SMCCResult(vertices, k, query_stats=stats) for vertices, k in pieces]

    def sc_pair(self, u: int, v: int) -> int:
        """Steiner-connectivity of a vertex pair in O(1)."""
        return self.mst_star.sc_pair(u, v)

    def sc_pairs_batch(self, us: Sequence[int], vs: Sequence[int]) -> List[int]:
        """Vectorized ``sc(u, v)`` for arrays of pairs (numpy inside).

        Cross-component pairs yield 0 (instead of raising), making the
        method suitable for bulk analytics like similarity matrices.
        Returns a plain ``list[int]`` to keep the facade's return types
        numpy-free; use :meth:`MSTStar.sc_pairs_batch` directly when an
        ndarray is wanted.
        """
        return self.mst_star.sc_pairs_batch(us, vs).tolist()

    def steiner_connectivity_batch(self, queries: Sequence[Sequence[int]]) -> List[int]:
        """Vectorized ``sc(q)`` for a whole batch of queries.

        One vectorized range minimum over the MST* gap table answers
        every query at once — see
        :meth:`MSTStar.steiner_connectivity_batch`.  Disconnected
        queries (and isolated singletons) answer 0 instead of raising,
        the batch convention shared with :meth:`sc_pairs_batch`.
        Returns a plain ``list[int]``, aligned with ``queries``.
        """
        if _obs.REGISTRY is None and _obs.get_active_stats() is None:
            return self.mst_star.steiner_connectivity_batch(queries).tolist()
        with profiled_query("sc_batch", query_size=len(queries)), span(
            "query.sc_batch"
        ):
            return self.mst_star.steiner_connectivity_batch(queries).tolist()

    def to_scipy_linkage(self):
        """The connectivity dendrogram as a SciPy ``linkage`` matrix.

        Plug into ``scipy.cluster.hierarchy`` (``dendrogram``,
        ``fcluster``); cutting at distance ``max_connectivity + 1 - k``
        yields the k-edge connected components.  Connected graphs only.
        """
        from repro.index.export import to_scipy_linkage

        return to_scipy_linkage(self.mst_star)

    # ------------------------------------------------------------------
    # Whole-graph structure
    # ------------------------------------------------------------------
    def components_at(self, k: int) -> List[List[int]]:
        """All k-edge connected components, read off the index in O(|V|)."""
        return self.mst.components_at(k)

    def connectivity_histogram(self) -> dict:
        """Tree-edge count per steiner-connectivity value (merge profile)."""
        return self.mst.connectivity_histogram()

    def max_connectivity(self) -> int:
        """The largest k for which a k-edge connected component exists."""
        return self.mst.max_connectivity()

    # ------------------------------------------------------------------
    # Updates (Section 5.2)
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> List[Tuple[int, int, int]]:
        """Insert edge ``(u, v)`` and maintain the index incrementally.

        Returns the list of ``(a, b, new_sc)`` steiner-connectivity
        changes (including the new edge itself).
        """
        changes = self._maintainer.insert_edge(u, v)
        self._mst_star = None  # rebuilt lazily
        return changes

    def delete_edge(self, u: int, v: int) -> List[Tuple[int, int, int]]:
        """Delete edge ``(u, v)`` and maintain the index incrementally."""
        changes = self._maintainer.delete_edge(u, v)
        self._mst_star = None
        return changes

    def insert_vertex(self, neighbors: Sequence[int] = ()) -> int:
        """Add a vertex (optionally with edges) and maintain the index.

        Section 5.2: a vertex insertion is an isolated-vertex insertion
        (which affects nothing) followed by edge insertions.  Returns
        the new vertex id.
        """
        vertex = self.conn_graph.add_vertex()
        self.mst.add_vertex()
        for nbr in neighbors:
            self.insert_edge(vertex, nbr)
        return vertex

    def delete_vertex(self, vertex: int) -> List[Tuple[int, int, int]]:
        """Delete all edges of ``vertex`` and maintain the index.

        The vertex itself stays as an isolated id (ids are dense and
        stable); per Section 5.2 a vertex deletion is edge deletions
        followed by an isolated-vertex deletion, which affects nothing.
        Returns the union of sc changes across the edge deletions.
        """
        changes: List[Tuple[int, int, int]] = []
        for nbr in list(self.graph.neighbors(vertex)):
            changes.extend(self.delete_edge(vertex, nbr))
        return changes

    # ------------------------------------------------------------------
    # Integrity checking
    # ------------------------------------------------------------------
    def verify(self, *, sample_pairs: int = 64, seed: int = 0) -> "VerifyReport":
        """Self-check the index; raises :class:`IndexStateError` on damage.

        Validates, in order: graph ↔ connectivity-graph synchronization,
        the spanning-forest structure and the maximum-spanning-tree cycle
        property, MST* structural invariants (Lemma A.1), and — most
        importantly — a random sample of pairwise steiner-connectivities
        recomputed from scratch with the exact KECC engine.  Intended as
        the equivalent of a filesystem ``fsck`` after loading a
        persisted index or applying a long update sequence.  Returns a
        :class:`VerifyReport` summarizing the evidence checked.
        """
        import random as _random

        from repro.errors import IndexStateError

        started = monotonic()
        weights_checked = 0
        pairs_sampled = 0
        try:
            self.conn_graph.validate()
        except Exception as exc:
            raise IndexStateError(f"connectivity graph inconsistent: {exc}") from exc
        mst = self.mst
        n = self.num_vertices
        # Forest structure: tree edge count == n - number of components.
        components = len(mst.components_at(1))
        if mst.num_tree_edges() != n - components:
            raise IndexStateError(
                f"spanning forest has {mst.num_tree_edges()} edges for "
                f"{n} vertices in {components} components"
            )
        # Every tree/NT edge must exist in the graph with matching weight.
        tree_edges_checked = 0
        non_tree_edges_checked = 0
        for u, v, w in mst.tree_edges():
            tree_edges_checked += 1
            if self.conn_graph.weight(u, v) != w:
                raise IndexStateError(f"tree edge ({u},{v}) weight mismatch")
        for u, v, w in mst.non_tree.iter_non_increasing():
            non_tree_edges_checked += 1
            if self.conn_graph.weight(u, v) != w:
                raise IndexStateError(f"NT edge ({u},{v}) weight mismatch")
            path = mst.tree_path(u, v)
            if path is None:
                raise IndexStateError(f"NT edge ({u},{v}) spans two trees")
            if min(e[2] for e in path) < w:
                raise IndexStateError(
                    f"cycle property violated at NT edge ({u},{v})"
                )
        if mst.num_tree_edges() + len(mst.non_tree) != self.num_edges:
            raise IndexStateError("tree + NT edges do not cover the graph")
        try:
            self.mst_star.validate(self.mst)
        except AssertionError as exc:
            raise IndexStateError(f"MST* invariant violated: {exc}") from exc
        # Sampled semantic check against a fresh exact computation.
        if n >= 2 and sample_pairs > 0:
            from repro.index.connectivity_graph import conn_graph_sharing

            fresh = conn_graph_sharing(self.graph.copy())
            fresh_mst_weights = fresh.weights_dict()
            for (u, v), w in self.conn_graph.weights_dict().items():
                weights_checked += 1
                if fresh_mst_weights.get((u, v)) != w:
                    raise IndexStateError(
                        f"sc({u},{v}) stored as {w}, recomputed "
                        f"{fresh_mst_weights.get((u, v))}"
                    )
            rng = _random.Random(seed)
            from repro.errors import DisconnectedQueryError
            from repro.index.mst import build_mst

            fresh_tree = build_mst(fresh)
            for _ in range(sample_pairs):
                u, v = rng.sample(range(n), 2)
                pairs_sampled += 1
                try:
                    stored = self.mst.steiner_connectivity([u, v])
                except DisconnectedQueryError:
                    stored = 0
                try:
                    recomputed = fresh_tree.steiner_connectivity([u, v])
                except DisconnectedQueryError:
                    recomputed = 0
                if stored != recomputed:
                    raise IndexStateError(
                        f"sampled sc({u},{v}) = {stored}, recomputed {recomputed}"
                    )
        return VerifyReport(
            num_vertices=n,
            num_edges=self.num_edges,
            num_components=components,
            tree_edges_checked=tree_edges_checked,
            non_tree_edges_checked=non_tree_edges_checked,
            weights_checked=weights_checked,
            pairs_sampled=pairs_sampled,
            elapsed_seconds=monotonic() - started,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: PathLike) -> None:
        """Save the index (connectivity graph + MST) under ``directory``."""
        from repro.index.persistence import save_connectivity_graph, save_mst

        os.makedirs(directory, exist_ok=True)
        save_connectivity_graph(self.conn_graph, os.path.join(directory, "conn_graph.npz"))
        save_mst(self.mst, os.path.join(directory, "mst.npz"))

    @classmethod
    def load(cls, directory: PathLike, *, engine: str = "exact") -> "SMCCIndex":
        """Load an index saved by :meth:`save`."""
        from repro.index.persistence import load_connectivity_graph, load_mst

        with span("index.load"):
            conn = load_connectivity_graph(os.path.join(directory, "conn_graph.npz"))
            mst = load_mst(os.path.join(directory, "mst.npz"))
        return cls(conn, mst, engine=engine)

    def __repr__(self) -> str:
        star = "built" if self._mst_star is not None else "stale"
        return (
            f"SMCCIndex(n={self.num_vertices}, m={self.num_edges}, "
            f"tree_edges={self.mst.num_tree_edges()}, "
            f"mst_star={star}, engine={self._engine!r})"
        )
