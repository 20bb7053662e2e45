"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core.queries import SMCCIndex
from repro.graph.graph import Graph
from repro.graph.generators import (
    clique_chain_graph,
    gnm_random_graph,
    paper_example_graph,
)


class StoreSegmentSweep:
    """Segments left behind by the stores created inside a ``with`` block.

    Records the prefix of every
    :class:`~repro.serve.shard.SharedSnapshotStore` constructed in the
    block, and :meth:`leaked` lists the ``/dev/shm`` segments still
    carrying one of those prefixes.  Segments of other processes on the
    same host (a concurrent benchmark, a second CI job) carry other
    prefixes and are never reported.
    """

    def __init__(self) -> None:
        self.prefixes: List[str] = []

    def __enter__(self) -> "StoreSegmentSweep":
        from repro.serve.shard import SharedSnapshotStore

        self._init = init = SharedSnapshotStore.__init__
        prefixes = self.prefixes

        def recording_init(store, *args, **kwargs):
            try:
                init(store, *args, **kwargs)
            finally:
                if getattr(store, "prefix", None) is not None:
                    prefixes.append(store.prefix)

        SharedSnapshotStore.__init__ = recording_init
        return self

    def __exit__(self, *exc: object) -> None:
        from repro.serve.shard import SharedSnapshotStore

        SharedSnapshotStore.__init__ = self._init

    def leaked(self) -> List[str]:
        from repro.serve.shard import system_segments

        return sorted(
            {name for prefix in self.prefixes for name in system_segments(prefix)}
        )


@pytest.fixture
def shm_leak_sweep():
    """Fail the test if its stores leave segments behind in /dev/shm.

    Every :class:`~repro.serve.shard.SharedSnapshotStore` created during
    the test is recorded (:class:`StoreSegmentSweep`); any segment still
    carrying one of their prefixes afterwards is reported verbatim.
    When the runtime leak tracker is armed (``REPRO_LEAKTRACK=1``) the
    failure message is enriched with the allocation stack of each
    still-live tracked resource, so the leak points at the acquiring
    line instead of at the sweep.  Shard/serve test modules adopt this
    module-wide via an autouse wrapper.
    """
    from repro.analysis import leaktrack

    with StoreSegmentSweep() as sweep:
        yield
    leaked = sweep.leaked()
    if not leaked:
        return
    lines = ["test leaked shared-memory segments: " + ", ".join(leaked)]
    if leaktrack.enabled():
        for record in leaktrack.live(kinds=("shm-segment",)):
            lines.append(
                f"  still-live {record.kind} {record.label!r} acquired at:\n"
                f"{record.stack}"
            )
    pytest.fail("\n".join(lines))


#: a chord of chain_with_cycle_graph's 6-cycle: inserting or deleting
#: it changes no steiner-connectivity, so the spanning forest (and the
#: published MST*) stays the same
CYCLE_CHORD = (15, 18)


def chain_with_cycle_graph():
    """Cliques K5 - K4 - K6 (0..14) with a 6-cycle (15..20) off vertex 14.

    A chord splits the cycle into two 4-cycles, but no subgraph gains a
    third edge-disjoint path at every vertex, so every sc stays put;
    any new edge between the cliques changes the tree.
    """
    graph = clique_chain_graph([5, 4, 6])
    edges = list(graph.edges()) + [(14, 15)]
    edges += [(15 + i, 15 + (i + 1) % 6) for i in range(6)]
    return Graph.from_edges(edges, num_vertices=21)


def publish_star_reuse(serving):
    """Publish one chord insert that keeps the spanning forest.

    Tries absent distance-2 pairs in a fixed order; a chord that moves
    the tree is deleted again and published away.  Returns the reuse
    publish's report and the chord, which the caller may delete to
    undo the churn.
    """
    live = serving.publisher.index
    mst = live.mst
    for u in range(live.graph.num_vertices):
        for via in sorted(live.graph.neighbors(u)):
            for v in sorted(live.graph.neighbors(via)):
                if v <= u or live.graph.has_edge(u, v):
                    continue
                version = mst.tree_version
                serving.apply_updates(inserts=[(u, v)])
                if mst.tree_version == version:
                    report = serving.publish()
                    assert report.mode == "delta"
                    return report, (u, v)
                serving.apply_updates(deletes=[(u, v)])
                serving.publish()
    raise AssertionError("no chord keeps the spanning forest")


@pytest.fixture
def paper_graph():
    """The 13-vertex running example of the paper (Figure 2)."""
    return paper_example_graph()


@pytest.fixture
def paper_index(paper_graph):
    """A full SMCC index over the paper's example graph."""
    return SMCCIndex.build(paper_graph)


@pytest.fixture
def chain_graph():
    """Cliques K5 - K4 - K6 joined by bridges (known sc values)."""
    return clique_chain_graph([5, 4, 6])


@pytest.fixture
def chain_index(chain_graph):
    return SMCCIndex.build(chain_graph)


def random_connected_graph(seed: int, min_n: int = 6, max_n: int = 28):
    """A random connected simple graph (test helper, deterministic)."""
    rng = random.Random(seed)
    n = rng.randint(min_n, max_n)
    max_m = n * (n - 1) // 2
    m = rng.randint(n - 1, min(3 * n, max_m))
    graph = gnm_random_graph(n, m, seed)
    # Stitch components together to guarantee connectivity.
    from repro.graph.traversal import connected_components

    comps = connected_components(graph)
    for a, b in zip(comps, comps[1:]):
        graph.add_edge(a[0], b[0])
    return graph


def brute_force_sc_pairs(graph):
    """All-pairs steiner-connectivity via the cut-based oracle.

    sc(u, v) = max k such that u and v share a k-edge connected
    component.  Exponential-free but slow; for test graphs only.
    """
    from repro.kecc import keccs_cut_based

    n = graph.num_vertices
    edges = graph.edge_list()
    sc = {}
    k = 1
    groups = keccs_cut_based(n, edges, 1)
    _record(sc, groups, 1)
    while True:
        k += 1
        groups = keccs_cut_based(n, edges, k)
        if all(len(g) < 2 for g in groups):
            break
        _record(sc, groups, k)
    return sc


def _record(sc, groups, k):
    for group in groups:
        if len(group) < 2:
            continue
        group = sorted(group)
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                sc[(u, v)] = k
