"""Seeded inputs of the three workloads: graphs, operation rounds, writes.

Everything here is a pure function of ``(workload, size, seed)``; the
program under test only ever sees the edge-list file and the operations.
The graph, the writes and the pool of repeated queries are the same for
every seed, so that runs with different seeds measure the same index:
``seed`` draws the reads and the checked sample.  (A seeded graph moved read latencies by a third between
seeds, and so did a seeded renumbering of one graph: the vertex order
changes the memory locality of every set the serving layer builds.)

An operation is a tuple whose first item is its kind:

- ``("sc", q)``, ``("smcc", q)``, ``("smcc_l", q)`` — one query;
- ``("batch", [q, ...])`` — one ``sc_batch`` call;
- ``("gather", [q, ...])`` — one ``asyncio.gather`` of ``sc_async``
  calls (sharded tier only);
- ``("write", inserts, deletes)`` — one ``apply_updates`` batch,
  published at once.

A run repeats whole *rounds*.  The writes of a round undo each other by
its end, so every round starts from the graph in the edge-list file, and
writes sit at fixed positions between the reads.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.graph.generators import real_graph_analog, ssca_graph
from repro.graph.graph import Graph

Query = Tuple[int, ...]
Edge = Tuple[int, int]
Op = tuple

WORKLOADS = ("cold-reads", "hot-churn", "shard-reads")


@dataclass(frozen=True)
class Spec:
    """Shape of one workload at one size."""

    name: str
    #: "rga" (real_graph_analog), "ssca", or "islands" (disjoint SSCAs)
    graph: str
    n: int
    m: int = 0
    islands: int = 1
    #: reads per round, split by ``shares`` at fixed positions
    reads: int = 1000
    shares: Dict[str, float] = field(default_factory=dict)
    #: write batches per round, evenly spaced between the reads
    writes: int = 4
    #: read positions the writes come before, when not evenly spaced
    write_at: Tuple[int, ...] = ()
    batch_size: int = 16
    gather_size: int = 8
    size_bound: int = 64
    #: 0 = every query freshly sampled; >0 = a repeated pool of this size,
    #: drawn like the graph from :data:`STRUCTURE_SEED`
    pool: int = 0
    #: sharded tier worker processes (capped by the CPU count)
    workers: int = 0
    #: set-ups per run; ``setup_s`` is their median
    setups: int = 3


SPECS: Dict[str, Dict[str, Spec]] = {
    "full": {
        "cold-reads": Spec(
            "cold-reads", "rga", n=10000, m=40000, reads=2000,
            shares={"sc": 0.60, "batch": 0.08, "smcc": 0.16, "smcc_l": 0.16},
            writes=14, write_at=tuple(range(1400, 1880, 40)) + (1900, 1950),
            size_bound=64, setups=3,
        ),
        "hot-churn": Spec(
            "hot-churn", "ssca", n=3000, reads=240,
            shares={"sc": 0.55, "batch": 0.10, "smcc": 0.20, "smcc_l": 0.15},
            writes=12, size_bound=1000, pool=48, setups=4,
        ),
        "shard-reads": Spec(
            "shard-reads", "islands", n=3000, islands=4, reads=640,
            shares={"sc": 0.50, "batch": 0.10, "smcc": 0.12, "smcc_l": 0.12,
                    "gather": 0.16},
            writes=8, size_bound=400, workers=2, setups=4,
        ),
    },
    # A few seconds per workload: the benchmark's own tests.
    "tiny": {
        "cold-reads": Spec(
            "cold-reads", "rga", n=400, m=1600, reads=300,
            shares={"sc": 0.60, "batch": 0.08, "smcc": 0.16, "smcc_l": 0.16},
            writes=8, write_at=(200, 210, 220, 230, 240, 250, 270, 290), size_bound=16,
            setups=2,
        ),
        "hot-churn": Spec(
            "hot-churn", "ssca", n=300, reads=112,
            shares={"sc": 0.55, "batch": 0.10, "smcc": 0.20, "smcc_l": 0.15},
            writes=8, size_bound=16, pool=16, setups=2,
        ),
        "shard-reads": Spec(
            "shard-reads", "islands", n=320, islands=4, reads=160,
            shares={"sc": 0.50, "batch": 0.10, "smcc": 0.12, "smcc_l": 0.12,
                    "gather": 0.16},
            writes=4, size_bound=16, workers=2, setups=2,
        ),
    },
}


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
#: seed of the graph, the writes, the set-up query and the query pool
STRUCTURE_SEED = 1
#: every this many freshly drawn queries one is local (small SMCC), the
#: rest are spread.  A share far from a half keeps each median inside
#: one of the two latency clusters; fixed positions keep the share the
#: same in every round.
LOCAL_EVERY = 4
#: Zipf exponent of the repeated query pool
POOL_SKEW = 1.4


def make_graph(spec: Spec) -> Graph:
    """The workload's graph, as it is written to the edge-list file."""
    seed = STRUCTURE_SEED
    if spec.graph == "rga":
        return real_graph_analog(spec.n, spec.m, seed=seed)
    if spec.graph == "ssca":
        return ssca_graph(spec.n, seed=seed)
    per = spec.n // spec.islands
    parts = [ssca_graph(per, seed=seed * 101 + i) for i in range(spec.islands)]
    graph = Graph(sum(p.num_vertices for p in parts))
    offset = 0
    for part in parts:
        for u, v in part.edges():
            graph.add_edge(u + offset, v + offset)
        offset += part.num_vertices
    return graph


def components(graph: Graph) -> List[List[int]]:
    """Connected components, each sorted, largest first."""
    seen = [False] * graph.num_vertices
    found: List[List[int]] = []
    for start in graph.vertices():
        if seen[start]:
            continue
        seen[start] = True
        stack, comp = [start], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in graph.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        found.append(sorted(comp))
    found.sort(key=len, reverse=True)
    return found


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def local_query(graph: Graph, rng: random.Random, verts: Sequence[int]) -> Query:
    """A vertex, its neighbour sharing most neighbours, maybe a common one.

    Such triangles sit inside dense communities, so their SMCC is small.
    """
    while True:
        v = rng.choice(verts)
        nbrs = graph.neighbors(v)
        if nbrs:
            break
    ordered = sorted(nbrs)
    w = max(ordered, key=lambda x: (len(nbrs & graph.neighbors(x)), -x))
    common = sorted(nbrs & graph.neighbors(w))
    if common and rng.random() < 0.5:
        return (v, w, rng.choice(common))
    return (v, w)


def spread_query(rng: random.Random, verts: Sequence[int]) -> Query:
    """Two or three vertices drawn at random: a near-whole-graph SMCC."""
    return tuple(rng.sample(verts, rng.choice((2, 3))))


# ----------------------------------------------------------------------
# Writes
# ----------------------------------------------------------------------
def chord(graph: Graph, rng: random.Random, verts: Sequence[int], taken: set,
          dense: bool = False) -> Edge:
    """An absent pair closing a wedge: a small-region write.

    With ``dense`` both ends share most of their neighbours, so the pair
    sits inside one dense community and its connectivity changes stay
    inside it.
    """
    while True:
        u = rng.choice(verts)
        nbrs = sorted(graph.neighbors(u))
        if not nbrs:
            continue
        via = rng.choice(nbrs)
        two_hop = [w for w in sorted(graph.neighbors(via))
                   if w != u and not graph.has_edge(u, w)
                   and (not dense or _shares_most(graph, u, w))]
        if not two_hop:
            continue
        e = _key(u, rng.choice(two_hop))
        if e not in taken:
            taken.add(e)
            return e


def far_pair(graph: Graph, rng: random.Random, a: Sequence[int], b: Sequence[int],
             taken: set) -> Edge:
    """An absent pair of random vertices from ``a`` and ``b``: a write whose
    region spans the graph (or joins two components)."""
    while True:
        e = _key(rng.choice(a), rng.choice(b))
        if e[0] != e[1] and not graph.has_edge(*e) and e not in taken:
            taken.add(e)
            return e


def removable_edges(graph: Graph, rng: random.Random, verts: Sequence[int],
                    count: int) -> List[Edge]:
    """Existing edges closing a triangle, lightest endpoints first.

    Each deleted edge keeps a two-edge detour through a common neighbour
    whose edges are never deleted, so deletions never disconnect the
    graph.  Low-degree endpoints sit in small cliques, where most edges
    are maximum-spanning-forest edges.
    """
    picked: List[Edge] = []
    used: set = set()
    candidates: List[Tuple[int, Edge, int]] = []
    for _ in range(40 * count):
        u = rng.choice(verts)
        for v in sorted(graph.neighbors(u)):
            common = sorted(graph.neighbors(u) & graph.neighbors(v))
            if common:
                candidates.append((graph.degree(u) + graph.degree(v), _key(u, v), common[0]))
                break
    for _, e, w in sorted(candidates):
        if len(picked) == count:
            break
        if {e[0], e[1], w} & used:
            continue
        used.update((e[0], e[1], w))
        picked.append(e)
    return picked


def _shares_most(graph: Graph, u: int, w: int) -> bool:
    common = len(graph.neighbors(u) & graph.neighbors(w))
    return common >= 3 and common >= 0.6 * min(graph.degree(u), graph.degree(w))


def _key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def undoing_batches(events: List[Tuple[str, Edge]]) -> List[Op]:
    """One write batch per event, then one undoing each in reverse order,
    so the graph is back to its start after the last batch."""
    undo = [("del" if kind == "ins" else "ins", e) for kind, e in reversed(events)]
    return [("write", [e], []) if kind == "ins" else ("write", [], [e])
            for kind, e in events + undo]


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def read_kinds(spec: Spec) -> List[str]:
    """The kind of each read position: shares interleaved evenly, the same
    for every seed."""
    kinds = sorted(spec.shares)
    counts = dict.fromkeys(kinds, 0)
    order: List[str] = []
    for i in range(spec.reads):
        kind = max(kinds, key=lambda k: (spec.shares[k] * (i + 1) - counts[k], k))
        counts[kind] += 1
        order.append(kind)
    return order


class Inputs:
    """The operation rounds of one workload and seed.

    ``graph`` is the graph as the program read it from the edge-list
    file.  The writes, the set-up query and the query pool are drawn
    from :data:`STRUCTURE_SEED`, the reads of each round from ``seed``.
    """

    def __init__(self, spec: Spec, graph: Graph, seed: int) -> None:
        self.spec = spec
        self.graph = graph
        self.seed = seed
        self.comps = components(graph)[: spec.islands]
        rng = random.Random(STRUCTURE_SEED)
        self.first_query = local_query(graph, rng, self.comps[0])
        self.writes = _writes(spec, graph, self.comps, rng)
        # Every fourth query of the skewed pool is a spread query.
        self.pool = [self._query(rng, local=i % 4 != 3) for i in range(spec.pool)]

    def round(self, index: int) -> List[Op]:
        """Round ``index``: freshly drawn reads at the fixed positions."""
        return self._make_round(random.Random(seed_of(self.seed, index)))

    # ------------------------------------------------------------------
    def _query(self, rng: random.Random, local: bool) -> Query:
        verts = rng.choice(self.comps)
        if local:
            return local_query(self.graph, rng, verts)
        return spread_query(rng, verts)

    def _make_round(self, rng: random.Random) -> List[Op]:
        spec = self.spec
        if spec.pool:
            # The pool is the same for every seed; the seed draws the
            # sequence in which it is read.
            pool = self.pool
            weights = [1.0 / (i + 1) ** POOL_SKEW for i in range(spec.pool)]
            pick = lambda: pool[rng.choices(range(spec.pool), weights)[0]]  # noqa: E731
            # Batches and smcc_l draw uniformly, so that most batches hold
            # an invalidated entry and smcc_l mostly misses.
            pick_many = lambda: pool[rng.randrange(spec.pool)]  # noqa: E731
        else:
            drawn = itertools.count()
            pick = lambda: self._query(rng, next(drawn) % LOCAL_EVERY == 0)  # noqa: E731
            pick_many = pick
        reads: List[Op] = []
        for kind in read_kinds(spec):
            if kind in ("batch", "gather"):
                size = spec.batch_size if kind == "batch" else spec.gather_size
                reads.append((kind, [pick_many() for _ in range(size)]))
            elif kind == "smcc_l":
                reads.append((kind, pick_many()))
            else:
                reads.append((kind, pick()))
        every = len(reads) // len(self.writes)
        at = spec.write_at or tuple(every * (i + 1) for i in range(len(self.writes)))
        ops: List[Op] = []
        start = 0
        for position, write in zip(at, self.writes):
            ops.extend(reads[start:position])
            ops.append(write)
            start = position
        ops.extend(reads[start:])
        return ops


def seed_of(seed: int, index: int) -> int:
    return seed * 7919 + 1000 + index


def _writes(spec: Spec, graph: Graph, comps: List[List[int]],
            rng: random.Random) -> List[Op]:
    """One round's write batches on the unpermuted graph."""
    taken: set = set()
    verts = comps[0]
    if spec.graph == "ssca":
        # Frequent small writes, one update per batch: two triangle-edge
        # deletions, a long-range edge and wedge chords in seeded order,
        # then their undos in reverse.  Dirty regions accumulate against
        # the last full capture, so about one publish in three falls back
        # to full.
        events = [("del", e) for e in removable_edges(graph, rng, verts, 2)]
        events.append(("ins", far_pair(graph, rng, verts, verts, taken)))
        while len(events) < spec.writes // 2:
            events.append(("ins", chord(graph, rng, verts, taken)))
        rng.shuffle(events)
        return undoing_batches(events)
    # Rare writes: one chord inserted and removed again and again (delta
    # publishes whose dirty region stays the chord's; on cold-reads it
    # sits inside a dense community), then a random long-range edge (on
    # shard-reads one joining two islands: a structure change) and its
    # undo, both full publishes.  The toggles cost the same every time,
    # so the write medians sit inside one cluster of samples rather than
    # between the delta and full ones.  A quarter of cold-reads' reads,
    # and three quarters of shard-reads', see a delta generation, where
    # smcc_l takes the slower MST walk.
    near = chord(graph, rng, verts, taken, dense=spec.graph == "rga")
    far = far_pair(graph, rng, verts, comps[1 % len(comps)], taken)
    toggle = [("write", [near], []), ("write", [], [near])]
    return toggle * (spec.writes // 2 - 1) + undoing_batches([("ins", far)])
