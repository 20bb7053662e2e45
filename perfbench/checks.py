"""Output checks on a seeded sample of round 0.

Three checks, from cheapest to dearest:

1. every sampled answer equals the scalar answer recomputed on the
   snapshot of the generation that answered it (so a batch answer must
   equal the scalar ones, a cache hit the uncached one, and a sharded
   answer the in-process one).  The recomputation runs right after the
   operation, outside its timing, so no old snapshot is kept alive;
2. on ``PROPERTY_CHECKS`` *deep* samples per family, the answer has the
   properties an SMCC must have, checked with networkx on that
   generation's graph: ``q`` is inside ``S``, ``G[S]`` is connected with
   edge connectivity at least ``sc``, and ``|S| >= L`` for ``smcc_l``;
3. the first deep sample of each family equals the index-free baseline
   of :mod:`repro.baselines` on that generation's graph.

Checks 2 and 3 run after the measured phase.  A sample that fails any
check counts its operation as failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import networkx as nx

from repro.baselines import sc_baseline, smcc_baseline, smcc_l_baseline
from repro.errors import DisconnectedQueryError
from repro.graph.graph import Graph

#: deep samples per family (sc, smcc, smcc_l)
PROPERTY_CHECKS = 2
#: nx.edge_connectivity takes about a minute on a 9k-vertex component;
#: above this size a connectivity k >= 3 is checked through its
#: necessary conditions (no bridge, minimum degree >= k) instead
EXACT_CONNECTIVITY_MAX = 1000

Component = Tuple[List[int], int]


@dataclass
class Sample:
    """One answered operation, checked against its generation."""

    op: tuple
    #: the served answer as :func:`normalized` gives it
    answer: Any
    #: the same operation recomputed on the answering snapshot
    expected: Any
    #: deep samples only: the generation's edges and vertex count
    edges: Optional[Tuple[Tuple[int, int], ...]] = None
    num_vertices: int = 0
    #: deep ``sc`` samples only: the SMCC of the query at that generation
    component: Optional[List[int]] = None
    #: first deep sample of its family: also compared with the baseline
    baseline: bool = False


def scalar_sc(snapshot: Any, q: Tuple[int, ...]) -> int:
    """The scalar ``sc`` with the batch convention (0 when disconnected)."""
    try:
        return snapshot.steiner_connectivity(q)
    except DisconnectedQueryError:
        return 0


def _component(result: Any) -> Component:
    return sorted(result.vertices), result.connectivity


def normalized(kind: str, answer: Any) -> Any:
    """A served answer in comparable form: sorted vertices for components."""
    if kind in ("smcc", "smcc_l"):
        return _component(answer)
    if kind in ("batch", "gather"):
        return list(answer)
    return answer


def recompute(op: tuple, snapshot: Any, size_bound: int) -> Any:
    """``op``'s answer recomputed on ``snapshot``, in normalized form."""
    kind, arg = op[0], op[1]
    if kind == "sc":
        return snapshot.steiner_connectivity(arg)
    if kind in ("batch", "gather"):
        return [scalar_sc(snapshot, q) for q in arg]
    if kind == "smcc":
        return _component(snapshot.smcc(arg))
    return _component(snapshot.smcc_l(arg, size_bound))


def take(op: tuple, answer: Any, snapshot: Any, size_bound: int, deep: bool,
         baseline: bool) -> Sample:
    """Record ``op``'s answer with what the deep checks will need."""
    sample = Sample(op, normalized(op[0], answer), recompute(op, snapshot, size_bound))
    if deep:
        sample.edges = snapshot.edges
        sample.num_vertices = snapshot.num_vertices
        sample.baseline = baseline
        if op[0] == "sc":
            sample.component = sorted(snapshot.smcc(op[1]).vertices)
    return sample


def has_properties(sample: Sample, nx_graph: "nx.Graph", size_bound: int) -> str:
    """Empty string when the answer has the SMCC properties, else why not."""
    kind, q = sample.op[0], sample.op[1]
    if kind == "sc":
        vertices, k = sample.component or [], sample.answer
    else:
        vertices, k = sample.answer
    members = set(vertices)
    if not set(q) <= members:
        return "query not inside its component"
    if kind == "smcc_l" and len(members) < size_bound:
        return f"component of {len(members)} < size bound {size_bound}"
    sub = nx_graph.subgraph(members)
    if not nx.is_connected(sub):
        return "component not connected"
    if k < 1:
        return f"connectivity {k} of a connected component"
    if k >= 2 and nx.has_bridges(sub):
        return f"component has a bridge, connectivity below {k}"
    if k >= 3:
        if len(members) <= EXACT_CONNECTIVITY_MAX:
            if nx.edge_connectivity(sub, cutoff=k) < k:
                return f"component edge connectivity below {k}"
        elif min(d for _, d in sub.degree()) < k:
            return f"component has a vertex of degree below {k}"
    return ""


def matches_baseline(sample: Sample, size_bound: int) -> bool:
    kind, q = sample.op[0], sample.op[1]
    graph = Graph.from_edges(sample.edges or (), num_vertices=sample.num_vertices)
    if kind == "sc":
        return sc_baseline(graph, q) == sample.answer
    if kind == "smcc":
        vertices, k = smcc_baseline(graph, q)
    else:
        vertices, k = smcc_l_baseline(graph, q, size_bound)
    return (sorted(vertices), k) == sample.answer


def run_checks(samples: List[Sample], size_bound: int,
               log: Callable[[str], None]) -> List[Tuple[int, str]]:
    """Check the samples; returns ``(sample index, reason)`` per failure."""
    bad: Dict[int, str] = {}
    graphs: Dict[int, "nx.Graph"] = {}
    for i, sample in enumerate(samples):
        kind = sample.op[0]
        if sample.answer != sample.expected:
            bad[i] = f"{kind} differs from the scalar answer at its generation"
        if sample.edges is None:
            continue
        started = time.perf_counter()
        key = id(sample.edges)
        if key not in graphs:
            graphs[key] = nx.Graph(sample.edges)
        why = has_properties(sample, graphs[key], size_bound)
        if why:
            bad.setdefault(i, f"{kind}: {why}")
        checked = time.perf_counter()
        if sample.baseline and not matches_baseline(sample, size_bound):
            bad.setdefault(i, f"{kind} differs from the index-free baseline")
        log(f"deep check of {kind}: properties {checked - started:.2f}s, "
            f"baseline {time.perf_counter() - checked:.2f}s")
    for i, why in sorted(bad.items()):
        log(f"check failed: op {samples[i].op[0]} {samples[i].op[1]!r:.80}: {why}")
    return sorted(bad.items())
