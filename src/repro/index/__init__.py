"""Index layer: connectivity graph, MST / MST* indexes, and maintenance."""

from __future__ import annotations

from repro.index.connectivity_graph import (
    ConnectivityGraph,
    build_connectivity_graph,
    conn_graph_batch,
    conn_graph_sharing,
)
from repro.index.maintenance import IndexMaintainer
from repro.index.mst import MSTIndex, build_mst
from repro.index.mst_star import MSTStar, build_mst_star

__all__ = [
    "ConnectivityGraph",
    "build_connectivity_graph",
    "conn_graph_batch",
    "conn_graph_sharing",
    "MSTIndex",
    "build_mst",
    "MSTStar",
    "build_mst_star",
    "IndexMaintainer",
]
