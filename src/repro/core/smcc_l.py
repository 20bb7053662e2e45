"""SMCC_L-OPT: SMCC with a minimum-size constraint (Section 4.5, Algorithm 5).

A prioritized (maximum-weight-first) search over the MST from a query
vertex, backed by a bucket max-queue so the total cost is linear in the
result size.  The connectivity ``k`` of the answer is fixed at the
moment the visited set first covers the query and reaches the size
bound: ``k`` = the minimum weight among the edges popped so far.

When an MST* is on hand the same answer is read off its gap table in
O(|q| + log |V|) per climb step instead — see
:meth:`MSTStar.smcc_l_interval`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.index.mst import MSTIndex
from repro.index.mst_star import MSTStar


def smcc_l_opt(
    mst: MSTIndex,
    q: Sequence[int],
    size_bound: int,
    mst_star: Optional[MSTStar] = None,
) -> Tuple[Sequence[int], int]:
    """Compute the SMCC_L of ``q``: ``(vertices, connectivity)``.

    With an ``mst_star`` the answer comes from the climb over gap runs
    of :meth:`MSTStar.smcc_l_interval` — the candidate components are
    the maximal runs of gaps >= k around the query's leaves, so the
    result is *described* without enumerating it and only the final
    leaf-order slice is materialized.  Without one the prioritized
    search of Algorithm 5 runs on the MST.  Both paths return the same
    vertex set and connectivity; only the vertex order differs (leaf
    order vs discovery order).

    Raises :class:`~repro.errors.InfeasibleSizeConstraintError` when the
    connected component containing ``q`` has fewer than ``size_bound``
    vertices, and :class:`~repro.errors.DisconnectedQueryError` when the
    query spans components.
    """
    if mst_star is not None:
        k, start, end = mst_star.smcc_l_interval(q, size_bound)
        return mst_star.leaf_order[start:end], k
    return mst.smcc_l(q, size_bound)
