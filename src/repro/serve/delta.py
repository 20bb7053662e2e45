"""Copy-on-write delta snapshot publishing: region-local MST* patches.

A full :func:`~repro.serve.snapshot.capture_snapshot` costs O(|V| log
|V|): it rebuilds MST* with its gap table from the whole spanning
forest.  But the paper's §5.2/§5.3 maintenance confines every sc change
to the SMCC of the updated edge, and in MST* every k-ecc is one subtree
covering one contiguous leaf-order interval — so after a small batch of
updates, only one subtree of the *base* MST* is stale.  This module
rebuilds exactly that subtree and grafts it over the base as a
:class:`DeltaStar`, sharing every untouched tree array (parents,
weights, leaf intervals, jump table) with the previous generation by
object identity.  Every query reads one structure on every generation:
the gap row ``gap[i] = sc(leaf_order[i], leaf_order[i+1])`` under a
sparse table (see :mod:`repro.index.mst_star`).  A delta copies the
base gap row, splices the patch's gaps in over the region's slice
``[region_start, region_end - 1)``, and rebuilds its own table; no MST
is cloned, since no snapshot read walks one.

The graft is sound when the **region** — the minimal base subtree
whose leaf interval covers every vertex the MST maintenance actually
touched — satisfies:

- every current tree edge inside the region weighs at least the
  region's *boundary weight* ``w_p`` (the base weight of the region
  node's parent), so grafting keeps Lemma A.1's leaf-to-root weight
  monotonicity;
- the region's vertices are still spanned by exactly ``|L| - 1``
  inside edges (no component split or merge leaked out of it);
- the vertex set did not change.

Then (contract the region to one super-node: the contracted tree is
identical before and after, because every mutated tree edge has both
endpoints inside the region):

- pairs inside the region are answered by the freshly built patch —
  in the spliced gap row, their range holds only patch gaps;
- every other pair's tree path crosses the region boundary only via
  unchanged edges of weight <= ``w_p`` <= every inside weight, so the
  base MST* answer is still exact — their range holds a base boundary
  gap <= ``w_p``, and no patch gap is lighter than ``w_p``;
- a k-ecc with ``k > w_p`` containing a region vertex lies inside the
  region (patch interval, offset to the region's slice); with
  ``k <= w_p`` it contains the whole region and is read off the base.

When no condition holds (or the region exceeds the configured fraction
of |V|), the publisher falls back to a full capture — delta publishing
is an optimization, never a semantic change.

The region is derived from :class:`~repro.index.mst.MSTIndex` dirty
tracking, *not* from the maintainer's reported SMCC: MST repair may
swap tree edges outside ``g_{u,v}`` (the heaviest-crossing-non-tree
replacements of cases I/II), and only the tree itself knows which rows
it touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.freeze import maybe_deep_freeze
from repro.errors import VertexNotFoundError
from repro.index.mst import MSTIndex
from repro.index.mst_star import MSTStar, sparse_min_table
from repro.serve.snapshot import IndexSnapshot
from repro.util.disjoint_set import DisjointSetWithRoot

__all__ = [
    "DeltaStar",
    "RegionPlan",
    "capture_delta_snapshot",
    "named_buffers",
    "shared_fraction",
]

Edge = Tuple[int, int]


# ----------------------------------------------------------------------
# Region planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegionPlan:
    """The base-MST* subtree a delta capture will rebuild."""

    #: base MST* node whose subtree is replaced
    node: int
    #: half-open leaf-order interval of the region in the base star
    start: int
    end: int
    #: base weight of the region node's parent (0 at a component root);
    #: every current inside edge must weigh at least this much
    boundary_weight: int
    #: region vertices, in base leaf order (local id i <-> leaves[i])
    leaves: List[int]
    #: current tree edges with both endpoints in the region, as
    #: ``(u, v, weight)`` with u < v — exactly ``len(leaves) - 1``
    inside_edges: List[Tuple[int, int, int]]


def _plan_region(
    base_star: MSTStar,  # escape: borrowed
    live: MSTIndex,  # escape: borrowed
    dirty: Set[int],  # escape: borrowed
    max_region: int,
) -> Optional[RegionPlan]:
    """Find the smallest graftable base subtree covering ``dirty``.

    Climbs from a dirty leaf until the subtree interval covers every
    dirty position, then keeps expanding while the graft conditions
    fail.  Returns None when no subtree of at most ``max_region``
    leaves works (caller falls back to a full capture).
    """
    positions = [base_star.leaf_position[v] for v in dirty]
    lo, hi = min(positions), max(positions)
    parents = base_star.parents
    weights = base_star.weights
    istart = base_star._interval_start
    iend = base_star._interval_end
    leaf_order = base_star.leaf_order
    node = next(iter(dirty))
    while not (istart[node] <= lo and iend[node] > hi):
        parent = parents[node]
        if parent < 0:
            return None  # dirty leaves span base components
        node = parent
    while True:
        start, end = istart[node], iend[node]
        if end - start > max_region:
            return None
        leaves = leaf_order[start:end]
        leaf_set = set(leaves)
        parent = parents[node]
        boundary = weights[parent] if parent >= 0 else 0
        inside: List[Tuple[int, int, int]] = []
        graftable = True
        for u in leaves:
            for v, w in live.tree_adj[u].items():
                if v in leaf_set and u < v:
                    if w < boundary:
                        graftable = False
                        break
                    inside.append((u, v, w))
            if not graftable:
                break
        if graftable and len(inside) == len(leaves) - 1:
            return RegionPlan(
                node=node,
                start=start,
                end=end,
                boundary_weight=boundary,
                leaves=leaves,
                inside_edges=inside,
            )
        if parent < 0:
            return None  # the component itself split or merged
        node = parent


def _build_region_star(
    leaves: Sequence[int],  # escape: borrowed
    inside_edges: Sequence[Tuple[int, int, int]],  # escape: borrowed
) -> MSTStar:
    """Algorithm 12 over one region, with local leaf ids 0..|L|-1.

    ``tree_edge_of_node`` keeps *global* vertex ids so the patch stays
    debuggable against the live tree.
    """
    local_of = {v: i for i, v in enumerate(leaves)}
    num_leaves = len(leaves)
    max_w = 0
    for _, _, w in inside_edges:
        if w > max_w:
            max_w = w
    buckets: List[List[Tuple[int, int, int]]] = [[] for _ in range(max_w + 1)]
    for u, v, w in inside_edges:
        buckets[w].append((u, v, w))
    total = num_leaves + len(inside_edges)
    parents = [-1] * total
    star_weights = [0] * total
    tree_edge_of_node: List[Optional[Edge]] = [None] * total
    ds = DisjointSetWithRoot(num_leaves)
    next_node = num_leaves
    for w in range(max_w, 0, -1):
        for u, v, _ in buckets[w]:
            node = next_node
            next_node += 1
            star_weights[node] = w
            tree_edge_of_node[node] = (u, v) if u < v else (v, u)
            lu, lv = local_of[u], local_of[v]
            root_u = ds.find_root(lu)
            root_v = ds.find_root(lv)
            parents[root_u] = node
            parents[root_v] = node
            ds.union_with_root(lu, lv, node)
    # MSTStar construction is eager: the patch arrives with its gap
    # row already built, ready to splice.
    return MSTStar(num_leaves, parents, star_weights, tree_edge_of_node)


# ----------------------------------------------------------------------
# The patched read structure
# ----------------------------------------------------------------------
class DeltaStar(MSTStar):
    """A base MST* with one subtree replaced by a freshly built patch.

    sc in every family, ``smcc_l`` and ``components_at`` run the
    inherited :class:`MSTStar` code over the delta's own gap table: the
    base gaps with the patch's spliced in at ``[region_start,
    region_end - 1)``.  That splice is exact — a pair inside the region
    reads only patch gaps, and a range crossing the region boundary
    holds a base gap of weight at most ``w_p``, which no patch gap
    undercuts — so every run of gaps >= k is a k-ecc of this
    generation.  ``component_node`` / ``component_interval`` (behind
    ``smcc``) route to the patch or the base.  Every other
    structure is the base's by object identity; only the patched
    ``leaf_order`` / ``leaf_position`` and the gap table are new.
    """

    def __init__(
        self,
        base: MSTStar,  # escape: owned
        patch: MSTStar,  # escape: owned
        region_node: int,
        region_start: int,
        region_end: int,
        boundary_weight: int,
        region_leaves: Sequence[int],  # escape: owned
        tables: Optional[Tuple[Sequence[int], Sequence[int], np.ndarray]] = None,  # escape: owned
    ) -> None:
        """``tables`` = ``(leaf_order, leaf_position, rmq)`` already built
        (a worker maps them from shared memory); otherwise they are
        derived from ``base`` and ``patch`` here."""
        # MSTStar.__init__ is deliberately not called: the whole point
        # is to not rebuild the base tables this class shares.
        self.base = base
        self.patch = patch
        self.region_node = region_node
        self.region_start = region_start
        self.region_end = region_end
        self.boundary_weight = boundary_weight
        self.num_leaves = base.num_leaves
        #: local patch leaf id i  <->  global vertex _global_of[i]
        self._global_of = region_leaves
        self._local_of: Dict[int, int] = {
            int(v): i for i, v in enumerate(region_leaves)
        }
        if tables is None:
            # Patched leaf order: the base order with the region slice
            # replaced by the patch's DFS order, mapped back to global
            # ids; the gap row gets the patch's gaps at the same slice.
            leaf_order = list(base.leaf_order)
            leaf_order[region_start:region_end] = [
                region_leaves[local] for local in patch.leaf_order
            ]
            leaf_position = list(base.leaf_position)
            for pos in range(region_start, region_end):
                leaf_position[leaf_order[pos]] = pos
            gap = base.gap.copy()
            gap[region_start : region_end - 1] = patch.gap
            tables = (leaf_order, leaf_position, sparse_min_table(gap))
        leaf_order, leaf_position, rmq = tables
        self.leaf_order = leaf_order
        self.leaf_position = leaf_position
        self._install_gaps(rmq, base.vertex_component)

    def component_node(self, vertex: int, k: int) -> int:
        if not (0 <= vertex < self.num_leaves):
            raise VertexNotFoundError(vertex)
        if k <= 0:
            raise ValueError(f"k must be >= 1, got {k}")
        local = self._local_of.get(vertex)
        if local is not None and k > self.boundary_weight:
            return len(self.base.parents) + self.patch.component_node(
                local, k
            )
        return self.base.component_node(vertex, k)

    def component_interval(self, vertex: int, k: int) -> Tuple[int, int]:
        local = self._local_of.get(vertex)
        if local is not None and k > self.boundary_weight:
            # k exceeds every boundary-crossing weight: the k-ecc lies
            # inside the region, at the region's offset in leaf order.
            start, end = self.patch.component_interval(local, k)
            return self.region_start + start, self.region_start + end
        # k <= w_p: the k-ecc contains the whole (contracted) region,
        # so the base climb — whose stale inside weights all exceed
        # w_p >= k — lands on the correct unchanged ancestor.
        return self.base.component_interval(vertex, k)

    def validate(self) -> None:
        self.base.validate()
        self.patch.validate()
        for node in range(self.patch.num_leaves, self.patch.num_nodes):
            if self.patch.weights[node] < self.boundary_weight:
                raise AssertionError(
                    "patch weight below the region boundary weight"
                )


# ----------------------------------------------------------------------
# Delta capture
# ----------------------------------------------------------------------
def capture_delta_snapshot(
    base_snapshot: IndexSnapshot,  # escape: owned — shared into the result
    live: MSTIndex,  # escape: borrowed
    generation: int,
    num_vertices: int,
    edges: Tuple[Edge, ...],  # escape: owned
    region_fraction_limit: float,
) -> Optional[Tuple[IndexSnapshot, int]]:
    """Capture a delta snapshot against the last *full* base.

    Returns ``(snapshot, region_size)``, or None when a delta is not
    sound/profitable and the caller must fall back to a full capture:
    dirty tracking is off, the vertex set changed, the dirty leaves
    span base components, the region is not graftable, or it exceeds
    ``region_fraction_limit`` of |V|.
    """
    dirty = live.dirty_vertices
    if dirty is None or live.dirty_structure:
        return None
    base_star = base_snapshot.star
    if live.n != base_star.num_leaves or num_vertices != base_star.num_leaves:
        return None
    if not dirty:
        # Pure non-tree churn: the tree — hence every answer — is
        # unchanged.  Share the whole base star; only the edge log is
        # refreshed.
        star: MSTStar = base_star
        region_size = 0
    else:
        max_region = int(region_fraction_limit * live.n)
        plan = _plan_region(base_star, live, dirty, max_region)
        if plan is None:
            return None
        patch = _build_region_star(plan.leaves, plan.inside_edges)
        star = DeltaStar(
            base_star,
            patch,
            region_node=plan.node,
            region_start=plan.start,
            region_end=plan.end,
            boundary_weight=plan.boundary_weight,
            region_leaves=plan.leaves,
        )
        region_size = len(plan.leaves)
    snapshot = IndexSnapshot(
        generation=generation,
        num_vertices=num_vertices,
        edges=edges,
        star=star,
    )
    return maybe_deep_freeze(snapshot), region_size


# ----------------------------------------------------------------------
# Shared-buffer accounting
# ----------------------------------------------------------------------
def named_buffers(snapshot: IndexSnapshot) -> Dict[str, object]:  # escape: borrowed
    """The named array inventory of a snapshot, for sharing accounting.

    A delta publish shares the base's ``star.*`` tree buffers with the
    previous generation by object identity.  ``star.rmq`` is the gap
    table the generation actually reads: a delta's own spliced table is
    per-generation, like the edge log, so a delta with a non-empty
    region shares 8 of the 10 (9 when it shares the whole base star).
    """
    star = snapshot.star
    base = star.base if isinstance(star, DeltaStar) else star
    return {
        "star.parents": base.parents,
        "star.weights": base.weights,
        "star.tree_edge_of_node": base.tree_edge_of_node,
        "star.leaf_order": base.leaf_order,
        "star.leaf_position": base.leaf_position,
        "star.interval_start": base._interval_start,
        "star.interval_end": base._interval_end,
        "star.jump": base._jump,
        "star.rmq": star._rmq,
        "edges": snapshot.edges,
    }


def shared_fraction(
    previous: IndexSnapshot,  # escape: borrowed
    current: IndexSnapshot,  # escape: borrowed
) -> float:
    """Fraction of ``current``'s named buffers shared with ``previous``."""
    prev = named_buffers(previous)
    cur = named_buffers(current)
    shared = sum(1 for name, buf in cur.items() if buf is prev.get(name))
    return shared / len(cur) if cur else 1.0
