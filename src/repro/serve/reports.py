"""Structured writer-path reports (`apply_updates` / `publish` results).

The serving writer surface used to hand back raw data: ``insert_edge``
and ``delete_edge`` returned bare ``List[Tuple[int, int, int]]`` sc
changes and ``publish()`` returned the snapshot itself.  This module
replaces those with two small immutable report types:

- :class:`UpdateReport` — what a batch of updates did: which
  operations applied, which were no-ops (inserting an existing edge,
  deleting a missing one), the aggregated sc deltas, and the affected
  vertex region.
- :class:`PublishReport` — what a publish did: the new generation, the
  publish **mode** (``"full"`` rebuild, ``"delta"`` reuse of the
  previous MST*, or ``"noop"`` when nothing was pending), the rebuilt
  size, the fraction of named snapshot buffers shared with the
  previous generation, and the published snapshot itself (read it as
  ``report.snapshot``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.serve.snapshot import IndexSnapshot

__all__ = ["UpdateOp", "UpdateReport", "PublishReport"]

#: one writer operation: ("insert" | "delete", u, v)
UpdateOp = Tuple[str, int, int]

#: one steiner-connectivity delta: (a, b, new_sc)
ScChange = Tuple[int, int, int]


@dataclass(frozen=True)
class UpdateReport:
    """Outcome of one ``apply_updates`` batch against the live index."""

    #: operations that mutated the live graph, in application order
    applied: Tuple[UpdateOp, ...] = ()
    #: operations skipped (duplicate insert / missing delete)
    noops: Tuple[UpdateOp, ...] = ()
    #: aggregated ``(a, b, new_sc)`` changes reported by maintenance
    sc_changes: Tuple[ScChange, ...] = ()
    #: vertices whose sc answers may have changed (the cache region)
    affected: FrozenSet[int] = field(default_factory=frozenset)

    @property
    def num_applied(self) -> int:
        return len(self.applied)

    @property
    def num_noops(self) -> int:
        return len(self.noops)


@dataclass(frozen=True)
class PublishReport:
    """Outcome of one ``publish()``: generation, mode, sharing stats."""

    #: generation of the published snapshot
    generation: int
    #: "full" (MST* rebuilt), "delta" (spanning forest unchanged, the
    #: previous MST* reused), or "noop" (nothing pending; snapshot reused)
    mode: str
    #: vertices whose MST* was rebuilt (|V| for full; 0 otherwise)
    region_size: int
    #: fraction of named snapshot buffers shared with the previous
    #: generation (0.0 for a full rebuild)
    shared_fraction: float
    #: the snapshot that is now the published reference
    snapshot: IndexSnapshot
    #: the region handed to cache invalidation (None = wholesale)
    affected: Optional[FrozenSet[int]] = None
