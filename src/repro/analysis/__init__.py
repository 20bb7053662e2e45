"""Static analysis and runtime contract layer for the repro library.

Three coordinated defenses against silently breaking the paper's
invariant-rich algorithms:

- :mod:`repro.analysis.lint` — ``repro-lint``, an AST-based lint engine
  with domain-specific rules (no bare asserts in library code, no
  recursion in traversal packages, no accidental O(n) idioms on hot
  paths, ...).  Run as ``python -m repro.analysis.lint src/repro``.
- :mod:`repro.analysis.contracts` — ``@postcondition`` / ``invariant()``
  runtime contracts, zero-overhead unless ``REPRO_CHECK_INVARIANTS`` is
  set, encoding the paper's lemmas.
- :mod:`repro.analysis.lemmas` — the concrete checkers for Lemmas
  4.4-4.6, k-ECC partition validity and Dinic flow conservation that
  the contracts evaluate.

Two dual-prong checkers ride on the lint engine: the concurrency
contract (:mod:`repro.analysis.concurrency` static ``guarded-by``
rules + :mod:`repro.analysis.tsan` runtime lock sanitizer) and the
resource-lifecycle contract (:mod:`repro.analysis.lifecycle` static
ownership analysis + :mod:`repro.analysis.leaktrack` runtime leak
tracker armed by ``REPRO_LEAKTRACK=1``).  Published serving state
needs no checker: snapshots and cache entries hold only ints, tuples,
frozensets and read-only arrays and memoryviews, so they are
immutable by construction.
"""

from __future__ import annotations

from repro.analysis.contracts import (
    invariant,
    invariants_enabled,
    postcondition,
    require,
    set_invariants_enabled,
)

__all__ = [
    "invariant",
    "invariants_enabled",
    "postcondition",
    "require",
    "set_invariants_enabled",
]
