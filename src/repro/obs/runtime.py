"""Process-global observability state (the one mutable module).

Hot paths throughout the library interrogate exactly two pieces of
state:

- ``REGISTRY`` — the active :class:`~repro.obs.metrics.MetricsRegistry`
  module attribute, or ``None`` when observability is disabled.  The
  registry is process-global (its own counters are lock-guarded);
- the **active stats collector** — the
  :class:`~repro.obs.stats.QueryStats` installed by the innermost
  ``collect()`` / ``profiled_query()`` context, read through
  :func:`get_active_stats`.  The collector is **thread-local**: each
  serving thread profiles its own queries without its counters being
  merged into (or clobbered by) a collector installed on another
  thread.  Always access it through :func:`get_active_stats` /
  :func:`set_active_stats`.

Both default to ``None``, so the disabled fast path is one attribute
read (plus one cheap call for the collector) and an ``is None`` test —
nothing is allocated.  The environment variable ``REPRO_OBS``
(anything except ``0`` / ``false`` / ``off`` / ``no`` / empty) enables
a process-wide registry at import time; :func:`enable` /
:func:`disable` switch it programmatically.

This module deliberately imports nothing from the rest of the library
at module level but the dependency-free switch parser
:mod:`repro.util.env`, so that any hot module can import it without
cycles.
"""

from __future__ import annotations

# threading.local only — per-thread collector slots, no locks or
# threads; lock discipline stays in repro.serve.
import threading  # repro-lint: ignore[threading-outside-serve]
from typing import TYPE_CHECKING, Optional

from repro.util.env import env_flag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.stats import QueryStats

#: the active metrics registry; ``None`` = observability disabled.
#: Swapped wholesale by enable()/disable(); hot paths read the
#: reference once and act on the bound value, so a concurrent swap is
#: harmless (CPython name rebinding is atomic).
REGISTRY: Optional["MetricsRegistry"] = None  # guarded-by: atomic-ref


class _ThreadLocalState(threading.local):
    """Per-thread observability state (fresh attributes per thread)."""

    def __init__(self) -> None:
        #: the innermost active per-query stats collector (or ``None``)
        self.active_stats: Optional["QueryStats"] = None  # guarded-by: thread-local


_STATE = _ThreadLocalState()


def get_active_stats() -> Optional["QueryStats"]:
    """This thread's innermost active stats collector, or ``None``."""
    return _STATE.active_stats


def set_active_stats(
    stats: Optional["QueryStats"],
) -> Optional["QueryStats"]:
    """Install ``stats`` as this thread's collector; returns the previous.

    Thread-local by design: ``collect()`` scopes and the contract
    checker's stats pause on one thread never disturb a collector
    running on another.
    """
    previous = _STATE.active_stats
    _STATE.active_stats = stats
    return previous


def env_requests_obs() -> bool:
    """True when ``REPRO_OBS`` asks for observability at startup."""
    return env_flag("REPRO_OBS")


def enabled() -> bool:
    """True when a metrics registry is currently installed."""
    return REGISTRY is not None


def enable(registry: Optional["MetricsRegistry"] = None) -> "MetricsRegistry":
    """Install ``registry`` (or a fresh one) as the process registry.

    Returns the installed registry; idempotent when called with the
    registry that is already active.
    """
    global REGISTRY
    if registry is None:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    REGISTRY = registry
    return registry


def disable() -> Optional["MetricsRegistry"]:
    """Remove the active registry; returns it (for inspection) or None."""
    global REGISTRY
    previous = REGISTRY
    REGISTRY = None
    return previous


def get_registry() -> Optional["MetricsRegistry"]:
    """The active registry, or ``None`` when observability is off."""
    return REGISTRY


def init_from_env() -> None:
    """Enable a registry when ``REPRO_OBS`` is set (import-time hook)."""
    if REGISTRY is None and env_requests_obs():
        enable()
