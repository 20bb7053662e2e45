"""Runtime resource-leak tracker (the dynamic prong).

Counterpart of the :mod:`repro.analysis.lifecycle` static rules, in
the same dual-prong mold as the lock sanitizer
(:mod:`repro.analysis.tsan`) and the snapshot freezer
(:mod:`repro.analysis.freezer`): ``REPRO_LEAKTRACK=1`` arms a registry
that records the allocation stack of every shm segment, worker
process, pipe, pool and asyncio task the serving tier creates, and the
zero-leak sweeps at pool/store shutdown raise :class:`LeakError`
naming each live resource *with the stack that acquired it* — instead
of a bare segment-count mismatch that tells you nothing about who
forgot to release.

The decision binds at creation time: :func:`tracked` called while the
tracker is disarmed returns its argument unchanged, so the production
path pays nothing — no proxy hop, no lock, no stack capture.  When
armed, the resource is wrapped in a forwarding proxy whose release
methods (``close``/``shutdown``/``join``/...) unregister the record on
the way through; :func:`track_task` instead hangs the unregistration
off ``add_done_callback`` because task handles must keep their
concrete type for the event loop.

Arm / disarm::

    REPRO_LEAKTRACK=1 python -m pytest tests/test_serve_shard.py

or programmatically with :func:`enable` / :func:`disable` (tests).
"""

from __future__ import annotations

import itertools
import threading  # repro-lint: ignore[threading-outside-serve]
import traceback
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Tuple,
)

from repro.util.env import env_flag

__all__ = [
    "LeakError",
    "LeakRecord",
    "enable",
    "disable",
    "enabled",
    "reset",
    "tracked",
    "track_task",
    "live",
    "sweep",
]

_ENABLED = env_flag("REPRO_LEAKTRACK")


def enable() -> None:
    """Arm the tracker (tests; production uses ``REPRO_LEAKTRACK=1``)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    return _ENABLED


class LeakError(RuntimeError):
    """Raised by :func:`sweep` when tracked resources are still live.

    ``records`` carries one :class:`LeakRecord` per leaked resource;
    the message embeds each allocation stack so the leak is actionable
    straight from the CI log.
    """

    def __init__(self, message: str, records: Tuple["LeakRecord", ...]):
        super().__init__(message)
        self.records = records


@dataclass(frozen=True)
class LeakRecord:
    """One live resource: what it is and the stack that acquired it."""

    kind: str
    label: str
    stack: str


#: release-method names per kind; calling one through the proxy forgets
#: the record (worker processes only once the process is actually dead).
_RELEASE_METHODS: Dict[str, Tuple[str, ...]] = {
    "shm-segment": ("close",),
    "pipe": ("close",),
    "file": ("close",),
    "npz": ("close",),
    "thread-pool": ("shutdown",),
    "process-pool": ("shutdown",),
    "worker-process": ("join", "terminate", "kill"),
}


def _capture_stack() -> str:
    # Drop the two innermost frames (this helper + tracked()).
    return "".join(traceback.format_stack()[:-2])


class _Registry:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: Dict[int, LeakRecord] = {}
        self._tokens = itertools.count(1)

    def register(self, kind: str, label: str) -> int:
        record = LeakRecord(kind=kind, label=label, stack=_capture_stack())
        with self._lock:
            token = next(self._tokens)
            self._records[token] = record
        return token

    def forget(self, token: int) -> None:
        with self._lock:
            self._records.pop(token, None)

    def live(
        self,
        label_prefixes: Tuple[str, ...],
        kinds: Optional[FrozenSet[str]],
    ) -> Tuple[LeakRecord, ...]:
        with self._lock:
            records = tuple(self._records.values())
        out = []
        for record in records:
            if kinds is not None and record.kind not in kinds:
                continue
            if label_prefixes and not any(
                record.label.startswith(prefix) for prefix in label_prefixes
            ):
                continue
            out.append(record)
        return tuple(out)

    def reset(self) -> None:
        with self._lock:
            self._records.clear()


_REGISTRY = _Registry()


def reset() -> None:
    """Drop every record (test isolation between cases)."""
    _REGISTRY.reset()


class _TrackedProxy:
    """Transparent forwarder that unregisters on release methods.

    Everything except the release methods of the resource's kind
    forwards verbatim, so ``proxy.buf``, ``proxy.name``,
    ``proxy.is_alive()`` etc. behave exactly like the wrapped object.
    """

    __slots__ = ("_lt_inner", "_lt_kind", "_lt_token")

    def __init__(self, inner: Any, kind: str, token: int) -> None:
        object.__setattr__(self, "_lt_inner", inner)
        object.__setattr__(self, "_lt_kind", kind)
        object.__setattr__(self, "_lt_token", token)

    def __getattr__(self, name: str) -> Any:
        inner = object.__getattribute__(self, "_lt_inner")
        value = getattr(inner, name)
        kind = object.__getattribute__(self, "_lt_kind")
        if name in _RELEASE_METHODS.get(kind, ()):
            token = object.__getattribute__(self, "_lt_token")
            return _release_wrapper(inner, value, kind, token)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_lt_inner"), name, value)

    def __repr__(self) -> str:
        inner = object.__getattribute__(self, "_lt_inner")
        return f"<leaktracked {inner!r}>"


def _release_wrapper(
    inner: Any, method: Callable[..., Any], kind: str, token: int
) -> Callable[..., Any]:
    def release(*args: Any, **kwargs: Any) -> Any:
        result = method(*args, **kwargs)
        if kind == "worker-process":
            # join() can time out and terminate() is asynchronous; the
            # record only clears once the process is genuinely dead.
            if inner.is_alive():
                return result
        _REGISTRY.forget(token)
        return result

    return release


def tracked(obj: Any, kind: str, label: str) -> Any:
    """Track ``obj``; identity when disarmed (binds at creation time)."""
    if not _ENABLED:
        return obj
    token = _REGISTRY.register(kind, label)
    return _TrackedProxy(obj, kind, token)


def track_task(task: Any, label: str) -> Any:
    """Track an asyncio task without proxying (loops need the real type)."""
    if not _ENABLED:
        return task
    token = _REGISTRY.register("asyncio-task", label)
    task.add_done_callback(lambda _t: _REGISTRY.forget(token))
    return task


def live(
    label_prefixes: Iterable[str] = (),
    kinds: Optional[Iterable[str]] = None,
) -> Tuple[LeakRecord, ...]:
    """Live records matching the filters (empty filters match all)."""
    return _REGISTRY.live(
        tuple(label_prefixes),
        frozenset(kinds) if kinds is not None else None,
    )


def sweep(
    message: str,
    label_prefixes: Iterable[str] = (),
    kinds: Optional[Iterable[str]] = None,
) -> None:
    """Zero-leak sweep: raise :class:`LeakError` if anything is live.

    No-op when disarmed or when nothing matches — callers put this at
    the end of ``close()``/``stop()``/``shutdown()`` unconditionally.
    """
    if not _ENABLED:
        return
    records = live(label_prefixes, kinds)
    if not records:
        return
    parts = [f"{message}: {len(records)} leaked resource(s)"]
    for record in records:
        parts.append(
            f"- {record.kind} {record.label!r} acquired at:\n{record.stack}"
        )
    raise LeakError("\n".join(parts), records)
