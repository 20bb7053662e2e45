"""Runtime lock sanitizer (the dynamic prong of the concurrency checker).

Opt-in via ``REPRO_TSAN=1`` (or :func:`enable` before the serving
modules construct their locks): the serve/obs lock factories
(:func:`new_lock` / :func:`new_rlock`) then hand out instrumented
wrappers that record per-thread acquisition stacks, and the
:func:`monitored` class decorator enforces the ``# guarded-by:``
contracts declared for :mod:`repro.analysis.concurrency` at every
attribute access:

- **lock-order inversion** — each thread's acquisition stack yields
  ``A -> B`` edges ("B acquired while holding A"); observing the
  reverse edge raises :class:`TsanError` with both acquisition stacks.
  This catches the deadlocks the static ``lock-order-cycle`` rule can
  only approximate, on the schedules the test suite actually runs.
- **guard enforcement** — a ``guarded-by: <lock>`` attribute accessed
  without the lock held raises; an ``immutable-after-publish``
  attribute written after ``__init__`` raises.
- **Eraser-style lockset** — ``external:<Class>.<lock>`` attributes
  track the intersection of locks held across all accesses per object;
  once two threads have touched the attribute and the lockset is
  empty, the access is flagged (Savage et al., "Eraser: a dynamic data
  race detector for multithreaded programs").

Zero overhead when disabled: the factories return plain
``threading.Lock`` / ``RLock`` objects and :func:`monitored` returns
the class untouched.  Both decisions are taken at call/decoration
time, so the sanitizer must be enabled (env var or :func:`enable`)
*before* the monitored modules are imported and the locks created —
exactly what the CI concurrency job does with ``REPRO_TSAN=1``.
"""

from __future__ import annotations

# The sanitizer wraps the serve-layer locks; it is part of the lock
# discipline itself, not an independent threading user.
import threading  # repro-lint: ignore[threading-outside-serve]
import traceback
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type

from repro.util.env import env_flag

__all__ = [
    "TsanError",
    "enable",
    "disable",
    "enabled",
    "new_lock",
    "new_rlock",
    "monitored",
    "lock_order_graph",
    "reset",
    "SanitizedLock",
    "SanitizedRLock",
]

_ENABLED = env_flag("REPRO_TSAN")


class TsanError(RuntimeError):
    """The runtime sanitizer observed a concurrency contract violation."""


def enabled() -> bool:
    """True when the sanitizer is active for *new* locks and classes."""
    return _ENABLED


def enable() -> None:
    """Activate the sanitizer for locks/classes created from now on."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Deactivate the sanitizer (existing wrappers keep checking)."""
    global _ENABLED
    _ENABLED = False


def _stack() -> str:
    return "".join(traceback.format_stack(limit=12)[:-2])


class _Registry:
    """Process-global sanitizer state (held locks, order edges, locksets)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (held name, acquired name) -> (held stack, acquire stack)
        self._edges: Dict[Tuple[str, str], Tuple[str, str]] = {}
        #: object id -> attr -> Eraser lockset state.  Keyed by ``id()``
        #: because monitored classes may be slotted (no weakrefs);
        #: ``forget`` purges an id when a new object is constructed at
        #: it, so a recycled id never inherits a dead object's lockset.
        self._locksets: Dict[int, Dict[str, Dict[str, Any]]] = {}

    # ------------------------------------------------------------------
    def held(self) -> List["SanitizedLock"]:
        out = getattr(self._local, "held", None)
        if out is None:
            out = []
            self._local.held = out
        return out

    def note_acquire(self, lock: "SanitizedLock", record_order: bool) -> None:
        held = self.held()
        reentrant = any(h is lock for h in held)
        if record_order and not reentrant:
            stack = _stack()
            with self._lock:
                for holder in held:
                    if holder.name == lock.name:
                        continue
                    reverse = self._edges.get((lock.name, holder.name))
                    if reverse is not None:
                        raise TsanError(
                            "lock-order inversion: acquiring "
                            f"{lock.name!r} while holding {holder.name!r}, "
                            f"but the opposite order was seen earlier.\n"
                            f"--- earlier: {holder.name!r} acquired while "
                            f"holding {lock.name!r} at:\n{reverse[1]}"
                            f"--- now: {lock.name!r} acquired at:\n{stack}"
                        )
                    self._edges.setdefault(
                        (holder.name, lock.name), (holder.name, stack)
                    )
        held.append(lock)

    def note_release(self, lock: "SanitizedLock") -> None:
        held = self.held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return

    # ------------------------------------------------------------------
    def check_lockset(self, obj_id: int, attr: str, label: str) -> None:
        """Eraser: the candidate lockset of a shared field must stay
        non-empty once a second thread touches it."""
        held_ids = {id(lock) for lock in self.held()}
        thread = threading.get_ident()
        with self._lock:
            per_obj = self._locksets.setdefault(obj_id, {})
            state = per_obj.get(attr)
            if state is None:
                per_obj[attr] = {
                    "lockset": set(held_ids),
                    "threads": {thread},
                }
                return
            state["lockset"] &= held_ids
            state["threads"].add(thread)
            if len(state["threads"]) >= 2 and not state["lockset"]:
                raise TsanError(
                    f"lockset violation on {label}: accessed by "
                    f"{len(state['threads'])} threads with no common "
                    "lock held (Eraser check on an external: guard)"
                )

    def forget(self, obj_id: int) -> None:
        """Drop all lockset state for ``obj_id`` (id recycled by GC)."""
        with self._lock:
            self._locksets.pop(obj_id, None)

    def graph(self) -> Dict[str, Any]:
        with self._lock:
            nodes = sorted(
                {name for edge in self._edges for name in edge}
            )
            edges = [
                {"from": a, "to": b}
                for (a, b) in sorted(self._edges)
            ]
        return {"nodes": nodes, "edges": edges}

    def reset(self) -> None:
        with self._lock:
            self._edges.clear()
            self._locksets.clear()


_REGISTRY = _Registry()


def lock_order_graph() -> Dict[str, Any]:
    """The runtime-observed lock-order graph (JSON-ready)."""
    return _REGISTRY.graph()


def reset() -> None:
    """Drop recorded order edges and locksets (test isolation)."""
    _REGISTRY.reset()


# ----------------------------------------------------------------------
# Instrumented locks
# ----------------------------------------------------------------------
class SanitizedLock:
    """A ``threading.Lock`` wrapper that reports to the sanitizer."""

    _factory: Callable[[], Any] = staticmethod(threading.Lock)

    def __init__(self, name: str) -> None:
        self.name = name
        self._inner = self._factory()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            # Non-blocking acquires cannot participate in a classic
            # deadlock; skip order recording but keep held-tracking.
            _REGISTRY.note_acquire(self, record_order=blocking)
        return ok

    def release(self) -> None:
        _REGISTRY.note_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class SanitizedRLock(SanitizedLock):
    """The reentrant variant (wraps ``threading.RLock``)."""

    _factory = staticmethod(threading.RLock)

    def locked(self) -> bool:  # RLock has no .locked() before 3.12
        return any(h is self for h in _REGISTRY.held())


#: a lock handed out by :func:`new_lock` (plain or sanitized)
AnyLock = Any
#: a lock handed out by :func:`new_rlock` (plain or sanitized)
AnyRLock = Any


def new_lock(name: str) -> AnyLock:
    """A mutex for serve/obs: sanitized under REPRO_TSAN, plain otherwise."""
    if _ENABLED:
        return SanitizedLock(name)
    return threading.Lock()


def new_rlock(name: str) -> AnyRLock:
    """A reentrant lock: sanitized under REPRO_TSAN, plain otherwise."""
    if _ENABLED:
        return SanitizedRLock(name)
    return threading.RLock()


# ----------------------------------------------------------------------
# Guarded-attribute monitoring
# ----------------------------------------------------------------------
_CONSTRUCTING = threading.local()
_CHECKING = threading.local()


def _constructing_ids() -> Set[int]:
    ids = getattr(_CONSTRUCTING, "ids", None)
    if ids is None:
        ids = set()
        _CONSTRUCTING.ids = ids
    return ids


def _derive_guards(cls: type) -> Dict[str, Any]:
    """The class's guard specs, parsed from its module's source."""
    import inspect
    import sys

    from repro.analysis.concurrency import guard_specs_for_class

    module = sys.modules.get(cls.__module__)
    if module is None:
        raise TsanError(
            f"cannot monitor {cls.__name__}: module {cls.__module__!r} "
            "is not importable; pass guards= explicitly"
        )
    source = inspect.getsource(module)
    return guard_specs_for_class(
        source, cls.__name__, path=getattr(module, "__file__", "<module>")
    )


def _resolve_guard(obj: Any, path: Tuple[str, ...]) -> Any:
    target = obj
    for segment in path:
        target = getattr(target, segment)
    return target


def _check_access(obj: Any, attr: str, spec: Any, is_write: bool) -> None:
    kind = spec.kind
    if kind in ("thread-local", "atomic"):
        return
    label = f"{type(obj).__name__}.{attr}"
    if kind == "immutable":
        if is_write:
            raise TsanError(
                f"write to {label} after __init__, but it is declared "
                "immutable-after-publish"
            )
        return
    if kind == "external":
        _REGISTRY.check_lockset(id(obj), attr, label)
        return
    # lock kind
    if spec.writes_only and not is_write:
        return
    try:
        guard = _resolve_guard(obj, tuple(spec.path))
    except AttributeError:
        return  # guard not constructed yet (mid-__init__ edge)
    if not isinstance(guard, SanitizedLock):
        return  # plain lock (created while the sanitizer was off)
    if not any(h is guard for h in _REGISTRY.held()):
        action = "write to" if is_write else "read of"
        raise TsanError(
            f"{action} {label} without holding {guard.name!r} "
            f"(guarded-by: {spec.raw})"
        )


def monitored(
    cls: Optional[type] = None, *, guards: Optional[Dict[str, Any]] = None
) -> Any:
    """Class decorator enforcing ``guarded-by`` contracts at runtime.

    A no-op (returns the class untouched) unless the sanitizer is
    enabled at decoration time.  ``guards`` overrides source-derived
    specs (attr name -> :class:`~repro.analysis.concurrency.GuardSpec`).
    """

    def wrap(target: Type[Any]) -> Type[Any]:
        if not _ENABLED:
            return target
        spec_map = dict(guards) if guards is not None else _derive_guards(
            target
        )
        if not spec_map:
            return target

        original_init = target.__init__
        original_setattr = target.__setattr__
        original_getattribute = target.__getattribute__

        def monitored_init(self: Any, *args: Any, **kwargs: Any) -> None:
            # A fresh object may reuse the id() of a collected one;
            # purge any lockset history so it starts clean.
            _REGISTRY.forget(id(self))
            ids = _constructing_ids()
            ids.add(id(self))
            try:
                original_init(self, *args, **kwargs)
            finally:
                ids.discard(id(self))

        def monitored_setattr(self: Any, name: str, value: Any) -> None:
            spec = spec_map.get(name)
            if spec is not None and id(self) not in _constructing_ids():
                if not getattr(_CHECKING, "busy", False):
                    _CHECKING.busy = True
                    try:
                        _check_access(self, name, spec, is_write=True)
                    finally:
                        _CHECKING.busy = False
            original_setattr(self, name, value)

        def monitored_getattribute(self: Any, name: str) -> Any:
            value = original_getattribute(self, name)
            if name in spec_map and id(self) not in _constructing_ids():
                if not getattr(_CHECKING, "busy", False):
                    _CHECKING.busy = True
                    try:
                        _check_access(
                            self, name, spec_map[name], is_write=False
                        )
                    finally:
                        _CHECKING.busy = False
            return value

        target.__init__ = monitored_init  # type: ignore[method-assign]
        target.__setattr__ = monitored_setattr  # type: ignore[method-assign]
        target.__getattribute__ = (  # type: ignore[method-assign]
            monitored_getattribute
        )
        return target

    if cls is not None:
        return wrap(cls)
    return wrap
