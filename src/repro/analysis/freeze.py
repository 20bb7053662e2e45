"""Runtime snapshot freezer (the dynamic prong of the immutability checker).

Opt-in via ``REPRO_FREEZE=1`` (or :func:`enable` before snapshots are
captured): :func:`~repro.serve.snapshot.capture_snapshot` then deep-
freezes the object graph it publishes —

- every reachable ``numpy.ndarray`` gets ``flags.writeable = False``
  (and so does its base chain, so writes through views are caught too);
- every reachable ``list`` / ``dict`` / ``set`` is replaced by a
  read-only subclass proxy whose mutators raise :class:`FrozenWriteError`
  at the exact offending call site;
- tuples are rebuilt when their elements change; scalars pass through.

Attributes annotated ``# frozen-exempt`` in the owning class's source
(see :func:`repro.analysis.immutability.frozen_exempt_attrs`) are
skipped: they are mutable scratch state with their own lock discipline
(e.g. the epoch-marking arrays of the MST-walk queries of
:class:`~repro.index.mst.MSTIndex`: a frozen object graph holding an
``MSTIndex`` must serialize those queries behind its own lock).  Locks
themselves are never frozen.

Zero overhead when disabled: :func:`maybe_deep_freeze` returns its
argument untouched, and nothing in the serving hot path changes.  The
decision binds at **capture time** — a snapshot captured while the
freezer is enabled stays armed even if the freezer is disabled later,
exactly like the tsan lock wrappers.

The proxies subclass the builtin containers, so ``isinstance`` checks,
equality against plain containers, iteration, and C-speed reads all
keep working; only the mutating surface raises.
"""

from __future__ import annotations

import os
import types
from typing import Any, Callable, Dict, FrozenSet, Optional

__all__ = [
    "FrozenWriteError",
    "FrozenList",
    "FrozenDict",
    "FrozenSetProxy",
    "deep_freeze",
    "maybe_deep_freeze",
    "enable",
    "disable",
    "enabled",
]

_FALSY = frozenset({"", "0", "false", "off", "no"})

_ENABLED = os.environ.get("REPRO_FREEZE", "").strip().lower() not in _FALSY


class FrozenWriteError(RuntimeError):
    """An in-place write hit deep-frozen snapshot state at runtime."""


def enabled() -> bool:
    """True when :func:`maybe_deep_freeze` is armed for *new* captures."""
    return _ENABLED


def enable() -> None:
    """Arm the freezer for snapshots captured from now on."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Disarm the freezer (already-frozen snapshots stay frozen)."""
    global _ENABLED
    _ENABLED = False


# ----------------------------------------------------------------------
# Read-only container proxies
# ----------------------------------------------------------------------
def _rejector(kind: str, op: str) -> Callable[..., Any]:
    def _frozen_write(self: Any, *args: Any, **kwargs: Any) -> Any:
        raise FrozenWriteError(
            f"{op}() on a deep-frozen {kind}: this object was captured "
            "into a published snapshot and must never be mutated "
            "(REPRO_FREEZE=1 caught the write at its call site)"
        )

    _frozen_write.__name__ = op
    return _frozen_write


class FrozenList(list):
    """A list whose mutating surface raises :class:`FrozenWriteError`."""

    __slots__ = ()

    __setitem__ = _rejector("list", "__setitem__")
    __delitem__ = _rejector("list", "__delitem__")
    __iadd__ = _rejector("list", "__iadd__")
    __imul__ = _rejector("list", "__imul__")
    append = _rejector("list", "append")
    extend = _rejector("list", "extend")
    insert = _rejector("list", "insert")
    pop = _rejector("list", "pop")
    remove = _rejector("list", "remove")
    clear = _rejector("list", "clear")
    sort = _rejector("list", "sort")
    reverse = _rejector("list", "reverse")


class FrozenDict(dict):
    """A dict whose mutating surface raises :class:`FrozenWriteError`."""

    __slots__ = ()

    __setitem__ = _rejector("dict", "__setitem__")
    __delitem__ = _rejector("dict", "__delitem__")
    pop = _rejector("dict", "pop")
    popitem = _rejector("dict", "popitem")
    clear = _rejector("dict", "clear")
    update = _rejector("dict", "update")
    setdefault = _rejector("dict", "setdefault")
    __ior__ = _rejector("dict", "__ior__")


class FrozenSetProxy(set):
    """A set whose mutating surface raises :class:`FrozenWriteError`."""

    __slots__ = ()

    add = _rejector("set", "add")
    discard = _rejector("set", "discard")
    remove = _rejector("set", "remove")
    pop = _rejector("set", "pop")
    clear = _rejector("set", "clear")
    update = _rejector("set", "update")
    difference_update = _rejector("set", "difference_update")
    intersection_update = _rejector("set", "intersection_update")
    symmetric_difference_update = _rejector(
        "set", "symmetric_difference_update"
    )
    __iand__ = _rejector("set", "__iand__")
    __ior__ = _rejector("set", "__ior__")
    __isub__ = _rejector("set", "__isub__")
    __ixor__ = _rejector("set", "__ixor__")


_SCALARS = (type(None), bool, int, float, complex, str, bytes, range)


def _is_lock(value: Any) -> bool:
    return hasattr(value, "acquire") and hasattr(value, "release")


def _exempt_attrs(cls: type) -> FrozenSet[str]:
    # Lazy import: freeze is reachable from the serve layer, the
    # analysis registry must not load on the serving hot path.
    from repro.analysis.immutability import frozen_exempt_attrs

    return frozen_exempt_attrs(cls)


def _object_attrs(obj: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    if hasattr(obj, "__dict__"):
        out.update(vars(obj))
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot in ("__dict__", "__weakref__") or slot in out:
                continue
            try:
                out[slot] = getattr(obj, slot)
            except AttributeError:
                continue  # slot never assigned
    return out


def deep_freeze(obj: Any, _memo: Optional[Dict[int, Any]] = None) -> Any:
    """Recursively freeze ``obj``'s reachable object graph.

    Containers are *replaced* by read-only proxies (the returned value
    may differ from ``obj``); ndarrays and objects are frozen in place
    and returned as-is.  Shared references and cycles are handled via an
    id-keyed memo, so aliased structures are frozen exactly once.
    """
    if _memo is None:
        _memo = {}
    oid = id(obj)
    if oid in _memo:
        return _memo[oid]
    if isinstance(obj, _SCALARS):
        return obj
    if isinstance(obj, frozenset):
        return obj
    if isinstance(obj, (FrozenList, FrozenDict, FrozenSetProxy)):
        # Already frozen by an earlier capture (a generation that reuses
        # the previous MST* shares its buffers); re-wrapping would break
        # the same-object sharing guarantee.
        return obj
    if _is_lock(obj):
        return obj

    array_flags = getattr(obj, "flags", None)
    if array_flags is not None and hasattr(obj, "setflags"):
        _memo[oid] = obj
        base = obj
        while base is not None and hasattr(base, "setflags"):
            base.setflags(write=False)
            base = getattr(base, "base", None)
        return obj

    if isinstance(obj, list):
        frozen_list = FrozenList()
        _memo[oid] = frozen_list
        list.extend(frozen_list, (deep_freeze(x, _memo) for x in obj))
        return frozen_list
    if isinstance(obj, dict):
        frozen_dict = FrozenDict()
        _memo[oid] = frozen_dict
        for key, value in obj.items():
            # Keys are hashable, hence effectively immutable already.
            dict.__setitem__(frozen_dict, key, deep_freeze(value, _memo))
        return frozen_dict
    if isinstance(obj, set):
        frozen_set = FrozenSetProxy()
        _memo[oid] = frozen_set
        set.update(frozen_set, obj)
        return frozen_set
    if isinstance(obj, tuple):
        items = tuple(deep_freeze(x, _memo) for x in obj)
        result = obj if all(a is b for a, b in zip(items, obj)) else items
        _memo[oid] = result
        return result

    if isinstance(
        obj,
        (
            type,
            types.ModuleType,
            types.FunctionType,
            types.BuiltinFunctionType,
            types.MethodType,
        ),
    ):
        return obj

    attrs = _object_attrs(obj)
    if not attrs:
        return obj
    _memo[oid] = obj
    exempt = _exempt_attrs(type(obj))
    for attr, value in attrs.items():
        if attr in exempt or _is_lock(value):
            continue
        frozen = deep_freeze(value, _memo)
        if frozen is not value:
            # Bypass any monitored/slotted __setattr__: this is the
            # capture-time publication step itself, not a post-publish
            # mutation.
            object.__setattr__(obj, attr, frozen)
    return obj


def maybe_deep_freeze(obj: Any) -> Any:
    """:func:`deep_freeze` when the freezer is armed; identity otherwise.

    The no-op path is a single global read — zero overhead in
    production serving.
    """
    if not _ENABLED:
        return obj
    return deep_freeze(obj)
