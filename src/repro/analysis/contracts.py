"""Runtime contracts gated on ``REPRO_CHECK_INVARIANTS``.

The paper's algorithms rest on structural lemmas (the MST of the
connectivity graph preserves every pairwise steiner-connectivity, the
k-eccs partition the vertex set, a blocking flow conserves flow at
every internal vertex).  Bare ``assert`` statements are the wrong tool
to police them: they vanish under ``python -O`` and they cannot afford
expensive whole-structure checks on every call.  This module provides
the replacement:

- :func:`require` — an always-on cheap guard.  Raises
  :class:`~repro.errors.InternalInvariantError`; survives ``-O``.
- :func:`invariant` — a *lazy* check that only evaluates (and only
  costs anything) when invariant checking is enabled.
- :func:`postcondition` — a decorator attaching a checker to a
  function's return value, a no-op call-through when disabled.

Checking is enabled by setting the environment variable
``REPRO_CHECK_INVARIANTS`` to anything except ``0`` / ``false`` /
``off`` / the empty string, or programmatically through
:func:`set_invariants_enabled` (used by the test-suite).  When
disabled, ``invariant()`` returns after a single module-level flag
read and ``@postcondition`` wrappers add one boolean check per call.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar, Union

from repro.errors import ContractViolationError, InternalInvariantError
from repro.util.env import env_flag

F = TypeVar("F", bound=Callable[..., Any])


def _read_env() -> bool:
    return env_flag("REPRO_CHECK_INVARIANTS")


_enabled: bool = _read_env()


def invariants_enabled() -> bool:
    """True when contract checking is active for this process."""
    return _enabled


def set_invariants_enabled(value: bool) -> bool:
    """Force contract checking on or off; returns the previous setting.

    Intended for tests; production deployments use the
    ``REPRO_CHECK_INVARIANTS`` environment variable instead.
    """
    global _enabled
    previous = _enabled
    _enabled = value
    return previous


@contextmanager
def _stats_paused() -> Iterator[None]:
    """Suspend per-query work counting while a contract check runs.

    Contract recomputation is verification, not query work: a lemma
    check that re-walks the whole tree must not inflate the
    output-sensitivity counters of the query it certifies.  The active
    collector is thread-local, so pausing it here only affects the
    thread running the check — concurrent serve readers keep counting.
    """
    from repro.obs import runtime

    saved = runtime.set_active_stats(None)
    try:
        yield
    finally:
        runtime.set_active_stats(saved)


def require(condition: bool, message: str) -> None:
    """Always-on internal guard (the ``-O``-proof ``assert``).

    Use for cheap checks whose failure means a library bug: a value the
    algorithm guarantees to be set is still ``None``, a loop that must
    terminate with a witness did not.  Never use for validating caller
    input — raise a :class:`~repro.errors.QueryError` subclass there.
    """
    if not condition:
        raise InternalInvariantError(message)


def invariant(
    name: str,
    check: Union[bool, Callable[[], bool]],
    detail: Union[str, Callable[[], str]] = "",
) -> None:
    """Evaluate an expensive invariant check only when enabled.

    ``check`` is either a boolean (already computed — prefer the
    callable form so the work is skipped when disabled) or a zero-arg
    callable returning one.  ``detail`` may likewise be lazy.  Raises
    :class:`~repro.errors.ContractViolationError` on failure.
    """
    if not _enabled:
        return
    with _stats_paused():
        ok = check() if callable(check) else check
    if not ok:
        text = detail() if callable(detail) else detail
        raise ContractViolationError(name, text or "invariant check returned False")


def postcondition(
    name: str, check: Callable[..., bool]
) -> Callable[[F], F]:
    """Attach a named postcondition to a function.

    ``check(result, *args, **kwargs)`` receives the wrapped function's
    return value followed by its original arguments and must return
    True.  When invariant checking is disabled the wrapper is a plain
    call-through (one flag read of overhead); when enabled, a failing
    check raises :class:`~repro.errors.ContractViolationError` naming
    the contract, which is usually the paper lemma it encodes
    (e.g. ``"lemma-4.4-mst-preserves-sc"``).
    """

    def decorate(func: F) -> F:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = func(*args, **kwargs)
            if _enabled:
                with _stats_paused():
                    ok = check(result, *args, **kwargs)
                if not ok:
                    raise ContractViolationError(
                        name, f"postcondition of {func.__qualname__} failed"
                    )
            return result

        wrapper.__contract__ = name  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate
