"""The one parse of the library's on/off environment switches.

``REPRO_OBS``, ``REPRO_CHECK_INVARIANTS``, ``REPRO_LEAKTRACK`` and
``REPRO_TSAN`` all read the same way: unset, empty, ``0``, ``false``,
``off`` or ``no`` (any case, surrounding whitespace ignored) is off,
anything else is on.  Each caller decides
when it reads its switch; this module only parses.  It imports nothing
from the library, so any module may use it at import time.
"""

from __future__ import annotations

import os

_FALSY = frozenset({"", "0", "false", "off", "no"})


def env_flag(name: str) -> bool:
    """True when environment variable ``name`` switches its feature on."""
    return os.environ.get(name, "").strip().lower() not in _FALSY
