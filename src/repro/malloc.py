"""Pin glibc's malloc thresholds once per process.

glibc serves a request above ``M_MMAP_THRESHOLD`` with a fresh ``mmap``
and returns it to the kernel on ``free``, so every such numpy temporary
pays its page faults again.  The threshold is dynamic: freeing one large
mmapped block raises it (up to 32 MiB on 64-bit), and from then on
blocks of that size come from the heap and are reused.  Left alone,
training speed therefore depends on whether some earlier call happened
to free a large temporary (docs/performance.md has the measurement).
Pinning the thresholds makes the fast state the only state: blocks up
to 32 MiB come from the heap, and the heap keeps up to 128 MiB of free
top space instead of trimming it.

:func:`pin_malloc_thresholds` runs at ``import repro``, which covers the
CLI, the servers and library callers alike.  Where ``libc.so.6`` cannot
be loaded (another libc, another OS) it does nothing.
"""

from __future__ import annotations

import ctypes

__all__ = ["pin_malloc_thresholds"]

# mallopt(3) parameter numbers from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's 64-bit maximum
_TRIM_THRESHOLD = 128 * 1024 * 1024

_pinned = False


def pin_malloc_thresholds() -> bool:
    """Set ``M_MMAP_THRESHOLD`` and ``M_TRIM_THRESHOLD``; idempotent.

    Returns whether the thresholds are pinned.  Loads libc by its soname
    (``ctypes.util.find_library`` would start a subprocess) and is a
    no-op when that fails.
    """
    global _pinned
    if _pinned:
        return True
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    _pinned = bool(
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )
    return _pinned
