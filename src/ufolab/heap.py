"""The process's glibc heap settings, set once when `ufolab` is imported.

Three settings:
- arrays below 32 MiB come from the heap, not from their own mappings;
- up to 512 MiB of freed heap stays mapped, so each forward/backward, and
  each chunk of block flow, reuses the pages of the last one instead of
  faulting fresh ones in;
- one arena for every thread.  The kernel pool's threads would otherwise
  take their temporaries (attention's head and kᵀ copies, gelu's vjp
  terms, layernorm's g·γ) from a second arena, and with freed pages kept in
  each, the process would hold the high-water marks of both.  Each pool
  task allocates a few large arrays, so the shared arena lock is cheap.
"""

import ctypes

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 512 << 20), (_M_ARENA_MAX, 1))


def keep_freed_heap_pages() -> None:
    """Apply `_HEAP_SETTINGS`; a no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)
