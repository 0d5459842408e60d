"""The process's glibc heap thresholds, set once when `ufolab` is imported.

Arrays below 32 MiB come from the heap, and up to 512 MiB of freed heap stays
mapped, so each forward/backward, and each chunk of block flow, reuses the
pages of the last one instead of faulting fresh ones in.
"""

import ctypes

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 512 << 20))


def keep_freed_heap_pages() -> None:
    """Apply `_HEAP_SETTINGS`; a no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)
