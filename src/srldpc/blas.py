"""Thread counts of the OpenBLAS libraries loaded in this process.

numpy's OpenBLAS runs a large product on threads of its own, one per
CPU by default.  Code that already keeps every CPU busy with threads or
processes of its own (a forked decode worker, a BP half-round split
into parts) runs OpenBLAS on one thread instead: two paper-scale
half-rounds on two threads, each calling a two-thread OpenBLAS, ran
slower than one half-round alone.  Where no OpenBLAS is found (another
BLAS, or no /proc/self/maps) these calls do nothing.
"""

import ctypes
import functools
import threading
from contextlib import contextmanager

# OpenBLAS's thread-count functions under the prefixes and suffixes that
# the numpy and scipy wheels (scipy-openblas, openblas64_) and a plain
# build export.
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


@functools.cache
def _libraries():
    """(get, set) thread-count functions of each OpenBLAS mapped into
    this process, found once and kept for the life of the process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh
                     if "openblas" in line}
    except OSError:
        return ()
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (p + "_{}_num_threads" + s
                     for p in _PREFIXES for s in _SUFFIXES):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


def set_threads(count):
    """Run every OpenBLAS in this process on `count` threads."""
    for _, put in _libraries():
        put(count)


# How many one_thread() blocks are open, on any thread, and the thread
# counts that the first of them saved.
_lock = threading.Lock()
_depth = 0
_saved = []


@contextmanager
def one_thread():
    """Run every OpenBLAS on one thread inside the block, then give each
    one back the thread count it had.  Blocks may overlap on several
    threads: the first to open saves the counts and the last to close
    restores them, so OpenBLAS stays on one thread while any is open."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [get() for get, _ in _libraries()]
            set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, put), count in zip(_libraries(), _saved):
                    put(count)
