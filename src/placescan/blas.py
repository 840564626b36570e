"""Pin the OpenBLAS that numpy loaded to one thread while placescan trains.

OpenBLAS's threaded matrix products round differently from its one-thread
path on large shapes, so a model trained under two BLAS threads is not the
same bits as one trained under one. `one_thread()` sets the library to one
thread and restores the caller's count when the outermost entry exits; it
is reentrant and may be entered from several threads at once. Where no
OpenBLAS is loaded (or `/proc` is missing) it does nothing.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import threading


@functools.cache
def _library():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        library = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


_lock = threading.Lock()
_depth = 0
_saved: tuple | None = None  # (set function, the caller's thread count)


@contextlib.contextmanager
def one_thread():
    """Run the body with OpenBLAS on one thread; the outermost exit restores it."""
    global _depth, _saved
    with _lock:
        if _depth == 0 and (functions := _library()) is not None:
            get, set_ = functions
            _saved = (set_, get())
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved is not None:
                set_, threads = _saved
                _saved = None
                set_(threads)
