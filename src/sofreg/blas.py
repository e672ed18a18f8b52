"""Thread count of the OpenBLAS library that numpy loaded, set at run time.

The thread count is set through the library itself, found by its path in
/proc/self/maps and opened with ctypes, since environment variables are read
only once, when numpy loads. Where no OpenBLAS is found (another BLAS, or no
/proc), every function here does nothing.

The setter is called only when the count changes. Setting the count, even to
the value it has, starts OpenBLAS's server thread in a freshly forked
process, and that thread busy-waits on a core for ~0.1 s before it sleeps.
A process forked at one thread therefore reads its inherited count and never
calls the setter, so it keeps a single thread.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

#: (get, set) symbol pairs: the reference build, then the 64-bit-integer
#: build shipped in numpy and scipy wheels.
_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


@functools.cache
def _openblas():
    """(get, set) functions of the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({
                line.split(maxsplit=5)[5].strip()
                for line in fh
                if "openblas" in line.lower()
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def set_blas_threads(count: int) -> int | None:
    """Set the OpenBLAS thread count; returns the previous one (None: no OpenBLAS).

    The library's setter is skipped when the count is already `count`.
    """
    lib = _openblas()
    if lib is None:
        return None
    previous = int(lib[0]())
    if previous != int(count):
        lib[1](int(count))
    return previous


@contextmanager
def single_blas_thread():
    """Run the block at one BLAS thread and restore the caller's count after it."""
    previous = set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)
