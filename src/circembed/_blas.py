"""The thread count of the OpenBLAS that numpy bundles, read and pinned through ctypes.

OpenBLAS splits the sums of a product by its thread count, so the last bits
of a Gram matrix, an eigenvalue or a pairwise angle depend on it. Reports and
Monte Carlo runs are computed under ``one_thread``: their bytes then do not
depend on the core count or on ``OPENBLAS_NUM_THREADS``, and the cores are
left to the trial threads instead of a second pool inside every product.

The count is a setting of the whole process. ``one_thread`` nests and may be
entered from several threads at once: the outermost entry saves the count and
sets it to one, and the last exit puts the saved count back. While it is held,
BLAS calls from other threads of the process run on one thread too. When the
library or its symbols cannot be found, ``one_thread`` does nothing and
``pin_available`` is false.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["one_thread", "pin_available", "thread_count"]

_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"


@functools.lru_cache(maxsize=None)
def _functions():
    """(get, set) of the bundled OpenBLAS thread count, or None if not found."""
    # numpy's wheels ship the library in numpy.libs next to the package; loading
    # it again returns the copy numpy already loaded
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = getattr(lib, _GET), getattr(lib, _SET)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def pin_available() -> bool:
    return _functions() is not None


def thread_count() -> Optional[int]:
    """The BLAS thread count now in effect, or None if it cannot be read."""
    fns = _functions()
    return None if fns is None else int(fns[0]())


_lock = threading.Lock()
_depth = 0  # entries of one_thread not yet exited, over all threads
_saved = 0  # the count the outermost entry found


@contextlib.contextmanager
def one_thread():
    """Run the body, or the decorated function, with BLAS on one thread."""
    global _depth, _saved
    fns = _functions()
    if fns is None:
        yield
        return
    get, set_ = fns
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
