"""The thread count of the OpenBLAS that numpy bundles, read and pinned through ctypes.

OpenBLAS splits the sums of a product by its thread count, so the last bits
of a Gram matrix, an eigenvalue or a pairwise angle depend on it. Reports and
Monte Carlo runs are computed under ``one_thread``: their bytes then do not
depend on the core count or on ``OPENBLAS_NUM_THREADS``, and the cores are
left to the trial threads instead of a second pool inside every product.

Circulant and randomized projections of rows of at least
``embedders._FAN_MIN`` entries also run under ``one_thread``, for speed: they
fan their transforms out over the worker pool, and OpenBLAS threads woken by
a multi-threaded BLAS call spin on the cores for about 137 ms after it
returns. On 2 vCPUs, a randomized embed at 2^20 took 30-33 ms pinned against
42-45 ms unpinned when embeds were 150 ms apart, but 38-47 ms against 30-42
ms right after an unpinned BLAS call, whose workers were still spinning.
The banded products keep the bits of one call on the OpenBLAS build they
were checked on (SkylakeX kernels), because every band starts at a multiple
of ``transforms._BAND_ALIGN``. Another build may tile a narrow band with
another kernel; ``test_banded_fwht_has_the_bits_of_one_call`` in
``tests/test_transforms.py`` is the check that finds that on a new machine.

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
