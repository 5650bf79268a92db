"""The OpenBLAS that numpy bundles, through ctypes: its thread count and three LAPACK calls.

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

``eigvalsh``, ``qr_r`` and ``norm2`` are ``np.linalg.eigvalsh``,
``np.linalg.qr(a, mode="r")`` and ``np.linalg.norm(a, 2)`` of one matrix,
for the conditioning and decomposition trials. numpy's gufuncs hold the GIL
for a single matrix of those sizes (a 256 x 256 ``eigvalsh`` let another
thread's loop run at 1.5% of its free rate), so the trial threads took
turns. These call ``dsyevd``, ``dgeqrf`` and ``dgesdd`` of the same library
through ctypes, which releases the GIL. Each makes the call numpy makes:
jobz "N" and uplo "L" for ``dsyevd``, jobz "N" for ``dgesdd``; a
Fortran-order copy of the input, as numpy's linearize makes; the workspace
sizes of a ``lwork = -1`` query, ``dgeqrf`` taking ``max(1, n, query)``; R
as ``triu`` of the first min(m, n) rows; and ``LinAlgError`` when ``info``
is not 0. So their bits are numpy's. They are called under ``one_thread``
like the rest of a Monte Carlo run, so the BLAS calls inside LAPACK run on
one thread as numpy's would. Where ``pin_available`` is false they call
numpy.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import threading
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["eigvalsh", "norm2", "one_thread", "pin_available", "qr_r", "thread_count"]

_INT = ctypes.c_int64  # the 64_ symbols take ILP64 integers, by reference
_PINT = ctypes.POINTER(_INT)
_BUF = ctypes.c_void_p  # the address of a numpy array
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t  # gfortran's hidden length of each character argument

# (field, symbol, argtypes, restype) of every function ``_functions`` loads
_SYMBOLS = (
    ("get", "scipy_openblas_get_num_threads64_", [], ctypes.c_int),
    ("set", "scipy_openblas_set_num_threads64_", [ctypes.c_int], None),
    # jobz uplo n a lda w work lwork iwork liwork info
    ("syevd", "scipy_dsyevd_64_",
     [_CHAR, _CHAR, _PINT, _BUF, _PINT, _BUF, _BUF, _PINT, _BUF, _PINT, _PINT, _LEN, _LEN], None),
    # m n a lda tau work lwork info
    ("geqrf", "scipy_dgeqrf_64_", [_PINT, _PINT, _BUF, _PINT, _BUF, _BUF, _PINT, _PINT], None),
    # jobz m n a lda s u ldu vt ldvt work lwork iwork info
    ("gesdd", "scipy_dgesdd_64_",
     [_CHAR, _PINT, _PINT, _BUF, _PINT, _BUF, _BUF, _PINT, _BUF, _PINT, _BUF, _PINT, _BUF, _PINT, _LEN], None),
)
_Library = collections.namedtuple("_Library", [field for field, *_ in _SYMBOLS])


@functools.lru_cache(maxsize=None)
def _functions() -> Optional[_Library]:
    """The thread count's get and set and the three LAPACK routines of the bundled OpenBLAS, or None."""
    # numpy's wheels ship the library in numpy.libs next to the package; loading
    # it again returns the copy numpy already loaded
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            fns = [getattr(lib, symbol) for _, symbol, _, _ in _SYMBOLS]
        except (OSError, AttributeError):
            continue
        for fn, (_, _, argtypes, restype) in zip(fns, _SYMBOLS):
            fn.argtypes, fn.restype = argtypes, restype
        return _Library(*fns)
    return None


def pin_available() -> bool:
    return _functions() is not None


def thread_count() -> Optional[int]:
    """The BLAS thread count now in effect, or None if it cannot be read."""
    fns = _functions()
    return None if fns is None else int(fns.get())


def _matrix(a, square: bool = False) -> np.ndarray:
    """A float64 Fortran-order copy of the matrix a, which LAPACK may overwrite."""
    A = np.array(a, dtype=np.float64, order="F")
    if A.ndim != 2 or (square and A.shape[0] != A.shape[1]):
        raise np.linalg.LinAlgError(f"expected a {'square ' if square else ''}matrix, got shape {A.shape}")
    return A


def _check(info, message: str) -> None:
    if info.value != 0:
        raise np.linalg.LinAlgError(f"{message} (LAPACK info {info.value})")


def eigvalsh(a) -> np.ndarray:
    """``np.linalg.eigvalsh(a)``: the ascending eigenvalues of one symmetric matrix."""
    lib = _functions()
    if lib is None:
        return np.linalg.eigvalsh(a)
    A = _matrix(a, square=True)
    n = A.shape[0]
    w, info = np.empty(n), _INT()

    def syevd(work, lwork, iwork, liwork):
        lib.syevd(b"N", b"L", _INT(n), A.ctypes.data, _INT(max(1, n)), w.ctypes.data,
                  work.ctypes.data, _INT(lwork), iwork.ctypes.data, _INT(liwork), info, 1, 1)
        _check(info, "Eigenvalues did not converge")

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    syevd(work, -1, iwork, -1)  # the workspace query
    lwork, liwork = int(work[0]), int(iwork[0])
    syevd(np.empty(lwork), lwork, np.empty(liwork, dtype=np.int64), liwork)
    return w


def qr_r(a) -> np.ndarray:
    """``np.linalg.qr(a, mode="r")``: the upper triangle R of one Householder QR."""
    lib = _functions()
    if lib is None:
        return np.linalg.qr(a, mode="r")
    A = _matrix(a)
    m, n = A.shape
    tau, info = np.empty(min(m, n)), _INT()

    def geqrf(work, lwork):
        lib.geqrf(_INT(m), _INT(n), A.ctypes.data, _INT(max(1, m)), tau.ctypes.data,
                  work.ctypes.data, _INT(lwork), info)
        _check(info, "Incorrect argument found while performing QR factorization")

    work = np.empty(1)
    geqrf(work, -1)
    lwork = max(1, n, int(work[0]))
    geqrf(np.empty(lwork), lwork)
    return np.triu(A[: min(m, n)])


def norm2(a) -> float:
    """``np.linalg.norm(a, 2)``: the largest singular value of one matrix."""
    lib = _functions()
    if lib is None:
        return float(np.linalg.norm(a, 2))
    A = _matrix(a)
    m, n = A.shape
    s, info = np.empty(min(m, n)), _INT()
    iwork = np.empty(8 * min(m, n), dtype=np.int64)
    uv = np.empty(1)  # U and VT are not referenced for jobz "N"

    def gesdd(work, lwork):
        lib.gesdd(b"N", _INT(m), _INT(n), A.ctypes.data, _INT(max(1, m)), s.ctypes.data,
                  uv.ctypes.data, _INT(max(1, m)), uv.ctypes.data, _INT(1),
                  work.ctypes.data, _INT(lwork), iwork.ctypes.data, info, 1)
        _check(info, "SVD did not converge")

    work = np.empty(1)
    gesdd(work, -1)
    lwork = int(work[0]) or 1
    gesdd(np.empty(lwork), lwork)
    return float(s.max(initial=0.0))


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
    get, set_ = fns.get, fns.set
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
