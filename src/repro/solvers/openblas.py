"""LAPACK routines NumPy and SciPy do not wrap, from a loaded OpenBLAS.

The dense backend wants LAPACK's two-stage symmetric eigensolver,
``dsyevr_2stage``: it reduces the matrix to a band with level-3 BLAS and
the band to tridiagonal form, where ``eigvalsh``'s one-stage reduction
(``dsytrd``) does half of its flops in level-2 BLAS.  Both OpenBLAS copies
bundled with the NumPy and SciPy wheels export it, under the names
``scipy_dsyevr_2stage_`` (SciPy's copy, 32-bit integers) and
``scipy_dsyevr_2stage_64_`` (NumPy's copy, 64-bit integers); a system
OpenBLAS exports ``dsyevr_2stage_``.  Neither package wraps it.

The lookup is lazy, and it only finds an OpenBLAS the process has
*already* loaded: it lists the mapped files (``/proc/self/maps``) and opens
each with ``RTLD_NOLOAD``, which returns a handle to a loaded library and
never loads a new one.  A copy first loaded inside a fork-started pool
worker would size its thread pool from the worker's environment, not the
parent's, and round differently from the serial parent.  Importing
:mod:`scipy.linalg` here loads SciPy's copy, the one preferred, at import
time.  Where no loaded OpenBLAS exports the routine (another BLAS, or no
``/proc``), :func:`syevr_2stage` returns ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import os
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg  # noqa: F401 - loads SciPy's OpenBLAS before any fork

__all__ = ["TWO_STAGE_SYMBOLS", "syevr_2stage", "two_stage_symbol"]

#: Exported names of ``dsyevr_2stage``, in order of preference: SciPy's
#: bundled copy, NumPy's (64-bit integers) and an unprefixed system OpenBLAS.
TWO_STAGE_SYMBOLS = ("scipy_dsyevr_2stage_", "scipy_dsyevr_2stage_64_", "dsyevr_2stage_")


class _Routine(NamedTuple):
    name: str
    function: object
    integer: type  # the ctypes type of a Fortran INTEGER
    integers: np.dtype  # the dtype of an INTEGER array


def _loaded_openblas_paths():
    """Paths of the mapped OpenBLAS libraries, in mapping order."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths = {}
    for line in lines:
        fields = line.split(maxsplit=5)  # address, perms, offset, dev, inode, path
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower():
            paths.setdefault(fields[5], None)
    return list(paths)


@functools.lru_cache(maxsize=None)
def _routine() -> Optional[_Routine]:
    """``dsyevr_2stage`` from a loaded OpenBLAS, typed; ``None`` if absent."""
    libraries = []
    for path in _loaded_openblas_paths():
        try:
            libraries.append(ctypes.CDLL(path, mode=os.RTLD_NOLOAD))
        except OSError:
            continue
    for name in TWO_STAGE_SYMBOLS:
        for library in libraries:
            function = getattr(library, name, None)
            if function is None:
                continue
            wide = name.endswith("_64_")
            integer = ctypes.c_int64 if wide else ctypes.c_int
            integers = np.dtype(np.int64 if wide else np.int32)
            scalar, real = ctypes.POINTER(integer), ctypes.POINTER(ctypes.c_double)
            reals = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
            ints = np.ctypeslib.ndpointer(integers, flags="C_CONTIGUOUS")
            function.argtypes = (
                [ctypes.c_char_p] * 3  # JOBZ, RANGE, UPLO
                + [scalar, reals, scalar]  # N, A, LDA
                + [real, real, scalar, scalar, real]  # VL, VU, IL, IU, ABSTOL
                + [scalar, reals, reals, scalar, ints]  # M, W, Z, LDZ, ISUPPZ
                + [reals, scalar, ints, scalar, scalar]  # WORK, LWORK, IWORK, LIWORK, INFO
                + [ctypes.c_size_t] * 3  # gfortran's hidden lengths of the strings
            )
            function.restype = None
            return _Routine(name, function, integer, integers)
    return None


def two_stage_symbol() -> Optional[str]:
    """The exported name :func:`syevr_2stage` calls, or ``None``."""
    routine = _routine()
    return routine.name if routine is not None else None


def syevr_2stage(a: np.ndarray) -> Optional[np.ndarray]:
    """All eigenvalues of the symmetric matrix ``a``, ascending; ``a`` is
    overwritten.

    Calls ``dsyevr_2stage`` with ``JOBZ='N'`` and ``RANGE='A'``, which
    finishes with the root-free QR of ``dsterf``, as ``eigvalsh`` does.
    Every value comes from that one call, so the first ``h`` values do not
    depend on ``h`` (an index-range call would bisect for them instead).
    ``a`` must be a writeable, C-contiguous, square float64 array; its
    upper triangle is read (LAPACK's lower, in column-major order, where
    the two-stage reduction is fastest).  Returns ``None`` when no loaded
    OpenBLAS exports the routine (see the module doc).
    """
    routine = _routine()
    if routine is None:
        return None
    if (
        a.dtype != np.float64
        or a.ndim != 2
        or a.shape[0] != a.shape[1]
        or not a.flags.c_contiguous
        or not a.flags.writeable
    ):
        raise ValueError(
            "syevr_2stage needs a writeable C-contiguous square float64 array"
        )
    n = a.shape[0]
    size, lda, one = routine.integer(n), routine.integer(max(n, 1)), routine.integer(1)
    found, info = routine.integer(0), routine.integer(0)
    zero = ctypes.c_double(0.0)  # VL, VU (not read with RANGE='A') and ABSTOL
    values, vectors = np.zeros(n), np.zeros(1)  # W, and Z (not read with JOBZ='N')
    support = np.zeros(2 * max(n, 1), dtype=routine.integers)

    def call(lwork: int, liwork: int) -> Tuple[int, int]:
        work = np.zeros(max(lwork, 1))
        iwork = np.zeros(max(liwork, 1), dtype=routine.integers)
        routine.function(
            b"N", b"A", b"L", size, a, lda, zero, zero, one, size, zero,
            found, values, vectors, one, support,
            work, routine.integer(lwork), iwork, routine.integer(liwork), info,
            1, 1, 1,
        )
        if info.value != 0:
            raise np.linalg.LinAlgError(
                f"{routine.name} failed with INFO = {info.value} (n = {n})"
            )
        return int(work[0]), int(iwork[0])

    # A workspace query (LWORK = LIWORK = -1) returns the optimal sizes.
    lwork, liwork = call(-1, -1)
    call(lwork, liwork)
    if found.value != n:
        raise np.linalg.LinAlgError(
            f"{routine.name} returned {found.value} of {n} eigenvalues"
        )
    return values
