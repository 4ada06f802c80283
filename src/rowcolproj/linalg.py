"""Small dense linear-algebra helpers shared by the projection modules.

Everything here operates on plain float64 numpy arrays: matrices are
2-d ``(m, n)`` arrays, vectors are 1-d arrays. Inputs crossing a public
boundary are validated once with :func:`as_array` or its
:func:`as_vector` / :func:`as_matrix` forms (counts with
:func:`as_integer`, real-number settings with :func:`check_finite`) and
treated as immutable afterwards.
"""

import ctypes
import numbers
import operator
import os
import sys
from contextlib import suppress
from functools import cache
from pathlib import Path

import numpy as np

DIRECT_SVD_ENTRIES = 1000  # from here a ctypes call per matrix costs under 5% more than numpy's


def as_integer(value, name="value"):
    """``value`` as an int; a float such as 2.5, a bool or a string is refused, not truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_finite(value, name="value", nonnegative=False):
    """Refuse ``value`` unless it is a finite real number (and >= 0 when
    ``nonnegative``): a string, a bool, None, a non-finite value or an int beyond
    float64 raises a ValueError. ``abs(value) <= max float`` is exact for an int of
    any size, where math.isfinite raises, and false for NaN."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and (value >= 0 or not nonnegative)):
        kind = "a finite nonnegative number" if nonnegative else "a finite number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _holds_bool(a):
    """``a`` is a bool, a bool array, or a (nested) list or tuple holding one."""
    if isinstance(a, (list, tuple)):
        return any(map(_holds_bool, a))
    return isinstance(a, bool) or getattr(a, "dtype", None) == np.bool_


def as_array(a, ndim, shape=(), name="array"):
    """Validate and return ``a`` as a nonempty, finite float64 array with
    ``ndim`` axes, the last ``len(shape)`` of which have the lengths ``shape``."""
    if _holds_bool(a):
        raise ValueError(f"{name} must hold numbers, not booleans")
    try:
        arr = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # e.g. a string or a ragged list
        raise ValueError(f"{name} must hold numbers: {exc}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty {ndim}-d array, got shape {arr.shape}")
    want = arr.shape[:ndim - len(shape)] + tuple(shape)
    if arr.shape != want:
        raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frozen_copy(arr):
    """A read-only float64 copy of ``arr``."""
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def as_vector(v, dim=None, name="vector"):
    """Validate and return ``v`` as a finite float64 1-d array (of length ``dim``)."""
    return as_array(v, 1, () if dim is None else (dim,), name)


def as_matrix(T, shape=None, name="matrix"):
    """Validate and return ``T`` as a finite float64 2-d array (of ``shape``)."""
    return as_array(T, 2, shape or (), name)


def frobenius_norm(T):
    """Frobenius norm sqrt(sum_ij T_ij^2) of a matrix, or of each matrix of a stack.

    One reduction over the last two axes serves both: a matrix gives a
    numpy float64 (a float), and a (B, m, n) stack gives B norms, each
    equal bit for bit to the norm of its matrix alone.
    """
    return np.sqrt(np.sum(np.square(np.asarray(T, dtype=np.float64)), axis=(-2, -1)))


@cache
def _openblas():
    """The (get, set) thread-count functions and dgesdd of numpy's bundled OpenBLAS, found once
    with their argument and result types, or None."""
    with suppress(OSError, AttributeError, StopIteration):  # RTLD_NOLOAD: the copy numpy loaded
        path = next((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
        lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
        gesdd = lib.scipy_dgesdd_64_  # JOBZ, then 13 pointers: M, N, A, LDA, S, U, ..., IWORK, INFO
        gesdd.argtypes, gesdd.restype = [ctypes.c_char_p] + [ctypes.c_void_p] * 13, None
        return get, put, gesdd


def spectral_norm(T):
    """Largest singular value (LAPACK SVD) of a matrix, or of each matrix of a stack.

    One call over the last two axes serves both: a matrix gives a numpy
    float64 (a float), and a (B, m, n) stack gives B norms, each equal
    bit for bit to the norm of its matrix alone (LAPACK runs on each
    matrix separately). The zero matrix gives 0.0. From DIRECT_SVD_ENTRIES
    entries, a matrix goes to the dgesdd of numpy's bundled OpenBLAS through
    ctypes, which releases the GIL, called as numpy's svd calls it (same bits).
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {T.shape}")
    (m, n), blas = T.shape[-2:], _openblas()
    if m * n < DIRECT_SVD_ENTRIES or blas is None:
        return np.linalg.norm(T, 2, axis=(-2, -1))  # numpy's linalg holds the GIL for one matrix
    a, s, iwork = np.empty((m, n), order="F"), np.empty(min(m, n)), np.empty(8 * min(m, n), np.int64)
    ints = np.array([m, n, max(m, 1), 1, -1, 0], np.int64)  # M, N, LDA = LDU, LDVT, LWORK, INFO
    M, N, LD, LDVT, LWORK, INFO = (ints.ctypes.data + 8 * np.arange(6)).tolist()
    A, S, IWORK = a.ctypes.data, s.ctypes.data, iwork.ctypes.data

    def gesdd(matrix, work):  # numpy's call: JOBZ 'N' on a Fortran-order copy, IWORK of 8 min(m, n)
        a[...] = matrix
        blas[2](b"N", M, N, A, LD, S, None, LD, None, LDVT, work, LWORK, IWORK, INFO)
        if ints[5]:
            raise np.linalg.LinAlgError("SVD did not converge")
        return s[0]  # LAPACK sorts the singular values in decreasing order

    gesdd(0.0, (query := np.empty(1)).ctypes.data)  # LWORK = -1: a workspace query, into query[0]
    ints[4] = max(int(query[0]), 1)  # at least 1, as numpy takes it
    work = np.empty(ints[4])
    norms = [gesdd(matrix, work.ctypes.data) for matrix in T.reshape(-1, m, n)]
    return np.array(norms).reshape(T.shape[:-2])[()]
