"""Small dense linear-algebra helpers shared by the projection modules.

Everything here operates on plain float64 numpy arrays: matrices are
2-d ``(m, n)`` arrays, vectors are 1-d arrays. Inputs crossing a public
boundary are validated once with :func:`as_array` or its
:func:`as_vector` / :func:`as_matrix` forms (counts with
:func:`as_integer`, real-number settings with :func:`check_finite`) and
treated as immutable afterwards.
"""

import numbers
import operator
import sys

import numpy as np


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
    if not np.all(np.isfinite(arr)):
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

    A matrix gives a float; a (B, m, n) stack gives B norms, each equal
    bit for bit to the norm of its matrix alone.
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 3:
        return float(np.sqrt(np.sum(np.square(T))))
    return np.sqrt(np.sum(np.square(T), axis=(-2, -1)))


def spectral_norm(T):
    """Largest singular value (LAPACK SVD) of a matrix, or of each matrix of a stack.

    A matrix gives a float; a (B, m, n) stack gives B norms, each equal
    bit for bit to the norm of its matrix alone (LAPACK runs on each
    matrix separately). The zero matrix gives 0.0.
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {T.shape}")
    if T.ndim == 2:
        return float(np.linalg.norm(T, 2))
    return np.linalg.norm(T, 2, axis=(-2, -1))
