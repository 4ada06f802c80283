"""Small dense linear-algebra helpers shared by the projection modules.

Everything here operates on plain float64 numpy arrays: matrices are
2-d ``(m, n)`` arrays, vectors are 1-d arrays. Inputs crossing a public
boundary are validated once with :func:`as_matrix` / :func:`as_vector`
(and counts with :func:`as_integer`) and treated as immutable afterwards.
"""

import operator

import numpy as np


def as_integer(value, name="value"):
    """``value`` as an int; a float such as 2.5 or a string is refused, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def as_vector(v, dim=None, name="vector"):
    """Validate and return ``v`` as a finite float64 1-d array."""
    try:
        arr = np.asarray(v, dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"{name} must hold numbers: {exc}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(T, shape=None, name="matrix"):
    """Validate and return ``T`` as a finite float64 2-d array."""
    try:
        arr = np.asarray(T, dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"{name} must hold numbers: {exc}") from None
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


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
