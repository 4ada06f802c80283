"""Small dense linear-algebra helpers shared by the projection modules.

Everything here operates on plain float64 numpy arrays: matrices are
2-d ``(m, n)`` arrays, vectors are 1-d arrays. Inputs crossing a public
boundary are validated once with :func:`as_matrix` / :func:`as_vector`
and treated as immutable afterwards.
"""

import numpy as np

POWER_ITERATION_MAX_STEPS = 10_000
POWER_ITERATION_TOL = 1e-10


def as_vector(v, dim=None, name="vector"):
    """Validate and return ``v`` as a finite float64 1-d array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(T, shape=None, name="matrix"):
    """Validate and return ``T`` as a finite float64 2-d array."""
    arr = np.asarray(T, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_same_shape(A, B):
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")


def frobenius_inner(A, B):
    """Entrywise (Frobenius) inner product sum_ij A_ij * B_ij."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    _check_same_shape(A, B)
    return float(np.sum(A * B))


def frobenius_norm(T):
    """Frobenius norm sqrt(sum_ij T_ij^2) of a matrix, or of each matrix of a stack.

    A matrix gives a float; a (B, m, n) stack gives B norms, each equal
    bit for bit to the norm of its matrix alone.
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim < 3:
        return float(np.sqrt(np.sum(np.square(T))))
    return np.sqrt(np.sum(np.square(T), axis=(-2, -1)))


def outer(v, u):
    """Rank-one matrix v u^T with entries v_i * u_j."""
    return np.outer(np.asarray(v, dtype=np.float64), np.asarray(u, dtype=np.float64))


def matvec(T, x):
    """Matrix-vector product T x."""
    T = np.asarray(T, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if T.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: {T.shape} vs {x.shape}")
    return T @ x

def tmatvec(T, y):
    """Transposed product T^T y."""
    T = np.asarray(T, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if T.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: {T.shape}^T vs {y.shape}")
    return T.T @ y


def add(A, B):
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    _check_same_shape(A, B)
    return A + B

def subtract(A, B):
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    _check_same_shape(A, B)
    return A - B

def scale(alpha, T):
    return float(alpha) * np.asarray(T, dtype=np.float64)


def spectral_norm(T, tol=POWER_ITERATION_TOL, max_steps=POWER_ITERATION_MAX_STEPS):
    """Largest singular value of T by power iteration on T^T T.

    Deterministic: the start vector is the normalized all-ones vector,
    and iteration stops once successive singular-value estimates agree
    to relative accuracy ``tol`` (or after ``max_steps`` steps). If the
    start vector lies exactly in the null space of T^T T, the standard
    basis vectors are tried in order, so a nonzero matrix never reports
    0. The zero matrix returns 0.0 without iterating.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {T.shape}")
    if not T.any():
        return 0.0
    n = T.shape[1]
    sigma = _power_iterate(T, np.full(n, 1.0 / np.sqrt(n)), tol, max_steps)
    # Each basis start is built only once the starts before it collapsed;
    # some e_k has T e_k != 0, so the loop ends with a value.
    for k in range(n):
        if sigma is not None:
            break
        basis = np.zeros(n)
        basis[k] = 1.0
        sigma = _power_iterate(T, basis, tol, max_steps)
    return 0.0 if sigma is None else sigma


def _power_iterate(T, v, tol, max_steps):
    """One power-iteration sweep; None if the start collapses to the null space."""
    sigma = 0.0
    for _ in range(max_steps):
        w = T.T @ (T @ v)
        lam = float(v @ w)  # Rayleigh quotient for T^T T
        norm_w = float(np.sqrt(w @ w))
        if norm_w == 0.0:
            return None
        sigma_new = float(np.sqrt(max(lam, 0.0)))
        v = w / norm_w
        if abs(sigma_new - sigma) <= tol * max(sigma_new, 1e-300):
            return sigma_new
        sigma = sigma_new
    return sigma
