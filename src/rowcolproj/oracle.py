"""Brute-force reference projector used by the test suite.

Materializes the weight operator as an explicit (m+n) x (m*n) matrix M
acting on row-major vectorized matrices, then solves the
equality-constrained least-squares problem

    min ||X - T||_F^2   s.t.   M vec(X) = P_ranA(s, r)

through its dense KKT system. With both weights nonzero, M has one
redundant row (the combination with coefficients (f, -e) vanishes);
the redundant row with the largest coefficient magnitude is dropped so
the KKT matrix is nonsingular. Intended for small instances and
cross-checks only, not for use inside the solvers.
"""

import numpy as np

from .linalg import as_matrix, as_vector


def build_explicit(op):
    """Explicit matrix M with M vec(T) = (T e, T^T f), vec row-major."""
    m, n = op.shape
    M = np.zeros((m + n, m * n))
    for i in range(m):
        M[i, i * n:(i + 1) * n] = op.e
    for j in range(n):
        M[m + j, j::n] = op.f
    return M


def _constraint_rows(op):
    """Row indices of M forming a full-row-rank constraint block."""
    m, n = op.shape
    if op.e_is_zero and op.f_is_zero:
        return []
    if op.e_is_zero:
        return list(range(m, m + n))
    if op.f_is_zero:
        return list(range(m))
    # Both nonzero: rank is m+n-1. The left null vector of M is (f, -e),
    # so any row with a nonzero coefficient there is redundant; drop the
    # one with the largest magnitude for a well-scaled reduced system.
    coeffs = np.concatenate([np.abs(op.f), np.abs(op.e)])
    drop = int(np.argmax(coeffs))
    return [k for k in range(m + n) if k != drop]


def oracle_project(op, s, r, T):
    """KKT solve of min ||X - T||_F^2 subject to the projected targets.

    Independent of the closed-form projector: the constraints are
    enforced through an explicit dense linear system (partial-pivoting
    solve). A singular KKT system signals a rank-handling bug.
    """
    m, n = op.shape
    T = as_matrix(T, shape=(m, n), name="T")
    s = as_vector(s, dim=m, name="s")
    r = as_vector(r, dim=n, name="r")
    projected = op.project_range((s, r))
    rows = _constraint_rows(op)
    if not rows:
        return T.copy()
    M = build_explicit(op)
    target = np.concatenate(projected)
    Mr = M[rows]
    br = target[rows]
    k = len(rows)
    mn = m * n
    kkt = np.zeros((mn + k, mn + k))
    kkt[:mn, :mn] = np.eye(mn)
    kkt[:mn, mn:] = Mr.T
    kkt[mn:, :mn] = Mr
    rhs = np.concatenate([T.reshape(-1), br])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:mn].reshape(m, n)
