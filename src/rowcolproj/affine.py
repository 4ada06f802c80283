"""Projection onto the affine set C = {T : T e = s_bar, T^T f = r_bar}.

Targets (s, r) need not be consistent: at construction they are
projected onto ran A, yielding the nearest attainable pair
(s_bar, r_bar), and C is always nonempty. The general projector is the
composition T - A^+(A(T) - (s, r)); the specialized fast paths
(unit-weight entrywise update, the gamma-eigenpair sandwich formula,
and the bistochastic case) give identical results on their domains.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector
from .operator import MarginalPair, ScaledMarginalOperator, unit_operator

# Relative slack on |sum(s) - sum(r)| under which unit-weight targets are
# treated as consistent and the O(mn) entrywise update is used.
CONSISTENCY_RTOL = 1e-9


@dataclass(frozen=True)
class AffineMarginalSet:
    """An affine constraint set with cached range-projected targets."""

    op: ScaledMarginalOperator
    target: MarginalPair
    projected_target: MarginalPair
    consistency_residual: float

    @property
    def shape(self):
        return self.op.shape

    def project(self, T):
        """Nearest matrix (Frobenius) with T e = s_bar and T^T f = r_bar.

        Computed as T - A^+(A(T) - (s, r)); the pseudoinverse absorbs
        any inconsistent component of the raw targets.
        """
        return self._project(as_matrix(T, shape=self.shape, name="T"))

    def _project(self, T):
        """Unchecked projection of a matrix or of each matrix of a (B, m, n) stack."""
        s, r = self.target
        row_part, col_part = self.op._apply(T)
        return T - self.op._pinv(row_part - s, col_part - r)


def make_affine_set(op, s, r):
    """Build an :class:`AffineMarginalSet` for raw targets (s, r).

    Inconsistent targets are accepted; they are absorbed into the
    range projection (s_bar, r_bar) = P_ranA(s, r), and the distance
    ||(s, r) - (s_bar, r_bar)|| is recorded as ``consistency_residual``.
    """
    s = as_vector(s, dim=op.m, name="s")
    r = as_vector(r, dim=op.n, name="r")
    target = MarginalPair(s, r)
    projected = op.project_range(target)
    residual = float(
        np.sqrt(
            np.sum((s - projected.row_part) ** 2) + np.sum((r - projected.col_part) ** 2)
        )
    )
    return AffineMarginalSet(op=op, target=target, projected_target=projected,
                             consistency_residual=residual)


def project_unit_sums(s, r, T):
    """Project T onto the matrices with row sums s and column sums r.

    Unit-weight specialization. When sum(s) and sum(r) agree (up to a
    relative slack) the O(mn) entrywise update

        T_ij + (s_i - rowsum_i)/n + (r_j - colsum_j)/m
             + (total(T) - sum(r))/(m n)

    is used; otherwise the targets are range-projected first and the
    general path runs. Both paths agree wherever both apply.
    """
    T = as_matrix(T, name="T")
    m, n = T.shape
    s = as_vector(s, dim=m, name="s")
    r = as_vector(r, dim=n, name="r")
    sum_s = float(np.sum(s))
    sum_r = float(np.sum(r))
    if abs(sum_s - sum_r) <= CONSISTENCY_RTOL * (1.0 + abs(sum_s) + abs(sum_r)):
        row = T.sum(axis=1)
        col = T.sum(axis=0)
        total = float(np.sum(row))
        return (
            T
            + (s - row)[:, None] / n
            + (r - col)[None, :] / m
            + (total - sum_r) / (m * n)
        )
    return make_affine_set(unit_operator(m, n), s, r).project(T)


def project_eigenpair(e, f, gamma, T):
    """Project square T onto {X : X e = gamma e, X^T f = gamma f}.

    Requires nonzero e and f. With E = e e^T/|e|^2 and F = f f^T/|f|^2
    the projection is the sandwich formula

        gamma I + (I - F)(T - gamma I)(I - E).
    """
    T = as_matrix(T, name="T")
    n = T.shape[0]
    if T.shape[0] != T.shape[1]:
        raise ValueError(f"T must be square, got shape {T.shape}")
    e = as_vector(e, dim=n, name="e")
    f = as_vector(f, dim=n, name="f")
    if np.all(e == 0.0) or np.all(f == 0.0):
        raise ValueError("e and f must be nonzero")
    eye = np.eye(n)
    ide = eye - np.outer(e, e) / float(e @ e)
    idf = eye - np.outer(f, f) / float(f @ f)
    return float(gamma) * eye + idf @ (T - float(gamma) * eye) @ ide


def project_bistochastic(T):
    """Nearest matrix with every row and column sum equal to 1.

    Square matrices only; with J = (1/n) ones(n, n) the projection is
    J + (I - J) T (I - J). Nonnegativity is not enforced.
    """
    T = as_matrix(T, name="T")
    n = T.shape[0]
    if T.shape[0] != T.shape[1]:
        raise ValueError(f"T must be square, got shape {T.shape}")
    eye_j = np.eye(n) - np.full((n, n), 1.0 / n)
    return np.full((n, n), 1.0 / n) + eye_j @ T @ eye_j
