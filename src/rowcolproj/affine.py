"""Projection onto the affine set C = {T : T e = s_bar, T^T f = r_bar}.

Targets (s, r) need not be consistent: at construction they are
projected onto ran A, yielding the nearest attainable pair
(s_bar, r_bar), and C is always nonempty. The projector is the one
closed form T - A^+(A(T) - (s, r)), which covers every weight pair,
the degenerate ones (e = 0 and/or f = 0) included.

The classical sets are inputs to it, not separate code paths:

- Romero's prescribed row and column sums: unit weights, targets (s, r);
- Glunt-Hayden-Reams' {X : X e = gamma e, X^T f = gamma f} (square X):
  weights (e, f), targets (gamma e, gamma f);
- Khoury's bistochastic-sum set (square X, all sums 1): unit weights,
  all-ones targets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, frozen_copy
from .operator import MarginalPair, ScaledMarginalOperator


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
        T = as_matrix(T, shape=self.shape, name="T")
        s, r = self.target
        row_part, col_part = self.op._apply(T)
        K = self.op._pinv(row_part - s, col_part - r)
        return np.subtract(T, K, out=K)


def make_affine_set(op, s, r):
    """Build an :class:`AffineMarginalSet` for raw targets (s, r).

    Inconsistent targets are accepted; they are absorbed into the
    range projection (s_bar, r_bar) = P_ranA(s, r), and the distance
    ||(s, r) - (s_bar, r_bar)|| is recorded as ``consistency_residual``.
    Both pairs are read-only copies, so a caller's later edit of s or r
    changes nothing here. Targets whose range projection overflows float64
    are refused.
    """
    s = frozen_copy(as_vector(s, dim=op.m, name="s"))
    r = frozen_copy(as_vector(r, dim=op.n, name="r"))
    target = MarginalPair(s, r)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite targets are refused below
        projected = MarginalPair(*map(frozen_copy, op.project_range(target)))
        # hypot scales: the squares of finite differences may overflow
        residual = math.hypot(*(s - projected.row_part), *(r - projected.col_part))
    if not (np.all(np.isfinite(projected.row_part)) and np.all(np.isfinite(projected.col_part))):
        raise ValueError("the range-projected targets (s_bar, r_bar) have non-finite entries: "
                         "the targets are too large for float64")
    return AffineMarginalSet(op=op, target=target, projected_target=projected,
                             consistency_residual=residual)
