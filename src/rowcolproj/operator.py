"""The scaled row/column-sum operator A(T) = (T e, T^T f) and its pseudoinverse.

For weight vectors e in R^n and f in R^m the linear map

    A : R^(m x n) -> R^m x R^n,   T |-> (T e, T^T f)

collects the e-weighted row sums and f-weighted column sums of T. This
module provides A, the closed-form Moore-Penrose inverse A^+ in all
four degeneracy cases (e and/or f zero), and the orthogonal projection
onto ran A. A^+ A is the orthogonal projection onto ran A*, the
matrices y e^T + f x^T. With unit weights these are the classical
row/column-sum maps, and A^+ is Romero's u_i + v_j: one broadcast add
in place of the two weight products, with the same bits, because
x * 1.0 == x exactly for every float64, -0.0 included.

Degeneracy (e = 0 or f = 0) is decided by exact entrywise zero, never
by a norm tolerance: the case split is algebraic, and near-zero weights
intentionally take the generic (ill-conditioned) formula.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix, as_vector, frozen_copy


class MarginalPair(NamedTuple):
    """A point (row_part, col_part) in R^m x R^n.

    Holds operator outputs (T e, T^T f) as well as target pairs (s, r).
    """

    row_part: np.ndarray  # dim m
    col_part: np.ndarray  # dim n


@dataclass(frozen=True)
class ScaledMarginalOperator:
    """Immutable weight pair (e, f) with cached squared norms and zero and unit flags."""

    e: np.ndarray
    f: np.ndarray
    e_norm_sq: float = field(init=False)
    f_norm_sq: float = field(init=False)
    e_is_zero: bool = field(init=False)
    f_is_zero: bool = field(init=False)
    unit: bool = field(init=False)

    def __post_init__(self):
        e = frozen_copy(as_vector(self.e, name="e"))
        f = frozen_copy(as_vector(self.f, name="f"))
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "e_norm_sq", float(e @ e))
        object.__setattr__(self, "f_norm_sq", float(f @ f))
        object.__setattr__(self, "e_is_zero", bool(np.all(e == 0.0)))
        object.__setattr__(self, "f_is_zero", bool(np.all(f == 0.0)))
        object.__setattr__(self, "unit", bool(np.all(e == 1.0) and np.all(f == 1.0)))

    @property
    def n(self):
        return self.e.shape[0]

    @property
    def m(self):
        return self.f.shape[0]

    @property
    def shape(self):
        """Shape (m, n) of the matrices this operator acts on."""
        return (self.m, self.n)

    def _check_pair(self, p):
        y = as_vector(p[0], dim=self.m, name="row_part")
        x = as_vector(p[1], dim=self.n, name="col_part")
        return MarginalPair(y, x)

    def apply(self, T):
        """A(T) = (T e, T^T f): e-weighted row sums and f-weighted column sums."""
        return MarginalPair(*self._apply(as_matrix(T, shape=self.shape, name="T")))

    def _apply(self, T):
        """Unchecked A on a matrix or on each matrix of a (B, m, n) stack."""
        return T @ self.e, np.swapaxes(T, -1, -2) @ self.f

    def pinv_apply(self, p):
        """Moore-Penrose inverse A^+(y, x), by the exact four-case formula.

        Both weights nonzero, with d = |e|^2 + |f|^2, it is u e^T + f v^T for

            u = (y - (f.y/d) f) / |e|^2,   v = (x - (e.x/d) e) / |f|^2,

        which expands to (y e^T - (f.y/d) f e^T)/|e|^2 + (f x^T - (e.x/d) f e^T)/|f|^2.

        With e = 0 only the f x^T / |f|^2 term survives; with f = 0 only
        y e^T / |e|^2; the zero operator has zero pseudoinverse.
        """
        return self._pinv(*self._check_pair(p))

    def _pinv(self, y, x):
        """Unchecked A^+ on a pair, or pairwise on stacks y (B, m) and x (B, n).

        Stacked pairs give, pair by pair, the same bits as single ones:
        every step is elementwise, and np.vecdot takes one dot product
        per pair as the 1-d product f @ y does. Unit weights skip the
        products u e^T and f v^T, whose factors of 1.0 change no bit.
        """
        e, f = self.e, self.f
        if self.e_is_zero and self.f_is_zero:
            return np.zeros(y.shape[:-1] + self.shape)
        if self.e_is_zero:
            return f[:, None] * x[..., None, :] / self.f_norm_sq
        if self.f_is_zero:
            return y[..., :, None] * e / self.e_norm_sq
        denom = self.e_norm_sq + self.f_norm_sq
        u = (y - (np.vecdot(y, f) / denom)[..., None] * f) / self.e_norm_sq
        v = (x - (np.vecdot(x, e) / denom)[..., None] * e) / self.f_norm_sq
        if self.unit:
            return np.add(u[..., :, None], v[..., None, :])
        return u[..., :, None] * e + f[:, None] * v[..., None, :]

    def project_range(self, p):
        """Orthogonal projection of (y, x) onto ran A.

        For nonzero weights ran A is the hyperplane orthogonal to
        (f, -e), so the projection removes that single component;
        in the degenerate cases it zeroes the dead block(s).
        """
        y, x = self._check_pair(p)
        if self.e_is_zero and self.f_is_zero:
            return MarginalPair(np.zeros(self.m), np.zeros(self.n))
        if self.e_is_zero:
            return MarginalPair(np.zeros(self.m), x.copy())
        if self.f_is_zero:
            return MarginalPair(y.copy(), np.zeros(self.n))
        coeff = (float(self.f @ y) - float(self.e @ x)) / (self.e_norm_sq + self.f_norm_sq)
        return MarginalPair(y - coeff * self.f, x + coeff * self.e)


def unit_operator(m, n):
    """Operator with all-ones weights: plain row and column sums."""
    return ScaledMarginalOperator(np.ones(n), np.ones(m))
