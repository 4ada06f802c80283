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
intentionally take the generic (ill-conditioned) formula. The squared
norms and the factors of ||A^+(y, x)||_F^2 are formed once, with every
float64 error but underflow trapped, and weights that trap, or whose
nonzero squared norm is subnormal (below 2^-1022), are refused.
Scaling e, f and the targets by one power of two changes no bit of a
projection, so such weights can be rescaled.

Broadcasts run 3-5 times slower once numpy's ufunc buffer holds three rows, so
A^+ forms its outputs under OUTER_BUFSIZE when it holds under three of their rows
and the caller's buffer three, with the same bits.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix, as_vector, frozen_copy

OUTER_BUFSIZE = 256  # entries of the ufunc buffer A^+ forms its outputs under (see above)


class MarginalPair(NamedTuple):
    """A point (row_part, col_part) in R^m x R^n.

    Holds operator outputs (T e, T^T f) as well as target pairs (s, r).
    """

    row_part: np.ndarray  # dim m
    col_part: np.ndarray  # dim n


@dataclass(frozen=True)
class ScaledMarginalOperator:
    """Immutable weight pair (e, f) with its squared norms, norm factors, and zero and unit flags."""

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
        e_is_zero, f_is_zero = bool(np.all(e == 0.0)), bool(np.all(f == 0.0))
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "e_is_zero", e_is_zero)
        object.__setattr__(self, "f_is_zero", f_is_zero)
        object.__setattr__(self, "unit", bool(np.all(e == 1.0) and np.all(f == 1.0)))
        m, n = self.shape
        scale, fold = np.zeros(m + n), np.zeros((2, m + n))
        try:  # underflow is not trapped: a tiny entry's square may underflow within a norm
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                a, b = e @ e, f @ f
                if any(0.0 < norm < np.finfo(np.float64).tiny for norm in (a, b)):
                    raise FloatingPointError  # a subnormal norm keeps too few bits for A^+
                c = 2.0 * a + b
                scale[:m] = 0.0 if e_is_zero else a ** -0.5
                scale[m:] = 0.0 if f_is_zero else b ** -0.5
                if not (e_is_zero or f_is_zero):
                    fold[0] = np.concatenate((f * np.sqrt(c / a), e * -np.sqrt(a / c))) / (a + b)
                    fold[1, m:] = e * np.sqrt(2.0 / (b * c))
        except FloatingPointError:
            raise ValueError("the weights are out of float64 range: their squared norms are "
                             "subnormal, or they or the factors of A^+ formed from them overflow "
                             "or divide by zero; scale e, f, s and r by one power of two, which "
                             "changes no bit of the projection") from None
        object.__setattr__(self, "e_norm_sq", float(a))
        object.__setattr__(self, "f_norm_sq", float(b))
        object.__setattr__(self, "_norm_factors", (frozen_copy(scale), frozen_copy(fold)))

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

    def _apply(self, T, out=None):
        """Unchecked A on a matrix or on each matrix of a (B, m, n) stack; ``out``, if given,
        an (..., m + n) array, takes T e and then T^T f, and is returned."""
        if out is None:
            return T @ self.e, T.mT @ self.f
        m = self.f.shape[0]
        np.matmul(T, self.e, out[..., :m])
        np.matmul(T.mT, self.f, out[..., m:])
        return out

    def pinv_apply(self, p):
        """Moore-Penrose inverse A^+(y, x), by the exact four-case formula.

        Both weights nonzero, with d = |e|^2 + |f|^2, it is u e^T + f v^T for

            u = (y - (f.y/d) f) / |e|^2,   v = (x - (e.x/d) e) / |f|^2,

        which expands to (y e^T - (f.y/d) f e^T)/|e|^2 + (f x^T - (e.x/d) f e^T)/|f|^2.

        With e = 0 only the f x^T / |f|^2 term survives; with f = 0 only
        y e^T / |e|^2; the zero operator has zero pseudoinverse.
        """
        return self._pinv(*self._check_pair(p))

    def _pinv(self, y, x, out=None):
        """Unchecked A^+ on a pair, or pairwise on stacks y (B, m) and x (B, n).

        Stacked pairs give, pair by pair, the same bits as single ones:
        every step is elementwise, and np.vecdot takes one dot product
        per pair as the 1-d product f @ y does. Unit weights skip the
        products (f.y/d) f, (e.x/d) e, u e^T and f v^T, whose factors
        of 1.0 change no bit. ``out``, if given, takes the result.
        """
        if OUTER_BUFSIZE < 3 * x.shape[-1] <= np.getbufsize():  # 3 rows fit the caller's, not ours
            with np.errstate():  # keeps the caller's error settings, and restores its buffer size
                np.setbufsize(OUTER_BUFSIZE)
                return self._pinv(y, x, out)
        e, f = self.e, self.f
        if self.e_is_zero and self.f_is_zero:  # np.positive copies into out, if given
            return np.positive(np.zeros(y.shape[:-1] + self.shape), out=out)
        if self.e_is_zero:
            return np.divide(f[:, None] * x[..., None, :], self.f_norm_sq, out=out)
        if self.f_is_zero:
            return np.divide(y[..., :, None] * e, self.e_norm_sq, out=out)
        denom = self.e_norm_sq + self.f_norm_sq
        fy, ex = (np.vecdot(y, f) / denom)[..., None], (np.vecdot(x, e) / denom)[..., None]
        u = (y - (fy if self.unit else fy * f)) / self.e_norm_sq
        v = (x - (ex if self.unit else ex * e)) / self.f_norm_sq
        if self.unit:
            return np.add(u[..., :, None], v[..., None, :], out=out)
        return np.add(u[..., :, None] * e, f[:, None] * v[..., None, :], out=out)

    def _pinv_norm_sq(self, z):
        """||A^+(y, x)||_F^2 for z = (y, x), or per row of a stack z (B, m + n), in O(m + n).

        With a = |e|^2, b = |f|^2, c = 2a + b, d = a + b, p = f.y and q = e.x it is
        |y|^2/a + |x|^2/b - (sqrt(c/a) p/d - sqrt(a/c) q/d)^2 - 2 q^2/(b c), whose
        factors are all positive (e = 0 leaves |x|^2/b, f = 0 |y|^2/a). Each step is
        elementwise or a per-row np.vecdot, so a row has the same bits in any stack;
        rounding can leave a value a little below zero, for a norm of 0. The factors are
        finite, so a zero z, -0.0 entries included, gives exactly 0.0.
        """
        scale, fold = self._norm_factors
        scaled, folded = z * scale, np.vecdot(z[..., None, :], fold)
        return np.vecdot(scaled, scaled) - np.vecdot(folded, folded)

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
