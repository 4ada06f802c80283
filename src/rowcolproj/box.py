"""Entrywise box constraints [lower_ij, upper_ij], optionally integer-restricted.

The standard construction from nonnegative targets (s, r) bounds entry
(i, j) by [0, min(s_i, r_j)]: any nonnegative matrix with row sums s and
column sums r satisfies it. Its lower bound, all +0.0, clamps as the
scalar 0.0: same bits, no array read. An integer-restricted box stores
ceil(lower) and floor(upper), which bound the same integer matrices, and
projects by rounding to the nearest integer (ties away from zero, exact
at every magnitude) once and clamping to those endpoints once.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, as_vector, frozen_copy

# The one tie rule of the integer rounding; summary.json records it.
ROUNDING_TIE_RULE = "half-away-from-zero"


def round_half_away(values, out=None):
    """Round to the nearest integer, ties away from zero, exactly at every magnitude:
    values - trunc(values) and its double are exact float64 operations. Into ``out``
    if given, which must not share memory with ``values``."""
    values = np.asarray(values, dtype=np.float64)
    whole = np.trunc(values, out=out)
    # whole + trunc(2 (values - whole)) in place: two temporaries rather than three
    twice = np.subtract(values, whole)
    np.multiply(2.0, twice, out=twice)
    return np.add(whole, np.trunc(twice, out=twice), out=whole)


@dataclass(frozen=True)
class HyperBox:
    """Entrywise intervals; an integer-restricted box stores ceil(lower) and floor(upper)."""

    lower: np.ndarray
    upper: np.ndarray
    integer_restricted: bool = False

    def __post_init__(self):
        lower = as_matrix(self.lower, name="lower")
        upper = as_matrix(self.upper, shape=lower.shape, name="upper")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        if self.integer_restricted:
            lower, upper = np.ceil(lower), np.floor(upper)
            if np.any(lower > upper):
                raise ValueError("integer-restricted box contains an integer-free interval")
        object.__setattr__(self, "lower", frozen_copy(lower))
        object.__setattr__(self, "upper", frozen_copy(upper))
        zero_floor = not lower.any() and not np.signbit(lower).any()  # by bits: -0.0 is not +0.0
        object.__setattr__(self, "_floor", 0.0 if zero_floor else self.lower)

    @property
    def shape(self):
        return self.lower.shape

    def project(self, T):
        """Entrywise projection onto the box: round half away from zero when
        integer-restricted, then clamp to [lower, upper]."""
        return self._project(as_matrix(T, shape=self.shape, name="T"))

    def _project(self, T, out=None):
        """Unchecked projection of a matrix or of each matrix of a stack, into ``out`` if given."""
        if self.integer_restricted:  # one temporary fewer when rounding into out
            T = round_half_away(T, out=out)
        # np.maximum and np.minimum return the bound at a tie of signed zeros on every layout
        # (np.clip not on (B, 1, 1) stacks), so a +0.0 lower bound clamps as the scalar 0.0.
        out = np.maximum(T, self._floor, out=out)
        return np.minimum(out, self.upper, out=out)


def make_box(s, r, integer_restricted=False):
    """Box with entry (i, j) bounded by [0, min(s_i, r_j)], stored as
    [0, floor(min(s_i, r_j))] when ``integer_restricted``.

    Targets must be nonnegative; any nonnegative matrix with row sums s
    and column sums r lies inside this box.
    """
    s = as_vector(s, name="s")
    r = as_vector(r, name="r")
    if np.any(s < 0.0) or np.any(r < 0.0):
        raise ValueError("targets must be nonnegative to build the box")
    upper = np.minimum.outer(s, r)
    return HyperBox(lower=np.zeros_like(upper), upper=upper,
                    integer_restricted=integer_restricted)
