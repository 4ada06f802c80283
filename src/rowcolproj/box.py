"""Entrywise box constraints [lower_ij, upper_ij], optionally integer-restricted.

The standard construction from nonnegative targets (s, r) bounds entry
(i, j) by [0, min(s_i, r_j)]: any nonnegative matrix with row sums s
and column sums r satisfies it. The integer restriction projects by
clamping, rounding to the nearest integer (ties away from zero), and
re-clamping to the integer endpoints, so the result always lies in the
integer box even for non-integer bounds.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, as_vector

# Tie rule used when rounding integer-restricted entries. Recorded in
# harness output metadata; "half rounds away from zero" is the only
# supported value.
ROUNDING_TIE_RULE = "half-away-from-zero"


def round_half_away(values):
    """Round to nearest integer, ties away from zero."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(values >= 0.0, np.floor(values + 0.5), np.ceil(values - 0.5))


@dataclass(frozen=True)
class HyperBox:
    """Entrywise interval constraints, optionally restricted to integers."""

    lower: np.ndarray
    upper: np.ndarray
    integer_restricted: bool = False
    int_lower: np.ndarray = field(init=False)
    int_upper: np.ndarray = field(init=False)

    def __post_init__(self):
        lower = as_matrix(self.lower, name="lower")
        upper = as_matrix(self.upper, shape=lower.shape, name="upper")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        int_lower = np.ceil(lower)
        int_upper = np.floor(upper)
        if self.integer_restricted and np.any(int_lower > int_upper):
            raise ValueError("integer-restricted box contains an integer-free interval")
        for name, arr in (("lower", lower), ("upper", upper),
                          ("int_lower", int_lower), ("int_upper", int_upper)):
            arr = np.array(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self):
        return self.lower.shape

    def project(self, T):
        """Entrywise projection onto the box.

        Continuous: clamp to [lower, upper]. Integer-restricted: clamp,
        round half away from zero, then re-clamp to the integer
        endpoints ceil(lower) and floor(upper).
        """
        return self._project(as_matrix(T, shape=self.shape, name="T"))

    def _project(self, T):
        """Unchecked projection of a matrix or of each matrix of a (B, m, n) stack."""
        clamped = np.clip(T, self.lower, self.upper)
        if not self.integer_restricted:
            return clamped
        return np.clip(round_half_away(clamped), self.int_lower, self.int_upper)


def make_box(s, r, integer_restricted=False):
    """Box with entry (i, j) bounded by [0, min(s_i, r_j)].

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
