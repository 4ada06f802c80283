"""Shared fixtures and independent mini-oracles for the test suite."""

from typing import NamedTuple

import numpy as np

from rowcolproj.box import round_half_away
from rowcolproj.operator import MarginalPair, ScaledMarginalOperator, unit_operator
from rowcolproj.solvers import SolverTrace

# A known nonnegative integer matrix with row sums (32, 43, 33, 23) and
# column sums (24, 18, 37, 27, 25); total 131.
DEMO_SOLUTION = np.array(
    [
        [9.0, 4.0, 8.0, 4.0, 7.0],
        [7.0, 9.0, 15.0, 7.0, 5.0],
        [3.0, 2.0, 9.0, 10.0, 9.0],
        [5.0, 3.0, 5.0, 6.0, 4.0],
    ]
)
DEMO_ROW_SUMS = np.array([32.0, 43.0, 33.0, 23.0])
DEMO_COL_SUMS = np.array([24.0, 18.0, 37.0, 27.0, 25.0])

OPERATOR_MODES = ("generic", "e_zero", "f_zero", "both_zero", "sparse", "unit")


def random_operator(rng, m, n, mode="generic", integer=False):
    """Weight operator for one test case, covering all degeneracy modes.

    "sparse" zeroes individual entries (vectors stay nonzero), which
    exercises redundancy handling that depends on nonzero coefficients.
    "unit" is the all-ones operator, whose pseudoinverse has its own kernel.
    ``integer`` rounds the drawn weights away from zero to integers, as an
    integer box needs; it draws the same numbers from ``rng``.
    """
    if mode == "unit":
        return unit_operator(m, n)
    e = rng.normal(size=n)
    f = rng.normal(size=m)
    if integer:
        e, f = np.copysign(np.ceil(3.0 * np.abs(e)), e), np.copysign(np.ceil(3.0 * np.abs(f)), f)
    if mode == "e_zero":
        e = np.zeros(n)
    elif mode == "f_zero":
        f = np.zeros(m)
    elif mode == "both_zero":
        e = np.zeros(n)
        f = np.zeros(m)
    elif mode == "sparse":
        e[rng.integers(n)] = 0.0
        f[rng.integers(m)] = 0.0
        if not e.any():
            e[0] = 1.0
        if not f.any():
            f[0] = 1.0
    return ScaledMarginalOperator(e, f)


def explicit_pinv(op):
    """Matrix of the pseudoinverse, column by column from basis pairs."""
    m, n = op.shape
    D = np.zeros((m * n, m + n))
    for k in range(m + n):
        y = np.zeros(m)
        x = np.zeros(n)
        if k < m:
            y[k] = 1.0
        else:
            x[k - m] = 1.0
        D[:, k] = op.pinv_apply(MarginalPair(y, x)).reshape(-1)
    return D


def nine_pass_pinv(op, y, x):
    """A^+(y, x) for nonzero weights as the sum of the two textbook terms

        (y e^T - (f.y/d) f e^T)/|e|^2 + (f x^T - (e.x/d) f e^T)/|f|^2,

    d = |e|^2 + |f|^2, one full-size pass per product, difference and
    quotient; pairwise on stacks y (B, m) and x (B, n).
    """
    e, f = op.e, op.f
    denom = op.e_norm_sq + op.f_norm_sq
    fe = np.outer(f, e)
    row_coeff = (np.vecdot(y, f) / denom)[..., None, None]
    col_coeff = (np.vecdot(x, e) / denom)[..., None, None]
    term_row = (y[..., :, None] * e - row_coeff * fe) / op.e_norm_sq
    term_col = (f[:, None] * x[..., None, :] - col_coeff * fe) / op.f_norm_sq
    return term_row + term_col


def romero_project(s, r, T):
    """Romero's entrywise projection onto {X : X 1 = s, X^T 1 = r}:

        T_ij + (s_i - rowsum_i)/n + (r_j - colsum_j)/m + (total(T) - sum(r))/(m n).

    It needs sum(s) = sum(r), so inconsistent targets are first moved
    to the nearest consistent pair s - c, r + c with c = (sum(s) - sum(r))/(m + n).
    """
    T = np.asarray(T, dtype=np.float64)
    m, n = T.shape
    c = (np.sum(s) - np.sum(r)) / (m + n)
    s, r = np.asarray(s) - c, np.asarray(r) + c
    total = np.sum(T)
    return (T + (s - T.sum(axis=1))[:, None] / n + (r - T.sum(axis=0))[None, :] / m
            + (total - np.sum(r)) / (m * n))


def ghr_project(e, f, gamma, T):
    """Glunt-Hayden-Reams sandwich gamma I + (I - F)(T - gamma I)(I - E) for
    {X : X e = gamma e, X^T f = gamma f}, with E = e e^T/|e|^2, F = f f^T/|f|^2
    (square T, nonzero e and f)."""
    eye = np.eye(len(e))
    ide = eye - np.outer(e, e) / (e @ e)
    idf = eye - np.outer(f, f) / (f @ f)
    return gamma * eye + idf @ (T - gamma * eye) @ ide


def khoury_project(T):
    """Khoury's J + (I - J) T (I - J), J = ones/n: the nearest square matrix
    whose row and column sums are all 1."""
    n = T.shape[0]
    J = np.full((n, n), 1.0 / n)
    return J + (np.eye(n) - J) @ T @ (np.eye(n) - J)


def penrose_violation(M, D):
    """Largest entrywise violation of the four Penrose conditions."""
    MD = M @ D
    DM = D @ M
    return max(
        np.max(np.abs(M @ DM - M)),
        np.max(np.abs(D @ MD - D)),
        np.max(np.abs(MD - MD.T)),
        np.max(np.abs(DM - DM.T)),
    )


def top_singular_two_columns(T):
    """Closed-form largest singular value for matrices with two columns."""
    G = T.T @ T
    tr = G[0, 0] + G[1, 1]
    det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    lam = 0.5 * (tr + np.sqrt(max(tr * tr - 4.0 * det, 0.0)))
    return float(np.sqrt(max(lam, 0.0)))


def nearest_integer_in_interval(x, lo, hi):
    """Enumerate the integer interval; nearest to x, ties away from zero."""
    candidates = range(int(np.ceil(lo)), int(np.floor(hi)) + 1)
    return min(candidates, key=lambda z: (abs(x - z), -abs(z)))


def two_clip_project(lower, upper, T):
    """The integer box projection as clamp, round, re-clamp:
    clip(R(clip(T, lower, upper)), ceil(lower), floor(upper)) with R the
    half-away rounding; HyperBox._project rounds and clamps once."""
    clamped = np.clip(T, lower, upper)
    return np.clip(round_half_away(clamped), np.ceil(lower), np.floor(upper))


def in_box(box, T):
    """T lies in the box: exact bounds, and integer entries when the box is integer."""
    T = np.asarray(T)
    inside = bool(np.all(T >= box.lower) and np.all(T <= box.upper))
    return inside and (not box.integer_restricted or bool(np.all(T == np.round(T))))


class Reference(NamedTuple):
    """A reference run: its trace, every iterate T_k and, for Dykstra, every
    box candidate A_{k+1} = P_A(T_k + R_k)."""

    trace: SolverTrace
    iterates: list
    box_candidates: list


def reference_run(affine_set, box, T0, cfg):
    """One start at a time through the public projectors: the per-start
    solver loop that the stacked engine replaced, kept as its reference.
    It runs to its first feasible iterate or to max_iterations, whatever
    states repeat, and records every iterate and Dykstra box candidate.
    delta_k is ||A^+(A(P_A(T_k)) - (s_bar, r_bar))||_F from the marginals of
    P_A(T_k) alone (ScaledMarginalOperator._pinv_norm_sq on one matrix), which equals
    ||P_A(T_k) - P_B(P_A(T_k))||_F in exact arithmetic.
    """
    T = np.array(T0, dtype=np.float64)
    R = np.zeros_like(T)
    deltas, iterates, candidates, found = [], [], [], None
    for k in range(cfg.max_iterations + 1):
        iterates.append(T.copy())
        PA = box.project(T)
        residual = np.concatenate(affine_set.op.apply(PA)) - np.concatenate(affine_set.projected_target)
        delta = float(np.sqrt(max(affine_set.op._pinv_norm_sq(residual), 0.0)))
        deltas.append(delta)
        feasible = delta <= cfg.feasibility_tol
        if feasible and box.integer_restricted:
            feasible = not np.any(residual)  # the sums equal (s_bar, r_bar) exactly
        if feasible:
            found = k
            break
        if k == cfg.max_iterations:
            break
        if cfg.algorithm == "DR":
            T = T - PA + affine_set.project(2.0 * PA - T)
        elif cfg.algorithm == "MAP":
            T = affine_set.project(PA)
        else:
            AK = box.project(T + R)
            candidates.append(AK)
            R = T + R - AK
            T = affine_set.project(AK)
    trace = SolverTrace(algorithm=cfg.algorithm, deltas=np.asarray(deltas),
                        first_feasible_iteration=found,
                        first_feasible_matrix=None if found is None else PA,
                        converged=found is not None)
    return Reference(trace, iterates, candidates)


def assert_same_trace(trace, reference):
    """``trace`` equals the ``reference`` trace bit for bit: deltas, first
    feasible iteration and matrix."""
    assert same_bits(trace.deltas, reference.deltas)
    assert trace.first_feasible_iteration == reference.first_feasible_iteration
    assert trace.converged == reference.converged
    assert same_bits(trace.first_feasible_matrix, reference.first_feasible_matrix)


def same_bits(a, b):
    """Both None, or arrays with equal shapes and identical bytes."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
