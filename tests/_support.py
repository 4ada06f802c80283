"""Shared fixtures and independent mini-oracles for the test suite."""

import numpy as np

from rowcolproj.operator import MarginalPair, ScaledMarginalOperator
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

OPERATOR_MODES = ("generic", "e_zero", "f_zero", "both_zero", "sparse")


def random_operator(rng, m, n, mode="generic"):
    """Weight operator for one test case, covering all degeneracy modes.

    "sparse" zeroes individual entries (vectors stay nonzero), which
    exercises redundancy handling that depends on nonzero coefficients.
    """
    e = rng.normal(size=n)
    f = rng.normal(size=m)
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


def reference_run(affine_set, box, T0, cfg):
    """One start at a time through the public projectors: the per-start
    solver loop that the stacked engine replaced, kept as its reference.
    It runs to its first feasible iterate or to max_iterations, whatever
    states repeat, and always records the iterates (and, for Dykstra,
    the box candidates).
    """
    s_bar, r_bar = affine_set.projected_target
    s_goal, r_goal = np.round(s_bar), np.round(r_bar)
    targets_integral = np.all(s_bar == s_goal) and np.all(r_bar == r_goal)
    T = np.array(T0, dtype=np.float64)
    R = np.zeros_like(T)
    deltas, iterates, candidates, found = [], [], [], None
    for k in range(cfg.max_iterations + 1):
        iterates.append(T.copy())
        PA = box.project(T)
        PB = affine_set.project(PA)
        delta = float(np.sqrt(np.sum(np.square(PA - PB))))
        deltas.append(delta)
        feasible = delta <= cfg.feasibility_tol
        if feasible and box.integer_restricted:
            feasible = (targets_integral and not np.any(np.floor(PA) != PA)
                        and np.all(PA.sum(axis=1) == s_goal) and np.all(PA.sum(axis=0) == r_goal))
        if feasible:
            found = k
            break
        if k == cfg.max_iterations:
            break
        if cfg.algorithm == "DR":
            T = T - PA + affine_set.project(2.0 * PA - T)
        elif cfg.algorithm == "MAP":
            T = PB
        else:
            AK = box.project(T + R)
            candidates.append(AK)
            R = T + R - AK
            T = affine_set.project(AK)
    return SolverTrace(algorithm=cfg.algorithm, deltas=np.asarray(deltas),
                       first_feasible_iteration=found,
                       first_feasible_matrix=None if found is None else PA,
                       converged=found is not None, iterates=iterates,
                       box_candidates=candidates if cfg.algorithm == "DYK" else None)


def assert_same_trace(trace, reference):
    """``trace`` equals ``reference`` bit for bit: deltas, first feasible
    iteration and matrix, and the iterates and Dykstra box candidates
    whenever ``trace`` recorded them."""
    assert same_bits(trace.deltas, reference.deltas)
    assert trace.first_feasible_iteration == reference.first_feasible_iteration
    assert trace.converged == reference.converged
    assert same_bits(trace.first_feasible_matrix, reference.first_feasible_matrix)
    if trace.iterates is not None:
        assert len(trace.iterates) == len(reference.iterates)
        assert same_bits(np.array(trace.iterates), np.array(reference.iterates))
    if trace.box_candidates is not None:
        assert len(trace.box_candidates) == len(reference.box_candidates)
        assert same_bits(np.array(trace.box_candidates), np.array(reference.box_candidates))


def same_bits(a, b):
    """Both None, or arrays with equal shapes and identical bytes."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
