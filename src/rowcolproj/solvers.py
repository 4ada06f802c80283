"""Douglas-Rachford, alternating-projection, and Dykstra feasibility runs.

All three schemes are driven by the same pair of projectors: the box
projection P_A and the affine projection P_B onto prescribed scaled
row/column sums. A start's state is (T_k,) for DR and MAP and
(T_k, W_k) = (T_k, T_k + R_k) for Dykstra; the updates are:

    DR:   T_{k+1} = T_k - P_A(T_k) + P_B(2 P_A(T_k) - T_k)
    MAP:  T_{k+1} = P_B(P_A(T_k))
    Dyk:  A_{k+1} = P_A(W_k),  R_{k+1} = W_k - A_{k+1},
          T_{k+1} = P_B(A_{k+1}),  W_{k+1} = T_{k+1} + R_{k+1},  R_0 = 0

Each iteration makes one box call on the state, one call of the sum map
M(X) = (X e, X^T f) (A in operator.py) on the box's output, for DR with
2 P_A(T_k) - T_k after it, and one M^+ call on the update's points only.

The monitored sequence is P_A(T_k) (which lies in the box), with the
feasibility gap delta_k = ||P_A(T_k) - P_B(P_A(T_k))||_F evaluated for
k = 0, 1, ... before each update; a run stops at the first delta_k
within tolerance or after max_iterations updates. As B is
{X : M(X) = (s_bar, r_bar)}, delta_k = ||M^+(M(P_A(T_k)) - (s_bar, r_bar))||_F,
from the m + n sums of P_A(T_k) in O(m + n). For Dykstra the gap is
deliberately computed from P_A(T_k), not from A_{k+1}, so all three
algorithms share one criterion.

In the integer-restricted case the same updates run unchanged with the
rounding box projection, and feasibility is one exact test in place of
the tolerance: the sums M(P_A(T_k)) equal the range-projected targets
(s_bar, r_bar), so delta_k's residual is zero and delta_k is exactly 0,
within every tolerance. With unit weights these are integer sums, exact
below 2^53, which separates float noise from true feasibility; a
fractional target is never met.

Integer runs also stop at their first repeated state. Each start's
state is saved at k = 1, 2, 4, 8, ... and compared bit for bit with
every later state; the rounding box makes exact repeats common
(integer MAP settles on a fixed point, DR enters short cycles). The
comparison runs after delta_k, in the same exit step as the
feasibility check: a state equal to a saved one has the same P_A and
delta, so it is never feasible when the saved one was not. The update
is a fixed function of the state, so a state at iteration k equal to
the one saved at iteration j repeats with period p = k - j for ever,
and none of delta_j, ..., delta_{k-1} passed: the run can never
converge. The engine marks it not converged and fills its deltas up to
max_iterations with the periodic continuation, so every trace is bit
for bit the one a full-length run gives.

One engine runs every start of a batch as a (B, m, n) stack. It holds the
state as a (parts, B, m, n) stack, (T_k,) or (T_k, W_k), and the box output
likewise, 1 part for MAP and 2 for DR and Dykstra; the repeated-state check
compares the whole state stack. A writes its sums into a residual buffer,
A^+ its output into a dead part of a stack and Dykstra R_{k+1}, then
W_{k+1}, into W_k; buffers are remade only when starts leave. Each step is
elementwise or acts on each matrix of the stack alone, so a start's delta_k
sequence and first feasible point are bit for bit the same whether it runs
alone (:func:`run`) or inside any batch (:func:`run_batch`). A start leaves
the stack at its first feasible or repeated state. The engine also returns
each start's full-length delta row: a feasible row's tail is written when
the row leaves the stack, and a cycled row's tail at its cycle check.
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affine import AffineMarginalSet
from .box import HyperBox
# frobenius_norm is not called; perfbench/tracing.py wraps solvers.frobenius_norm by name
from .linalg import as_array, as_integer, as_matrix, check_finite, frobenius_norm  # noqa: F401

# The one solver implementation; recorded in experiment summaries.
BACKEND = "numpy"

ALGORITHMS = ("DR", "MAP", "DYK")

# Every integer of magnitude up to 2^53 is a float64, so integer sums below it are exact.
EXACT_INTEGER_LIMIT = 2.0 ** 53


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str
    max_iterations: int = 250
    feasibility_tol: float = 1e-9

    def __post_init__(self):
        alg = str(self.algorithm).upper()
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected DR, MAP or DYK")
        object.__setattr__(self, "algorithm", alg)
        iterations = as_integer(self.max_iterations, name="max_iterations")
        if iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        object.__setattr__(self, "max_iterations", iterations)
        check_finite(self.feasibility_tol, name="feasibility_tol", nonnegative=True)


@dataclass
class SolverTrace:
    """Outcome of one run: the delta_k sequence and the first feasible point."""

    algorithm: str
    deltas: np.ndarray
    first_feasible_iteration: Optional[int]
    first_feasible_matrix: Optional[np.ndarray]
    converged: bool


def _square_bound(tol):
    """The largest float64 q with sqrt(q) <= tol: sqrt is correctly rounded and monotone,
    so delta^2 <= q exactly when delta <= tol, also for a square rounded below 0."""
    tol = float(tol)
    q = min(tol * tol, sys.float_info.max)
    while math.sqrt(q) > tol:
        q = math.nextafter(q, 0.0)
    while q < sys.float_info.max and math.sqrt(math.nextafter(q, math.inf)) <= tol:
        q = math.nextafter(q, math.inf)
    return q


def _solve(affine_set, box, T, cfg):
    """Run cfg.algorithm from every start of the (B, m, n) stack T; returns the
    (B, max_iterations + 1) table of full-length delta rows and one trace per start."""
    alg, last = cfg.algorithm, cfg.max_iterations
    size = T.shape[0]
    deltas = np.empty((size, last + 1))
    exits = [(last, None)] * size       # each start's final iteration and first feasible point
    # each matrix's start index, and its delta rows: a basic slice (a cheaper store) until one leaves
    active, stored = np.arange(size), slice(None)
    # S is a (parts, B, m, n) copy of the state: (T_k,), or Dykstra's (T_k, W_k), where
    # W_0 = T_0 + R_0 with R_0 = 0 turns -0.0 into +0.0. Each update writes the next state into S.
    S = np.stack((T, T + 0.0) if alg == "DYK" else (T,))
    # Buffers made again only when starts leave keep the heap from shrinking and regrowing
    # (page faults): X takes the box projection of S, for DR with 2 P_A(T_k) - T_k after it
    X = None
    saved, saved_at = None, 0           # each active start's state at iteration saved_at
    op, m = affine_set.op, affine_set.shape[0]
    targets = np.stack([np.concatenate(affine_set.projected_target),
                        np.concatenate(affine_set.target)])[:, None]
    bound = _square_bound(cfg.feasibility_tol)
    for k in range(last + 1):
        if X is None:
            X = np.empty((1 if alg == "MAP" else 2,) + S.shape[1:])
            # P_A(T_k), and the point the update projects onto B: the same one for MAP
            boxed, PA, U = X[:len(S)], X[0], X[-1]
            # M(P_A(T_k)) - (s_bar, r_bar) and M(U) - (s, r); MAP's sums serve both, from a
            # buffer of their own, as numpy would copy an operand that overlaps the output
            Z = np.empty((2, len(active), targets.shape[-1]))
            sums = Z if alg != "MAP" else np.empty_like(Z[:1])
            delta_row, y, x = Z[0], Z[1, :, :m], Z[1, :, m:]
            # T_k and Dykstra's W_k; K is T_k, free once boxed, or DR's P_A(T_k), free once
            # subtracted from T_k
            S0, S1, K = S[0], S[-1], PA if alg == "DR" else S[0]
        box._project(S, out=boxed)
        if alg == "DR":
            np.subtract(np.multiply(2.0, PA, out=U), S0, out=U)
        np.subtract(op._apply(X, out=sums), targets, out=Z)
        # delta_k^2, and delta_k <= tol exactly when delta_k^2 <= bound
        delta_sq = op._pinv_norm_sq(delta_row)
        deltas[stored, k] = delta_sq
        # an integer start is feasible when its sums are exactly (s_bar, r_bar): then delta_k = 0
        feasible = ~delta_row.any(axis=-1) if box.integer_restricted else delta_sq <= bound
        done = feasible
        if saved is not None:
            # a repeated state has the P_A and delta of the saved one, so it is never feasible;
            # compared as int64, so -0.0 and +0.0 differ
            cycled = (S.view(np.int64) == saved.view(np.int64)).all(axis=(0, 2, 3))
            if np.count_nonzero(cycled):
                # state k equals state saved_at, so iteration t >= k repeats source[t - k]
                source = saved_at + (np.arange(k, last + 1) - saved_at) % (k - saved_at)
                rows = active[cycled]
                deltas[rows, k:] = deltas[rows][:, source]
                done = feasible | cycled
        leaving = np.count_nonzero(done)
        if leaving:  # copied before the update, which for DR overwrites P_A(T_k)
            rows = active[feasible]
            deltas[rows, k + 1:] = delta_sq[feasible, None]  # final delta, carried forward
            for j, P in zip(rows, PA[feasible]):
                exits[j] = (k, P)
        if k == last or leaving == len(done):
            break
        if box.integer_restricted and k > 0 and k & (k - 1) == 0:
            saved, saved_at = S.copy(), k
        if alg == "DR":
            np.subtract(S0, PA, out=S0)
        # P_B(U) = U - A^+(A(U) - (s, r)): into U for DR, else as T_{k+1} into S[0]
        np.subtract(U, op._pinv(y, x, out=K), out=U if alg == "DR" else K)
        if alg == "DR":  # T_{k+1} = (T_k - P_A(T_k)) + P_B(2 P_A(T_k) - T_k)
            np.add(S0, U, out=S0)
        elif alg == "DYK":  # W_{k+1} = (W_k - A_{k+1}) + T_{k+1} in W; x + y is y + x bit for bit
            np.add(np.subtract(S1, U, out=S1), S0, out=S1)
        if leaving:  # done starts leave the next state, its saved copy and the buffers
            X = boxed = PA = U = Z = sums = delta_row = y = x = S0 = S1 = K = None
            active = stored = active[~done]
            S, saved = S[:, ~done], None if saved is None else saved[:, ~done]
    np.sqrt(np.maximum(deltas, 0.0, out=deltas), out=deltas)  # the table held delta_k^2
    return deltas, [
        SolverTrace(
            algorithm=alg,
            # a copy: a view would keep the whole table alive in every caller that holds a trace
            deltas=deltas[j, :k + 1].copy(),
            first_feasible_iteration=None if P is None else k,
            first_feasible_matrix=P,
            converged=P is not None,
        )
        for j, (k, P) in enumerate(exits)
    ]


def _check_box(affine_set, box):
    if box.shape != affine_set.shape:
        raise ValueError(f"box shape {box.shape} does not match constraint shape {affine_set.shape}")
    if box.integer_restricted:
        # the exact integer-sum check needs integer weights and every partial weighted sum
        # of box entries below 2^53
        e, f = np.abs(affine_set.op.e), np.abs(affine_set.op.f)
        if not all(np.array_equal(np.trunc(w), w) for w in (e, f)):
            raise ValueError("an integer-restricted box needs integer weights e and f: other "
                             "weighted sums of integers are not exact in float64")
        reach = np.maximum(np.abs(box.lower), np.abs(box.upper))
        with np.errstate(over="ignore"):  # an overflowing sum is inf, refused below
            largest = max((reach @ e).max(), (f @ reach).max())
        if largest >= EXACT_INTEGER_LIMIT:
            raise ValueError("integer-restricted box is too large: a weighted row or column sum "
                             "of its entries could reach 2^53, beyond exact float64 integers")


def run(affine_set: AffineMarginalSet, box: HyperBox, T0, cfg: SolverConfig):
    """Run cfg.algorithm from T0; see the module docstring for the updates."""
    return run_batch(affine_set, box, as_matrix(T0, shape=affine_set.shape, name="T0")[None], cfg)[0]


def run_batch(affine_set: AffineMarginalSet, box: HyperBox, starts, cfg: SolverConfig):
    """Run cfg.algorithm from each matrix of the (B, m, n) stack ``starts``.

    Returns one :class:`SolverTrace` per start, each bit for bit the
    trace :func:`run` gives for that start alone.
    """
    starts = as_array(starts, 3, affine_set.shape, name="stack of starts")
    _check_box(affine_set, box)
    return _solve(affine_set, box, starts, cfg)[1]
