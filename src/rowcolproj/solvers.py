"""Douglas-Rachford, alternating-projection, and Dykstra feasibility runs.

All three schemes are driven by the same pair of projectors: the box
projection P_A and the affine projection P_B onto prescribed scaled
row/column sums. A start's state is (T_k,) for DR and MAP and
(T_k, W_k) = (T_k, T_k + R_k) for Dykstra; the updates are:

    DR:   T_{k+1} = T_k - P_A(T_k) + P_B(2 P_A(T_k) - T_k)
    MAP:  T_{k+1} = P_B(P_A(T_k))
    Dyk:  A_{k+1} = P_A(W_k),  R_{k+1} = W_k - A_{k+1},
          T_{k+1} = P_B(A_{k+1}),  W_{k+1} = T_{k+1} + R_{k+1},  R_0 = 0

Every iteration makes one box call and one affine call, on a stack of
the points that iteration needs: DR projects P_A(T_k) and
2 P_A(T_k) - T_k onto B together, and Dykstra boxes T_k and W_k
together and projects both results onto B.

The monitored sequence is P_A(T_k) (which lies in the box), with the
feasibility gap delta_k = ||P_A(T_k) - P_B(P_A(T_k))||_F evaluated for
k = 0, 1, ... before each update; a run stops at the first delta_k
within tolerance or after max_iterations updates. For Dykstra the gap
is deliberately computed from P_A(T_k), not from A_{k+1}, so all three
algorithms share one criterion.

In the integer-restricted case the same updates run unchanged with the
rounding box projection, and feasibility additionally requires the row
and column sums of P_A(T_k) to equal the range-projected targets
(s_bar, r_bar) exactly, which separates float noise from true
feasibility; a fractional target is never met.

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

One engine runs every start of a batch as a (B, m, n) stack: each step
is elementwise or acts on each matrix of the stack alone, so a start's
delta_k sequence and first feasible point are bit for bit the same
whether it runs alone (:func:`run`) or inside any batch
(:func:`run_batch`). A start leaves the stack at its first feasible or
repeated state. The engine also returns each start's full-length delta
row, in which a feasible stop carries its final delta forward.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affine import AffineMarginalSet
from .box import HyperBox
from .linalg import as_array, as_integer, as_matrix, check_finite, frobenius_norm

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


def _exact_integer_sums(P, s_bar, r_bar):
    """Per matrix of the integer-box stack P: row sums s_bar and column sums r_bar.

    The entries are integers and _check_box keeps their sums below 2^53,
    so these float sums are exact and never equal a fractional target.
    """
    rows = np.all(P.sum(axis=2) == s_bar, axis=1)
    cols = np.all(P.sum(axis=1) == r_bar, axis=1)
    return rows & cols


def _repeated(state, saved):
    """Per matrix of the stack: every state array equals its saved copy bit for bit
    (compared as int64, so -0.0 and +0.0 differ)."""
    same = True
    for now, then in zip(state, saved):
        same = same & (now.view(np.int64) == then.view(np.int64)).all(axis=(1, 2))
    return same


def _solve(affine_set, box, T, cfg):
    """Run cfg.algorithm from every start of the (B, m, n) stack T; returns the
    (B, max_iterations + 1) table of full-length delta rows and one trace per start."""
    alg, last = cfg.algorithm, cfg.max_iterations
    size = T.shape[0]
    deltas = np.empty((size, last + 1))
    stop = np.full(size, last)          # iteration of each start's final delta
    found = [None] * size
    active = np.arange(size)            # start index of each matrix in the stack
    # S is a copy: T_k, which DR updates in place, or Dykstra's (2B, m, n) stack of T_k
    # and W_k, where W_0 = T_0 + R_0 with R_0 = 0 turns -0.0 into +0.0. The halves of
    # Dykstra's stack swap roles each iteration; half t holds T_k.
    S, t = np.concatenate((T, T + 0.0)) if alg == "DYK" else T.copy(), 0
    # X, (2B, m, n), takes the box projection and DR's 2 P_A(T_k) - T_k, or for MAP a
    # scratch half. One buffer, made again only when starts leave, keeps the heap from
    # shrinking and regrowing (page faults) each iteration.
    X = None
    saved, saved_at = (), 0             # each active start's state at iteration saved_at
    s_bar, r_bar = affine_set.projected_target
    for k in range(last + 1):
        B = len(active)
        halves = (slice(None, B), slice(B, None))
        if X is None:
            X = np.empty((2 * B,) + S.shape[1:])
        box._project(S, out=X[:len(S)])
        if alg == "DR":  # 2 P_A(T_k) - T_k goes to P_B together with P_A(T_k)
            np.subtract(np.multiply(2.0, X[:B], out=X[B:]), S, out=X[B:])
        Y = affine_set._project(X if alg == "DR" else X[:len(S)])
        PA, PB = X[halves[t]], Y[halves[t]]
        # P_A - P_B goes to a spent half: Dykstra's P_B(T_k), which then takes W_{k+1},
        # or X's second half, which then takes DR's T_k - P_A
        delta = frobenius_norm(np.subtract(PA, PB, out=PB if alg == "DYK" else X[B:]))
        deltas[active, k] = delta
        feasible = delta <= cfg.feasibility_tol
        if box.integer_restricted and feasible.any():
            feasible[feasible] = _exact_integer_sums(PA[feasible], s_bar, r_bar)
        done = feasible
        state = (S[halves[t]], S[halves[1 - t]]) if alg == "DYK" else (S,)  # (T_k, W_k)
        if saved:
            # a repeated state has the P_A and delta of the saved one, so it is never feasible
            cycled = _repeated(state, saved)
            if cycled.any():
                # state k equals state saved_at, so iteration t >= k repeats source[t - k]
                source = saved_at + (np.arange(k, last + 1) - saved_at) % (k - saved_at)
                rows = active[cycled]
                deltas[rows, k:] = deltas[rows][:, source]
                done = feasible | cycled
        leaving = done.any()
        if leaving:
            for j, P in zip(active[feasible], PA[feasible]):
                stop[j] = k
                found[j] = P
            if done.all():
                break
        if k == last:
            break
        if box.integer_restricted and k > 0 and k & (k - 1) == 0:
            saved, saved_at = tuple(half.copy() for half in state), k
        if alg == "DR":
            np.add(np.subtract(S, PA, out=X[B:]), Y[B:], out=S)
        elif alg == "MAP":
            S = Y
        else:  # R_{k+1} = W_k - A_{k+1} over A_{k+1}, W_{k+1} = T_{k+1} + R_{k+1} over P_B(T_k)
            w = halves[1 - t]
            np.add(Y[w], np.subtract(S[w], X[w], out=X[w]), out=PB)
            S, t = Y, 1 - t
        del Y, PA, PB, state  # not alive through the next iteration's projections
        if leaving:  # done starts leave the next state and its saved copy
            X, keep = None, ~done
            active, S = active[keep], S[np.tile(keep, len(S) // B)]
            saved = tuple(half[keep] for half in saved)
    # a stopped row carries its final delta forward; a cycled row already holds its continuation
    np.copyto(deltas, deltas[np.arange(size), stop][:, None],
              where=np.arange(last + 1) > stop[:, None])
    return deltas, [
        SolverTrace(
            algorithm=alg,
            # a copy: a view would keep the whole row alive in every caller that holds a trace
            deltas=deltas[j, :stop[j] + 1].copy(),
            first_feasible_iteration=None if found[j] is None else int(stop[j]),
            first_feasible_matrix=found[j],
            converged=found[j] is not None,
        )
        for j in range(size)
    ]


def _check_box(affine_set, box):
    if box.shape != affine_set.shape:
        raise ValueError(f"box shape {box.shape} does not match constraint shape {affine_set.shape}")
    if box.integer_restricted:
        # the exact integer-sum check needs every partial sum of box entries below 2^53
        reach = np.maximum(np.abs(box.lower), np.abs(box.upper))
        if max(reach.sum(axis=1).max(), reach.sum(axis=0).max()) >= EXACT_INTEGER_LIMIT:
            raise ValueError("integer-restricted box is too large: a row or column sum "
                             "of its entries could reach 2^53, beyond exact float64 integers")


def run(affine_set: AffineMarginalSet, box: HyperBox, T0, cfg: SolverConfig):
    """Run cfg.algorithm from T0; see the module docstring for the updates."""
    T0 = as_matrix(T0, shape=affine_set.shape, name="T0")
    _check_box(affine_set, box)
    return _solve(affine_set, box, T0[None], cfg)[1][0]


def run_batch(affine_set: AffineMarginalSet, box: HyperBox, starts, cfg: SolverConfig):
    """Run cfg.algorithm from each matrix of the (B, m, n) stack ``starts``.

    Returns one :class:`SolverTrace` per start, each bit for bit the
    trace :func:`run` gives for that start alone.
    """
    starts = as_array(starts, 3, affine_set.shape, name="stack of starts")
    _check_box(affine_set, box)
    return _solve(affine_set, box, starts, cfg)[1]
