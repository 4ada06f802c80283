"""Douglas-Rachford, alternating-projection, and Dykstra feasibility runs.

All three schemes are driven by the same pair of projectors: the box
projection P_A and the affine projection P_B onto prescribed scaled
row/column sums. Updates, for a current iterate T_k:

    DR:   T_{k+1} = T_k - P_A(T_k) + P_B(2 P_A(T_k) - T_k)
    MAP:  T_{k+1} = P_B(P_A(T_k))
    Dyk:  A_{k+1} = P_A(T_k + R_k),  R_{k+1} = T_k + R_k - A_{k+1},
          T_{k+1} = P_B(A_{k+1}),    R_0 = 0

The monitored sequence is P_A(T_k) (which lies in the box), with the
feasibility gap delta_k = ||P_A(T_k) - P_B(P_A(T_k))||_F evaluated for
k = 0, 1, ... before each update; a run stops at the first delta_k
within tolerance or after max_iterations updates. For Dykstra the gap
is deliberately computed from P_A(T_k), not from A_{k+1}, so all three
algorithms share one criterion.

In the integer-restricted case the same updates run unchanged with the
rounding box projection, and feasibility additionally requires exact
integer entries whose row/column sums match the projected targets in
integer arithmetic; this separates float noise from true feasibility.

Integer runs also stop at their first repeated state (T_k, and R_k for
Dykstra). Each start's state is saved at k = 1, 2, 4, 8, ... and
compared bit for bit with every later state; the rounding box makes
exact repeats common (integer MAP settles on a fixed point, DR enters
short cycles). The update is a fixed function of the state, so a state
at iteration k equal to the one saved at iteration j repeats with period
p = k - j for ever, and none of delta_j, ..., delta_{k-1} passed: the
run can never converge. The engine marks it not converged and fills its
deltas (and, when recorded, its iterates and Dykstra box candidates) up
to max_iterations with the periodic continuation, so every trace is bit
for bit the one a full-length run gives.

One engine runs every start of a batch as a (B, m, n) stack: each step
is elementwise or acts on each matrix of the stack alone, so a start's
delta_k sequence and first feasible point are bit for bit the same
whether it runs alone (:func:`run`) or inside any batch
(:func:`run_batch`). A start leaves the stack at its first feasible
iterate.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .affine import AffineMarginalSet
from .box import HyperBox
from .linalg import as_integer, as_matrix, frobenius_norm

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
    record_trace: bool = False

    def __post_init__(self):
        alg = str(self.algorithm).upper()
        if alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected DR, MAP or DYK")
        object.__setattr__(self, "algorithm", alg)
        iterations = as_integer(self.max_iterations, name="max_iterations")
        if iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        object.__setattr__(self, "max_iterations", iterations)
        if not np.isfinite(self.feasibility_tol) or self.feasibility_tol < 0:
            raise ValueError("feasibility_tol must be finite and nonnegative")


@dataclass
class SolverTrace:
    """Outcome of one run: the delta_k sequence and the first feasible point."""

    algorithm: str
    deltas: np.ndarray
    first_feasible_iteration: Optional[int]
    first_feasible_matrix: Optional[np.ndarray]
    converged: bool
    iterates: Optional[list] = None
    box_candidates: Optional[list] = field(default=None, repr=False)


def _integer_goals(affine_set):
    """Rounded projected targets for the exact integer feasibility check."""
    s_bar, r_bar = affine_set.projected_target
    s_goal = np.round(s_bar)
    r_goal = np.round(r_bar)
    integral = bool(np.all(s_bar == s_goal) and np.all(r_bar == r_goal))
    return s_goal, r_goal, integral


def _exact_integer_sums(P, s_goal, r_goal):
    """Per matrix of the integer-box stack P: integer entries with the goal sums.

    _check_box keeps every row and column sum of an integer box below
    2^53, so these float sums are exact whatever their order.
    """
    integral = np.all(np.floor(P) == P, axis=(1, 2))
    rows = np.all(P.sum(axis=2) == s_goal, axis=1)
    cols = np.all(P.sum(axis=1) == r_goal, axis=1)
    return integral & rows & cols


def _repeated(state, saved):
    """Per matrix of the stack: every state array equals its saved copy bit for bit
    (compared as int64, so -0.0 and +0.0 differ)."""
    same = True
    for now, then in zip(state, saved):
        same = same & (now.view(np.int64) == then.view(np.int64)).all(axis=(1, 2))
    return same


def _solve(affine_set, box, T, cfg):
    """Run cfg.algorithm from every start of the (B, m, n) stack T; one trace each."""
    alg, last = cfg.algorithm, cfg.max_iterations
    size = T.shape[0]
    deltas = np.empty((size, last + 1))
    stop = np.full(size, last)          # iteration of each start's final delta
    found = [None] * size
    active = np.arange(size)            # start index of each matrix in the stack
    R = np.zeros_like(T)
    width = 2 if alg == "DYK" else 1    # the state is T, or (T, R) for Dykstra
    saved, saved_at = (), 0             # each active start's state at iteration saved_at
    s_goal, r_goal, targets_integral = _integer_goals(affine_set)
    iterates = [[] for _ in range(size)] if cfg.record_trace else None
    candidates = [[] for _ in range(size)] if cfg.record_trace and alg == "DYK" else None
    for k in range(last + 1):
        if box.integer_restricted and k > 0:
            cycled = _repeated((T, R)[:width], saved) if saved else np.zeros(len(active), dtype=bool)
            if cycled.any():
                # state k equals state saved_at, so iteration t >= k repeats source[t - k]
                p = k - saved_at
                source = saved_at + (np.arange(k, last + 1) - saved_at) % p
                rows = active[cycled]
                deltas[rows, k:] = deltas[rows][:, source]
                for seq, end in ((iterates, last + 1), (candidates, last)):
                    if seq is not None:
                        for j in rows:
                            seq[j] += [seq[j][t].copy() for t in source[:end - k]]
                if cycled.all():
                    break
                keep = ~cycled
                active, T, R = active[keep], T[keep], R[keep]
                saved = tuple(S[keep] for S in saved)
            if k & (k - 1) == 0:
                saved, saved_at = tuple(S.copy() for S in (T, R)[:width]), k
        if iterates is not None:
            for j, Tj in zip(active, T):
                iterates[j].append(Tj.copy())
        PA = box._project(T)
        PB = affine_set._project(PA)
        delta = frobenius_norm(PA - PB)
        deltas[active, k] = delta
        feasible = delta <= cfg.feasibility_tol
        if box.integer_restricted and feasible.any():
            feasible[feasible] = targets_integral & _exact_integer_sums(PA[feasible], s_goal, r_goal)
        if feasible.any():
            for j, P in zip(active[feasible], PA[feasible]):
                stop[j] = k
                found[j] = P
            if feasible.all():
                break
            keep = ~feasible
            active, T, R, PA, PB = active[keep], T[keep], R[keep], PA[keep], PB[keep]
            saved = tuple(S[keep] for S in saved)
        if k == last:
            break
        if alg == "DR":
            T = T - PA + affine_set._project(2.0 * PA - T)
        elif alg == "MAP":
            T = PB
        else:
            W = T + R
            AK = box._project(W)
            if candidates is not None:
                for j, A in zip(active, AK):
                    candidates[j].append(A.copy())
            R = W - AK
            T = affine_set._project(AK)
    return [
        SolverTrace(
            algorithm=alg,
            deltas=deltas[j, :stop[j] + 1].copy(),
            first_feasible_iteration=None if found[j] is None else int(stop[j]),
            first_feasible_matrix=found[j],
            converged=found[j] is not None,
            iterates=None if iterates is None else iterates[j],
            box_candidates=None if candidates is None else candidates[j],
        )
        for j in range(size)
    ]


def _check_box(affine_set, box):
    if box.shape != affine_set.shape:
        raise ValueError(f"box shape {box.shape} does not match constraint shape {affine_set.shape}")
    if box.integer_restricted:
        # the exact integer-sum check needs every partial sum of box entries below 2^53
        reach = np.maximum(np.abs(box.int_lower), np.abs(box.int_upper))
        if max(reach.sum(axis=1).max(), reach.sum(axis=0).max()) >= EXACT_INTEGER_LIMIT:
            raise ValueError("integer-restricted box is too large: a row or column sum "
                             "of its entries could reach 2^53, beyond exact float64 integers")


def run(affine_set: AffineMarginalSet, box: HyperBox, T0, cfg: SolverConfig):
    """Run cfg.algorithm from T0; see the module docstring for the updates."""
    T0 = as_matrix(T0, shape=affine_set.shape, name="T0")
    _check_box(affine_set, box)
    return _solve(affine_set, box, T0[None], cfg)[0]


def run_batch(affine_set: AffineMarginalSet, box: HyperBox, starts, cfg: SolverConfig):
    """Run cfg.algorithm from each matrix of the (B, m, n) stack ``starts``.

    Returns one :class:`SolverTrace` per start, each bit for bit the
    trace :func:`run` gives for that start alone.
    """
    starts = np.asarray(starts, dtype=np.float64)
    if starts.ndim != 3 or starts.shape[0] == 0 or starts.shape[1:] != affine_set.shape:
        raise ValueError(f"starts must be a nonempty stack of {affine_set.shape} matrices, "
                         f"got shape {starts.shape}")
    if not np.all(np.isfinite(starts)):
        raise ValueError("starts contain non-finite entries")
    _check_box(affine_set, box)
    return _solve(affine_set, box, starts, cfg)
