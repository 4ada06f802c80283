"""Independent checks on the program's outputs.

Every timed operation (a batch run, a single solve, a projection) is
checked here, outside the timed region, with arithmetic that does not
call back into the layer under test. The share of operations with any
problem is the benchmark's ``fail_frac``.
"""

import csv
import io

import numpy as np

EPS = np.finfo(np.float64).eps
ORACLE_TOL = 1e-9       # acceptance criterion 2: Frobenius distance to the KKT oracle
DISTANCE_RTOL = 1e-7    # power-iteration spectral norm against LAPACK's 2-norm
DISPLAY = {"DR": "DR", "MAP": "MAP", "DYK": "Dyk"}


class Tally:
    """Attempted and failed operation counts, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def _sum_bound(M, target, axis, tol):
    """Allowed |sum - target| along ``axis`` for a point within ``tol`` of the affine set.

    A matrix within Frobenius distance tol of the set has each row sum
    within sqrt(n) * tol of its target (Cauchy-Schwarz), plus the
    rounding of an n-term float sum.
    """
    k = M.shape[axis]
    return np.sqrt(k) * tol + 16 * k * EPS * (np.abs(target) + np.abs(M).sum(axis=axis))


def sum_problems(M, s_bar, r_bar, integer, tol):
    if integer:
        if np.any(np.floor(M) != M):
            return ["entries are not integers"]
        if np.any(np.rint(s_bar) != s_bar) or np.any(np.rint(r_bar) != r_bar):
            return ["integer case with non-integral targets"]
        Mi = M.astype(np.int64)
        if not (np.array_equal(Mi.sum(axis=1), np.rint(s_bar).astype(np.int64))
                and np.array_equal(Mi.sum(axis=0), np.rint(r_bar).astype(np.int64))):
            return ["integer row/column sums differ from the targets"]
        return []
    problems = []
    if np.any(np.abs(M.sum(axis=1) - s_bar) > _sum_bound(M, s_bar, 1, tol)):
        problems.append("row sums off target")
    if np.any(np.abs(M.sum(axis=0) - r_bar) > _sum_bound(M, r_bar, 0, tol)):
        problems.append("column sums off target")
    return problems


def feasible_problems(M, s_bar, r_bar, integer, tol):
    """A reported feasible matrix must lie in [0, min(s_i, r_j)] and meet the sums."""
    M = np.asarray(M, dtype=np.float64)
    problems = []
    if np.any(M < 0.0) or np.any(M > np.minimum.outer(s_bar, r_bar)):
        problems.append("outside the box")
    return problems + sum_problems(M, s_bar, r_bar, integer, tol)


def projection_problems(T, P, s_bar, r_bar, oracle=None):
    """P = project(T) meets the sums and P - T has the form a_i + b_j.

    The double-centred residual of D = P - T vanishes exactly when
    D_ij = a_i + b_j, the range of the adjoint for unit weights. With
    ``oracle`` (the KKT solution) P must also match it to ORACLE_TOL.
    """
    problems = sum_problems(P, s_bar, r_bar, False, 0.0)
    D = P - T
    centred = D - D.mean(axis=1, keepdims=True) - D.mean(axis=0, keepdims=True) + D.mean()
    scale = np.abs(T).max() + np.abs(P).max()
    if np.abs(centred).max() > 64 * max(P.shape) * EPS * scale:
        problems.append("P - T is not of the form a_i + b_j")
    if oracle is not None and np.linalg.norm(P - oracle) > ORACLE_TOL:
        problems.append(f"differs from the KKT oracle by {np.linalg.norm(P - oracle):.3e}")
    return problems


def _result_problems(res, workload, s_bar, r_bar, max_iterations):
    if not res.converged:
        problems = []
        if res.iterations is not None or res.distance is not None or res.solution is not None:
            problems.append("non-converged result reports an iteration, distance or solution")
        if len(res.deltas) != max_iterations + 1:
            problems.append("non-converged run did not use every iteration")
        return problems
    problems = []
    if not 0 <= res.iterations <= max_iterations or len(res.deltas) != res.iterations + 1:
        problems.append("iteration count inconsistent with the delta sequence")
    if not (res.distance is not None and np.isfinite(res.distance) and res.distance >= 0.0):
        problems.append("distance missing or invalid")
    if workload.integer:
        if res.solution is None:
            problems.append("integer run reports no solution")
        else:
            problems += feasible_problems(res.solution, s_bar, r_bar, True, 0.0)
    return problems


def batch_problems(records, summary, runs_csv, spec, workload, s_bar, r_bar):
    """Problems per record, after the batch-wide consistency checks.

    A batch-wide problem (summary or runs.csv disagreeing with the
    records) is charged to every run of the batch.
    """
    shared = []
    if [rec.run_index for rec in records] != list(range(spec.num_runs)):
        shared.append("records are not runs 0..num_runs-1 in order")
    counts = {DISPLAY[k]: sum(rec.results[k].converged for rec in records) for k in DISPLAY}
    if summary["convergence_counts"] != counts:
        shared.append("summary convergence counts disagree with the records")
    if workload.integer:
        found = [rec.results[k].solution for rec in records for k in DISPLAY
                 if rec.results[k].solution is not None]
        census = summary["solutions"]
        if (census["total_found"] != len(found)
                or census["total_unique"] != len({sol.tobytes() for sol in found})):
            shared.append("solution census disagrees with the records")
    rows = list(csv.DictReader(io.StringIO(runs_csv)))
    if len(rows) != len(records):
        shared.append("runs.csv row count differs from the records")
        rows = [None] * len(records)

    per_record = []
    for rec, row in zip(records, rows):
        problems = list(shared)
        for key, name in DISPLAY.items():
            res = rec.results[key]
            problems += _result_problems(res, workload, s_bar, r_bar, spec.max_iterations)
            low = name.lower()
            if row is not None and (
                    row[f"{low}_converged"] != ("true" if res.converged else "false")
                    or row[f"{low}_iterations"] != ("" if res.iterations is None else str(res.iterations))):
                problems.append(f"runs.csv disagrees with the {name} record")
        if (rec.feasibility_order == "None") != (not any(r.converged for r in rec.results.values())):
            problems.append("feasibility order label inconsistent with convergence")
        per_record.append(problems)
    return per_record


def solve_problems(trace, T0, batch_result, s_bar, r_bar, integer, tol, check_distance):
    """A single rcp.run must reproduce the batch record of the same start."""
    problems = []
    if (trace.converged != batch_result.converged
            or trace.first_feasible_iteration != batch_result.iterations):
        problems.append("single run differs from the batch record")
    if not trace.converged:
        return problems
    M = trace.first_feasible_matrix
    if not trace.deltas[-1] <= tol:
        problems.append("reported feasible with delta above tolerance")
    problems += feasible_problems(M, s_bar, r_bar, integer, tol)
    if integer and (batch_result.solution is None
                    or not np.array_equal(batch_result.solution, M)):
        problems.append("solution differs from the batch record")
    if check_distance and batch_result.distance is not None:
        reference = np.linalg.norm(T0 - M, 2)
        if abs(batch_result.distance - reference) > DISTANCE_RTOL * reference:
            problems.append("distance differs from the LAPACK 2-norm")
    return problems
