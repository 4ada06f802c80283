"""Batch experiment driver: random starts, three solvers, order census, files.

Each run draws one start matrix with entries uniform on the half-open
interval [init_low, init_high) and executes DR, MAP, and Dykstra from
it. Runs are classified by the order in which the algorithms reach
feasibility (iteration count) and by how close their first feasible
points are to the start (spectral norm, with a tie tolerance); labels
look like ``DR<MAP=Dyk``, omit non-converged algorithms, and degrade to
``None`` when nothing converges. Integer-case runs also collect the
found matrices for exact deduplication.

Randomness: run ``i`` uses numpy's PCG64 seeded with
``SeedSequence(seed, spawn_key=(i,))``, so each run has an independent
substream and changing ``num_runs`` never reshuffles earlier runs.
The run indices are cut into contiguous blocks, solved serially or by
a process pool, and joined in block order, so the output is
byte-identical whatever the blocking, ``jobs`` or worker scheduling.
"""

import ctypes
import os
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .affine import make_affine_set
from .box import ROUNDING_TIE_RULE, make_box
from .linalg import as_integer, as_vector, check_finite, frozen_copy, spectral_norm
from .operator import unit_operator
# ``run`` is not called here; perfbench/tracing.py wraps ``harness.run`` by name
from .solvers import ALGORITHMS, BACKEND, SolverConfig, _check_box, _solve, run  # noqa: F401

SCHEMA_VERSION = 4

# Float64 entries per engine call's stack of starts: 2^16, 512 KiB. An iteration streams a few
# stacks of that size (Dykstra: T, W and the box output; no step of the convex box or of W's
# update reads a third), and the 2 MiB L2 cache of the 2-CPU Xeon it was tuned on holds four:
# at 2^18, two 256x384 starts shared a block and each ran slower than alone. This bounds engine
# memory; records and delta tables grow with num_runs. Blocking changes no bit.
BLOCK_ENTRIES = 2 ** 16

DISPLAY_NAMES = {"DR": "DR", "MAP": "MAP", "DYK": "Dyk"}

RUNS_CSV = "runs.csv"
SUMMARY_JSON = "summary.json"
DELTAS_CSV = "deltas.csv"
SCHEMA_JSON = "schema.json"


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration for one batch; dimensions are implied by the targets."""

    s: np.ndarray
    r: np.ndarray
    case: str = "convex"
    num_runs: int = 1000
    init_low: float = -100.0
    init_high: float = 100.0
    seed: int = 1
    max_iterations: int = 250
    feasibility_tol: float = 1e-9
    distance_tie_tol: float = 1e-15

    def __post_init__(self):
        object.__setattr__(self, "s", frozen_copy(as_vector(self.s, name="s")))
        object.__setattr__(self, "r", frozen_copy(as_vector(self.r, name="r")))
        if self.case not in ("convex", "integer"):
            raise ValueError(f"case must be 'convex' or 'integer', got {self.case!r}")
        # SolverConfig holds the max_iterations and feasibility_tol rules
        object.__setattr__(self, "max_iterations", self.solver_config("DR").max_iterations)
        for name in ("num_runs", "seed"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name=name))
        for name in ("init_low", "init_high"):
            check_finite(getattr(self, name), name=name)
        check_finite(self.distance_tie_tol, name="distance_tie_tol", nonnegative=True)
        if self.num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        if self.num_runs > sys.maxsize:  # len(range(num_runs)) must fit in a C ssize_t
            raise ValueError(f"num_runs must be at most {sys.maxsize}")
        if not self.init_low < self.init_high:
            raise ValueError("init_low must be strictly below init_high")
        if not np.isfinite(float(self.init_high) - float(self.init_low)):
            raise ValueError("the init interval is too wide: init_high - init_low overflows float64")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def m(self):
        return self.s.shape[0]

    @property
    def n(self):
        return self.r.shape[0]

    @classmethod
    def from_config(cls, cfg, **overrides):
        """Build a spec from a plain dict (e.g. a loaded JSON config).

        Overrides that are None are skipped; ``m`` and ``n`` keys are
        ignored, since the targets imply them. A config that is not a
        dict, has an unknown key or lacks ``s`` or ``r`` raises a
        ValueError that names the key.
        """
        if not isinstance(cfg, dict):
            raise ValueError(f"a config must be a JSON object of spec fields, got {type(cfg).__name__}")
        merged = {k: v for k, v in cfg.items() if k not in ("m", "n")}
        merged.update({k: v for k, v in overrides.items() if v is not None})
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(merged) - set(names))
        if unknown:
            raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                             f"the keys are {', '.join(names)} (m and n are ignored)")
        missing = [k for k in ("s", "r") if k not in merged]
        if missing:
            raise ValueError(f"the config has no {' or '.join(missing)} (target row and column sums)")
        return cls(**merged)

    def solver_config(self, algorithm):
        """The SolverConfig of ``algorithm`` with this spec's iteration cap and tolerance."""
        return SolverConfig(algorithm=algorithm, max_iterations=self.max_iterations,
                            feasibility_tol=self.feasibility_tol)


@dataclass
class AlgorithmResult:
    converged: bool
    iterations: Optional[int]
    distance: Optional[float]
    deltas: np.ndarray
    solution: Optional[np.ndarray] = None  # int64 matrix, integer case only


@dataclass
class RunRecord:
    run_index: int
    results: dict
    feasibility_order: str = ""
    distance_order: str = ""


def draw_start(spec, run_index):
    """Start matrix for one run, from that run's private PCG64 substream."""
    seq = np.random.SeedSequence(int(spec.seed), spawn_key=(int(run_index),))
    rng = np.random.Generator(np.random.PCG64(seq))
    return rng.uniform(spec.init_low, spec.init_high, size=(spec.m, spec.n))


def _order_label(entries, tie_tol):
    """Chain label like 'DR<MAP=Dyk' over the converged algorithms.

    ``entries`` holds (display_name, value) pairs in canonical algorithm
    order; the sort is stable, so exact ties keep that order. Adjacent
    values within ``tie_tol`` are joined with '='.
    """
    if not entries:
        return "None"
    ordered = sorted(entries, key=lambda t: t[1])
    parts = [ordered[0][0]]
    for prev, cur in zip(ordered, ordered[1:]):
        parts.append("=" if cur[1] - prev[1] <= tie_tol else "<")
        parts.append(cur[0])
    return "".join(parts)


def _build_problem(s, r, case):
    """Affine set for targets (s, r) and the box built from their range projection.

    The box [0, min(s_bar_i, r_bar_j)] needs nonnegative range-projected
    targets (s_bar, r_bar); nonnegative but inconsistent targets can
    still project to negative ones, and the error names them.
    """
    affine_set = make_affine_set(unit_operator(len(s), len(r)), s, r)
    s_bar, r_bar = affine_set.projected_target
    if np.any(s_bar < 0.0) or np.any(r_bar < 0.0):
        raise ValueError(
            "the range-projected targets have negative entries, but the box needs "
            f"nonnegative ones: s_bar = ({', '.join(map(_fmt, s_bar))}), "
            f"r_bar = ({', '.join(map(_fmt, r_bar))})")
    box = make_box(s_bar, r_bar, integer_restricted=(case == "integer"))
    _check_box(affine_set, box)  # before a worker starts
    return affine_set, box


def _algorithm_results(spec, starts, trace_list):
    """One AlgorithmResult per start; the distances come from one stacked norm."""
    hit = [pos for pos, trace in enumerate(trace_list) if trace.converged]
    distances = [None] * len(trace_list)
    if hit:
        found = np.stack([trace_list[pos].first_feasible_matrix for pos in hit])
        for pos, distance in zip(hit, spectral_norm(starts[hit] - found)):
            distances[pos] = float(distance)
    return [
        AlgorithmResult(
            converged=trace.converged,
            iterations=trace.first_feasible_iteration,
            distance=distance,
            deltas=trace.deltas,
            solution=(trace.first_feasible_matrix.astype(np.int64)
                      if trace.converged and spec.case == "integer" else None),
        )
        for trace, distance in zip(trace_list, distances)
    ]


def _worker_count(jobs, num_runs):
    """Worker processes for ``jobs``: never more than num_runs or the CPUs this process may
    use (its affinity mask where the OS has one, else the CPU count); jobs < 1 is refused."""
    jobs = as_integer(jobs, name="jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    return min(jobs, cpus, num_runs)


@contextmanager
def _one_blas_thread():
    """One thread for numpy's bundled OpenBLAS, if loaded, inside the block: workers forked there
    keep it and do not oversubscribe the CPUs (set after a fork, it starts a spinning thread)."""
    threads, paths = None, (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
    with suppress(OSError, AttributeError, StopIteration):  # RTLD_NOLOAD: the copy numpy loaded
        lib = ctypes.CDLL(str(next(paths)), mode=os.RTLD_NOLOAD)
        put = lib.scipy_openblas_set_num_threads64_
        put.argtypes, put.restype = [ctypes.c_int], None
        threads = lib.scipy_openblas_get_num_threads64_()
        put(1)
    try:
        yield
    finally:
        if threads is not None:
            put(threads)


def _run_block(spec, affine_set, box, indices):
    """Solve the runs ``indices`` with one engine call per algorithm; _build_problem checked the problem.
    Returns the records and each algorithm's table of full-length delta rows."""
    starts = np.stack([draw_start(spec, i) for i in indices])
    tables, results = {}, {}
    for key in ALGORITHMS:
        tables[key], traces = _solve(affine_set, box, starts, spec.solver_config(key))
        results[key] = _algorithm_results(spec, starts, traces)
        del traces  # with its found matrices, before the next engine call
    records = []
    for pos, run_index in enumerate(indices):
        run_results = {key: results[key][pos] for key in ALGORITHMS}
        converged = [(DISPLAY_NAMES[key], res) for key, res in run_results.items() if res.converged]
        records.append(RunRecord(
            run_index=run_index, results=run_results,
            feasibility_order=_order_label([(name, res.iterations) for name, res in converged], 0),
            distance_order=_order_label([(name, res.distance) for name, res in converged],
                                        spec.distance_tie_tol)))
    return records, tables


def run_experiment(spec, jobs=1):
    """Execute the batch; returns (records in run-index order, summary dict).

    The problem is built once. The run indices are cut into contiguous
    blocks of at most BLOCK_ENTRIES start entries and at most
    ceil(num_runs / workers) runs; each block is one stacked engine call
    per algorithm. With ``jobs`` > 1 the blocks go to a pool of at most
    ``jobs`` worker processes, and never more than the CPUs this process may use.
    """
    workers = _worker_count(jobs, spec.num_runs)
    affine_set, box = _build_problem(spec.s, spec.r, spec.case)
    runs = range(spec.num_runs)
    size = min(max(1, BLOCK_ENTRIES // (spec.m * spec.n)), -(-len(runs) // workers))
    blocks = [runs[lo:lo + size] for lo in range(0, len(runs), size)]
    solve = partial(_run_block, spec, affine_set, box)
    if workers == 1:
        parts = list(map(solve, blocks))
    else:
        # imported here, so that serial runs do not load the pool; forked on Linux (not by Python
        # 3.14's forkserver), workers inherit the one BLAS thread and skip an unguarded __main__
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        fork = get_context("fork") if sys.platform == "linux" else None
        with _one_blas_thread(), ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            parts = list(pool.map(solve, blocks))
    records = [rec for part, _ in parts for rec in part]
    return records, summarize(records, spec, [tables for _, tables in parts],
                              affine_set.projected_target)


def _count_labels(records, attr):
    return dict(sorted(Counter(getattr(rec, attr) for rec in records).items()))


def dedup_solutions(records):
    """Exact-equality census of integer solutions, per algorithm and overall."""
    per_algorithm = {}
    all_keys = set()
    total_found = 0
    for key in ALGORITHMS:
        matrices = [rec.results[key].solution for rec in records
                    if rec.results[key].solution is not None]
        unique = {mat.tobytes() for mat in matrices}
        per_algorithm[DISPLAY_NAMES[key]] = {
            "found": len(matrices),
            "unique": len(unique),
        }
        total_found += len(matrices)
        all_keys |= unique
    return {
        "per_algorithm": per_algorithm,
        "total_found": total_found,
        "total_unique": len(all_keys),
    }


def integer_feasible(s_bar, r_bar):
    """Whether a nonnegative integer matrix has row sums s_bar and column sums r_bar: exactly
    when both hold nonnegative integers with equal totals, for then the northwest-corner rule
    of the transportation problem (Dantzig 1963) builds one, each entry (i, j) at most
    min(s_bar_i, r_bar_j), so in the box."""
    rows, cols = [int(v) for v in s_bar], [int(v) for v in r_bar]
    return bool(np.all(s_bar == rows) and np.all(r_bar == cols) and min(rows + cols) >= 0
                and sum(rows) == sum(cols))


def summarize(records, spec, tables, projected_target):
    """The summary.json dict of ``records``; ``tables`` holds, per block in run order, each
    algorithm's full-length delta table from the engine, and their join gives delta_stats.
    ``projected_target`` is (s_bar, r_bar); the integer case reports whether integer
    matrices in the box meet them, a condition on the margins alone (integer_feasible)."""
    delta_stats = {}
    for key in ALGORITHMS:
        table = np.concatenate([block[key] for block in tables])
        # each column after the last one that differs, bitwise, from the final column copies it
        differs = np.flatnonzero((table.view(np.int64) != table[:, -1:].view(np.int64)).any(axis=0))
        width = differs[-1] + 2 if differs.size else 1
        tail, table = table.shape[1] - width, table[:, :width]
        low, high = table.min(axis=0).tolist(), table.max(axis=0).tolist()
        # the join is a fresh array, so the median may reorder it in place
        median = np.median(table, axis=0, overwrite_input=True).tolist()
        delta_stats[DISPLAY_NAMES[key]] = {
            name: values + values[-1:] * tail
            for name, values in (("median", median), ("min", low), ("max", high))}
        del table  # before the next join
    convergence = {
        DISPLAY_NAMES[key]: sum(1 for rec in records if rec.results[key].converged)
        for key in ALGORITHMS
    }
    echo = {"m": spec.m, "n": spec.n, **{f.name: getattr(spec, f.name) for f in fields(spec)}}
    echo.update(s=spec.s.tolist(), r=spec.r.tolist())  # keeps the fields' key order
    summary = {
        "schema_version": SCHEMA_VERSION,
        "spec": echo,
        "backend": BACKEND,
        "conventions": {
            "rounding_tie_rule": ROUNDING_TIE_RULE,
            "delta_definition": "frobenius norm of A^+(A(P_box(T_k)) - (s_bar, r_bar)), which is "
                                "P_box(T_k) minus P_affine(P_box(T_k))",
            "dykstra_delta_point": "P_box(T_k), same criterion as DR and MAP",
            "integer_feasibility": "delta within tolerance plus exact integer row/column sums",
            "integer_feasible": "integer case: whether an integer matrix in the box has the sums "
                                "(s_bar, r_bar), by the northwest-corner rule of the transportation "
                                "problem (Dantzig 1963); fractional sums admit none",
            "delta_padding": "stopped runs carry their final delta forward in the statistics",
            "rng": "PCG64 with SeedSequence(seed, spawn_key=(run_index,)) per run",
            "init_interval": "half-open [init_low, init_high)",
            "distance_norm": "largest singular value (LAPACK SVD) of start minus first feasible point",
        },
        "algorithms": [DISPLAY_NAMES[k] for k in ALGORITHMS],
        "convergence_counts": convergence,
        "feasibility_order_counts": _count_labels(records, "feasibility_order"),
        "distance_order_counts": _count_labels(records, "distance_order"),
        "delta_stats": delta_stats,
    }
    if spec.case == "integer":
        summary["integer_feasible"] = integer_feasible(*projected_target)
        summary["solutions"] = dedup_solutions(records)
    return summary


def _fmt(x):
    return f"{x:.17g}"


def _solution_cell(solution):
    if solution is None:
        return ""
    return " ".join(map(str, solution.ravel().tolist()))


def emit_outputs(records, summary, out_dir):
    """Write runs.csv, summary.json, deltas.csv, and schema.json under out_dir.

    ``out_dir`` is a path or a string. I/O errors propagate with the
    offending path in the exception.
    """
    import json  # here, so that importing the package does not load it

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["run_index"]
    for key in ALGORITHMS:
        low = DISPLAY_NAMES[key].lower()
        header += [f"{low}_converged", f"{low}_iterations", f"{low}_distance"]
    header += ["feasibility_order", "distance_order"]
    header += [f"{DISPLAY_NAMES[key].lower()}_solution" for key in ALGORITHMS]

    lines = [",".join(header)]
    for rec in records:
        cells = [str(rec.run_index)]
        for key in ALGORITHMS:
            res = rec.results[key]
            cells.append("true" if res.converged else "false")
            cells.append("" if res.iterations is None else str(res.iterations))
            cells.append("" if res.distance is None else _fmt(res.distance))
        cells.append(rec.feasibility_order)
        cells.append(rec.distance_order)
        for key in ALGORITHMS:
            cells.append(_solution_cell(rec.results[key].solution))
        lines.append(",".join(cells))
    (out_dir / RUNS_CSV).write_text("\n".join(lines) + "\n")

    delta_lines = ["iteration,algorithm,median,min,max"]
    stats = summary["delta_stats"]
    length = len(next(iter(stats.values()))["median"])
    for k in range(length):
        for key in ALGORITHMS:
            name = DISPLAY_NAMES[key]
            s = stats[name]
            delta_lines.append(
                f"{k},{name},{_fmt(s['median'][k])},{_fmt(s['min'][k])},{_fmt(s['max'][k])}"
            )
    (out_dir / DELTAS_CSV).write_text("\n".join(delta_lines) + "\n")

    (out_dir / SUMMARY_JSON).write_text(json.dumps(summary, indent=2) + "\n")

    schema = {
        "schema_version": SCHEMA_VERSION,
        "files": {
            RUNS_CSV: {
                "description": "one row per run",
                "columns": {
                    "run_index": "0-based run number",
                    "<alg>_converged": "true/false, feasibility reached within max_iterations",
                    "<alg>_iterations": "first iteration k with delta_k within tolerance (empty if none); "
                                        "delta_k = ||A^+(A(P_box(T_k)) - (s_bar, r_bar))||_F",
                    "<alg>_distance": "largest singular value (LAPACK SVD) of start minus first feasible point, 17 significant digits",
                    "feasibility_order": "converged algorithms ordered by iterations; '=' joins exact ties; 'None' if no algorithm converged",
                    "distance_order": "converged algorithms ordered by distance; '=' joins values within distance_tie_tol",
                    "<alg>_solution": "integer case only: row-major integer entries of the found matrix, space-separated",
                },
            },
            DELTAS_CSV: {
                "description": "per-iteration feasibility-gap statistics across runs",
                "columns": {
                    "iteration": "0-based iteration index",
                    "algorithm": "DR, MAP or Dyk",
                    "median/min/max": "statistics of delta_k over runs (final value carried forward after a run stops)",
                },
            },
            SUMMARY_JSON: {
                "description": "order-label counts, per-iteration delta statistics, integer "
                               "feasibility of (s_bar, r_bar) and solution census (integer case), "
                               "config echo and conventions",
            },
        },
        "floating_point_format": "CSV floats use 17 significant digits; JSON floats are shortest round-trip representations",
    }
    (out_dir / SCHEMA_JSON).write_text(json.dumps(schema, indent=2) + "\n")
    return [out_dir / RUNS_CSV, out_dir / SUMMARY_JSON, out_dir / DELTAS_CSV, out_dir / SCHEMA_JSON]
