"""Batch experiment driver: random starts, three solvers, order census, files.

Each run draws one start matrix with entries uniform on the half-open
interval [init_low, init_high) and executes DR, MAP, and Dykstra from
it. Runs are classified by the order in which the algorithms reach
feasibility (iteration count) and by how close their first feasible
points are to the start (spectral norm, ties within DISTANCE_TIE_TOL); labels
look like ``DR<MAP=Dyk``, omit non-converged algorithms, and degrade to
``None`` when nothing converges. Integer-case runs also collect the
found matrices for exact deduplication.

Randomness: run ``i`` uses numpy's PCG64 seeded with
``SeedSequence(seed, spawn_key=(i,))``, so each run has an independent
substream and changing ``num_runs`` never reshuffles earlier runs.
The run indices are cut into contiguous blocks, solved as (block, algorithm)
tasks in turn, on threads or in a process pool, and joined in block order, so
the output is byte-identical whatever the blocking, ``jobs``, threads or order.
"""

import contextvars
import os
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache, partial
from pathlib import Path
from typing import Optional

import numpy as np

from .affine import make_affine_set
from .box import ROUNDING_TIE_RULE, make_box
from .linalg import _openblas, as_integer, as_vector, check_finite, frozen_copy, spectral_norm
from .operator import unit_operator
# ``run`` is not called here; perfbench/tracing.py wraps ``harness.run`` by name
from .solvers import ALGORITHMS, SolverConfig, _check_box, _solve, run  # noqa: F401

SCHEMA_VERSION = 5
DISTANCE_TIE_TOL = 1e-15  # distance_order joins converged distances at most this far apart

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


def _build_problem(spec):
    """Affine set for the spec's targets (s, r), and its case's box from their range projection.

    The box [0, min(s_bar_i, r_bar_j)] needs nonnegative range-projected
    targets (s_bar, r_bar); nonnegative but inconsistent targets can
    still project to negative ones, and the error names them.
    """
    affine_set = make_affine_set(unit_operator(spec.m, spec.n), spec.s, spec.r)
    s_bar, r_bar = affine_set.projected_target
    if np.any(s_bar < 0.0) or np.any(r_bar < 0.0):
        raise ValueError(
            "the range-projected targets have negative entries, but the box needs "
            f"nonnegative ones: s_bar = ({', '.join(map(_fmt, s_bar))}), "
            f"r_bar = ({', '.join(map(_fmt, r_bar))})")
    box = make_box(s_bar, r_bar, integer_restricted=(spec.case == "integer"))
    _check_box(affine_set, box)  # before a worker starts
    return affine_set, box


def _solve_starts(spec, affine_set, box, starts, algorithm):
    """One task: ``algorithm`` from each start of the stack in one engine call (_build_problem checked
    the problem); the delta table, traces and AlgorithmResults, their distances from one stacked norm."""
    table, traces = _solve(affine_set, box, starts, spec.solver_config(algorithm))
    hit, distances = [pos for pos, trace in enumerate(traces) if trace.converged], {}
    if hit:
        found = np.stack([traces[pos].first_feasible_matrix for pos in hit])
        distances = dict(zip(hit, spectral_norm(starts[hit] - found).tolist()))
    return table, traces, [
        AlgorithmResult(converged=trace.converged, iterations=trace.first_feasible_iteration,
                        distance=distances.get(pos), deltas=trace.deltas,
                        solution=(trace.first_feasible_matrix.astype(np.int64)
                                  if trace.converged and spec.case == "integer" else None))
        for pos, trace in enumerate(traces)]


def _worker_count(jobs, num_runs):
    """Worker processes for ``jobs``, at most num_runs and the CPUs this process may use (its affinity
    mask, else the CPU count), and the CPUs each worker may use; jobs < 1 is refused."""
    jobs = as_integer(jobs, name="jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    workers = min(jobs, cpus, num_runs)
    return workers, cpus // workers


_blas_lock, _blas_saved = threading.Lock(), []  # the count each open block found: the caller's, then 1s


@contextmanager
def _one_blas_thread():
    """One thread for numpy's bundled OpenBLAS, if loaded, inside the block: workers forked there
    keep it and do not oversubscribe the CPUs (set after a fork, it starts a spinning thread).
    Blocks may overlap across threads: only the last exit restores the caller's count."""
    blas = _openblas()
    with _blas_lock:
        if blas:
            _blas_saved.append(blas[0]())
            blas[1](1)
    try:
        yield
    finally:
        with _blas_lock:
            if blas:
                blas[1](_blas_saved.pop())


def _run_blocks(spec, affine_set, box, threads, blocks):
    """Solve the blocks of run indices as (block, algorithm) tasks, Dykstra (the longest) first in each, on
    up to ``threads`` threads (this one too) where numpy drops the GIL; returns the records and block tables."""
    order, lock, drawn, solved = (ALGORITHMS[-1], *ALGORITHMS[:-1]), threading.Lock(), {}, {}
    tasks = [(pos, key) for pos in range(len(blocks)) for key in order]
    threads, todo = min(threads, len(tasks)), iter(tasks)

    def take():  # the next task until none is left; one that raises leaves the other threads none
        try:
            for pos, key in todo:
                with lock:  # a block's first task draws its starts, and its last drops them
                    starts, left = drawn.pop(pos, None) or (
                        np.stack([draw_start(spec, i) for i in blocks[pos]]), len(order))
                    if left > 1:
                        drawn[pos] = starts, left - 1
                solved[pos, key] = _solve_starts(spec, affine_set, box, starts, key)[::2]  # frees the traces
                del starts  # so that a thread holds no block's starts between its tasks
        finally:
            list(todo)

    if threads > 1 and len(blocks[0]) * spec.m * spec.n * 2 >= BLOCK_ENTRIES:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(threads - 1) as pool:  # numpy drops the GIL in large steps
            others = [pool.submit(contextvars.copy_context().run, take) for _ in range(threads - 1)]
            take()
        for other in others:
            other.result()
    else:
        take()
    records = []
    for pos, indices in enumerate(blocks):
        for i, run_index in enumerate(indices):
            run_results = {key: solved[pos, key][1][i] for key in ALGORITHMS}
            converged = [(DISPLAY_NAMES[key], res) for key, res in run_results.items() if res.converged]
            records.append(RunRecord(
                run_index=run_index, results=run_results,
                feasibility_order=_order_label([(name, res.iterations) for name, res in converged], 0),
                distance_order=_order_label([(name, res.distance) for name, res in converged], DISTANCE_TIE_TOL)))
    return records, [{key: solved[pos, key][0] for key in ALGORITHMS} for pos in range(len(blocks))]


@_one_blas_thread()
def run_experiment(spec, jobs=1):
    """Execute the batch; returns (records in run-index order, summary dict).

    The problem is built once. The run indices are cut into contiguous blocks of at most
    BLOCK_ENTRIES start entries and at most ceil(num_runs / workers) runs; each block is one stacked
    engine call per algorithm. With ``jobs`` > 1 the blocks go to a pool of at most ``jobs`` worker
    processes, never more than the CPUs this process may use. It runs under one OpenBLAS thread (the
    distance SVDs are slower at more); blocks of at least BLOCK_ENTRIES / 2 start entries run as
    (block, algorithm) tasks on one thread per CPU of a worker (_run_blocks).
    """
    workers, threads = _worker_count(jobs, spec.num_runs)
    affine_set, box = _build_problem(spec)
    runs = range(spec.num_runs)
    size = min(max(1, BLOCK_ENTRIES // (spec.m * spec.n)), -(-len(runs) // workers))
    blocks = [runs[lo:lo + size] for lo in range(0, len(runs), size)]
    solve = partial(_run_blocks, spec, affine_set, box, threads)
    if workers == 1:
        records, tables = solve(blocks)
    else:
        # imported here, so that serial runs do not load the pool; forked on Linux (not by Python
        # 3.14's forkserver), workers inherit the one BLAS thread and skip an unguarded __main__
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        fork = get_context("fork") if sys.platform == "linux" else None
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            parts = [*pool.map(solve, ([block] for block in blocks))]  # one block per call
        records, tables = ([item for part in parts for item in part[i]] for i in (0, 1))
    return records, summarize(records, spec, tables, affine_set.projected_target)


def _count_labels(records, attr):
    return dict(sorted(Counter(getattr(rec, attr) for rec in records).items()))


def dedup_solutions(records):
    """Exact-equality census of integer solutions, per algorithm and overall."""
    found = {DISPLAY_NAMES[key]: [rec.results[key].solution.tobytes() for rec in records
                                  if rec.results[key].solution is not None] for key in ALGORITHMS}
    return {"per_algorithm": {name: {"found": len(keys), "unique": len(set(keys))}
                              for name, keys in found.items()},
            "total_found": sum(map(len, found.values())),
            "total_unique": len(set().union(*found.values()))}


def integer_feasible(s_bar, r_bar):
    """Whether a nonnegative integer matrix has row sums s_bar and column sums r_bar: exactly
    when both hold nonnegative integers with equal totals, for then the northwest-corner rule
    of the transportation problem (Dantzig 1963) builds one, each entry (i, j) at most
    min(s_bar_i, r_bar_j), so in the box."""
    rows, cols = [int(v) for v in s_bar], [int(v) for v in r_bar]
    return bool(np.all(s_bar == rows) and np.all(r_bar == cols) and min(rows + cols) >= 0
                and sum(rows) == sum(cols))


def summarize(records, spec, tables, projected_target):
    """The summary dict of ``records``; ``tables`` holds, per block in run order, each
    algorithm's full-length delta table from the engine, and their join gives delta_stats (for
    deltas.csv). ``projected_target`` is (s_bar, r_bar); the integer case reports whether
    integer matrices in the box meet them, a condition on the margins alone (integer_feasible)."""
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
    convergence = {DISPLAY_NAMES[key]: sum(rec.results[key].converged for rec in records)
                   for key in ALGORITHMS}
    echo = {"m": spec.m, "n": spec.n, **{f.name: getattr(spec, f.name) for f in fields(spec)}}
    echo.update(s=spec.s.tolist(), r=spec.r.tolist())  # keeps the fields' key order
    summary = {
        "schema_version": SCHEMA_VERSION,
        "spec": echo,
        "conventions": {
            "rounding_tie_rule": ROUNDING_TIE_RULE,
            "delta_definition": "frobenius norm of A^+(A(P_box(T_k)) - (s_bar, r_bar)), which is "
                                "P_box(T_k) minus P_affine(P_box(T_k))",
            "dykstra_delta_point": "P_box(T_k), same criterion as DR and MAP",
            "integer_feasibility": "the row/column sums of P_box(T_k) equal (s_bar, r_bar) "
                                   "exactly, so delta_k is 0",
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


@cache
def _schema_json():
    """schema.json's text, formatted once per process: its dict is constant."""
    import json  # here, so that importing the package does not load it
    schema = {
        "schema_version": SCHEMA_VERSION,
        "files": {
            RUNS_CSV: {
                "description": "one row per run",
                "columns": {
                    "run_index": "0-based run number",
                    "<alg>_converged": "true/false, feasibility reached within max_iterations",
                    "<alg>_iterations": "first iteration k with delta_k within tolerance, in the integer case with "
                                        "the sums of P_box(T_k) exactly (s_bar, r_bar) (empty if none); "
                                        "delta_k = ||A^+(A(P_box(T_k)) - (s_bar, r_bar))||_F",
                    "<alg>_distance": "largest singular value (LAPACK SVD) of start minus first feasible point, 17 significant digits",
                    "feasibility_order": "converged algorithms ordered by iterations; '=' joins exact ties; 'None' if no algorithm converged",
                    "distance_order": "converged algorithms ordered by distance; '=' joins values "
                                      f"that differ by at most {DISTANCE_TIE_TOL:g}",
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
                "description": "convergence and order-label counts, integer feasibility of "
                               "(s_bar, r_bar) and solution census (integer case), config echo "
                               "and conventions",
            },
        },
        "floating_point_format": "CSV floats use 17 significant digits; JSON floats are shortest round-trip representations",
        "blas_kernel": "numpy's OpenBLAS picks its kernels by CPU; the runs.csv distances and "
                       "the deltas.csv statistics may change in their last bits with the kernel, "
                       "every other runs.csv cell and all of summary.json do not",
    }
    return json.dumps(schema, indent=2) + "\n"


def emit_outputs(records, summary, out_dir):
    """Write runs.csv, summary.json (all but delta_stats), deltas.csv (delta_stats) and
    schema.json under ``out_dir``, a path or a string. I/O errors name the offending path."""
    import json  # here, so that importing the package does not load it

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [DISPLAY_NAMES[key] for key in ALGORITHMS]
    header = ["run_index", *(f"{name.lower()}_{column}" for name in names
                             for column in ("converged", "iterations", "distance")),
              "feasibility_order", "distance_order", *(f"{name.lower()}_solution" for name in names)]
    lines = [",".join(header)]
    for rec in records:
        results = [rec.results[key] for key in ALGORITHMS]
        cells = [str(rec.run_index)]
        for res in results:
            cells += ["true" if res.converged else "false", "" if res.iterations is None else str(res.iterations),
                      "" if res.distance is None else _fmt(res.distance)]
        cells += [rec.feasibility_order, rec.distance_order]
        cells += ["" if res.solution is None else " ".join(map(str, res.solution.ravel().tolist()))
                  for res in results]
        lines.append(",".join(cells))
    (out_dir / RUNS_CSV).write_text("\n".join(lines) + "\n")

    stats = summary["delta_stats"]
    lists = [stats[name][stat] for name in names for stat in ("median", "min", "max")]
    # each distinct float is formatted once, keyed by its bits (by value, -0.0 would take 0.0's text)
    bits, where = np.unique(np.concatenate(lists, dtype=float).view(np.int64), return_inverse=True)
    distinct = list(map(_fmt, bits.view(np.float64).tolist()))
    texts = list(map(distinct.__getitem__, where.tolist()))
    ends = np.cumsum([0, *map(len, lists)]).tolist()
    csv = [texts[lo:hi] for lo, hi in zip(ends, ends[1:])]
    rows = [(name, *csv[3 * i:3 * i + 3]) for i, name in enumerate(names)]
    delta_lines = ["iteration,algorithm,median,min,max"] + [
        f"{k},{name},{median[k]},{low[k]},{high[k]}"
        for k in range(len(next(iter(stats.values()))["median"])) for name, median, low, high in rows]
    (out_dir / DELTAS_CSV).write_text("\n".join(delta_lines) + "\n")

    rest = {key: value for key, value in summary.items() if key != "delta_stats"}
    (out_dir / SUMMARY_JSON).write_text(json.dumps(rest, indent=2) + "\n")
    (out_dir / SCHEMA_JSON).write_text(_schema_json())
    return [out_dir / RUNS_CSV, out_dir / SUMMARY_JSON, out_dir / DELTAS_CSV, out_dir / SCHEMA_JSON]
