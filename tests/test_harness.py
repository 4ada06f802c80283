import concurrent.futures
import ctypes
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowcolproj import harness
from rowcolproj.affine import make_affine_set
from rowcolproj.box import make_box
from rowcolproj.harness import (
    DISPLAY_NAMES,
    AlgorithmResult,
    ExperimentSpec,
    RunRecord,
    _order_label,
    dedup_solutions,
    draw_start,
    emit_outputs,
    integer_feasible,
    run_experiment,
)
from rowcolproj.linalg import frobenius_norm
from rowcolproj.operator import unit_operator
from rowcolproj.solvers import ALGORITHMS, SolverConfig, run

from _support import DEMO_COL_SUMS, DEMO_ROW_SUMS, in_box, reference_run, same_bits


def small_spec(**kw):
    base = dict(s=DEMO_ROW_SUMS, r=DEMO_COL_SUMS, case="convex", num_runs=40, seed=7)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(case="fuzzy")
    with pytest.raises(ValueError):
        small_spec(num_runs=0)
    with pytest.raises(ValueError):
        small_spec(init_low=5.0, init_high=5.0)
    with pytest.raises(ValueError):
        small_spec(seed=-3)
    with pytest.raises(ValueError):
        small_spec(max_iterations=0)
    for field, value in (("max_iterations", 2.5), ("num_runs", "3"), ("seed", 1.0),
                         ("feasibility_tol", float("nan")), ("feasibility_tol", "1e-9"),
                         ("feasibility_tol", None), ("init_low", "-1"), ("init_high", float("inf")),
                         ("num_runs", True), ("seed", False), ("feasibility_tol", True), ("init_high", True),
                         ("init_low", -10 ** 400), ("feasibility_tol", 10 ** 400),
                         ("num_runs", sys.maxsize + 1)):
        with pytest.raises(ValueError, match=field):
            small_spec(**{field: value})
    assert small_spec(num_runs=np.int64(7)).num_runs == 7


def test_spec_from_config_overrides():
    cfg = {"s": [1.0, 2.0], "r": [1.5, 1.5], "case": "convex", "num_runs": 5, "seed": 3}
    spec = ExperimentSpec.from_config(cfg, seed=9, num_runs=None)
    assert spec.seed == 9
    assert spec.num_runs == 5
    assert spec.m == 2 and spec.n == 2
    with pytest.raises(ValueError, match="'foo'"):
        ExperimentSpec.from_config({**cfg, "foo": 1})
    with pytest.raises(ValueError, match="has no r"):
        ExperimentSpec.from_config({"s": [1.0]})
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentSpec.from_config([cfg])


def test_draw_start_is_reproducible_and_streamed_per_run():
    spec = small_spec()
    a = draw_start(spec, 3)
    b = draw_start(spec, 3)
    c = draw_start(spec, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (4, 5)
    assert np.all(a >= spec.init_low) and np.all(a < spec.init_high)
    # adding runs must not reshuffle earlier draws
    more = small_spec(num_runs=1000)
    assert np.array_equal(draw_start(more, 3), a)


def test_order_label_construction():
    assert _order_label([], 0) == "None"
    assert _order_label([("DR", 5)], 0) == "DR"
    assert _order_label([("DR", 5), ("MAP", 5)], 0) == "DR=MAP"
    assert _order_label([("DR", 5), ("MAP", 7), ("Dyk", 7)], 0) == "DR<MAP=Dyk"
    assert _order_label([("DR", 9), ("MAP", 7)], 0) == "MAP<DR"
    assert _order_label([("DR", 1.0), ("MAP", 1.0 + 5e-16)], 1e-15) == "DR=MAP"
    assert _order_label([("DR", 1.0), ("MAP", 1.0 + 5e-12)], 1e-15) == "DR<MAP"


def test_run_experiment_counts_and_reverification():
    spec = small_spec()
    records, summary = run_experiment(spec)
    assert len(records) == spec.num_runs
    assert [rec.run_index for rec in records] == list(range(spec.num_runs))
    assert sum(summary["feasibility_order_counts"].values()) == spec.num_runs
    assert sum(summary["distance_order_counts"].values()) == spec.num_runs
    for rec in records:
        for key, res in rec.results.items():
            if res.converged:
                assert res.deltas[res.iterations] <= spec.feasibility_tol
                assert res.distance is not None and res.distance >= 0
            else:
                assert res.iterations is None and res.distance is None


def test_converged_matrices_reverify_independently():
    spec = small_spec(case="integer", num_runs=30)
    records, summary = run_experiment(spec)
    affine_set = make_affine_set(unit_operator(4, 5), spec.s, spec.r)
    box = make_box(spec.s, spec.r, integer_restricted=True)
    seen = 0
    for rec in records:
        for key, res in rec.results.items():
            if res.solution is not None:
                seen += 1
                F = res.solution.astype(float)
                assert in_box(box, F)
                PA = box.project(F)
                assert frobenius_norm(PA - affine_set.project(PA)) <= spec.feasibility_tol
                assert np.array_equal(F.sum(axis=1), spec.s)
                assert np.array_equal(F.sum(axis=0), spec.r)
    assert seen > 0
    assert summary["solutions"]["total_found"] == seen


def test_trivial_one_cell_instance_reports_iteration_zero():
    # integer box [0, 3]; every start in (2.6, 3.4) rounds straight to 3
    spec = ExperimentSpec(s=[3.0], r=[3.0], case="integer", num_runs=4, seed=11,
                          init_low=2.6, init_high=3.4)
    records, summary = run_experiment(spec)
    for rec in records:
        assert rec.feasibility_order == "DR=MAP=Dyk"
        assert rec.distance_order == "DR=MAP=Dyk"
        for res in rec.results.values():
            assert res.converged and res.iterations == 0
    assert summary["feasibility_order_counts"] == {"DR=MAP=Dyk": 4}


def test_distance_uses_spectral_norm_of_difference():
    spec = small_spec(num_runs=3)
    records, _ = run_experiment(spec)
    rec = records[0]
    T0 = draw_start(spec, 0)
    res = rec.results["DR"]
    assert res.converged
    # spectral norm is dominated by the Frobenius norm and positive here
    assert 0 < res.distance <= 1.0000001 * frobenius_norm(T0) + 300.0


@pytest.mark.parametrize("case", ["convex", "integer"])
@pytest.mark.parametrize("block_runs", [None, 1, 2, 3])
def test_distance_is_lapack_norm_of_start_minus_first_feasible(case, block_runs, monkeypatch):
    spec = small_spec(case=case, num_runs=10)
    if block_runs is not None:
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", block_runs * spec.m * spec.n)
    records, _ = run_experiment(spec)
    affine_set = make_affine_set(unit_operator(spec.m, spec.n), spec.s, spec.r)
    box = make_box(spec.s, spec.r, integer_restricted=case == "integer")
    converged = 0
    for rec in records:
        T0 = draw_start(spec, rec.run_index)
        for key, res in rec.results.items():
            trace = run(affine_set, box, T0, SolverConfig(algorithm=key))
            assert res.converged == trace.converged
            if trace.converged:
                converged += 1
                assert res.distance == np.linalg.norm(T0 - trace.first_feasible_matrix, 2)
            else:
                assert res.distance is None
    assert converged >= len(records)


def test_inconsistent_targets_name_their_negative_range_projection():
    # sum(s) = 10 but sum(r) = 0: the range projection is s_bar = (-2.5, 7.5), r_bar = (2.5, 2.5)
    spec = ExperimentSpec(s=[0.0, 10.0], r=[0.0, 0.0], num_runs=2)
    with pytest.raises(ValueError, match=r"range-projected .* s_bar = \(-2\.5, 7\.5\), "
                                         r"r_bar = \(2\.5, 2\.5\)"):
        run_experiment(spec)


def test_parallel_jobs_equal_sequential():
    spec = small_spec(num_runs=12)
    seq_records, seq_summary = run_experiment(spec, jobs=1)
    par_records, par_summary = run_experiment(spec, jobs=2)
    assert seq_summary == par_summary
    for a, b in zip(seq_records, par_records):
        assert a.run_index == b.run_index
        assert a.feasibility_order == b.feasibility_order
        assert a.distance_order == b.distance_order
        for key in a.results:
            assert a.results[key].iterations == b.results[key].iterations
            assert np.array_equal(a.results[key].deltas, b.results[key].deltas)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces the process pool with one that maps in this process; gives
    the lists of the pool sizes started and of the blocks mapped."""
    started = []
    mapped = []

    class SerialPool:
        def __init__(self, max_workers, mp_context=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            iterables = [list(it) for it in iterables]
            mapped.append([list(block) for block in iterables[-1]])
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started, mapped


def allow_cpus(monkeypatch, count):
    """Let this process use ``count`` CPUs, as its affinity mask would."""
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def bundled_openblas_threads():
    """The thread count of numpy's bundled OpenBLAS in this process, or None without it."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        try:
            return ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    return None


RUN_BLOCK = harness._run_block


def run_block_in_one_blas_thread(*args):
    """harness._run_block, once the worker it runs in reports one OpenBLAS thread."""
    assert bundled_openblas_threads() == 1
    return RUN_BLOCK(*args)


def test_pool_workers_run_one_blas_thread(monkeypatch):
    threads = bundled_openblas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    allow_cpus(monkeypatch, 2)
    spec = small_spec(num_runs=4, max_iterations=20)
    _, summary = run_experiment(spec, jobs=1)
    monkeypatch.setattr(harness, "_run_block", run_block_in_one_blas_thread)
    assert run_experiment(spec, jobs=2)[1] == summary
    assert bundled_openblas_threads() == threads  # this process keeps its own setting


@pytest.mark.skipif(sys.platform != "linux", reason="the pool is forked on Linux only")
def test_pool_workers_are_forked_under_a_forkserver_default(monkeypatch):
    """With forkserver as the default start method (Python 3.14's on Linux), the workers are
    still forked: they give the serial summary and run one OpenBLAS thread."""
    if bundled_openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    allow_cpus(monkeypatch, 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # what a fresh forkserver worker would run
    spec = small_spec(num_runs=4, max_iterations=20)
    _, summary = run_experiment(spec, jobs=1)
    monkeypatch.setattr(harness, "_run_block", run_block_in_one_blas_thread)
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    try:
        assert run_experiment(spec, jobs=2)[1] == summary
    finally:
        multiprocessing.set_start_method(default, force=True)


def test_jobs_are_checked_and_workers_capped_at_the_cpu_count(serial_pool, monkeypatch):
    started, mapped = serial_pool
    allow_cpus(monkeypatch, 3)
    spec = small_spec(num_runs=10, max_iterations=30)
    records, summary = run_experiment(spec, jobs=1)
    for jobs, workers in ((2, 2), (3, 3), (1000, 3)):
        pooled, pooled_summary = run_experiment(spec, jobs=jobs)
        assert started.pop() == workers
        blocks = mapped.pop()
        # contiguous blocks that cover the runs once, in order, one per worker
        assert [i for block in blocks for i in block] == list(range(spec.num_runs))
        assert all(block == list(range(block[0], block[0] + len(block))) for block in blocks)
        assert len(blocks) == workers
        assert max(map(len, blocks)) == math.ceil(spec.num_runs / workers)
        assert pooled_summary == summary
        for a, b in zip(records, pooled):
            assert a.run_index == b.run_index
            for key in a.results:
                assert a.results[key].iterations == b.results[key].iterations
                assert same_bits(a.results[key].deltas, b.results[key].deltas)
    run_experiment(small_spec(num_runs=2, max_iterations=5), jobs=1000)
    assert started.pop() == 2
    assert mapped.pop() == [[0], [1]]
    # the entry cap splits a worker's share further, to one start per block below m * n
    default_entries = harness.BLOCK_ENTRIES
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", 2 * spec.m * spec.n)
    run_experiment(spec, jobs=2)
    assert started.pop() == 2
    assert mapped.pop() == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", spec.m * spec.n - 1)
    run_experiment(spec, jobs=2)
    assert started.pop() == 2
    assert mapped.pop() == [[run] for run in range(spec.num_runs)]
    # the default cap gives each 256x384 start (98 304 entries) a block of its own even
    # in one process; the serial map's blocks are captured, and nothing is solved
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", default_entries)
    counts = np.random.default_rng(0).integers(0, 10, (256, 384))
    large = ExperimentSpec(s=counts.sum(axis=1), r=counts.sum(axis=0), num_runs=2)

    class Captured(Exception):
        pass

    def capture(fn, blocks):
        mapped.append([list(block) for block in blocks])
        raise Captured

    monkeypatch.setattr(harness, "map", capture, raising=False)
    with pytest.raises(Captured):
        run_experiment(large, jobs=1)
    monkeypatch.delattr(harness, "map")
    assert mapped.pop() == [[0], [1]]
    # targets without a box fail in this process, before a pool starts
    with pytest.raises(ValueError, match="range-projected"):
        run_experiment(ExperimentSpec(s=[0.0, 10.0], r=[0.0, 0.0], num_runs=4), jobs=2)
    assert started == [] and mapped == []
    # one usable CPU starts no pool, even where the machine has more
    allow_cpus(monkeypatch, 1)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    run_experiment(spec, jobs=2)
    assert started == []
    # without an affinity mask the CPU count caps, and an unknown count means one
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    run_experiment(spec, jobs=4)
    assert started == []
    for jobs, message in ((0, "jobs must be >= 1, got 0"), (-2, "jobs must be >= 1, got -2"),
                          (2.5, "jobs must be an integer")):
        with pytest.raises(ValueError, match=message):
            run_experiment(spec, jobs=jobs)
    assert started == []


def test_importing_the_package_loads_no_process_pool():
    probe = "import sys, rowcolproj; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_100_run_4x5_batch_loads_no_thread_pool():
    # its block (2000 entries) is below the helper's threshold, so nothing is imported or built
    # for the helper, whatever the CPUs
    probe = ("import sys; from rowcolproj.harness import ExperimentSpec, run_experiment; "
             "run_experiment(ExperimentSpec(s=[32, 43, 33, 23], r=[24, 18, 37, 27, 25], num_runs=100)); "
             "print('concurrent.futures.thread' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_package_loads_no_json():
    # json is loaded only to write the output files
    probe = "import sys, rowcolproj; print('json' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@settings(max_examples=8, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    case=st.sampled_from(["convex", "integer"]),
    num_runs=st.integers(2, 7),
    block_runs=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_runs_do_not_depend_on_jobs_or_batch(m, n, case, num_runs, block_runs, seed):
    counts = np.random.default_rng(seed).integers(0, 10, size=(m, n))
    spec = ExperimentSpec(s=counts.sum(axis=1), r=counts.sum(axis=0), case=case,
                          num_runs=num_runs, seed=seed, max_iterations=30,
                          init_low=-20.0, init_high=20.0)
    sequential, _ = run_experiment(spec, jobs=1)
    parallel, _ = run_experiment(spec, jobs=2)
    default_block = harness.BLOCK_ENTRIES
    harness.BLOCK_ENTRIES = block_runs * m * n
    try:
        blocked, _ = run_experiment(spec, jobs=1)
    finally:
        harness.BLOCK_ENTRIES = default_block
    affine_set = make_affine_set(unit_operator(m, n), spec.s, spec.r)
    box = make_box(spec.s, spec.r, integer_restricted=case == "integer")
    for seq, par, blk in zip(sequential, parallel, blocked):
        T0 = draw_start(spec, seq.run_index)
        for key, res in seq.results.items():
            for other in (par.results[key], blk.results[key]):
                assert same_bits(res.deltas, other.deltas)
                assert res.iterations == other.iterations
                assert res.distance == other.distance
                assert same_bits(res.solution, other.solution)
            cfg = SolverConfig(algorithm=key, max_iterations=30)
            reference = reference_run(affine_set, box, T0, cfg).trace
            matrix = reference.first_feasible_matrix
            assert same_bits(res.deltas, reference.deltas)
            assert res.iterations == reference.first_feasible_iteration
            if matrix is not None:
                assert res.distance == np.linalg.norm(T0 - matrix, 2)
            if case == "integer":
                assert same_bits(res.solution, None if matrix is None else matrix.astype(np.int64))


def test_batch_memory_does_not_grow_with_num_runs():
    # 600 starts of 32x48 take 7.4 MB; the engine keeps several stacks of
    # that size alive unless the runs are split into bounded blocks
    counts = np.random.default_rng(8).integers(0, 10, size=(32, 48))
    spec = ExperimentSpec(s=counts.sum(axis=1), r=counts.sum(axis=0), num_runs=600,
                          max_iterations=2)
    tracemalloc.start()
    try:
        run_experiment(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_dedup_counts_identical_matrices_once():
    sol = np.arange(4, dtype=np.int64).reshape(2, 2)
    other = sol + 1
    def rec(i, dr_sol):
        results = {
            "DR": AlgorithmResult(True, 1, 0.5, np.zeros(2), dr_sol),
            "MAP": AlgorithmResult(False, None, None, np.zeros(2), None),
            "DYK": AlgorithmResult(True, 2, 0.7, np.zeros(2), other),
        }
        return RunRecord(run_index=i, results=results)
    census = dedup_solutions([rec(0, sol), rec(1, sol.copy())])
    assert census["per_algorithm"]["DR"] == {"found": 2, "unique": 1}
    assert census["per_algorithm"]["Dyk"] == {"found": 2, "unique": 1}
    assert census["total_found"] == 4
    assert census["total_unique"] == 2


def test_delta_stats_have_full_length_and_padding(serial_pool, monkeypatch):
    # The statistics join the blocks' engine tables: blocks of 3, 3 and 1 runs,
    # serial and pooled, must give the statistics of full-length reference
    # traces padded by hand with their final delta.
    _, mapped = serial_pool
    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", 3 * 4 * 5)
    for case in ("convex", "integer"):
        spec = small_spec(case=case, num_runs=7, max_iterations=60)
        affine_set, box = harness._build_problem(spec)
        expected = {}
        for key in ALGORITHMS:
            rows = [reference_run(affine_set, box, draw_start(spec, i), spec.solver_config(key))
                    .trace.deltas for i in range(spec.num_runs)]
            table = np.array([np.concatenate((d, np.full(61 - len(d), d[-1]))) for d in rows])
            expected[DISPLAY_NAMES[key]] = {"median": np.median(table, axis=0),
                                            "min": table.min(axis=0), "max": table.max(axis=0)}
        for jobs in (1, 2):
            records, summary = run_experiment(spec, jobs=jobs)
            for name, stats in summary["delta_stats"].items():
                assert list(stats) == ["median", "min", "max"]
                for stat, values in stats.items():
                    assert same_bits(np.array(values), expected[name][stat])
        assert mapped.pop() == [[0, 1, 2], [3, 4, 5], [6]]
    # integer MAP runs that do not converge stop at a fixed point: their rows are cycled ones
    assert not all(rec.results["MAP"].converged for rec in records)


@pytest.mark.parametrize("differing", [[], [0], [3], [0, 2, 7], [8], [9]])
def test_delta_stats_of_trailing_identical_columns_are_taken_once(differing):
    # columns after the last one that differs, bitwise, from the final column repeat its
    # statistics; -0.0 against a final 0.0 differs, and so does a cycled row's periodic tail
    rng = np.random.default_rng(len(differing))
    final = rng.uniform(0.0, 1.0, size=(6, 1))
    final[0] = 0.0
    table = np.repeat(final, 10, axis=1)
    for k in differing:
        table[:, k] = rng.uniform(0.0, 1.0, size=6)
    if 3 in differing:
        table[1:, 3] = final[1:, 0]
        table[0, 3] = -0.0
    if 9 in differing:  # every column differs from its neighbour: a period-2 tail
        table[:, 1::2] = table[:, 9:10]
    tables = [{key: table.copy() for key in ALGORITHMS}]
    summary = harness.summarize([], small_spec(), tables, None)
    for stats in summary["delta_stats"].values():
        assert list(stats) == ["median", "min", "max"]
        for stat, expected in (("median", np.median(table, axis=0)), ("min", table.min(axis=0)),
                               ("max", table.max(axis=0))):
            assert same_bits(np.array(stats[stat]), expected)


def test_run_block_frees_each_algorithms_traces_before_the_next_engine_call(monkeypatch):
    # a trace list kept through the next engine call keeps its found matrices alive
    spec = small_spec(num_runs=12)
    affine_set, box = harness._build_problem(spec)
    found, solve = [], harness._solve

    def watched(*args):
        assert all(ref() is None for ref in found)
        table, traces = solve(*args)
        found.extend(weakref.ref(t.first_feasible_matrix) for t in traces if t.converged)
        return table, traces

    monkeypatch.setattr(harness, "_solve", watched)
    harness._run_block(spec, affine_set, box, False, range(spec.num_runs))
    assert len(found) > 2 * spec.num_runs


@pytest.fixture
def two_blas_threads():
    """numpy's bundled OpenBLAS at two threads for the test, and its own count again after."""
    blas = harness._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    threads = blas[0]()
    blas[1](2)
    yield
    blas[1](threads)


def spy_solve(monkeypatch):
    """Replaces harness._solve with a spy; gives the list of its calls' (algorithm, thread,
    np.geterr(), np.getbufsize(), OpenBLAS thread count)."""
    calls, solve = [], harness._solve

    def spied(affine_set, box, starts, config):
        calls.append((config.algorithm, threading.current_thread(), np.geterr(), np.getbufsize(),
                      bundled_openblas_threads()))
        return solve(affine_set, box, starts, config)

    monkeypatch.setattr(harness, "_solve", spied)
    return calls


def helper_blocks(monkeypatch, spec):
    """Lowers BLOCK_ENTRIES so that ``spec``'s blocks of two starts are large enough for the helper."""
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", 2 * spec.m * spec.n)


def off_main(calls, main):
    """The algorithms of the engine calls that ran on another thread than ``main``."""
    return sorted({algorithm for algorithm, thread, *_ in calls if thread is not main})


@pytest.mark.parametrize("case", ["convex", "integer"])
def test_the_helper_thread_gives_the_serial_records_summary_and_files(case, tmp_path, monkeypatch):
    spec = small_spec(case=case, num_runs=7, max_iterations=60)
    helper_blocks(monkeypatch, spec)
    calls, main, outputs = spy_solve(monkeypatch), threading.current_thread(), []
    for cpus in (1, 2):  # one usable CPU leaves no spare one: no helper
        allow_cpus(monkeypatch, cpus)
        records, summary = run_experiment(spec)
        paths = emit_outputs(records, summary, tmp_path / str(cpus))
        outputs.append((records, summary, [path.read_bytes() for path in paths]))
        assert off_main(calls, main) == ([] if cpus == 1 else ["DR", "MAP"])
        calls.clear()
    (serial, serial_summary, serial_files), (helped, helped_summary, helped_files) = outputs
    assert helped_summary == serial_summary and helped_files == serial_files
    assert [rec.run_index for rec in helped] == list(range(spec.num_runs))
    for a, b in zip(serial, helped):
        assert (a.feasibility_order, a.distance_order) == (b.feasibility_order, b.distance_order)
        for key in ALGORITHMS:
            x, y = a.results[key], b.results[key]
            assert (x.converged, x.iterations, x.distance) == (y.converged, y.iterations, y.distance)
            assert same_bits(x.deltas, y.deltas) and same_bits(x.solution, y.solution)


def test_the_helper_runs_dr_and_map_under_the_callers_numpy_settings(two_blas_threads, monkeypatch):
    spec = small_spec(num_runs=4, max_iterations=20)
    helper_blocks(monkeypatch, spec)
    allow_cpus(monkeypatch, 2)
    calls, main = spy_solve(monkeypatch), threading.current_thread()
    with np.errstate(all="ignore"):
        np.setbufsize(16384)
        settings = np.geterr(), np.getbufsize()
        run_experiment(spec)
    assert settings != (np.geterr(), np.getbufsize())
    assert [call[0] for call in calls].count("DR") == 2  # two blocks of two starts
    assert off_main(calls, main) == ["DR", "MAP"]
    for algorithm, thread, errors, bufsize, blas_threads in calls:
        assert (algorithm == "DYK") == (thread is main)
        assert (errors, bufsize, blas_threads) == (*settings, 1)
    assert bundled_openblas_threads() == 2


@pytest.mark.parametrize("shape, runs", [((4, 5), 1639), ((32, 48), 22)])
def test_the_helper_starts_at_half_block_entries_whatever_the_start_size(shape, runs, monkeypatch):
    # at the default BLOCK_ENTRIES and --jobs 1, a batch of ``runs`` has the first block of at
    # least BLOCK_ENTRIES / 2 entries; one run fewer takes no helper
    counts = np.random.default_rng(0).integers(0, 10, shape)
    allow_cpus(monkeypatch, 2)
    calls, main = spy_solve(monkeypatch), threading.current_thread()
    for num_runs, helped in ((runs - 1, []), (runs, ["DR", "MAP"])):
        run_experiment(ExperimentSpec(s=counts.sum(axis=1), r=counts.sum(axis=0),
                                      num_runs=num_runs, max_iterations=2))
        assert off_main(calls, main) == helped
        assert sorted(call[0] for call in calls) == sorted(ALGORITHMS)  # one block
        calls.clear()


def test_a_helper_exception_reaches_the_caller_and_restores_the_blas_count(two_blas_threads,
                                                                          monkeypatch):
    spec = small_spec(num_runs=4, max_iterations=20)
    helper_blocks(monkeypatch, spec)
    allow_cpus(monkeypatch, 2)
    solve, main = harness._solve, threading.current_thread()

    class Failed(Exception):
        pass

    def failing(affine_set, box, starts, config):
        if config.algorithm == "MAP" and threading.current_thread() is not main:
            raise Failed
        return solve(affine_set, box, starts, config)

    monkeypatch.setattr(harness, "_solve", failing)
    with pytest.raises(Failed):
        run_experiment(spec)
    assert bundled_openblas_threads() == 2 and harness._blas_saved == []


def test_pooled_jobs_take_the_helper_only_with_a_spare_cpu_per_worker(serial_pool, monkeypatch):
    spec = small_spec(num_runs=8, max_iterations=20)
    helper_blocks(monkeypatch, spec)
    calls, main = spy_solve(monkeypatch), threading.current_thread()
    for cpus, helped in ((2, []), (3, []), (4, ["DR", "MAP"])):
        allow_cpus(monkeypatch, cpus)
        run_experiment(spec, jobs=2)
        assert serial_pool[0].pop() == 2
        assert off_main(calls, main) == helped
        calls.clear()


def test_overlapping_one_blas_thread_blocks_restore_the_callers_count(two_blas_threads):
    # thread A enters, then B; A leaves first: B still runs one thread, and B's exit restores two
    a_in, b_in, a_out, seen = threading.Event(), threading.Event(), threading.Event(), {}

    def a():
        with harness._one_blas_thread():
            a_in.set()
            assert b_in.wait(10)
        a_out.set()

    def b():
        assert a_in.wait(10)
        with harness._one_blas_thread():
            b_in.set()
            assert a_out.wait(10)
            seen["A left"] = bundled_openblas_threads()
        seen["both left"] = bundled_openblas_threads()

    threads = [threading.Thread(target=f) for f in (a, b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {"A left": 1, "both left": 2}
    assert harness._blas_saved == []


def test_one_blas_thread_holds_across_many_switching_threads(two_blas_threads):
    # rounds of more threads than CPUs, switching every microsecond: each block runs one
    # thread, and the count is two again once all have left
    count, interval = harness._openblas()[0], sys.getswitchinterval()

    def enter_often(seen):
        for _ in range(2000):
            with harness._one_blas_thread():
                seen.append(count())

    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            seen = []
            threads = [threading.Thread(target=enter_often, args=(seen,))
                       for _ in range((os.cpu_count() or 1) + 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(seen) == 2000 * len(threads) and set(seen) == {1}
            assert count() == 2 and harness._blas_saved == []
    finally:
        sys.setswitchinterval(interval)


def test_emit_outputs_files(tmp_path):
    spec = small_spec(num_runs=8, max_iterations=40)
    records, summary = run_experiment(spec)
    paths = emit_outputs(records, summary, tmp_path / "out")
    names = {p.name for p in paths}
    assert names == {"runs.csv", "summary.json", "deltas.csv", "schema.json"}
    runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    assert runs[0].split(",")[:4] == ["run_index", "dr_converged", "dr_iterations", "dr_distance"]
    assert len(runs) == 1 + spec.num_runs
    deltas = (tmp_path / "out" / "deltas.csv").read_text().splitlines()
    assert len(deltas) == 1 + 3 * (spec.max_iterations + 1)
    loaded = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert loaded["schema_version"] == 5
    # the delta statistics live in deltas.csv only, and the one backend is not recorded
    assert "delta_stats" not in loaded and "backend" not in loaded
    assert loaded["conventions"]["distance_norm"].startswith("largest singular value (LAPACK SVD)")
    assert loaded["spec"]["num_runs"] == 8
    assert loaded["conventions"]["rounding_tie_rule"] == "half-away-from-zero"
    schema = json.loads((tmp_path / "out" / "schema.json").read_text())
    assert "runs.csv" in schema["files"]
    assert schema["files"]["runs.csv"]["columns"]["distance_order"].endswith("at most 1e-15")
    assert "all of summary.json do not" in schema["blas_kernel"]


def test_emit_outputs_takes_a_string_directory(tmp_path):
    spec = small_spec(num_runs=3, max_iterations=10)
    records, summary = run_experiment(spec)
    paths = emit_outputs(records, summary, str(tmp_path / "out"))
    assert paths[0] == tmp_path / "out" / "runs.csv" and paths[0].exists()


def test_emitted_outputs_byte_identical_for_same_spec(tmp_path):
    spec = small_spec(num_runs=15)
    rec1, sum1 = run_experiment(spec)
    rec2, sum2 = run_experiment(spec)
    emit_outputs(rec1, sum1, tmp_path / "a")
    emit_outputs(rec2, sum2, tmp_path / "b")
    for name in ("runs.csv", "summary.json", "deltas.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def expected_outputs(records, summary):
    """runs.csv, deltas.csv and summary.json as per-cell f"{x:.17g}" and json.dumps(summary
    without delta_stats, indent=2) write them."""
    runs = ["run_index,dr_converged,dr_iterations,dr_distance,map_converged,map_iterations,"
            "map_distance,dyk_converged,dyk_iterations,dyk_distance,feasibility_order,"
            "distance_order,dr_solution,map_solution,dyk_solution"]
    for rec in records:
        cells = [str(rec.run_index)]
        for key in ALGORITHMS:
            res = rec.results[key]
            cells += ["true" if res.converged else "false",
                      "" if res.iterations is None else str(res.iterations),
                      "" if res.distance is None else f"{res.distance:.17g}"]
        cells += [rec.feasibility_order, rec.distance_order]
        for key in ALGORITHMS:
            solution = rec.results[key].solution
            cells.append("" if solution is None else " ".join(str(v) for v in solution.ravel().tolist()))
        runs.append(",".join(cells))
    stats = summary["delta_stats"]
    deltas = ["iteration,algorithm,median,min,max"]
    for k in range(len(next(iter(stats.values()))["median"])):
        for name in ("DR", "MAP", "Dyk"):
            deltas.append(f"{k},{name},{stats[name]['median'][k]:.17g},{stats[name]['min'][k]:.17g},"
                          f"{stats[name]['max'][k]:.17g}")
    return {"runs.csv": "\n".join(runs) + "\n", "deltas.csv": "\n".join(deltas) + "\n",
            "summary.json": json.dumps({key: value for key, value in summary.items()
                                        if key != "delta_stats"}, indent=2) + "\n"}


def assert_expected_outputs(records, summary, out_dir):
    emit_outputs(records, summary, out_dir)
    for name, text in expected_outputs(records, summary).items():
        assert (out_dir / name).read_text() == text, name
    # schema.json is the indented dump of its own dict, the same in every directory
    schema = (out_dir / "schema.json").read_text()
    assert schema == json.dumps(json.loads(schema), indent=2) + "\n"
    emit_outputs(records, summary, out_dir / "again")
    assert (out_dir / "again" / "schema.json").read_text() == schema


@pytest.mark.parametrize("max_iterations", [1, 60])
@pytest.mark.parametrize("case", ["convex", "integer"])
def test_emitted_files_are_the_per_cell_and_json_dumps_texts(case, max_iterations, tmp_path):
    records, summary = run_experiment(small_spec(case=case, num_runs=12,
                                                 max_iterations=max_iterations))
    assert_expected_outputs(records, summary, tmp_path)


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 1e16, 1e-05,
                  0.1 + 0.2]


def test_emitted_files_keep_the_texts_of_special_floats(tmp_path):
    # delta lists that hold SPECIAL_FLOATS, +0.0 and -0.0 side by side; DR's median is [0.0],
    # so deltas.csv has one iteration
    records, summary = run_experiment(small_spec(num_runs=2, max_iterations=3))
    for i, name in enumerate(("DR", "MAP", "Dyk")):
        for j, stat in enumerate(("median", "min", "max")):
            shift = 3 * i + j
            summary["delta_stats"][name][stat] = SPECIAL_FLOATS[shift:] + SPECIAL_FLOATS[:shift]
    summary["delta_stats"]["DR"]["median"] = [0.0]
    assert_expected_outputs(records, summary, tmp_path)
    deltas = (tmp_path / "deltas.csv").read_text().splitlines()
    assert deltas[1:] == ["0,DR,0,-0,inf", "0,MAP,-inf,nan,nan",
                          "0,Dyk,4.9406564584124654e-324,10000000000000000,1.0000000000000001e-05"]


def test_summary_spec_echo_rebuilds_the_experiment(tmp_path):
    # from_config ignores the echo's m and n, so summary.json's "spec" is a config
    spec = small_spec(case="integer", num_runs=12, init_low=-20.0, init_high=30.0, seed=11,
                      max_iterations=60, feasibility_tol=1e-8)
    emit_outputs(*run_experiment(spec), tmp_path / "a")
    echo = json.loads((tmp_path / "a" / "summary.json").read_text())["spec"]
    assert list(echo) == ["m", "n", "s", "r", "case", "num_runs", "init_low", "init_high",
                          "seed", "max_iterations", "feasibility_tol"]
    emit_outputs(*run_experiment(ExperimentSpec.from_config(echo)), tmp_path / "b")
    for name in ("runs.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def brute_force_integer_matrix_exists(s, r):
    """Some integer matrix in the box [0, floor(min(s_i, r_j))] has row sums s and column
    sums r: every matrix of the box is tried."""
    upper = np.floor(np.minimum.outer(s, r)).astype(int)
    if np.any(upper < 0):
        return False
    grids = np.meshgrid(*[np.arange(u + 1) for u in upper.ravel()], indexing="ij")
    matrices = np.stack([g.ravel() for g in grids], axis=1).reshape(-1, *upper.shape)
    return bool(np.any(np.all(matrices.sum(axis=2) == s, axis=1)
                       & np.all(matrices.sum(axis=1) == r, axis=1)))


def test_integer_feasible_agrees_with_a_brute_force_search():
    rng = np.random.default_rng(91)
    seen = {True: 0, False: 0}
    for trial in range(300):
        m, n = rng.integers(1, 4, size=2)
        if trial % 2:  # the sums of an integer matrix: feasible
            counts = rng.integers(0, 3, size=(m, n))
            s, r = counts.sum(axis=1).astype(float), counts.sum(axis=0).astype(float)
        else:  # free sums, mostly with unequal totals
            s, r = rng.integers(0, 4, size=m).astype(float), rng.integers(0, 4, size=n).astype(float)
        if m * n > 6:
            s, r = np.minimum(s, 2.0), np.minimum(r, 2.0)  # keeps the search small
        exists = brute_force_integer_matrix_exists(s, r)
        assert integer_feasible(s, r) is exists, (s, r)
        seen[exists] += 1
        if exists:
            # fractional sums with the same totals admit no integer matrix
            s[0], r[0] = s[0] + 0.5, r[0] + 0.5
            assert integer_feasible(s, r) is False
    assert min(seen.values()) > 50
    assert integer_feasible(np.array([-1.0, 2.0]), np.array([1.0])) is False
    # integral, nonnegative sums with unequal totals
    assert integer_feasible(np.array([1.0, 2.0]), np.array([2.0, 2.0])) is False


def test_summary_states_whether_the_integer_problem_is_feasible():
    feasible = run_experiment(small_spec(case="integer", num_runs=3, max_iterations=5))[1]
    assert feasible["integer_feasible"] is True
    # s_bar = s - 2/9 and r_bar = r + 2/9 are fractional
    fractional = run_experiment(small_spec(s=[33, 43, 33, 23], case="integer", num_runs=3,
                                           max_iterations=5))[1]
    assert fractional["integer_feasible"] is False
    assert fractional["convergence_counts"] == {"DR": 0, "MAP": 0, "Dyk": 0}
    assert "integer_feasible" not in run_experiment(small_spec(num_runs=3, max_iterations=5))[1]
