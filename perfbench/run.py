#!/usr/bin/env python3
"""rowcolproj benchmark: batch throughput, solve and projection latency, per-layer costs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs one fixed-size batch untraced, then the same batch
traced, and reports the per-layer metrics. Every output is checked
independently (see checks.py). The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; a readable
report goes to stderr, and a record with the machine, the backend and
the runs.csv hash goes to .perfbench_out/records/. perfbench/README.md
explains the workloads and which layer moves which metric.
"""

import os

# Set the BLAS threads to the CPU count before numpy loads, so that runs
# from differently configured shells are comparable.
NPROC = os.cpu_count() or 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

from checks import DISPLAY, Tally, batch_problems, projection_problems, solve_problems  # noqa: E402
from speed import SpeedProbe, SpeedSampler  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ALGORITHMS, FEASIBILITY_TOL, MAX_ITERATIONS, WORKLOADS, batch_seed, smoke, targets,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 15
# Median time of setup_probe.py's reference imports on the development
# machine; a set-up time is scaled to it, as speed.py scales the other units.
SETUP_REFERENCE_S = 0.025
ROUNDS = 8
SAMPLE_INTERVAL = 0.05      # seconds between machine-speed readings (speed.py)
# Untraced and traced runs of the traced batch, in turn, for trace.overhead_frac.
TRACE_PAIRS = 3
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3     # glibc mallopt parameters
MMAP_THRESHOLD, TRIM_THRESHOLD = 4 << 20, 8 << 20
ROOFLINE_NOTE = ("bandwidth roofline not measurable here: a 256x384 float64 array is 0.75 MiB "
                 "and fits in the last-level cache; byte counts are computed from array sizes, "
                 "not measured")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking that the benchmark works")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def hold_allocator_state():
    """Hold glibc's allocator in its long-running steady state; True if it took.

    By default glibc raises its mmap and trim thresholds the first time
    the process frees a large block, so whether a 0.75 MiB temporary
    faults its pages in again depends on what the process freed before,
    and one 256x384 projection costs 1.0 or 1.5 ms from run to run.
    Fixed thresholds of 4 and 8 MiB give the state a long-running
    process reaches: such temporaries are reused from the heap, while
    bulk frees (spectral_norm's hundreds of MiB of start vectors) still
    go back to the system and fault in again on the next call.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
    except (OSError, AttributeError):
        return False


def machine():
    """What a reader needs to compare two runs: CPU, caches, Python, numpy, BLAS."""
    info = {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "roofline": ROOFLINE_NOTE,
    }
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu_model"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


class Bench:
    """One workload at one seed: the problem, the output checks and the phases."""

    def __init__(self, rcp, workload, seed, out):
        import rowcolproj.harness as harness
        from rowcolproj.oracle import oracle_project

        self.rcp = rcp
        self.draw_start = harness.draw_start
        self.oracle_project = oracle_project
        self.workload = workload
        self.seed = seed
        self.s, self.r = targets(workload, seed)
        self.tally = Tally()
        self.out = out
        self.out_dir = out / f"work-{os.getpid()}"
        # Built through the public API; the checks use these fixed objects.
        spec = self.spec(0, 1)
        self.affine_set = rcp.make_affine_set(rcp.unit_operator(spec.m, spec.n), spec.s, spec.r)
        self.s_bar, self.r_bar = (np.array(v) for v in self.affine_set.projected_target)
        self.box = rcp.make_box(self.s_bar, self.r_bar, integer_restricted=workload.integer)
        self.configs = {alg: rcp.SolverConfig(algorithm=alg, max_iterations=MAX_ITERATIONS,
                                              feasibility_tol=FEASIBILITY_TOL)
                        for alg in ALGORITHMS}
        self.sampler = SpeedSampler(SpeedProbe((spec.m, spec.n), workload.probe_calls),
                                    SAMPLE_INTERVAL)

    def spec(self, batch_index, num_runs):
        return self.rcp.ExperimentSpec(
            s=self.s, r=self.r, case=self.workload.case, num_runs=num_runs,
            seed=batch_seed(self.seed, batch_index),
            max_iterations=MAX_ITERATIONS, feasibility_tol=FEASIBILITY_TOL)

    def setup_seconds(self):
        """Median over fresh interpreters of import plus problem construction.

        Each interpreter's time is scaled by the reference imports it
        timed just before (setup_probe.py). Returns (normalised, raw) seconds.
        """
        problem = json.dumps({"s": self.s, "r": self.r, "case": self.workload.case})
        raw, normalised = [], []
        for _ in range(SETUP_PROBES):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), problem],
                capture_output=True, text=True, timeout=120, check=True)
            reference, seconds = map(float, proc.stdout.split())
            raw.append(seconds)
            normalised.append(seconds * SETUP_REFERENCE_S / reference)
        return statistics.median(normalised), statistics.median(raw)

    def warm_up(self):
        spec = replace(self.spec(0, 1), max_iterations=5)
        records, summary = self.rcp.run_experiment(spec, jobs=1)
        self.rcp.emit_outputs(records, summary, self.out_dir)

    def batch(self, spec):
        """run_experiment + emit_outputs: the unit that runs_per_s times."""
        records, summary = self.rcp.run_experiment(spec, jobs=1)
        self.rcp.emit_outputs(records, summary, self.out_dir)
        return records, summary

    def check_batch(self, spec, records, summary, runs_csv):
        per_record = batch_problems(records, summary, runs_csv, spec, self.workload,
                                    self.s_bar, self.r_bar)
        for rec, problems in zip(records, per_record):
            self.tally.add(f"batch seed {spec.seed} run {rec.run_index}", problems)

    def projection_pass(self, inputs):
        """Single AffineMarginalSet.project calls, one per input.

        Returns the pass's median call time in ns and the pass's span.
        """
        project = self.affine_set.project

        def one_pass():
            times = []
            for T in inputs:
                t = perf_counter_ns()
                project(T)
                times.append(perf_counter_ns() - t)
            return float(np.median(times))

        median_ns, _, span = self.sampler.time(one_pass)
        return median_ns, span

    def check_projections(self, inputs):
        for i, T in enumerate(inputs):
            oracle = None
            if self.workload.oracle_check:
                oracle = self.oracle_project(self.affine_set.op, self.s, self.r, T)
            problems = projection_problems(T, self.affine_set.project(T), self.s_bar,
                                           self.r_bar, oracle)
            self.tally.add(f"projection {i}", problems)

    def end_to_end(self, seconds):
        """Set-up probes, then rounds of batches, single solves and projection passes.

        Each round runs every batch once; right after a batch, each start
        of a prefix of it is solved singly with each algorithm, and a
        projection pass follows the batch and each of those starts. Every
        timed unit is normalised by the machine speed sampled during and
        around it (speed.py). A unit's figure is the median of its
        normalised repeats across rounds.
        """
        w = self.workload
        metrics, extra = {}, {}
        metrics["setup_s"], extra["setup_s_raw"] = self.setup_seconds()
        self.warm_up()
        specs = [self.spec(k, w.batch_starts) for k in range(w.batches)]
        starts = [[self.draw_start(spec, i) for i in range(w.solve_starts)] for spec in specs]
        inputs = [self.draw_start(specs[0], i) for i in range(w.project_inputs)]
        self.check_projections(inputs)

        # Raw seconds and the (start, end) span of every timed unit.
        batch_s = np.zeros((ROUNDS, w.batches))
        batch_span = np.zeros(batch_s.shape + (2,))
        solve_s = np.zeros((ROUNDS, w.batches, w.solve_starts, len(ALGORITHMS)))
        solve_span = np.zeros(solve_s.shape + (2,))
        passes = []                                     # (pass median ns, span)
        first = []   # round-0 (records, summary, runs.csv) per batch
        rounds = 0
        with self.sampler.active():
            begin = perf_counter()
            while rounds < ROUNDS:
                round_begin = perf_counter()
                for k, spec in enumerate(specs):
                    (records, summary), batch_s[rounds, k], batch_span[rounds, k] = \
                        self.sampler.time(self.batch, spec)
                    runs_csv = (self.out_dir / "runs.csv").read_text()
                    if rounds == 0:
                        self.check_batch(spec, records, summary, runs_csv)
                        first.append((records, summary, runs_csv))
                    else:
                        repeat = [] if runs_csv == first[k][2] else ["repeated batch changed runs.csv"]
                        for i in range(spec.num_runs):
                            self.tally.add(f"batch {k} run {i} round {rounds}", repeat)
                    passes.append(self.projection_pass(inputs))
                    for i, T0 in enumerate(starts[k]):
                        for a, alg in enumerate(ALGORITHMS):
                            trace, solve_s[rounds, k, i, a], solve_span[rounds, k, i, a] = \
                                self.sampler.time(self.rcp.run, self.affine_set, self.box, T0,
                                                  self.configs[alg])
                            problems = solve_problems(
                                trace, T0, first[k][0][i].results[alg], self.s_bar, self.r_bar,
                                w.integer, FEASIBILITY_TOL, check_distance=rounds == 0)
                            self.tally.add(f"solve {alg} batch {k} start {i} round {rounds}",
                                           problems)
                        passes.append(self.projection_pass(inputs))
                rounds += 1
                now = perf_counter()
                if now - begin + (now - round_begin) > seconds:
                    break

        factors = self.sampler.factors
        batch_s, solve_s = batch_s[:rounds], solve_s[:rounds]
        batch_s = np.stack([batch_s, batch_s * factors(batch_span[:rounds]).reshape(batch_s.shape)])
        solve_s = np.stack([solve_s, solve_s * factors(solve_span[:rounds]).reshape(solve_s.shape)])
        pass_ns = np.array([ns for ns, _ in passes])
        pass_ns = np.stack([pass_ns, pass_ns * factors([span for _, span in passes])])
        total_starts = w.batches * w.batch_starts
        batch_med = np.median(batch_s, axis=1).sum(axis=-1).tolist()
        solve_med = np.median(solve_s, axis=1)
        project_med = np.median(pass_ns, axis=1).tolist()
        metrics["runs_per_s"] = total_starts / batch_med[1]
        metrics["solve_ms_mean"] = float(solve_med[1].mean()) * 1e3
        metrics["project_us_p50"] = project_med[1] / 1e3
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra["rounds"] = rounds
        extra["runs_per_s_raw"] = total_starts / batch_med[0]
        extra["solve_ms_mean_raw"] = float(solve_med[0].mean()) * 1e3
        extra["project_us_p50_raw"] = project_med[0] / 1e3
        readings = self.sampler.readings
        extra["speed_readings"] = len(readings)
        extra["probe_us_p50"] = float(np.median(readings)) / 1e3
        extra["probe_us_min"] = float(np.min(readings)) / 1e3
        extra["solves"] = int(solve_med[1].size)
        extra["solve_ms_p50"] = float(np.median(solve_med[1])) * 1e3
        if solve_med[1].size >= 100:  # p90 needs at least ten samples beyond it
            extra["solve_ms_p90"] = float(np.quantile(solve_med[1], 0.9)) * 1e3
        for a, alg in enumerate(ALGORITHMS):
            extra[f"solve_ms_p50.{DISPLAY[alg]}"] = float(np.median(solve_med[1][..., a])) * 1e3
        extra["projection_passes"] = len(passes)
        summaries = [summary for _, summary, _ in first]
        return metrics, extra, summaries, "".join(runs_csv for _, _, runs_csv in first)

    def per_layer(self):
        """One fixed batch, traced, for the layer metrics; then the same batch
        untraced and traced in turn, timed and normalised like the end-to-end
        units, for trace.overhead_frac (median traced over median untraced).

        The speed readings stay off during the first traced run, so that no
        reading lands inside its spans.
        """
        spec = self.spec(0, self.workload.traced_starts)
        self.warm_up()
        tracer = Tracer()
        with tracer.installed():
            records, summary = self.batch(spec)
        outputs = [(records, summary, (self.out_dir / "runs.csv").read_text(), True)]
        seconds, spans = [], []
        with self.sampler.active():
            for i in range(2 * TRACE_PAIRS):
                traced = i % 2 == 1
                with Tracer().installed() if traced else nullcontext():
                    (records, summary), elapsed, span = self.sampler.time(self.batch, spec)
                outputs.append((records, summary, (self.out_dir / "runs.csv").read_text(), traced))
                seconds.append(elapsed)
                spans.append(span)
        runs_csv = outputs[1][2]        # the first untraced run
        for records, summary, csv_text, traced in outputs:
            if traced:
                self.check_batch(spec, records, summary, csv_text)
            self.tally.add("batch reproduces the untraced runs.csv",
                           [] if csv_text == runs_csv else ["runs.csv changed between runs"])
        normalised = np.array(seconds) * self.sampler.factors(spans)
        overhead = float(np.median(normalised[1::2]) / np.median(normalised[0::2])) - 1.0
        traces = self.out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.save(traces / f"{self.workload.name}-seed{self.seed}.npz")
        return layer_metrics(tracer, overhead), {"spans": len(tracer.span_start)}, \
            [outputs[1][1]], runs_csv


def layer_metrics(tracer, overhead):
    stats = tracer.layer_stats()
    counters = tracer.counters

    def per_call(name, ns_per_unit, own=False):
        calls, total, self_ns = stats[name]
        return (self_ns if own else total) / calls / ns_per_unit if calls else 0.0

    metrics = {}
    for name in ("operator.apply", "operator.pinv_apply", "box.project",
                 "linalg.frobenius_norm", "linalg.spectral_norm"):
        metrics[f"{name}.calls"] = stats[name][0]
        metrics[f"{name}.us_per_call"] = per_call(name, 1e3)
    calls = stats["affine.project"][0]
    metrics["affine.project.calls"] = calls
    metrics["affine.project.self_us_per_call"] = per_call("affine.project", 1e3, own=True)
    metrics["affine.project.bytes_computed"] = counters["affine.project.bytes"] / calls if calls else 0.0
    run_calls, run_total, run_self = stats["solvers.run"]
    iterations = counters["solvers.iterations"]
    metrics["solvers.run.calls"] = run_calls
    metrics["solvers.run.self_share"] = run_self / run_total if run_total else 0.0
    metrics["solvers.iterations"] = iterations
    metrics["solvers.useful_iter_ratio"] = (counters["solvers.iterations.converged"] / iterations
                                            if iterations else 0.0)
    for alg, display in DISPLAY.items():
        metrics[f"solvers.converged.{display}"] = counters[f"solvers.converged.{alg}"]
    metrics["harness.draw_start.us_per_call"] = per_call("harness.draw_start", 1e3)
    metrics["harness.summarize.ms"] = stats["harness.summarize"][1] / 1e6
    metrics["harness.emit_outputs.ms"] = stats["harness.emit_outputs"][1] / 1e6
    metrics["harness.emit_outputs.bytes"] = counters["harness.emit_outputs.bytes"]
    metrics["trace.overhead_frac"] = overhead
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rowcolproj" / "__init__.py").is_file():
        print(f"error: rowcolproj sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rowcolproj as rcp

    if Path(rcp.__file__).resolve().parent != (SRC / "rowcolproj").resolve():
        print(f"error: imported rowcolproj from {rcp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    allocator_held = hold_allocator_state()
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    out = OUT / "smoke" if args.smoke else OUT
    bench = Bench(rcp, workload, args.seed, out)
    try:
        if args.trace:
            metrics, extra, summaries, runs_csv = bench.per_layer()
            section = declared["per_layer"]
        else:
            metrics, extra, summaries, runs_csv = bench.end_to_end(args.seconds)
            section = declared["end_to_end"]
    finally:
        shutil.rmtree(bench.out_dir, ignore_errors=True)

    units = {entry["name"]: entry["unit"] for entry in section}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: BENCHMARK.json declares metrics this run did not measure: {missing}",
              file=sys.stderr)
        return 1
    tally = bench.tally
    extra["fail_frac"] = tally.failed / tally.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "backend": rcp.BACKEND,
        "machine": dict(machine(), allocator_held=allocator_held),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "extra": extra,
        "runs_csv_sha256": hashlib.sha256(runs_csv.encode()).hexdigest(),
        "convergence_counts": {name: sum(s["convergence_counts"][name] for s in summaries)
                               for name in DISPLAY.values()},
        "problems": tally.problems,
    }
    records = out / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for name in units:
        print(f"{name:34s} {metrics[name]!r:>24} {units[name]}", file=sys.stderr)
    for name, value in extra.items():
        print(f"{name:34s} {value!r:>24}", file=sys.stderr)
    mach = record["machine"]
    print(f"machine: {mach['cpu_model']}, {mach['nproc']} CPUs, caches {mach['caches']}, "
          f"Python {mach['python']}, numpy {mach['numpy']}, {mach['blas']}, "
          f"BLAS threads {mach['blas_threads']}", file=sys.stderr)
    hashed = "the traced batch" if args.trace else "every batch of round 0"
    print(f"backend {rcp.BACKEND}; runs.csv sha256 {record['runs_csv_sha256']} ({hashed}); "
          f"converged {record['convergence_counts']}", file=sys.stderr)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
