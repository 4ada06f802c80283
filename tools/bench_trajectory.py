#!/usr/bin/env python3
"""Write BENCH_<N>.json: perfbench's end-to-end metrics plus in-process batch times.

Usage (from anywhere inside the repository):

    python3 tools/bench_trajectory.py --number N [--rev REV]

The tree measured is this checkout, or with ``--rev`` a temporary git
worktree of REV, so a baseline is measured with the same script. Two
parts, both from that tree's own files:

- ``perfbench``: its ``perfbench/run.py --trace 0``, unchanged, on each
  of its three workloads, 30 s each, for seeds 31 to 35.
- ``regimes``: in one process per regime and ``--jobs`` value, with
  that tree's ``src`` on ``PYTHONPATH``, the wall time of
  ``run_experiment`` on batches perfbench lacks: 4x5 convex 1000 runs,
  32x48 integer 200 runs with starts in [0, 20), 32x48 convex 200 runs,
  and 256x384 convex 8 runs of at most 50 iterations, each at jobs 1
  and 2, three times each. One untimed 1-run batch warms the process
  first. The sha256 of each regime's runs.csv is recorded, and every
  repeat must give it.

Every metric is recorded with its runs, median and quartiles, next to
the machine, the Python, numpy and BLAS versions and the git revision.
The file goes to the root of this checkout. Run nothing else on the
machine meanwhile; the run takes about 12 minutes on 2 CPUs.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from golden import git, sample_targets, worktree

ROOT = Path(__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parent
WORKLOADS = ("demo4x5-convex", "demo4x5-integer", "large256x384-convex")
SEEDS = (31, 32, 33, 34, 35)
SECONDS = 30.0  # perfbench --seconds
REPEATS = 3  # timed batches per regime and jobs value
JOBS = (1, 2)
# Name and config of each regime; a config without "s" uses the bundled 4x5 instance.
REGIMES = {
    "4x5-convex-1000": {"case": "convex", "num_runs": 1000},
    "32x48-integer-200": {**sample_targets(32, 48), "case": "integer", "num_runs": 200,
                          "init_low": 0.0, "init_high": 20.0},
    "32x48-convex-200": {**sample_targets(32, 48), "case": "convex", "num_runs": 200},
    "256x384-convex-8x50": {**sample_targets(256, 384), "case": "convex", "num_runs": 8,
                            "max_iterations": 50},
}


def spread(values):
    """The runs with their median and quartiles."""
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "runs": list(values)}


def time_regime(config, jobs, repeats, out_dir):
    """Seconds of each timed run_experiment call and the runs.csv sha256 they all give.

    Runs in a process whose ``rowcolproj`` is the measured tree's.
    """
    from dataclasses import replace
    from time import perf_counter

    from rowcolproj.cli import load_config
    from rowcolproj.harness import ExperimentSpec, emit_outputs, run_experiment

    spec = ExperimentSpec.from_config({**load_config(), **config})
    run_experiment(replace(spec, num_runs=1), jobs=jobs)
    seconds, hashes = [], set()
    for _ in range(repeats):
        start = perf_counter()
        records, summary = run_experiment(spec, jobs=jobs)
        seconds.append(perf_counter() - start)
        emit_outputs(records, summary, out_dir)
        hashes.add(hashlib.sha256((Path(out_dir) / "runs.csv").read_bytes()).hexdigest())
    if len(hashes) != 1:
        raise RuntimeError(f"repeats of one regime wrote different runs.csv files: {hashes}")
    return {"seconds": seconds, "runs_csv_sha256": hashes.pop()}


def run_regime(tree, config, jobs, repeats, out_dir):
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from bench_trajectory import time_regime; import rowcolproj; "
            "result = time_regime(json.loads(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]); "
            "print(json.dumps({**result, 'module': rowcolproj.__file__}))")
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-c", code, str(TOOLS), json.dumps(config), str(jobs),
                           str(repeats), str(out_dir)],
                          env=env, cwd=out_dir, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not Path(result.pop("module")).resolve().is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"the regime imported rowcolproj from outside {tree / 'src'}")
    return {"seconds": spread(result["seconds"]), "runs_csv_sha256": result["runs_csv_sha256"]}


def run_perfbench(tree, workload, seed, seconds):
    """The last stdout line of one ``perfbench/run.py --trace 0`` run, as JSON."""
    done = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def perfbench_summary(results):
    """Per-workload attempted and failed totals and each metric's spread over seeds."""
    metrics = results[0]["metrics"]
    return {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "correct": all(r["correct"] for r in results),
        "metrics": {name: {"unit": metrics[name]["unit"],
                           **spread([r["metrics"][name]["value"] for r in results])}
                    for name in metrics},
    }


def environment(tree):
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").open()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git("rev-parse", "HEAD", cwd=tree),
        "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no", cwd=tree)),
        "machine": {"cpu_model": cpu, "cpus": os.cpu_count(), "system": platform.platform()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_thread_vars": {var: os.environ.get(var) for var in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, required=True, help="the N of BENCH_<N>.json")
    parser.add_argument("--rev", help="measure a worktree of this git revision, not this checkout")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="rowcolproj-bench-") as tmp, \
            (worktree(args.rev, tmp) if args.rev else nullcontext(ROOT)) as tree:
        bench = {"number": args.number, **environment(tree),
                 "settings": {"seeds": SEEDS, "seconds": SECONDS, "repeats": REPEATS},
                 "perfbench": {}, "regimes": {}}
        for workload in WORKLOADS:
            results = []
            for seed in SEEDS:
                print(f"perfbench {workload} --seed {seed}", file=sys.stderr, flush=True)
                results.append(run_perfbench(tree, workload, seed, SECONDS))
            bench["perfbench"][workload] = perfbench_summary(results)
        for name, config in REGIMES.items():
            bench["regimes"][name] = {"config": {k: v for k, v in config.items() if k not in ("s", "r")},
                                      "jobs": {}}
            for jobs in JOBS:
                print(f"regime {name} --jobs {jobs}", file=sys.stderr, flush=True)
                out_dir = Path(tmp) / f"{name}-jobs{jobs}"
                out_dir.mkdir()
                bench["regimes"][name]["jobs"][str(jobs)] = run_regime(tree, config, jobs,
                                                                       REPEATS, out_dir)
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
