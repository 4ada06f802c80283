#!/usr/bin/env python3
"""A/B engine timing: this tree against a base revision, in alternating process pairs.

Usage (from anywhere inside the repository):

    python3 tools/ab.py --base REV [--pairs N]

The script checks REV out into a temporary git worktree and runs N pairs
of processes (default 20), one per tree, with that tree's ``src`` first
on ``PYTHONPATH``; which tree goes first alternates from pair to pair.
Each process builds six fixed batch kinds with its own tree's
``harness._build_problem`` and ``harness.draw_start`` and runs each
through that tree's ``solvers._solve`` for DR, MAP and Dykstra in turn:

- 4x5-convex and 4x5-integer: the bundled 4x5 instance, 100 starts;
- 32x48-integer: feasible 32x48 targets, 100 starts from [0, 20);
- 256x384-convex: feasible 256x384 targets, 2 starts of at most 50
  iterations;
- 4x5-convex-single and 4x5-integer-single: the first 34 starts of the
  4x5 batches, each run through ``_solve`` alone as a (1, 4, 5) stack,
  as perfbench's single solves are; the 34 calls are timed as one.

Each engine call (for a single kind, its 34 calls together) is timed
REPEATS times and then again until the calls add up to MIN_SECONDS, so a
2 ms call is timed about 100 times; a process reports the median of
those times, the sha256 of the bytes of the delta table (for a single
kind, its 34 rows joined) and the first feasible iteration of every
start. The script prints, per kind and algorithm, the change/base ratio
of those times over the pairs as median [q1, q3], with each tree's
median time.

Exit status: 0 when every process of both trees gave the same delta
tables and feasible iterations, 1 otherwise. Run nothing else on the
machine meanwhile; 20 pairs take about 6 minutes on 2 CPUs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_trajectory import spread
from golden import sample_targets, worktree

ROOT = Path(__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parent
REPEATS = 3  # the fewest timed engine calls per kind and algorithm in each process
MIN_SECONDS = 0.2  # the least time those calls add up to
# Name and config of each batch kind; a config without "s" uses the bundled 4x5 instance.
KINDS = {
    "4x5-convex": {"case": "convex", "num_runs": 100},
    "4x5-integer": {"case": "integer", "num_runs": 100},
    "32x48-integer": {**sample_targets(32, 48), "case": "integer", "num_runs": 100,
                      "init_low": 0.0, "init_high": 20.0},
    "256x384-convex": {**sample_targets(256, 384), "case": "convex", "num_runs": 2,
                       "max_iterations": 50},
    "4x5-convex-single": {"case": "convex", "num_runs": 34},
    "4x5-integer-single": {"case": "integer", "num_runs": 34},
}


def time_kinds():
    """Per "kind algorithm" of KINDS: the median seconds of the timed engine calls, the
    sha256 of the delta table and each start's first feasible iteration.

    Runs in a process whose ``rowcolproj`` is the measured tree's.
    """
    from time import perf_counter

    from rowcolproj.cli import load_config
    from rowcolproj.harness import ExperimentSpec, _build_problem, draw_start
    from rowcolproj.solvers import ALGORITHMS, _solve

    results = {}
    for name, config in KINDS.items():
        spec = ExperimentSpec.from_config({**load_config(), **config})
        affine_set, box = _build_problem(spec.s, spec.r, spec.case)
        starts = np.stack([draw_start(spec, i) for i in range(spec.num_runs)])
        stacks = [start[None] for start in starts] if name.endswith("-single") else [starts]
        for alg in ALGORITHMS:
            cfg = spec.solver_config(alg)
            seconds = []
            while len(seconds) < REPEATS or sum(seconds) < MIN_SECONDS:
                begin = perf_counter()
                outcomes = [_solve(affine_set, box, stack, cfg) for stack in stacks]
                seconds.append(perf_counter() - begin)
            deltas = np.concatenate([table for table, _ in outcomes])
            traces = [trace for _, batch in outcomes for trace in batch]
            results[f"{name} {alg}"] = {
                "seconds": float(np.median(seconds)),
                "deltas_sha256": hashlib.sha256(deltas.tobytes()).hexdigest(),
                "feasible": [trace.first_feasible_iteration for trace in traces],
            }
    return results


def run_tree(tree):
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from ab import time_kinds; import rowcolproj; "
            "print(json.dumps({'results': time_kinds(), 'module': rowcolproj.__file__}))")
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-c", code, str(TOOLS)],
                          env=env, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to((tree / "src").resolve()):
        raise RuntimeError(f"the engine was imported from outside {tree / 'src'}")
    return result["results"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=20, help="process pairs (default 20)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="rowcolproj-ab-") as tmp, \
            worktree(args.base, tmp) as base:
        trees = {"base": base, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            print(f"pair {pair + 1}/{args.pairs}: {order[0]} first", file=sys.stderr, flush=True)
            for label in order:
                runs[label].append(run_tree(trees[label]))
    differing = []
    for cell in runs["base"][0]:
        outcomes = {(run[cell]["deltas_sha256"], tuple(run[cell]["feasible"]))
                    for label in runs for run in runs[label]}
        same = len(outcomes) == 1
        if not same:
            differing.append(cell)
        base, change = ([run[cell]["seconds"] for run in runs[label]] for label in runs)
        ratio = spread(np.divide(change, base))
        print(f"{'same   ' if same else 'DIFFERS'} {cell:<22} change/base {ratio['median']:.3f} "
              f"[{ratio['q1']:.3f}, {ratio['q3']:.3f}]   base {np.median(base) * 1e3:.2f} ms, "
              f"change {np.median(change) * 1e3:.2f} ms")
    print(f"{', '.join(differing)}: delta tables or feasible iterations differ from {args.base}"
          if differing else f"every delta table and feasible iteration matches {args.base}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
