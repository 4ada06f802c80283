#!/usr/bin/env python3
"""A/B engine timing: this tree against a base revision, in alternating process pairs.

Usage (from anywhere inside the repository):

    python3 tools/ab.py --base REV [--pairs N]

The script checks REV out into a temporary git worktree and runs N pairs
of processes (default 20), one per tree, with that tree's ``src`` first
on ``PYTHONPATH``; which tree goes first alternates from pair to pair.
Each process builds seven fixed batch kinds with its own tree's
``harness._build_problem`` (or, for the weighted kind, ``make_affine_set``
and ``HyperBox``) and ``harness.draw_start``, and runs each through that
tree's ``solvers._solve`` for DR, MAP and Dykstra in turn:

- 4x5-convex and 4x5-integer: the bundled 4x5 instance, 100 starts;
- 32x48-integer: feasible 32x48 targets, 100 starts from [0, 20);
- 256x384-convex: feasible 256x384 targets, 2 starts of at most 50
  iterations;
- 256x384-weighted: the same starts and cap under weights e and f drawn
  from U(0.5, 2), with targets X e and X^T f for the integer matrix X
  whose sums are the 256x384 targets, and the box
  [0, min(s_bar_i / e_j, r_bar_j / f_i)], which holds every
  nonnegative matrix with those sums;
- 4x5-convex-single and 4x5-integer-single: the first 34 starts of the
  4x5 batches, each run through ``_solve`` alone as a (1, 4, 5) stack,
  as perfbench's single solves are; the 34 calls are timed as one.

It also times PROJECTIONS single ``AffineMarginalSet.project`` calls on
256x384 starts as one cell, project-256x384, under the unit weights and
under the weighted kind's.

Each timed cell (an engine call, the 34 single calls, or the projections)
is timed REPEATS times and then again until the calls add up to
MIN_SECONDS, so a 2 ms call is timed about 100 times; a process reports
the median of those times, a sha256 (of the bytes of the delta table,
for a single kind of its 34 rows joined, or of the projections' outputs)
and the first feasible iteration of every start. The script prints, per
cell, the change/base ratio of those times over the pairs as median
[q1, q3], with each tree's median time.

A change of harness.SCHEMA_VERSION announces different delta tables, as
in tools/golden.py: when the two trees' versions differ, the delta table
hashes are reported as changed by the schema and not compared, and the
feasible iterations and the projection hashes still are. Exit status: 0
when every process of both trees gave the same compared hashes and
feasible iterations, 1 otherwise. Run nothing else on the machine
meanwhile; 20 pairs take about 7 minutes on 2 CPUs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from bench_trajectory import spread
from golden import sample_matrix, sample_targets, schema_version, worktree

ROOT = Path(__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parent
REPEATS = 3  # the fewest timed calls per cell in each process
MIN_SECONDS = 0.2  # the least time those calls add up to
LARGE = {**sample_targets(256, 384), "case": "convex", "num_runs": 2, "max_iterations": 50}
# Name and config of each batch kind; a config without "s" uses the bundled 4x5 instance, and
# "weighted" builds the problem of weighted_problem.
KINDS = {
    "4x5-convex": {"case": "convex", "num_runs": 100},
    "4x5-integer": {"case": "integer", "num_runs": 100},
    "32x48-integer": {**sample_targets(32, 48), "case": "integer", "num_runs": 100,
                      "init_low": 0.0, "init_high": 20.0},
    "256x384-convex": LARGE,
    "256x384-weighted": {**LARGE, "weighted": True},
    "4x5-convex-single": {"case": "convex", "num_runs": 34},
    "4x5-integer-single": {"case": "integer", "num_runs": 34},
}
PROJECT = "project-256x384"  # the name of the projection cells
PROJECTIONS = 8  # single 256x384 projections per project-256x384 cell
WEIGHT_SEED = 2021  # seeds the weighted kind's weights


def weighted_problem(m, n):
    """Weights e and f from U(0.5, 2), the affine set of the targets X e and X^T f for
    X = sample_matrix(m, n), and the box [0, min(s_bar_i / e_j, r_bar_j / f_i)]: a
    nonnegative matrix with those sums has X_ij e_j <= s_bar_i and X_ij f_i <= r_bar_j."""
    from rowcolproj import HyperBox, ScaledMarginalOperator, make_affine_set

    rng = np.random.default_rng(WEIGHT_SEED)
    e, f = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m)
    X = sample_matrix(m, n)
    affine_set = make_affine_set(ScaledMarginalOperator(e, f), X @ e, X.T @ f)
    s_bar, r_bar = affine_set.projected_target
    upper = np.minimum(s_bar[:, None] / e, r_bar / f[:, None])
    return affine_set, HyperBox(np.zeros_like(upper), upper)


def timed(calls):
    """The median seconds of repeated calls() (see REPEATS and MIN_SECONDS), and the
    outputs of the last call."""
    seconds = []
    while len(seconds) < REPEATS or sum(seconds) < MIN_SECONDS:
        begin = perf_counter()
        outputs = calls()
        seconds.append(perf_counter() - begin)
    return float(np.median(seconds)), outputs


def time_kinds():
    """Per cell ("kind algorithm", and "project-256x384 unit" and "... weighted"): the median
    seconds of its timed calls, the sha256 of its delta table or projections and each start's
    first feasible iteration.

    Runs in a process whose ``rowcolproj`` is the measured tree's.
    """
    from rowcolproj.cli import load_config
    from rowcolproj.harness import ExperimentSpec, _build_problem, draw_start
    from rowcolproj.solvers import ALGORITHMS, _solve

    results = {}
    for name, config in KINDS.items():
        config = dict(config)
        weighted = config.pop("weighted", False)
        spec = ExperimentSpec.from_config({**load_config(), **config})
        affine_set, box = (weighted_problem(spec.m, spec.n) if weighted
                           else _build_problem(spec.s, spec.r, spec.case))
        starts = np.stack([draw_start(spec, i) for i in range(spec.num_runs)])
        stacks = [start[None] for start in starts] if name.endswith("-single") else [starts]
        for alg in ALGORITHMS:
            cfg = spec.solver_config(alg)
            seconds, outcomes = timed(lambda: [_solve(affine_set, box, stack, cfg)
                                               for stack in stacks])
            deltas = np.concatenate([table for table, _ in outcomes])
            traces = [trace for _, batch in outcomes for trace in batch]
            results[f"{name} {alg}"] = {
                "seconds": seconds,
                "sha256": hashlib.sha256(deltas.tobytes()).hexdigest(),
                "feasible": [trace.first_feasible_iteration for trace in traces],
            }
    spec = ExperimentSpec.from_config({**load_config(), **LARGE})
    starts = [draw_start(spec, i) for i in range(PROJECTIONS)]
    for weights, (affine_set, _) in (("unit", _build_problem(spec.s, spec.r, spec.case)),
                                     ("weighted", weighted_problem(spec.m, spec.n))):
        seconds, outputs = timed(lambda: [affine_set.project(T) for T in starts])
        results[f"{PROJECT} {weights}"] = {
            "seconds": seconds,
            "sha256": hashlib.sha256(np.stack(outputs).tobytes()).hexdigest(),
            "feasible": [],
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
        schemas = [schema_version(trees[label]) for label in runs]
        new_schema = schemas[0] != schemas[1]
        if new_schema:
            print(f"schema_version changes from {schemas[0]} to {schemas[1]}: the delta table "
                  "hashes are changed by the schema and not compared")
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            print(f"pair {pair + 1}/{args.pairs}: {order[0]} first", file=sys.stderr, flush=True)
            for label in order:
                runs[label].append(run_tree(trees[label]))
    differing = []
    for cell in runs["base"][0]:
        compare_hash = not new_schema or cell.startswith(PROJECT)
        outcomes = {(run[cell]["sha256"] if compare_hash else None, tuple(run[cell]["feasible"]))
                    for label in runs for run in runs[label]}
        same = len(outcomes) == 1
        if not same:
            differing.append(cell)
        base, change = ([run[cell]["seconds"] for run in runs[label]] for label in runs)
        ratio = spread(np.divide(change, base))
        print(f"{'same   ' if same else 'DIFFERS'} {cell:<24} change/base {ratio['median']:.3f} "
              f"[{ratio['q1']:.3f}, {ratio['q3']:.3f}]   base {np.median(base) * 1e3:.2f} ms, "
              f"change {np.median(change) * 1e3:.2f} ms")
    print(f"{', '.join(differing)}: hashes or feasible iterations differ from {args.base}"
          if differing else f"every compared hash and feasible iteration matches {args.base}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
