#!/usr/bin/env python3
"""A/B timing: this tree against a base revision, in alternating process pairs.

Usage (from anywhere inside the repository):

    python3 tools/ab.py --base REV [--pairs N] [--write PATH]

The script checks REV out into a temporary git worktree and runs N pairs
of processes (default 20), one per tree, with that tree's ``src`` first
on ``PYTHONPATH``; which tree goes first alternates from pair to pair.
Each process times three sets of cells with its own tree's public names:

- engine cells: each batch kind of KINDS through ``run_batch`` on the
  problem that ``problem`` builds, for DR, MAP and Dykstra in turn; a kind
  marked "single" runs its starts one by one as (1, m, n) stacks: the 4x5
  "-single" kinds as perfbench's single solves do, the 256x384 kinds as
  ``harness.run_experiment`` blocks them (one start per block);
- projection cells: PROJECTIONS single 256x384 projections, under the
  unit weights and under the weighted problem's;
- regime cells: ``harness.run_experiment`` and ``emit_outputs`` end to
  end, as perfbench times a batch, on each batch of REGIMES, which
  perfbench lacks, at each --jobs value of JOBS.

A regime cell is timed once per process, the others REPEATS times and
then until their calls add up to MIN_SECONDS (the process reports the
median). Each cell gives a sha256 (of its traces' delta rows, padded with
their final delta to the engine table's max_iterations + 1; of its
projections; or of runs.csv), an engine cell also each start's first
feasible iteration. The script prints each cell's change/base time ratio
as median [q1, q3].

With --write PATH, each pair also runs ``perfbench/run.py --trace 0``
(SECONDS s, seed FIRST_SEED + the pair's index) on each of WORKLOADS,
once per tree in the pair's order, and keeps the record that run writes
in its tree's ``.perfbench_out/records/``. PATH receives, as JSON, both
trees' commits, cell runs and whole perfbench records, pair by pair; the
per-pair change/base ratios of every cell and of every perfbench metric,
raw time and probe median; each tree's perfbench operations attempted
and failed; and what the records lack of the environment.

Delta row hashes are not compared across a change of
harness.SCHEMA_VERSION. Exit status: 0 when every process of
both trees gave the same compared hashes and feasible iterations, 1
otherwise. Run nothing else on the machine meanwhile; 20 pairs take
about 12 minutes on 2 CPUs, and --write adds about 2 minutes per pair.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from golden import git, run_in_tree, sample_matrix, sample_targets, schema_version, worktree

ROOT = Path(__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parent
REPEATS = 3  # the fewest timed calls per cell in each process
MIN_SECONDS = 0.2  # the least time those calls add up to
LARGE = {**sample_targets(256, 384), "case": "convex", "num_runs": 2, "max_iterations": 50}
# Name and config of each batch kind; a config without "s" uses the bundled 4x5 instance,
# "weighted" builds the weighted problem (see problem) with the same starts and cap, and
# "single" runs one start per engine call.
KINDS = {
    "4x5-convex": {"case": "convex", "num_runs": 100},
    "4x5-integer": {"case": "integer", "num_runs": 100},
    "32x48-integer": {**sample_targets(32, 48), "case": "integer", "num_runs": 100,
                      "init_low": 0.0, "init_high": 20.0},
    "256x384-convex": {**LARGE, "single": True},
    "256x384-weighted": {**LARGE, "weighted": True, "single": True},
    "4x5-convex-single": {"case": "convex", "num_runs": 34, "single": True},
    "4x5-integer-single": {"case": "integer", "num_runs": 34, "single": True},
}
PROJECTIONS = 8  # single 256x384 projections per project-256x384 cell
WEIGHT_SEED = 2021  # seeds the weighted kind's weights
# Name and config of each regime cell, timed end to end at each --jobs value in JOBS.
REGIMES = {
    "4x5-convex-1000": {"case": "convex", "num_runs": 1000},
    "4x5-integer-1000": {"case": "integer", "num_runs": 1000},
    "32x48-integer-200": {**KINDS["32x48-integer"], "num_runs": 200},
    "32x48-convex-200": {**sample_targets(32, 48), "case": "convex", "num_runs": 200},
    "256x384-convex-8x50": {**LARGE, "num_runs": 8},
}
JOBS = (1, 2)
WORKLOADS = ("demo4x5-convex", "demo4x5-integer", "large256x384-convex")  # perfbench's
SECONDS = 30  # perfbench --seconds
FIRST_SEED = 31  # perfbench --seed of the first pair
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def problem(spec, weighted=False):
    """The affine set and box of ``spec`` as run_experiment builds them, or ``weighted``: e, f
    from U(0.5, 2) and targets X e, X^T f of X = sample_matrix(m, n). Either box,
    [0, min(s_bar_i / e_j, r_bar_j / f_i)], holds every nonnegative X with those sums."""
    from rowcolproj import HyperBox, ScaledMarginalOperator, make_affine_set

    rng, X = np.random.default_rng(WEIGHT_SEED), sample_matrix(spec.m, spec.n)
    e, f = (rng.uniform(0.5, 2.0, size) if weighted else np.ones(size) for size in (spec.n, spec.m))
    s, r = (X @ e, X.T @ f) if weighted else (spec.s, spec.r)
    affine_set = make_affine_set(ScaledMarginalOperator(e, f), s, r)
    s_bar, r_bar = affine_set.projected_target
    upper = np.minimum(s_bar[:, None] / e, r_bar / f[:, None])
    return affine_set, HyperBox(np.zeros_like(upper), upper, spec.case == "integer")


def measured(seconds, data, feasible=()):
    """One cell's result: its seconds, the sha256 of ``data`` and its first feasible iterations."""
    return {"seconds": seconds, "sha256": hashlib.sha256(data).hexdigest(),
            "feasible": list(feasible)}


def timed(calls):
    """The median seconds of repeated calls() (see REPEATS and MIN_SECONDS), and the
    outputs of the last call."""
    seconds = []
    while len(seconds) < REPEATS or sum(seconds) < MIN_SECONDS:
        begin = perf_counter()
        outputs = calls()
        seconds.append(perf_counter() - begin)
    return float(np.median(seconds)), outputs


def time_cells():
    """Per cell ("kind algorithm", "project-256x384 unit" and "... weighted", and
    "regime --jobs J"): the median seconds of its timed calls (a regime's one time), the
    sha256 of its trace delta rows, projections or runs.csv, and each start's first feasible
    iteration. Runs in a process whose ``rowcolproj`` is the measured tree's."""
    from rowcolproj import run_batch
    from rowcolproj.cli import load_config
    from rowcolproj.harness import ExperimentSpec, draw_start, emit_outputs, run_experiment

    results = {}
    for name, config in KINDS.items():
        config = dict(config)
        weighted, single = config.pop("weighted", False), config.pop("single", False)
        spec = ExperimentSpec.from_config({**load_config(), **config})
        affine_set, box = problem(spec, weighted)
        starts = np.stack([draw_start(spec, i) for i in range(spec.num_runs)])
        stacks = [start[None] for start in starts] if single else [starts]
        for alg in ("DR", "MAP", "DYK"):
            cfg = spec.solver_config(alg)
            seconds, traces = timed(lambda: [trace for stack in stacks
                                             for trace in run_batch(affine_set, box, stack, cfg)])
            rows = [np.pad(trace.deltas, (0, cfg.max_iterations + 1 - len(trace.deltas)), "edge")
                    for trace in traces]
            feasible = [trace.first_feasible_iteration for trace in traces]
            results[f"{name} {alg}"] = measured(seconds, np.concatenate(rows).tobytes(), feasible)
    spec = ExperimentSpec.from_config({**load_config(), **LARGE})
    starts = [draw_start(spec, i) for i in range(PROJECTIONS)]
    for weights in ("unit", "weighted"):
        affine_set, _ = problem(spec, weights == "weighted")
        seconds, outputs = timed(lambda: [affine_set.project(T) for T in starts])
        results[f"project-256x384 {weights}"] = measured(seconds, np.stack(outputs).tobytes())
    with tempfile.TemporaryDirectory(prefix="rowcolproj-ab-") as out_dir:
        for name, config in REGIMES.items():
            spec = ExperimentSpec.from_config({**load_config(), **config})
            for jobs in JOBS:
                begin = perf_counter()
                emit_outputs(*run_experiment(spec, jobs=jobs), out_dir)
                seconds = perf_counter() - begin
                results[f"{name} --jobs {jobs}"] = measured(
                    seconds, (Path(out_dir) / "runs.csv").read_bytes())
    return results


def run_perfbench(tree, workload, seed):
    """The record one ``perfbench/run.py --trace 0`` run in ``tree`` writes, with the operations
    attempted and failed that its last stdout line gives and the record lacks."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"perfbench in {tree} exited with {done.returncode}:\n{done.stderr}")
    totals = json.loads(done.stdout.splitlines()[-1])
    record = tree / ".perfbench_out" / "records" / f"{workload}-seed{seed}-trace0.json"
    return {**json.loads(record.read_text()),
            "attempted": totals["attempted"], "failed": totals["failed"]}


def figures(record):
    """Name: (value, unit) of a perfbench record's metrics, raw times (its ``extra``'s
    ``*_raw``, in their metric's unit) and speed probe median."""
    metrics, extra = record["metrics"], record["extra"]
    found = {name: (metric["value"], metric["unit"]) for name, metric in metrics.items()}
    found.update({name: (value, metrics[name[:-4]]["unit"]) for name, value in extra.items()
                  if name.endswith("_raw")})
    return {**found, "probe_us_p50": (extra["probe_us_p50"], "us")}


def perfbench_ratios(base, change):
    """Per "workload figure": its unit and ``paired`` of its values in the two trees' lists
    of perfbench records, which pair by position."""
    values = {}
    for old, new in zip(base, change):
        new_figures = figures(new)
        for name, (value, unit) in figures(old).items():
            entry = values.setdefault(f"{old['workload']} {name}", (unit, [], []))
            entry[1].append(value)
            entry[2].append(new_figures[name][0])
    return {name: {"unit": unit, **paired(*trees)} for name, (unit, *trees) in values.items()}


def verdict(runs, new_schema):
    """The cells whose compared hash or feasible iterations differ between any two processes
    of ``runs`` ({"base": [time_cells() per process], "change": [...]}); across a schema
    change (``new_schema``), the engine cells' delta row hashes are not compared."""
    differing = []
    for cell in runs["base"][0]:
        compare_hash = not new_schema or cell.split()[0] not in KINDS
        outcomes = {(run[cell]["sha256"] if compare_hash else None, tuple(run[cell]["feasible"]))
                    for label in runs for run in runs[label]}
        if len(outcomes) > 1:
            differing.append(cell)
    return differing


def paired(base, change):
    """Each tree's runs, and the per-pair change/base ratios with their median and quartiles."""
    ratios = np.divide(change, base)
    q1, median, q3 = np.percentile(ratios, [25, 50, 75]).tolist()
    return {"base": base, "change": change,
            "ratio": {"median": median, "q1": q1, "q3": q3, "runs": ratios.tolist()}}


def ratio_line(name, times, unit):
    ratio = times["ratio"]
    return (f"{name:<38} change/base {ratio['median']:.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}]"
            f"   base {np.median(times['base']):.4g} {unit}, "
            f"change {np.median(times['change']):.4g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=20, help="process pairs (default 20)")
    parser.add_argument("--write", metavar="PATH",
                        help="also run perfbench in every pair and write the JSON record to PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    runs, bench = {"base": [], "change": []}, {"base": [], "change": []}
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); from ab import time_cells; "
            "print(json.dumps(time_cells()))")
    with tempfile.TemporaryDirectory(prefix="rowcolproj-ab-") as tmp, \
            worktree(args.base, tmp) as base:
        trees = {"base": base, "change": ROOT}
        commits = {label: git("rev-parse", "HEAD", cwd=trees[label]) for label in runs}
        schemas = [schema_version(trees[label]) for label in runs]
        new_schema = schemas[0] != schemas[1]
        if new_schema:
            print(f"schema_version changes from {schemas[0]} to {schemas[1]}: the delta row "
                  "hashes are changed by the schema and not compared")
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            print(f"pair {pair + 1}/{args.pairs}: {order[0]} first", file=sys.stderr, flush=True)
            for label in order:
                runs[label].append(json.loads(run_in_tree(trees[label], code, str(TOOLS))))
            for workload in WORKLOADS if args.write else ():
                for label in order:
                    bench[label].append(run_perfbench(trees[label], workload, FIRST_SEED + pair))
    differing = verdict(runs, new_schema)
    cells = {}
    for cell in runs["base"][0]:
        cells[cell] = paired(*([run[cell]["seconds"] for run in runs[label]] for label in runs))
        print(f"{'same   ' if cell not in differing else 'DIFFERS'} "
              f"{ratio_line(cell, cells[cell], 's')}")
    if args.write:
        perfbench = perfbench_ratios(bench["base"], bench["change"])
        for name, entry in perfbench.items():
            print(f"perfbench {ratio_line(name, entry, entry['unit'])}")
        totals = {label: {key: sum(record[key] for record in bench[label])
                          for key in ("attempted", "failed")} for label in bench}
        print(f"perfbench operations: {totals}")
        # what the records' "machine" lacks, of the process that timed the cells
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        record = {
            "base": {"rev": args.base, "commit": commits["base"]},
            "change": {"commit": commits["change"], "uncommitted_changes": bool(
                git("status", "--porcelain", "--untracked-files=no"))},
            "environment": {"cpus": cpus, "system": platform.platform(), "blas_thread_vars": {
                var: os.environ.get(var) for var in BLAS_THREAD_VARS}},
            "pairs": args.pairs, "cells": cells, "perfbench": perfbench,
            "perfbench_totals": totals, "perfbench_records": bench,
        }
        Path(args.write).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.write}")
    print(f"{', '.join(differing)}: hashes or feasible iterations differ from {args.base}"
          if differing else f"every compared hash and feasible iteration matches {args.base}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
