#!/usr/bin/env python3
"""Golden-output check: this tree must write what the tree at a base revision writes.

Usage (from anywhere inside the repository):

    python3 tools/golden.py --base REV

The script checks REV out into a temporary git worktree, runs every case
below with the command line of each tree (``python -m rowcolproj.cli``
with that tree's ``src`` first on ``PYTHONPATH``), and compares the
exit status, the stderr and the output files byte for byte (for an
experiment, also whether its --out-dir exists). Both trees run on the
same machine, so the check does not depend on its BLAS kernels, as a
committed hash would.

The cases: the default 1000-run convex and integer experiments; two
300-run integer batches on inconsistent targets; a 40-run 32x48 integer
batch and a 2-run, 50-iteration 256x384 convex batch, each at --jobs 1
and 2; an experiment on the targets s = (0, 10), r = (0, 0), whose range
projection has negative entries (exit status 2, one stderr line, no
--out-dir); the stdout of 36 single ``solve`` runs from drawn starts and of
two from a fixed 4x5 start matrix (``--input``, convex and integer);
and the stdout of nine ``project`` calls of that matrix (default
targets, given targets, a target shape the matrix does not have,
general weights, explicit all-ones weights, zero row weights, zero
column weights, both zero, and all weights 1e76, the largest
all-equal weights the operator accepts at 4x5).

A change of harness.SCHEMA_VERSION announces different output in what
the schema defines: summary.json, deltas.csv, schema.json and the delta
lines of ``solve``. Those are listed as changed and not compared then;
everything else still is: the exit status, the stderr, whether the
--out-dir exists, every experiment's runs.csv and every ``project``
stdout. Exit status: 0 when every compared output matches, 1 when a
case differs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENT_FILES = ("runs.csv", "summary.json", "deltas.csv", "schema.json")
SCHEMA_FILES = ("summary.json", "deltas.csv", "schema.json")  # and solve's stdout
# A fixed 4x5 matrix for the project cases and the solve --input cases.
PROJECT_MATRIX = "4 5\n1 -2 3.5 0 7\n0.25 4 -1 2 9\n3 3 3 3 3\n-6 0.5 8 1 -4\n"
PROJECT_FLAGS = (
    [],
    ["--row-sums", "32,43,33,23", "--col-sums", "24,18,37,27,25"],
    ["--row-sums", "1,2,3", "--col-sums", "1,2"],  # exit status 2
    ["--row-weights", "1,2,0.5,3", "--col-weights", "2,1,1,0.5,4"],
    ["--row-weights", "1,1,1,1", "--col-weights", "1,1,1,1,1"],
    # the zero-weight branches of the pseudoinverse and the range projection
    ["--row-weights", "0,0,0,0"],
    ["--col-weights", "0,0,0,0,0"],
    ["--row-weights", "0,0,0,0", "--col-weights", "0,0,0,0,0"],
    # the accepted boundary: at 1e77 a norm factor overflows and the weights are refused
    ["--row-weights", ",".join(["1e76"] * 4), "--col-weights", ",".join(["1e76"] * 5)],
)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextmanager
def worktree(rev, parent):
    """A detached git worktree of ``rev`` under ``parent``, removed on exit."""
    path = Path(parent) / "base"
    git("worktree", "add", "--detach", str(path), rev)
    try:
        yield path
    finally:
        git("worktree", "remove", "--force", str(path))


def sample_targets(m, n):
    """The row and column sums of default_rng(0).integers(0, 10, (m, n)): feasible targets."""
    counts = np.random.default_rng(0).integers(0, 10, (m, n))
    return {"s": counts.sum(axis=1).tolist(), "r": counts.sum(axis=0).tolist()}


def configs():
    """Name and JSON config of each experiment batch beyond the default ones."""
    # inconsistent integer targets whose range projection is integral
    # (s_bar = s - 1, r_bar = r + 1) and fractional (no start converges)
    yield "integral", {"s": [35, 45, 34, 26], "r": [24, 18, 37, 27, 25],
                       "case": "integer", "num_runs": 300}
    yield "fractional", {"s": [33, 43, 33, 23], "r": [24, 18, 37, 27, 25],
                         "case": "integer", "num_runs": 300}
    yield "integer32x48", {**sample_targets(32, 48), "case": "integer", "num_runs": 40}
    yield "convex256x384", {**sample_targets(256, 384), "case": "convex", "num_runs": 2,
                            "max_iterations": 50}
    # nonnegative targets whose range projection is not: an input error
    yield "negative-projection", {"s": [0, 10], "r": [0, 0]}


def cases(work):
    """(name, command-line arguments, output files or None for stdout) per case."""
    for case in ("convex", "integer"):
        yield f"experiment --case {case}", ["experiment", "--runs", "1000", "--case", case], \
            EXPERIMENT_FILES
    for name, config in configs():
        path = work / f"{name}.json"
        path.write_text(json.dumps(config) + "\n")
        jobs = ("1", "2") if name in ("integer32x48", "convex256x384") else ("1",)
        for j in jobs:
            yield f"experiment {name} --jobs {j}", \
                ["experiment", "--config", str(path), "--jobs", j], EXPERIMENT_FILES
    for alg in ("dr", "map", "dyk"):
        for case in ("convex", "integer"):
            for seed in range(1, 7):
                args = ["solve", "--alg", alg, "--case", case, "--seed", str(seed)]
                yield " ".join(args), args, None
    matrix = work / "T.txt"
    matrix.write_text(PROJECT_MATRIX)
    for case in ("convex", "integer"):
        yield f"solve --input T.txt --case {case}", \
            ["solve", "--input", str(matrix), "--case", case], None
    for flags in PROJECT_FLAGS:
        yield " ".join(["project", *flags]), ["project", str(matrix), *flags], None


def run_case(tree, args, files, out_dir):
    """Exit status, stderr and output bytes of one case in ``tree``; ``out_dir`` receives
    experiment files."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    if files is not None:
        args = [*args, "--out-dir", str(out_dir)]
    done = subprocess.run([sys.executable, "-m", "rowcolproj.cli", *args], env=env,
                          capture_output=True)
    if files is None:
        return done.returncode, done.stderr, [done.stdout]
    return done.returncode, done.stderr, [out_dir.exists()] + [
        (out_dir / name).read_bytes() if (out_dir / name).exists() else None for name in files]


def schema_free(args, files, output):
    """The part of one case's output that no schema version defines: all but the
    SCHEMA_FILES of an experiment, and all but the stdout of ``solve``."""
    status, stderr, parts = output
    if files is None:
        return status, stderr, parts if args[0] != "solve" else []
    return status, stderr, parts[:1] + [part for name, part in zip(files, parts[1:])
                                        if name not in SCHEMA_FILES]


def schema_version(tree):
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run(
        [sys.executable, "-c", "from rowcolproj.harness import SCHEMA_VERSION; print(SCHEMA_VERSION)"],
        env=env, check=True, capture_output=True, text=True).stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="rowcolproj-golden-") as tmp, \
            worktree(args.base, tmp) as base:
        work = Path(tmp)
        base_schema, head_schema = schema_version(base), schema_version(ROOT)
        new_schema = base_schema != head_schema
        if new_schema:
            print(f"schema_version changes from {base_schema} to {head_schema}: "
                  f"{', '.join(SCHEMA_FILES)} and the solve stdout are changed by the schema "
                  "and not compared")
        differing = []
        for number, (name, case_args, files) in enumerate(cases(work)):
            outputs = [run_case(tree, case_args, files, work / f"{label}-{number}")
                       for label, tree in (("base", base), ("head", ROOT))]
            if new_schema:
                outputs = [schema_free(case_args, files, output) for output in outputs]
            same = outputs[0] == outputs[1]
            print(f"{'same   ' if same else 'DIFFERS'} {name} (exit status "
                  f"{outputs[0][0]} -> {outputs[1][0]})", flush=True)
            if not same:
                differing.append(name)
    print(f"{len(differing)} case(s) differ from {args.base}" if differing
          else f"every case matches {args.base}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
