"""Command-line interface: one-shot projections, single solver runs, batches.

Matrix files are plain text: the first line holds "m n", followed by m
whitespace-separated rows. Floating-point output uses 17 significant
digits so files round-trip exactly.
"""

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import fields
from importlib import resources
from pathlib import Path

import numpy as np

from .affine import make_affine_set
from .harness import (ExperimentSpec, _build_problem, _fmt, _solve_starts, draw_start,
                      emit_outputs, run_experiment)
from .linalg import as_matrix, as_vector
from .operator import ScaledMarginalOperator
from .solvers import ALGORITHMS

DEFAULT_CONFIG = "demo_4x5.json"

SPEC_FIELDS = frozenset(f.name for f in fields(ExperimentSpec))


def read_matrix(path):
    """Read a matrix file ("m n" header, then m rows); a bad file raises ValueError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read matrix file {path}: {exc}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"matrix file {path} is empty")
    try:
        m, n = (int(tok) for tok in lines[0].split())
        rows = [[float(tok) for tok in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise ValueError(f"matrix file {path} is malformed: {exc}") from None
    if len(rows) != m or any(len(row) != n for row in rows):
        raise ValueError(f"matrix file {path} does not contain {m}x{n} entries")
    return as_matrix(rows, name=f"matrix from {path}")


def format_matrix(T):
    return "\n".join([f"{T.shape[0]} {T.shape[1]}", *(" ".join(map(_fmt, row)) for row in T)]) + "\n"


def _parse_vector(text, name):
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return as_vector(values, name=name)


def load_config(path=None):
    """The JSON config at ``path``, or the bundled 4x5 instance when it is None."""
    source = resources.files("rowcolproj.data") / DEFAULT_CONFIG if path is None else Path(path)
    try:
        return json.loads(source.read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an integer too long to read
        raise ValueError(f"cannot load config {path}: {exc}") from None


def _spec_from_args(args, **fixed):
    """The one place where flags reach a spec: the --config spec (default: the
    bundled instance) with every given flag whose dest names a spec field, the
    targets of --row-sums/--col-sums and ``fixed`` applied. A flag left unset
    (None) keeps the config's value."""
    flags = vars(args)
    overrides = {name: value for name, value in flags.items() if name in SPEC_FIELDS}
    if flags.get("row_sums") is not None:
        overrides["s"] = _parse_vector(flags["row_sums"], "row sums")
    if flags.get("col_sums") is not None:
        overrides["r"] = _parse_vector(flags["col_sums"], "column sums")
    return ExperimentSpec.from_config(load_config(args.config), **overrides, **fixed)


def cmd_project(args):
    """Project a matrix file onto {X : X e = s, Xᵀ f = r} with the one closed-form projector.

    --col-weights gives e and --row-weights gives f (default: all ones);
    the targets (s, r) come from --row-sums/--col-sums, else --config,
    else the bundled instance. Romero's unit-sum set, the
    Glunt-Hayden-Reams set and Khoury's bistochastic set are choices of
    these flags.
    """
    T = read_matrix(args.input)
    m, n = T.shape
    e = np.ones(n) if args.col_weights is None else _parse_vector(args.col_weights, "col weights")
    f = np.ones(m) if args.row_weights is None else _parse_vector(args.row_weights, "row weights")
    spec = _spec_from_args(args)
    if (spec.m, spec.n) != (m, n):
        raise ValueError(f"the targets imply shape {spec.m}x{spec.n} but the matrix is {m}x{n}")
    op = ScaledMarginalOperator(e, f)
    if op.shape != T.shape:
        raise ValueError(f"the weights imply shape {op.m}x{op.n} but the matrix is {m}x{n}")
    with np.errstate(all="ignore"):  # refused below, with one line
        X = make_affine_set(op, spec.s, spec.r).project(T)
    if not np.all(np.isfinite(X)):
        raise ValueError("the projection has non-finite entries: the matrix, targets or "
                         "weights are too large, or the weights too small, for float64")
    if args.output is None:
        sys.stdout.write(format_matrix(X))
    else:
        Path(args.output).write_text(format_matrix(X))
    return 0


def cmd_solve(args):
    """Run 0 of the same experiment, or one run from --input, through an experiment row's code."""
    spec = _spec_from_args(args, num_runs=1)
    affine_set, box = _build_problem(spec)
    T0 = draw_start(spec, 0) if args.input is None else read_matrix(args.input)
    if T0.shape != affine_set.shape:
        raise ValueError(f"the start matrix is {T0.shape[0]}x{T0.shape[1]} "
                         f"but the targets imply {spec.m}x{spec.n}")
    _, (trace,), (result,) = _solve_starts(spec, affine_set, box, T0[None], args.alg)
    for k, delta in enumerate(result.deltas):
        print(f"{k} {_fmt(delta)}")
    if result.converged:
        print(f"feasible at iteration {result.iterations}")
        print(f"distance to start (spectral): {_fmt(result.distance)}")
        sys.stdout.write(format_matrix(trace.first_feasible_matrix))
        return 0
    print(f"no feasible point within {spec.max_iterations} iterations "
          f"(final delta {_fmt(result.deltas[-1])})")
    return 1


def cmd_experiment(args):
    spec = _spec_from_args(args)
    out_dir = Path(args.out_dir)
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)  # fail before the batch, not after
        records, summary = run_experiment(spec, jobs=args.jobs)
    except BaseException:
        for path in made:  # a failed command leaves no directory it made; rmdir keeps any file
            with suppress(OSError):  # one a failed mkdir did not make, or one that holds a file
                path.rmdir()
        raise
    paths = emit_outputs(records, summary, args.out_dir)
    for name, count in summary["convergence_counts"].items():
        print(f"{name} converged: {count}/{spec.num_runs}")
    if "solutions" in summary:
        census = summary["solutions"]
        print(f"solutions found: {census['total_found']}, unique: {census['total_unique']}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _add_spec_flags(parser):
    """Flags named after the ExperimentSpec field they override; unset, the config's value holds."""
    parser.add_argument("--seed", type=int, help="default: the config's seed")
    parser.add_argument("--iters", type=int, dest="max_iterations", metavar="ITERS",
                        help="default: the config's max_iterations")
    parser.add_argument("--tol", type=float, dest="feasibility_tol", metavar="TOL",
                        help="default: the config's feasibility_tol")
    parser.add_argument("--case", choices=["convex", "integer"], help="default: the config's case")


def _add_target_flags(parser):
    """--row-sums, --col-sums and --config; a target no flag sets comes from the config."""
    parser.add_argument("--row-sums", help="target row sums s, comma or space separated "
                                           "(default: the config's s)")
    parser.add_argument("--col-sums", help="target column sums r (default: the config's r)")
    parser.add_argument("--config", help="JSON config supplying the targets a flag does not set "
                                         "(default: bundled 4x5 instance)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rowcolproj",
        description="Projections onto matrices with prescribed scaled row/column sums, "
                    "and feasibility solvers over box and integer constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_proj = sub.add_parser("project", help="project a matrix file onto a constraint set")
    p_proj.add_argument("input", help="matrix file (first line 'm n', then m rows)")
    _add_target_flags(p_proj)
    p_proj.add_argument("--row-weights", help="row weight vector f (default: all ones)")
    p_proj.add_argument("--col-weights", help="column weight vector e (default: all ones)")
    p_proj.add_argument("--output", help="write result here instead of stdout")
    p_proj.set_defaults(func=cmd_project)

    p_solve = sub.add_parser("solve", help="run one algorithm from a single start matrix")
    p_solve.add_argument("--input", help="start matrix file; omit to draw a random start")
    p_solve.add_argument("--alg", choices=[name.lower() for name in ALGORITHMS], default="dr")
    _add_spec_flags(p_solve)
    _add_target_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_exp = sub.add_parser("experiment", help="random-start batch over all three algorithms")
    p_exp.add_argument("--config", help="JSON experiment config (default: bundled 4x5 instance)")
    p_exp.add_argument("--runs", type=int, dest="num_runs", metavar="RUNS",
                       help="default: the config's num_runs")
    _add_spec_flags(p_exp)
    p_exp.add_argument("--out-dir", default="experiment-out")
    p_exp.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per usable CPU; each runs a large batch's (block, "
                       "algorithm) tasks on threads over its CPUs, so --jobs 1 uses every CPU once blocks reach BLOCK_ENTRIES / 2 entries")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    """Run one command; invalid input, unwritable outputs and failed allocations exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"rowcolproj {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
