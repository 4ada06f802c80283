"""Command-line interface: one-shot projections, single solver runs, batches.

Matrix files are plain text: the first line holds "m n", followed by m
whitespace-separated rows. Floating-point output uses 17 significant
digits so files round-trip exactly.
"""

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .affine import make_affine_set
from .harness import ExperimentSpec, _build_problem, _fmt, draw_start, emit_outputs, run_experiment
from .linalg import as_matrix, as_vector, spectral_norm
from .operator import ScaledMarginalOperator
from .solvers import SolverConfig, run

DEFAULT_CONFIG = "demo_4x5.json"


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
    m, n = T.shape
    lines = [f"{m} {n}"]
    lines += [" ".join(_fmt(v) for v in row) for row in T]
    return "\n".join(lines) + "\n"


def write_matrix(T, path=None):
    text = format_matrix(T)
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_vector(text, name):
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return as_vector(values, name=name)


def load_config(path=None):
    """The JSON config at ``path``, or the bundled 4x5 instance when it is None."""
    if path is None:
        with resources.files("rowcolproj.data").joinpath(DEFAULT_CONFIG).open() as fh:
            return json.load(fh)
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot load config {path}: {exc}") from None


def _spec_from_args(args, **overrides):
    """The --config spec (default: the bundled instance) with the targets of
    --row-sums/--col-sums and ``overrides`` applied, validated as an experiment spec."""
    return ExperimentSpec.from_config(
        load_config(args.config),
        s=_parse_vector(args.row_sums, "row sums") if args.row_sums else None,
        r=_parse_vector(args.col_sums, "column sums") if args.col_sums else None,
        **overrides,
    )


def cmd_project(args):
    """Project a matrix file; each --spec only picks the weights (e, f) and the targets.

    unit-sums: unit weights, targets from the flags or config; general:
    the given weights and targets; ghr: the given weights, targets
    (gamma e, gamma f); bistochastic: unit weights, all-ones targets.
    """
    T = read_matrix(args.input)
    m, n = T.shape
    if args.spec in ("ghr", "bistochastic") and m != n:
        raise ValueError(f"--spec {args.spec} needs a square matrix, got {m}x{n}")
    e, f = np.ones(n), np.ones(m)
    if args.spec in ("general", "ghr"):
        if args.col_weights:
            e = _parse_vector(args.col_weights, "col weights")
        if args.row_weights:
            f = _parse_vector(args.row_weights, "row weights")
    if args.spec == "bistochastic":
        s, r = np.ones(m), np.ones(n)
    elif args.spec == "ghr":
        s, r = args.gamma * e, args.gamma * f
    else:
        spec = _spec_from_args(args)
        if (spec.m, spec.n) != (m, n):
            raise ValueError(f"the targets imply shape {spec.m}x{spec.n} but the matrix is {m}x{n}")
        s, r = spec.s, spec.r
    op = ScaledMarginalOperator(e, f)
    if op.shape != T.shape:
        raise ValueError(f"the weights imply shape {op.m}x{op.n} but the matrix is {m}x{n}")
    write_matrix(make_affine_set(op, s, r).project(T), args.output)
    return 0


def cmd_solve(args):
    """One run from --input, or from the start that run 0 of the same experiment draws."""
    spec = _spec_from_args(args, case=args.case, seed=args.seed, num_runs=1)
    affine_set, box = _build_problem(spec.s, spec.r, spec.case)
    if args.input:
        T0 = read_matrix(args.input)
        if T0.shape != affine_set.shape:
            raise ValueError(f"the start matrix is {T0.shape[0]}x{T0.shape[1]} "
                             f"but the targets imply {spec.m}x{spec.n}")
    else:
        T0 = draw_start(spec, 0)
    cfg = SolverConfig(algorithm=args.alg.upper(), max_iterations=args.iters,
                       feasibility_tol=args.tol)
    trace = run(affine_set, box, T0, cfg)
    for k, delta in enumerate(trace.deltas):
        print(f"{k} {_fmt(delta)}")
    if trace.converged:
        print(f"feasible at iteration {trace.first_feasible_iteration}")
        print(f"distance to start (spectral): {_fmt(spectral_norm(T0 - trace.first_feasible_matrix))}")
        sys.stdout.write(format_matrix(trace.first_feasible_matrix))
        return 0
    print(f"no feasible point within {cfg.max_iterations} iterations "
          f"(final delta {_fmt(trace.deltas[-1])})")
    return 1


def cmd_experiment(args):
    cfg = load_config(args.config)
    spec = ExperimentSpec.from_config(
        cfg,
        seed=args.seed,
        num_runs=args.runs,
        max_iterations=args.iters,
        feasibility_tol=args.tol,
        case=args.case,
    )
    records, summary = run_experiment(spec, jobs=args.jobs)
    out_dir = Path(args.out_dir)
    paths = emit_outputs(records, summary, out_dir)
    print(f"backend: {summary['backend']}")
    for name, count in summary["convergence_counts"].items():
        print(f"{name} converged: {count}/{spec.num_runs}")
    if "solutions" in summary:
        census = summary["solutions"]
        print(f"solutions found: {census['total_found']}, unique: {census['total_unique']}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rowcolproj",
        description="Projections onto matrices with prescribed scaled row/column sums, "
                    "and feasibility solvers over box and integer constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_proj = sub.add_parser("project", help="project a matrix file onto a constraint set")
    p_proj.add_argument("input", help="matrix file (first line 'm n', then m rows)")
    p_proj.add_argument("--spec", choices=["general", "unit-sums", "ghr", "bistochastic"],
                        default="unit-sums", help="which projection to apply")
    p_proj.add_argument("--row-sums", help="target row sums, comma or space separated")
    p_proj.add_argument("--col-sums", help="target column sums")
    p_proj.add_argument("--row-weights", help="row weight vector f (general/ghr)")
    p_proj.add_argument("--col-weights", help="column weight vector e (general/ghr)")
    p_proj.add_argument("--gamma", type=float, default=1.0, help="scale for the ghr spec")
    p_proj.add_argument("--config", help="JSON config supplying default targets")
    p_proj.add_argument("--output", help="write result here instead of stdout")
    p_proj.set_defaults(func=cmd_project)

    p_solve = sub.add_parser("solve", help="run one algorithm from a single start matrix")
    p_solve.add_argument("--input", help="start matrix file; omit to draw a random start")
    p_solve.add_argument("--alg", choices=["dr", "map", "dyk"], default="dr")
    p_solve.add_argument("--seed", type=int, default=1, help="seed for the random start")
    p_solve.add_argument("--iters", type=int, default=250)
    p_solve.add_argument("--tol", type=float, default=1e-9)
    p_solve.add_argument("--case", choices=["convex", "integer"], default="convex")
    p_solve.add_argument("--row-sums", help="target row sums (default: bundled 4x5 instance)")
    p_solve.add_argument("--col-sums", help="target column sums")
    p_solve.add_argument("--config", help="JSON config supplying default targets")
    p_solve.set_defaults(func=cmd_solve)

    p_exp = sub.add_parser("experiment", help="random-start batch over all three algorithms")
    p_exp.add_argument("--config", help="JSON experiment config (default: bundled 4x5 instance)")
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--runs", type=int)
    p_exp.add_argument("--iters", type=int)
    p_exp.add_argument("--tol", type=float)
    p_exp.add_argument("--case", choices=["convex", "integer"])
    p_exp.add_argument("--out-dir", default="experiment-out")
    p_exp.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    """Run one command; invalid targets, specs or configs exit with status 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"rowcolproj {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
