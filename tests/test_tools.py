"""The comparison tools' verdict and helpers, without a worktree and without timing, and
the rule that keeps them on rowcolproj's public names."""

import ast
import hashlib
import re
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

from rowcolproj import harness
from rowcolproj.cli import load_config
from rowcolproj.harness import ExperimentSpec, draw_start
from rowcolproj.solvers import _solve

from _support import same_bits

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402
from golden import run_in_tree  # noqa: E402

ENGINE, PROJECTION, REGIME = "4x5-convex DR", "project-256x384 unit", "4x5-convex-1000 --jobs 1"


def process(**changed):
    """One process's cells; a cell named in ``changed`` gets its (data, feasible) instead."""
    cells = {ENGINE: ab.measured(0.1, b"deltas", [3, 7]),
             PROJECTION: ab.measured(0.2, b"projections"),
             REGIME: ab.measured(0.3, b"runs.csv")}
    for name, (data, feasible) in changed.items():
        cells[name] = ab.measured(0.1, data, feasible)
    return cells


def runs(last_change):
    return {"base": [process(), process()], "change": [process(), last_change]}


def test_identical_processes_pass():
    assert ab.verdict(runs(process()), new_schema=False) == []


@pytest.mark.parametrize("cell, data, feasible, compared_across_schemas", [
    (ENGINE, b"other deltas", [3, 7], False),
    (ENGINE, b"deltas", [3, 8], True),
    (PROJECTION, b"other projections", [], True),
    (REGIME, b"other runs.csv", [], True),
], ids=["delta-table", "feasible-iteration", "projection", "runs-csv"])
def test_a_differing_hash_or_feasible_iteration_fails(cell, data, feasible,
                                                      compared_across_schemas):
    changed = runs(process(**{cell: (data, feasible)}))
    assert ab.verdict(changed, new_schema=False) == [cell]
    assert ab.verdict(changed, new_schema=True) == ([cell] if compared_across_schemas else [])


def test_paired_ratios_give_the_median_and_quartiles():
    times = ab.paired([2.0] * 5, [2.0, 4.0, 6.0, 8.0, 10.0])
    assert times["ratio"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                              "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}


def test_run_in_tree_returns_the_last_line_and_raises_with_the_childs_error():
    assert run_in_tree(ROOT, "print('first'); print('last')") == "last"
    with pytest.raises(RuntimeError, match="ValueError: a distinct child error"):
        run_in_tree(ROOT, "raise ValueError('a distinct child error')")


def test_run_in_tree_refuses_a_rowcolproj_from_outside_the_tree(tmp_path):
    with pytest.raises(RuntimeError, match="outside"):
        run_in_tree(tmp_path, f"import sys; sys.path.append({str(ROOT / 'src')!r}); print(1)")


def perfbench_record(workload, value):
    """A perfbench record of ``workload``: its metrics read ``value``, its raw times 2 * value
    and its probe median value + 1."""
    return {"workload": workload, "seed": 31, "machine": {"cpu_model": "a test CPU", "nproc": 2},
            "metrics": {"solve_ms_mean": {"value": value, "unit": "ms"},
                        "project_us_p50": {"value": value, "unit": "us"}},
            "extra": {"rounds": 1, "solve_ms_mean_raw": 2 * value,
                      "project_us_p50_raw": 2 * value, "probe_us_p50": value + 1}}


def test_run_perfbench_returns_the_record_the_run_writes_with_its_totals(tmp_path):
    written = perfbench_record("demo4x5-convex", 1.5)
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    # writes its record where perfbench writes it, then prints a report and the totals line
    script.write_text(
        "import json, sys\n"
        "from pathlib import Path\n"
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "records = Path(__file__).resolve().parents[1] / '.perfbench_out' / 'records'\n"
        "records.mkdir(parents=True)\n"
        "name = f\"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json\"\n"
        f"(records / name).write_text(json.dumps({written!r}))\n"
        "print('a report line')\n"
        "print(json.dumps({'correct': False, 'attempted': 12, 'failed': 1, 'metrics': {}}))\n")
    # the whole record (metrics, extra, machine) and the totals, which it lacks
    assert ab.run_perfbench(tmp_path, "demo4x5-convex", 31) == {**written, "attempted": 12,
                                                                "failed": 1}


def test_perfbench_ratios_pair_metrics_raw_times_and_probe_medians():
    base = [perfbench_record("demo4x5-convex", 1.0), perfbench_record("large256x384-convex", 4.0),
            perfbench_record("demo4x5-convex", 2.0), perfbench_record("large256x384-convex", 4.0)]
    change = [perfbench_record("demo4x5-convex", 1.5), perfbench_record("large256x384-convex", 2.0),
              perfbench_record("demo4x5-convex", 1.0), perfbench_record("large256x384-convex", 8.0)]
    ratios = ab.perfbench_ratios(base, change)
    assert set(ratios) == {f"{workload} {name}"
                           for workload in ("demo4x5-convex", "large256x384-convex")
                           for name in ("solve_ms_mean", "project_us_p50", "solve_ms_mean_raw",
                                        "project_us_p50_raw", "probe_us_p50")}
    assert ratios["demo4x5-convex probe_us_p50"] == \
        {"unit": "us", **ab.paired([2.0, 3.0], [2.5, 2.0])}
    assert ratios["demo4x5-convex probe_us_p50"]["ratio"]["runs"] == [1.25, 2.0 / 3.0]
    assert ratios["large256x384-convex solve_ms_mean_raw"] == \
        {"unit": "ms", **ab.paired([8.0, 8.0], [4.0, 16.0])}
    assert ratios["large256x384-convex solve_ms_mean_raw"]["ratio"]["runs"] == [0.5, 2.0]
    assert ratios["demo4x5-convex project_us_p50"]["ratio"]["runs"] == [1.5, 0.5]


def private_names(source):
    """The rowcolproj names starting with an underscore (Python's __dunder__ names aside) that
    ``source`` imports or reads as attributes, also in the code of its string literals that
    parse, such as what run_in_tree runs in a child process."""
    found, trees = [], [ast.parse(source)]
    for tree in trees:  # grows by each string literal that parses
        nodes = list(ast.walk(tree))
        bound = set()  # names that hold rowcolproj or something imported from it
        for node in nodes:
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                with suppress(SyntaxError, ValueError):  # ValueError: a null byte
                    trees.append(ast.parse(node.value))
            elif isinstance(node, ast.Import):
                bound |= {alias.asname or "rowcolproj" for alias in node.names
                          if alias.name.split(".")[0] == "rowcolproj"}
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "rowcolproj"):
                found += [alias.name for alias in node.names]
                bound |= {alias.asname or alias.name for alias in node.names}
        for node in nodes:
            if isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in bound:
                    found.append(node.attr)
    return [name for name in found if name.startswith("_")
            and not (name.startswith("__") and name.endswith("__"))]


@pytest.mark.parametrize("path", sorted((ROOT / "tools").glob("*.py")), ids=lambda path: path.name)
def test_the_tools_call_no_private_rowcolproj_name(path):
    # tools/ab.py runs this tree's code on a base tree's package: a private signature
    # that a change may alter must not cross the trees
    assert private_names(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "from rowcolproj.solvers import _solve",
    "from rowcolproj.harness import ExperimentSpec as Spec, _build_problem as build",
    "from rowcolproj import harness\nharness._build_problem(spec)",
    "import rowcolproj.harness as h\nh._solve(a, b, T, cfg)",
    "import rowcolproj\nrowcolproj.solvers._check_box",
    "from rowcolproj.harness import ExperimentSpec\nExperimentSpec._private",
    "code = 'from rowcolproj.harness import _fmt; print(_fmt(1.0))'",
], ids=["import", "import-as", "module-attribute", "module-alias", "package-attribute",
        "class-attribute", "child-code"])
def test_the_scan_finds_a_private_name(source):
    assert private_names(source)


def test_the_scan_passes_public_dunder_and_other_packages_names():
    assert private_names("import rowcolproj, numpy\nfrom rowcolproj import run_batch\n"
                         "print(rowcolproj.__file__, numpy._NoValue, run_batch)") == []


@pytest.mark.parametrize("case", ["convex", "integer"])
def test_the_tools_unit_problem_is_the_experiments_bit_for_bit(case):
    spec = ExperimentSpec.from_config(load_config(), case=case)
    (affine_set, box), (expected_set, expected_box) = ab.problem(spec), harness._build_problem(spec)
    pairs = [(affine_set.op.e, expected_set.op.e), (affine_set.op.f, expected_set.op.f),
             *zip(affine_set.target, expected_set.target),
             *zip(affine_set.projected_target, expected_set.projected_target),
             (box.lower, expected_box.lower), (box.upper, expected_box.upper)]
    assert all(same_bits(got, expected) for got, expected in pairs)
    assert box.integer_restricted == expected_box.integer_restricted == (case == "integer")


def test_time_cells_gives_every_cell_a_hash_and_the_engine_cells_feasible_iterations(monkeypatch):
    kinds = {"4x5-integer": {"case": "integer", "num_runs": 4},
             "4x5-weighted": {"case": "convex", "num_runs": 2, "weighted": True, "single": True}}
    for name, value in (("KINDS", kinds), ("PROJECTIONS", 1), ("JOBS", (1,)), ("REPEATS", 1),
                        ("MIN_SECONDS", 0.0),
                        ("REGIMES", {"4x5-convex-4": {"case": "convex", "num_runs": 4}})):
        monkeypatch.setattr(ab, name, value)
    cells = ab.time_cells()
    starts = {f"{kind} {alg}": config["num_runs"] for kind, config in kinds.items()
              for alg in ("DR", "MAP", "DYK")}
    assert list(cells) == [*starts, "project-256x384 unit", "project-256x384 weighted",
                           "4x5-convex-4 --jobs 1"]
    for name, cell in cells.items():
        assert re.fullmatch("[0-9a-f]{64}", cell["sha256"])
        assert len(cell["feasible"]) == starts.get(name, 0)
    # the padded trace rows are the engine's delta table, with feasible and unfinished rows
    spec = ExperimentSpec.from_config(load_config(), **kinds["4x5-integer"])
    affine_set, box = harness._build_problem(spec)
    stack = np.stack([draw_start(spec, i) for i in range(spec.num_runs)])
    for alg in ("DR", "MAP", "DYK"):
        table, traces = _solve(affine_set, box, stack, spec.solver_config(alg))
        cell = cells[f"4x5-integer {alg}"]
        assert cell["sha256"] == hashlib.sha256(table.tobytes()).hexdigest()
        assert cell["feasible"] == [trace.first_feasible_iteration for trace in traces]
