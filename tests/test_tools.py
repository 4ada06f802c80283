"""The comparison tools' verdict and helpers, without a worktree and without timing."""

import sys
from pathlib import Path

import pytest

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
