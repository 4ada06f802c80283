import json
import subprocess
import sys

import numpy as np
import pytest

from rowcolproj import cli, harness
from rowcolproj.affine import make_affine_set
from rowcolproj.cli import format_matrix, load_config, main, read_matrix
from rowcolproj.harness import ExperimentSpec, _fmt, run_experiment
from rowcolproj.operator import ScaledMarginalOperator, unit_operator
from rowcolproj.oracle import oracle_project

from _support import (
    DEMO_COL_SUMS,
    DEMO_ROW_SUMS,
    DEMO_SOLUTION,
    ghr_project,
    khoury_project,
    romero_project,
)


def write_matrix_file(path, T):
    path.write_text(format_matrix(np.asarray(T, dtype=float)))
    return str(path)


def parse_matrix_text(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    m, n = (int(t) for t in lines[0].split())
    return np.array([[float(t) for t in ln.split()] for ln in lines[1:1 + m]])


def test_matrix_file_round_trip(tmp_path):
    T = np.array([[1.25, -3.5], [0.1, 7.0]])
    path = write_matrix_file(tmp_path / "t.txt", T)
    assert np.array_equal(read_matrix(path), T)


def test_read_matrix_errors(tmp_path):
    with pytest.raises(ValueError, match="cannot read matrix file"):
        read_matrix(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1 2\n3\n")
    with pytest.raises(ValueError, match="does not contain 2x2 entries"):
        read_matrix(bad)
    bad.write_text("2 2\n1 2\n3 nan\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_matrix(bad)


def test_project_unit_sums_cli(tmp_path, capsys):
    path = write_matrix_file(tmp_path / "zero.txt", np.zeros((4, 5)))
    rc = main(["project", path, "--row-sums", "32,43,33,23", "--col-sums", "24,18,37,27,25"])
    assert rc == 0
    out = parse_matrix_text(capsys.readouterr().out)
    expected = make_affine_set(unit_operator(4, 5), DEMO_ROW_SUMS, DEMO_COL_SUMS).project(np.zeros((4, 5)))
    assert np.max(np.abs(out - expected)) <= 1e-15
    assert np.max(np.abs(out - romero_project(DEMO_ROW_SUMS, DEMO_COL_SUMS, np.zeros((4, 5))))) <= 1e-12
    assert out[0, 0] == pytest.approx(5.85, abs=1e-14)


def test_project_defaults_to_bundled_targets(tmp_path, capsys):
    path = write_matrix_file(tmp_path / "demo.txt", DEMO_SOLUTION)
    rc = main(["project", path])
    assert rc == 0
    out = parse_matrix_text(capsys.readouterr().out)
    assert np.max(np.abs(out - DEMO_SOLUTION)) <= 1e-12


def test_project_general_spec_with_weights(tmp_path, capsys):
    path = write_matrix_file(tmp_path / "t.txt", np.ones((2, 2)))
    rc = main(["project", path, "--row-sums", "1,1", "--col-sums", "1,1",
               "--row-weights", "1,2", "--col-weights", "3,4"])
    assert rc == 0
    out = parse_matrix_text(capsys.readouterr().out)
    assert out.shape == (2, 2)
    rc = main(["project", path, "--row-sums", "1,1", "--col-sums", "1,1", "--row-weights", "1,2,3"])
    assert rc == 2
    assert capsys.readouterr().err.endswith("the weights imply shape 3x2 but the matrix is 2x2\n")


def test_project_bistochastic_cli(tmp_path, capsys):
    T = np.array([[1.0, 0.0], [0.0, 0.0]])
    path = write_matrix_file(tmp_path / "t.txt", T)
    # Khoury's bistochastic set: unit weights, all-ones targets
    rc = main(["project", path, "--row-sums", "1,1", "--col-sums", "1,1"])
    assert rc == 0
    out = parse_matrix_text(capsys.readouterr().out)
    assert np.max(np.abs(out - khoury_project(T))) <= 1e-15


def test_project_ghr_cli(tmp_path, capsys):
    path = write_matrix_file(tmp_path / "t.txt", 2.0 * np.eye(3))
    # Glunt-Hayden-Reams {X : X e = gamma e, X^T f = gamma f}: targets (gamma e, gamma f)
    rc = main(["project", path, "--row-sums", "2,2,2", "--col-sums", "2,2,2"])
    assert rc == 0
    out = parse_matrix_text(capsys.readouterr().out)
    assert np.max(np.abs(out - 2.0 * np.eye(3))) <= 1e-12
    T = np.arange(9.0).reshape(3, 3)
    path = write_matrix_file(tmp_path / "t.txt", T)
    rc = main(["project", path, "--row-sums=-0.25,-1.5,-0.5", "--col-sums=-0.5,-1,0.5",
               "--row-weights", "1,2,-1", "--col-weights", "0.5,3,1"])
    assert rc == 0
    out = parse_matrix_text(capsys.readouterr().out)
    e, f = np.array([0.5, 3.0, 1.0]), np.array([1.0, 2.0, -1.0])
    assert np.max(np.abs(out - ghr_project(e, f, -0.5, T))) <= 1e-12


@pytest.mark.parametrize("row_weights, col_weights", [("0,0,0", "1,2,3"), ("1,0,2", "0,0,0"),
                                                      ("0,0,0", "0,0,0")])
def test_project_ghr_zero_weights_match_oracle(row_weights, col_weights, tmp_path, capsys):
    # zero weights are the formula's degenerate cases: only the other constraint is left
    T = np.arange(9.0).reshape(3, 3) - 4.0
    path = write_matrix_file(tmp_path / "t.txt", T)
    e = np.array([float(v) for v in col_weights.split(",")])
    f = np.array([float(v) for v in row_weights.split(",")])
    rc = main(["project", path, "--row-weights", row_weights, "--col-weights", col_weights,
               f"--row-sums={','.join(map(str, (1.5 * e).tolist()))}",
               f"--col-sums={','.join(map(str, (1.5 * f).tolist()))}"])
    assert rc == 0
    out = parse_matrix_text(capsys.readouterr().out)
    expected = oracle_project(ScaledMarginalOperator(e, f), 1.5 * e, 1.5 * f, T)
    assert np.max(np.abs(out - expected)) <= 1e-12


@pytest.mark.parametrize("flags", [
    ["--row-weights", "1,2,3,4"],
    ["--col-weights", "1,2,1,2,1"],
    ["--row-sums", "1,2,3,4"],
    ["--col-sums", "1,1,1,1,1"],
    ["--config", "{config}"],
], ids=["row-weights", "col-weights", "row-sums", "col-sums", "config"])
def test_every_project_flag_is_read(flags, tmp_path, capsys):
    T = np.arange(20.0).reshape(4, 5)
    path = write_matrix_file(tmp_path / "t.txt", T)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"s": [5, 6, 7, 8], "r": [1, 2, 3, 4, 5]}))
    assert main(["project", path]) == 0
    plain = capsys.readouterr().out
    rc = main(["project", path, *(flag.format(config=config) for flag in flags)])
    assert rc == 0 and capsys.readouterr().out != plain


def test_project_output_file(tmp_path):
    path = write_matrix_file(tmp_path / "t.txt", np.zeros((4, 5)))
    out_path = tmp_path / "result.txt"
    rc = main(["project", path, "--output", str(out_path)])
    assert rc == 0
    assert out_path.exists()
    assert parse_matrix_text(out_path.read_text()).shape == (4, 5)


def test_project_shape_target_mismatch(tmp_path, capsys):
    path = write_matrix_file(tmp_path / "t.txt", np.zeros((2, 2)))
    assert main(["project", path, "--row-sums", "1,2,3", "--col-sums", "1,2"]) == 2
    assert capsys.readouterr().err == ("rowcolproj project: error: "
                                       "the targets imply shape 3x2 but the matrix is 2x2\n")


def test_solve_feasible_start_reports_iteration_zero(tmp_path, capsys):
    path = write_matrix_file(tmp_path / "demo.txt", DEMO_SOLUTION)
    rc = main(["solve", "--input", path, "--alg", "map"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "feasible at iteration 0" in out
    assert out.startswith("0 0\n") or "0 0" in out.splitlines()[0]


def test_solve_random_start_converges(capsys):
    rc = main(["solve", "--alg", "dr", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "feasible at iteration" in out


def test_solve_reports_failure_exit_code(capsys):
    # two Dykstra updates cannot close a 100-magnitude gap to 1e-9
    rc = main(["solve", "--alg", "dyk", "--seed", "5", "--iters", "2"])
    assert rc == 1
    assert "no feasible point" in capsys.readouterr().out


def test_experiment_writes_outputs(tmp_path, capsys):
    rc = main(["experiment", "--runs", "12", "--seed", "3",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    for name in ("runs.csv", "summary.json", "deltas.csv", "schema.json"):
        assert (tmp_path / "out" / name).exists()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["spec"]["num_runs"] == 12
    assert summary["spec"]["seed"] == 3


def test_experiment_integer_case(tmp_path):
    rc = main(["experiment", "--runs", "15", "--seed", "2", "--case", "integer",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "solutions" in summary
    runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    header = runs[0].split(",")
    assert "dr_solution" in header


def test_experiment_repeat_invocations_byte_identical(tmp_path):
    for sub in ("a", "b"):
        rc = main(["experiment", "--runs", "10", "--seed", "17",
                   "--out-dir", str(tmp_path / sub)])
        assert rc == 0
    assert (tmp_path / "a" / "runs.csv").read_bytes() == (tmp_path / "b" / "runs.csv").read_bytes()


def test_experiment_builds_and_checks_its_problem_once(tmp_path, monkeypatch):
    # run_experiment alone counts the workers and builds the problem; the
    # --out-dir rollback, not a second build, covers the input errors
    calls = {"_build_problem": 0, "_worker_count": 0}
    originals = {name: getattr(harness, name) for name in calls}

    def counted(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return wrapper

    for module in (harness, cli):  # every reference the package holds
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name))
    rc = main(["experiment", "--runs", "3", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert calls == {"_build_problem": 1, "_worker_count": 1}


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "rowcolproj.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "project" in proc.stdout and "experiment" in proc.stdout


@pytest.mark.parametrize("argv, message", [
    # inconsistent totals: the range-projected row targets are (-2.5, 7.5)
    (["solve", "--row-sums", "0,10", "--col-sums", "0,0"], "nonnegative"),
    (["solve", "--row-sums", "1e17,1e17", "--col-sums", "1e17,1e17", "--case", "integer"], "2^53"),
    (["solve", "--iters", "0"], "max_iterations"),
    (["experiment", "--iters", "0"], "max_iterations"),
    (["solve", "--row-sums", "1,x", "--col-sums", "1"], "row sums: could not convert string"),
    (["experiment", "--jobs", "0", "--out-dir", "{tmp}/out"], "jobs must be >= 1, got 0"),
    (["experiment", "--jobs", "-3", "--out-dir", "{tmp}/out"], "jobs must be >= 1, got -3"),
    # output paths that cannot be written
    (["experiment", "--runs", "2", "--out-dir", "{tmp}/file"], "File exists"),
    (["project", "{tmp}/t.txt", "--output", "{tmp}/missing/x.txt"], "No such file or directory"),
    # an empty vector or path is refused, not read as an unset flag
    (["project", "{tmp}/t.txt", "--row-weights", ""], "row weights must be a nonempty"),
    (["project", "{tmp}/t.txt", "--row-sums", ""], "row sums must be a nonempty"),
    (["solve", "--col-sums", ""], "column sums must be a nonempty"),
    (["solve", "--input", ""], "cannot read matrix file"),
    # a delta table of 8 PB per start cannot be allocated
    (["solve", "--iters", "1000000000000000"], "Unable to allocate"),
    (["experiment", "--iters", "1000000000000000"], "Unable to allocate"),
    # targets whose projection overflows float64
    (["project", "{tmp}/t.txt", "--row-sums", "1e308,1e308,1e308,1e308",
      "--col-sums", "1e308,1e308,1e308,1e308,1e308"],
     "the range-projected targets (s_bar, r_bar) have non-finite entries"),
    (["solve", "--row-sums", "1e308,1e308", "--col-sums", "1e308,1e308"],
     "the range-projected targets (s_bar, r_bar) have non-finite entries"),
    # a run count that range() cannot measure
    (["experiment", "--runs", "1" + "0" * 400, "--out-dir", "{tmp}/out"], "num_runs must be at most"),
    # a batch that cannot be allocated removes the --out-dir and the parents it made
    (["experiment", "--iters", "1000000000000000", "--out-dir", "{tmp}/out/run"], "Unable to allocate"),
    # an --out-dir whose last name is too long, after mkdir made its parents
    (["experiment", "--out-dir", "{tmp}/out/run/" + "x" * 300], "File name too long"),
    # weights whose squared norms overflow, and weights whose squared norm underflows to 0
    (["project", "{tmp}/t.txt", "--col-weights", "1e200,1e200,1e200,1e200,1e200"],
     "the weights are out of float64"),
    (["project", "{tmp}/t.txt", "--row-weights", "1e-200,1e-200,1e-200,1e-200"],
     "by one power of two"),
])
@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning on the way to the error either
def test_invalid_input_ends_with_one_line_error(argv, message, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    write_matrix_file(tmp_path / "t.txt", np.zeros((4, 5)))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if argv[0] == "experiment" and "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path)]
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"rowcolproj {argv[0]}: error: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()  # an input error leaves no --out-dir


def test_unmakeable_out_dir_fails_before_the_batch(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the batch ran before the output directory was made")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    (tmp_path / "file").write_text("")
    rc = main(["experiment", "--case", "integer", "--out-dir", str(tmp_path / "file" / "sub")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rowcolproj experiment: error: ")
    assert "Not a directory" in captured.err and captured.err.count("\n") == 1


def test_inconsistent_targets_error_names_the_range_projection(tmp_path, capsys):
    # both given vectors are nonnegative; their range projection is not
    rc = main(["solve", "--row-sums", "0,10", "--col-sums", "0,0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "range-projected targets have negative entries" in err
    assert "s_bar = (-2.5, 7.5), r_bar = (2.5, 2.5)" in err
    config = tmp_path / "inconsistent.json"
    # the failed batch removes the --out-dir and every parent it made
    for targets, out_dir in (({"s": [0, 10], "r": [0, 0], "num_runs": 3}, "out"),
                             ({"s": [0, 10], "r": [0, 0]}, "out/run")):
        config.write_text(json.dumps(targets))
        rc = main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / out_dir)])
        assert rc == 2
        assert "s_bar = (-2.5, 7.5)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run").exists() and not (tmp_path / "out").exists()


def test_too_large_integer_box_leaves_no_out_dir(tmp_path, capsys):
    # every row and column sum of this integer box could reach 2e16 > 2^53
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"s": [1e16, 1e16], "r": [1e16, 1e16], "case": "integer",
                                  "num_runs": 2}))
    rc = main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2^53" in captured.err and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alg, case", [
    pytest.param(alg, case, id=alg if case == "convex" else f"{alg}-{case}")
    for case in ("convex", "integer") for alg in ("dr", "map", "dyk")])
def test_solve_prints_the_distance_of_experiment_run_zero(alg, case, capsys):
    # every k delta_k line, the outcome and the distance (as runs.csv writes it) are run 0's
    spec = ExperimentSpec.from_config(load_config(), num_runs=2, seed=4, case=case)
    run0 = run_experiment(spec)[0][0].results[alg.upper()]
    rc = main(["solve", "--alg", alg, "--seed", "4", "--case", case])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:len(run0.deltas)] == [f"{k} {_fmt(d)}" for k, d in enumerate(run0.deltas)]
    outcome = lines[len(run0.deltas):]
    if run0.converged:
        assert rc == 0
        assert outcome[:2] == [f"feasible at iteration {run0.iterations}",
                               f"distance to start (spectral): {_fmt(run0.distance)}"]
    else:
        assert rc == 1
        assert outcome == [f"no feasible point within {spec.max_iterations} iterations "
                           f"(final delta {_fmt(run0.deltas[-1])})"]


@pytest.mark.parametrize("command, config, message", [
    ("experiment", {"s": [1, 1], "r": [1, 1], "foo": 1}, "unknown config key(s) 'foo'"),
    ("experiment", [1, 1], "must be a JSON object"),
    ("experiment", {"r": [1, 1]}, "the config has no s"),
    ("experiment", {"s": [1, 1], "r": [1, 1], "max_iterations": 2.5}, "max_iterations must be an integer"),
    ("experiment", {"s": [1, 1], "r": [1, 1], "num_runs": "3"}, "num_runs must be an integer"),
    ("experiment", {"s": [1, 1], "r": [1, 1], "distance_tie_tol": -1},
     "distance_tie_tol must be a finite nonnegative number"),
    ("experiment", {"s": [1, 1], "r": [1, 1], "feasibility_tol": "1e-9"},
     "feasibility_tol must be a finite nonnegative number"),
    ("experiment", {"s": {"a": 1}, "r": [1, 1]}, "s must hold numbers"),
    ("experiment", {"s": [1, 1], "r": [1, 1], "num_runs": True}, "num_runs must be an integer"),
    ("experiment", {"s": [1, 1], "r": [1, 1], "max_iterations": True},
     "max_iterations must be an integer"),
    ("experiment", {"s": [1, 1], "r": [1, 1], "feasibility_tol": True},
     "feasibility_tol must be a finite nonnegative number"),
    ("experiment", {"s": [True, 1], "r": [1, True]}, "s must hold numbers, not booleans"),
    ("experiment", {"s": "abc", "r": [1, 1]}, "s must hold numbers: could not convert"),
    ("experiment", {"s": [1, 1], "r": [1, 1], "init_low": -1e308, "init_high": 1e308},
     "init_high - init_low overflows float64"),
    # integers beyond float64
    ("experiment", {"s": [1, 1], "r": [1, 1], "init_low": -10 ** 400},
     "init_low must be a finite number"),
    ("solve", {"s": [1, 1], "r": [1, 1], "feasibility_tol": 10 ** 400},
     "feasibility_tol must be a finite nonnegative number"),
    # targets whose range projection overflows float64
    ("experiment", {"s": [1e308, 1e308], "r": [1e308, 1e308]},
     "the range-projected targets (s_bar, r_bar) have non-finite entries"),
    ("project", {"r": [1, 1]}, "the config has no s"),
    ("solve", {"r": [1, 1]}, "the config has no s"),
    # json.dumps cannot write an integer this long, so this config is the file's text
    ("experiment", '{"s": [1, 1], "r": [1, 1], "seed": ' + "1" * 5001 + "}",
     "config.json: Exceeds the limit (4300 digits)"),
], ids=["unknown-key", "json-list", "missing-s", "fractional-iterations", "string-runs",
        "negative-tie-tol", "string-tol", "non-numeric-s", "bool-runs", "bool-iterations",
        "bool-tol", "bool-targets", "string-s", "overflowing-init-width", "huge-int-init",
        "huge-int-tol", "overflowing-targets", "project-missing-s", "solve-missing-s",
        "overlong-int-text"])
@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning on the way to the error either
def test_bad_config_ends_with_one_line_error(command, config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    argv = [command, "--config", str(path)]
    if command == "experiment":
        argv += ["--out-dir", str(tmp_path / "out")]
    if command == "project":
        argv.insert(1, write_matrix_file(tmp_path / "t.txt", np.zeros((2, 2))))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"rowcolproj {command}: error: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--input", "{bad}"], "matrix file {bad} is malformed"),
    (["project", "{bad}"], "matrix file {bad} is malformed"),
    (["solve", "--input", "{short}"], "matrix file {short} does not contain 2x2 entries"),
    (["solve", "--input", "{start}"], "the start matrix is 2x2 but the targets imply 4x5"),
    (["solve", "--config", "{missing}"], "cannot load config {missing}"),
    (["experiment", "--config", "{missing}", "--out-dir", "{out}"], "cannot load config {missing}"),
    (["solve", "--config", "{bad}"], "cannot load config {bad}"),
], ids=["solve-malformed-matrix", "project-malformed-matrix", "short-matrix", "start-shape",
        "solve-missing-config", "experiment-missing-config", "config-not-json"])
def test_bad_files_end_with_one_line_error(argv, message, tmp_path, capsys):
    paths = {"bad": tmp_path / "bad.txt", "short": tmp_path / "short.txt",
             "start": tmp_path / "start.txt", "missing": tmp_path / "missing.json",
             "out": tmp_path / "out"}
    paths["bad"].write_text("2 x\n1 2\n3 4\n")
    paths["short"].write_text("2 2\n1 2\n3\n")
    write_matrix_file(paths["start"], np.ones((2, 2)))
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"rowcolproj {argv[0]}: error: {message.format(**paths)}")
    assert captured.err.count("\n") == 1


def test_solve_draws_its_start_from_the_config_init_interval(tmp_path, capsys):
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps({"s": DEMO_ROW_SUMS.tolist(), "r": DEMO_COL_SUMS.tolist(),
                                  "init_low": 0, "init_high": 10}))
    assert main(["experiment", "--config", str(config), "--runs", "1", "--seed", "4",
                 "--out-dir", str(tmp_path / "out")]) == 0
    header, row0 = (tmp_path / "out" / "runs.csv").read_text().splitlines()[:2]
    run0 = dict(zip(header.split(","), row0.split(",")))
    assert (run0["dr_iterations"], run0["dr_distance"]) == ("1", "11.671833060332743")
    capsys.readouterr()
    assert main(["solve", "--config", str(config), "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "feasible at iteration 1\n" in out
    assert "distance to start (spectral): 11.671833060332743\n" in out


@pytest.mark.parametrize("setting, solve_says", [
    ({"max_iterations": 3}, "no feasible point within 3 iterations"),
    ({"feasibility_tol": 5.0}, "feasible at iteration 10\n"),
    ({"seed": 7}, "distance to start (spectral): 192.11458627808707\n"),
    # run 0 of the integer case: DR cycles, only Dykstra is feasible (iteration 35)
    ({"case": "integer"}, "no feasible point within 250 iterations"),
])
def test_solve_takes_iterations_and_tolerance_from_the_config(setting, solve_says, tmp_path, capsys):
    # solve must be run 0 of experiment --runs 1 for every spec field the config
    # sets; with the bundled config's values, --seed 5 is feasible at iteration 11
    flags = [] if "seed" in setting else ["--seed", "5"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"s": DEMO_ROW_SUMS.tolist(), "r": DEMO_COL_SUMS.tolist(),
                                  **setting}))
    assert main(["experiment", "--config", str(config), "--runs", "1", *flags,
                 "--out-dir", str(tmp_path / "out")]) == 0
    header, row0 = (tmp_path / "out" / "runs.csv").read_text().splitlines()[:2]
    run0 = dict(zip(header.split(","), row0.split(",")))
    capsys.readouterr()
    rc = main(["solve", "--config", str(config), *flags])
    out = capsys.readouterr().out
    assert solve_says in out
    if run0["dr_converged"] == "true":
        assert rc == 0
        assert f"feasible at iteration {run0['dr_iterations']}\n" in out
        assert f"distance to start (spectral): {run0['dr_distance']}\n" in out
    else:
        assert rc == 1
    # the flags still override the config
    assert main(["solve", "--config", str(config), "--seed", "5", "--case", "convex",
                 "--iters", "250", "--tol", "1e-9"]) == 0
    assert "feasible at iteration 11\n" in capsys.readouterr().out
