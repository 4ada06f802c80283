"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.
"""

import time

import numpy as np

from rowcolproj.affine import make_affine_set
from rowcolproj.box import make_box
from rowcolproj.cli import main as cli_main
from rowcolproj.harness import ExperimentSpec, run_experiment
from rowcolproj.linalg import frobenius_norm
from rowcolproj.operator import ScaledMarginalOperator, unit_operator
from rowcolproj.oracle import build_explicit, oracle_project

from _support import (
    DEMO_COL_SUMS,
    DEMO_ROW_SUMS,
    DEMO_SOLUTION,
    OPERATOR_MODES,
    explicit_pinv,
    ghr_project,
    khoury_project,
    penrose_violation,
    random_operator,
    romero_project,
)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_pseudoinverse_penrose_conditions():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for k in range(200):
        mode = OPERATOR_MODES[k % len(OPERATOR_MODES)]
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        op = random_operator(rng, m, n, mode)
        worst = max(worst, penrose_violation(build_explicit(op), explicit_pinv(op)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, "Penrose conditions on 200 random configurations",
            ok, f"max violation {worst:.3e} (tol 1e-10), {elapsed:.2f}s (< 10s)")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for k in range(500):
        mode = OPERATOR_MODES[k % len(OPERATOR_MODES)]
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        op = random_operator(rng, m, n, mode)
        if k % 2 == 0:
            W = rng.normal(size=(m, n)) * 5
            pair = op.apply(W)
            s, r = pair.row_part, pair.col_part  # consistent by construction
        else:
            s = rng.normal(size=m) * 5
            r = rng.normal(size=n) * 5
        T = rng.normal(size=(m, n)) * 5
        afs = make_affine_set(op, s, r)
        dev = frobenius_norm(afs.project(T) - oracle_project(op, s, r, T))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(2, "closed-form projector vs KKT oracle on 500 instances",
            ok, f"max Frobenius deviation {worst:.3e} (tol 1e-9), {elapsed:.2f}s (< 30s)")


def test_criterion_3_specialized_formulas_match_general():
    # the classical formulas, kept in _support as reference expressions,
    # against the one projector fed their weights and targets
    rng = np.random.default_rng(103)
    worst = 0.0
    for k in range(200):
        # Romero: unit weights, consistent and inconsistent targets
        if k % 2 == 0:
            W = rng.integers(-20, 20, size=(4, 5)).astype(float)
            s, r = W.sum(axis=1), W.sum(axis=0)
        else:
            s, r = rng.normal(size=4) * 8, rng.normal(size=5) * 8
        T = rng.normal(size=(4, 5)) * 8
        general = make_affine_set(unit_operator(4, 5), s, r).project(T)
        worst = max(worst, np.max(np.abs(romero_project(s, r, T) - general)))
    for _ in range(200):
        # Glunt-Hayden-Reams: weights (e, f), targets (gamma e, gamma f)
        e = rng.normal(size=5)
        f = rng.normal(size=5)
        gamma = float(rng.normal())
        T = rng.normal(size=(5, 5)) * 4
        general = make_affine_set(ScaledMarginalOperator(e, f), gamma * e, gamma * f).project(T)
        worst = max(worst, np.max(np.abs(ghr_project(e, f, gamma, T) - general)))
    ones = np.ones(6)
    for _ in range(200):
        # Khoury: unit weights, all-ones targets
        T = rng.normal(size=(6, 6)) * 4
        general = make_affine_set(unit_operator(6, 6), ones, ones).project(T)
        worst = max(worst, np.max(np.abs(khoury_project(T) - general)))
    ok = worst <= 1e-12
    _report(3, "classical formulas vs general projector (3 x 200 instances)",
            ok, f"max deviation {worst:.3e} (tol 1e-12)")


def test_criterion_4_demo_solution_is_fixed_point():
    afs = make_affine_set(unit_operator(4, 5), DEMO_ROW_SUMS, DEMO_COL_SUMS)
    dev = np.max(np.abs(afs.project(DEMO_SOLUTION) - DEMO_SOLUTION))
    ok = dev <= 1e-12
    _report(4, "known 4x5 solution is a fixed point of the projector",
            ok, f"max entry deviation {dev:.3e} (tol 1e-12)")


def test_criterion_5_convex_experiment_trends():
    spec = ExperimentSpec(s=DEMO_ROW_SUMS, r=DEMO_COL_SUMS, case="convex",
                          num_runs=1000, seed=1, max_iterations=250,
                          feasibility_tol=1e-9)
    start = time.perf_counter()
    records, summary = run_experiment(spec)
    elapsed = time.perf_counter() - start
    conv = summary["convergence_counts"]
    a_ok = conv["DR"] == 1000 and conv["MAP"] == 1000
    dr_first = sum(v for k, v in summary["feasibility_order_counts"].items()
                   if k.startswith("DR"))
    b_ok = dr_first >= 900
    dyk_conv = conv["Dyk"]
    dyk_closest = sum(v for k, v in summary["distance_order_counts"].items()
                      if k.startswith("Dyk<"))
    c_ok = dyk_conv > 0 and dyk_closest >= 0.60 * dyk_conv
    ok = a_ok and b_ok and c_ok and elapsed < 120.0
    _report(5, "convex trends over 1000 seeded runs", ok,
            f"DR/MAP converged {conv['DR']}/{conv['MAP']} of 1000 (need 1000 each); "
            f"DR first or tied {dr_first} (need >= 900); "
            f"Dyk strictly closest {dyk_closest}/{dyk_conv} converged (need >= 60%); "
            f"{elapsed:.1f}s (< 120s)")


def test_criterion_6_integer_experiment_trends():
    spec = ExperimentSpec(s=DEMO_ROW_SUMS, r=DEMO_COL_SUMS, case="integer",
                          num_runs=1000, seed=1, max_iterations=250,
                          feasibility_tol=1e-9)
    start = time.perf_counter()
    records, summary = run_experiment(spec)
    elapsed = time.perf_counter() - start
    conv = summary["convergence_counts"]
    a_ok = conv["MAP"] <= 400
    b_ok = conv["DR"] >= 400
    bad = 0
    total = 0
    for rec in records:
        for res in rec.results.values():
            if res.solution is not None:
                total += 1
                F = res.solution
                if not (np.all(F >= 0)
                        and np.array_equal(F.sum(axis=1), DEMO_ROW_SUMS)
                        and np.array_equal(F.sum(axis=0), DEMO_COL_SUMS)):
                    bad += 1
    c_ok = bad == 0 and total > 0
    unique = summary["solutions"]["total_unique"]
    d_ok = unique > 10
    ok = a_ok and b_ok and c_ok and d_ok and elapsed < 120.0
    _report(6, "integer trends over 1000 seeded runs", ok,
            f"MAP converged {conv['MAP']} (need <= 400); DR converged {conv['DR']} "
            f"(need >= 400); invalid solutions {bad}/{total} (need 0); "
            f"distinct solutions {unique} (need > 10); {elapsed:.1f}s (< 120s)")


def test_criterion_7_invariant_suites():
    rng = np.random.default_rng(107)
    idem = orth = resid = selfadj = nonexp = 0.0
    for k in range(100):
        mode = OPERATOR_MODES[k % len(OPERATOR_MODES)]
        op = random_operator(rng, 4, 5, mode)
        s = rng.normal(size=4) * 5
        r = rng.normal(size=5) * 5
        afs = make_affine_set(op, s, r)
        T1 = rng.normal(size=(4, 5)) * 10
        T2 = rng.normal(size=(4, 5)) * 10
        P1 = afs.project(T1)
        idem = max(idem, np.max(np.abs(afs.project(P1) - P1)))
        nonexp = max(nonexp, frobenius_norm(P1 - afs.project(T2))
                     - frobenius_norm(T1 - T2))
        residual = T1 - P1
        M = build_explicit(op)
        in_range = (np.linalg.pinv(M) @ M @ residual.reshape(-1)).reshape(4, 5)  # onto ran A*
        resid = max(resid, np.max(np.abs(in_range - residual)))
        S1 = afs.project(rng.normal(size=(4, 5)) * 10)
        S2 = afs.project(rng.normal(size=(4, 5)) * 10)
        scale = (1 + frobenius_norm(T1)) * (1 + frobenius_norm(S1 - S2))
        orth = max(orth, abs(np.vdot(residual, S1 - S2)) / scale)
        p = rng.normal(size=9)
        q = rng.normal(size=9)
        from rowcolproj.operator import MarginalPair
        Pp = op.project_range(MarginalPair(p[:4], p[4:]))
        Pq = op.project_range(MarginalPair(q[:4], q[4:]))
        selfadj = max(selfadj, abs(float(np.concatenate(Pp) @ q) - float(p @ np.concatenate(Pq))))
    ok = (idem <= 1e-12 and orth <= 1e-10 and resid <= 1e-12
          and selfadj <= 1e-12 * 100 and nonexp <= 1e-12 * 100)
    _report(7, "invariant suites over 100 random instances each", ok,
            f"idempotence {idem:.2e} (1e-12); orthogonality {orth:.2e} (1e-10 scaled); "
            f"residual-in-range {resid:.2e} (1e-12); self-adjointness {selfadj:.2e}; "
            f"nonexpansiveness excess {nonexp:.2e}")


def test_criterion_8_experiment_determinism(tmp_path):
    flags = ["--runs", "60", "--seed", "42", "--iters", "250", "--tol", "1e-9"]
    for sub in ("first", "second"):
        rc = cli_main(["experiment", *flags, "--out-dir", str(tmp_path / sub)])
        assert rc == 0
    first = (tmp_path / "first" / "runs.csv").read_bytes()
    second = (tmp_path / "second" / "runs.csv").read_bytes()
    ok = first == second
    _report(8, "repeat experiment invocations byte-identical", ok,
            f"runs.csv {len(first)} bytes, identical={ok}")
