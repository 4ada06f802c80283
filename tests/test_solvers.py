import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rowcolproj.affine import AffineMarginalSet, make_affine_set
from rowcolproj.box import HyperBox, make_box
from rowcolproj.linalg import frobenius_norm
from rowcolproj import operator as rcp_operator
from rowcolproj.operator import OUTER_BUFSIZE, ScaledMarginalOperator, unit_operator
from rowcolproj.solvers import SolverConfig, _solve, _square_bound, run, run_batch

from _support import (
    DEMO_COL_SUMS,
    DEMO_ROW_SUMS,
    DEMO_SOLUTION,
    NUMPY_BUFSIZE,
    OPERATOR_MODES,
    assert_same_trace,
    in_box,
    random_operator,
    reference_run,
    same_bits,
)

ALGS = ("DR", "MAP", "DYK")


def demo_problem(integer=False):
    affine_set = make_affine_set(unit_operator(4, 5), DEMO_ROW_SUMS, DEMO_COL_SUMS)
    box = make_box(DEMO_ROW_SUMS, DEMO_COL_SUMS, integer_restricted=integer)
    return affine_set, box


def pinned_reference(affine_set, box, T0, cfg):
    """The reference run from T0, once the engine's trace is checked to be its bits."""
    reference = reference_run(affine_set, box, T0, cfg)
    assert_same_trace(run(affine_set, box, T0, cfg), reference.trace)
    return reference


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(algorithm="newton")
    with pytest.raises(ValueError):
        SolverConfig(algorithm="DR", max_iterations=0)
    for value in (-1.0, float("nan"), "1e-9", None, True, 10 ** 400):
        with pytest.raises(ValueError, match="feasibility_tol must be a finite nonnegative number"):
            SolverConfig(algorithm="DR", feasibility_tol=value)
    assert SolverConfig(algorithm="dyk").algorithm == "DYK"


# 8.736538239003422e-157 squares to a subnormal whose root exceeds it: the downward step
@pytest.mark.parametrize("tol", [0.0, 5e-324, 8.736538239003422e-157, 1e-9, 1e200])
def test_square_bound_is_the_largest_square_whose_root_is_within_the_tolerance(tol):
    q = _square_bound(tol)
    assert math.sqrt(q) <= tol
    assert q == sys.float_info.max or math.sqrt(math.nextafter(q, math.inf)) > tol


@pytest.mark.parametrize("value", [2.5, "3", 3.0, True])
def test_max_iterations_must_be_an_integer(value):
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        SolverConfig(algorithm="DR", max_iterations=value)
    cfg = SolverConfig(algorithm="DR", max_iterations=np.int64(3))
    assert type(cfg.max_iterations) is int and cfg.max_iterations == 3


def test_shape_mismatch_rejected():
    affine_set, box = demo_problem()
    with pytest.raises(ValueError):
        run(affine_set, box, np.zeros((4, 4)), SolverConfig(algorithm="DR"))


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("alg", ALGS)
def test_feasible_start_stops_at_iteration_zero(alg, integer):
    affine_set, box = demo_problem(integer)
    trace = run(affine_set, box, DEMO_SOLUTION, SolverConfig(algorithm=alg))
    assert trace.converged
    assert trace.first_feasible_iteration == 0
    assert trace.deltas[0] == 0.0
    assert np.array_equal(trace.first_feasible_matrix, DEMO_SOLUTION)


def test_dykstra_stationary_at_feasible_point():
    # one manual step: A_1 = P_A(T_0 + 0) = T_0, R_1 = 0, T_1 = P_B(T_0) = T_0
    affine_set, box = demo_problem()
    A1 = box.project(DEMO_SOLUTION + np.zeros((4, 5)))
    assert np.array_equal(A1, DEMO_SOLUTION)
    assert np.array_equal(affine_set.project(A1), DEMO_SOLUTION)


@pytest.mark.parametrize("alg", ALGS)
def test_traces_are_bit_identical(alg):
    affine_set, box = demo_problem()
    rng = np.random.default_rng(60)
    T0 = rng.uniform(-100, 100, size=(4, 5))
    cfg = SolverConfig(algorithm=alg)
    t1 = run(affine_set, box, T0, cfg)
    t2 = run(affine_set, box, T0, cfg)
    assert np.array_equal(t1.deltas, t2.deltas)
    assert t1.first_feasible_iteration == t2.first_feasible_iteration
    if t1.converged:
        assert np.array_equal(t1.first_feasible_matrix, t2.first_feasible_matrix)


@pytest.mark.parametrize("integer", [False, True])
def test_engine_table_rows_are_the_traces_with_their_final_delta_carried_forward(integer):
    # feasible, capped and (integer) cycled rows; the experiment's statistics read this table
    affine_set, box = demo_problem(integer)
    starts = np.random.default_rng(76).uniform(-100.0, 100.0, size=(20, 4, 5))
    starts[0] = DEMO_SOLUTION
    for alg in ALGS:
        table, traces = _solve(affine_set, box, starts, SolverConfig(algorithm=alg, max_iterations=60))
        assert table.shape == (20, 61)
        for row, trace in zip(table, traces):
            tail = np.full(61 - len(trace.deltas), trace.deltas[-1])
            assert same_bits(row, np.concatenate((trace.deltas, tail)))
            assert trace.deltas.base is None  # a copy, so a held trace does not pin its row


@pytest.mark.parametrize("alg", ALGS)
def test_each_iteration_makes_one_box_call_and_one_affine_call(alg, monkeypatch):
    # One box call on the state; one A call on the box stack (for DR with 2 P_A(T_k) - T_k
    # after it); one A^+ call on the B matrices that the update projects, so delta_k, from
    # the marginals alone, makes none. The last iteration only monitors: it makes no update.
    affine_set, box = demo_problem()
    starts = np.random.default_rng(75).uniform(-100.0, 100.0, size=(3, 4, 5))
    starts[0] = DEMO_SOLUTION  # feasible at iteration 0, so it leaves the stack after it
    calls = {"box": [], "apply": [], "pinv": []}

    def counting(name, method):
        # matrices in a box or A call, residual rows in an A^+ call, whatever the stack's layout
        trailing = 1 if name == "pinv" else 2

        def counted(self, first, *args, **kwargs):
            calls[name].append(math.prod(first.shape[:-trailing]))
            return method(self, first, *args, **kwargs)
        return counted

    monkeypatch.setattr(HyperBox, "_project", counting("box", HyperBox._project))
    for name in ("apply", "pinv"):
        method = getattr(ScaledMarginalOperator, f"_{name}")
        monkeypatch.setattr(ScaledMarginalOperator, f"_{name}", counting(name, method))
    traces = run_batch(affine_set, box, starts, SolverConfig(algorithm=alg, max_iterations=4))
    assert [len(trace.deltas) for trace in traces] == [1, 5, 5]
    state = 2 if alg == "DYK" else 1      # matrices per start in the state: (T_k, W_k) or T_k
    applied = 1 if alg == "MAP" else 2    # matrices per start that A takes
    assert calls == {"box": [3 * state] + [2 * state] * 4,
                     "apply": [3 * applied] + [2 * applied] * 4,
                     "pinv": [3] + [2] * 3}


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("alg", ALGS)
def test_the_callers_starts_keep_their_bits(alg, integer):
    # the engine writes every update into its own state stack, never into the starts
    affine_set, box = demo_problem(integer=integer)
    starts = np.random.default_rng(81).uniform(-100.0, 100.0, size=(3, 4, 5))
    starts[:, 0, 0] = -0.0
    before = starts.copy()
    cfg = SolverConfig(algorithm=alg, max_iterations=20)
    run(affine_set, box, starts[0], cfg)
    run_batch(affine_set, box, starts, cfg)
    _solve(affine_set, box, starts, cfg)
    assert same_bits(starts, before)


@pytest.mark.parametrize("alg", ALGS)
def test_deltas_recomputable_from_recorded_iterates(alg):
    affine_set, box = demo_problem()
    rng = np.random.default_rng(62)
    T0 = rng.uniform(-100, 100, size=(4, 5))
    reference = pinned_reference(affine_set, box, T0, SolverConfig(algorithm=alg, max_iterations=40))
    assert len(reference.iterates) == len(reference.trace.deltas)
    for Tk, delta in zip(reference.iterates, reference.trace.deltas):
        PA = box.project(Tk)
        residual = np.concatenate(affine_set.op.apply(PA)) - np.concatenate(affine_set.projected_target)
        assert np.sqrt(max(affine_set.op._pinv_norm_sq(residual), 0.0)) == delta
        # the full-size difference that delta_k stands for, within a few roundings of P_A
        gap = frobenius_norm(PA - affine_set.project(PA))
        assert abs(gap - delta) <= 4 * np.finfo(float).eps * frobenius_norm(PA)


def exact_gap(affine_set, P):
    """||A^+(A(P) - (s_bar, r_bar))||_F of the float64 inputs in rational arithmetic, by the
    textbook four-case pseudoinverse entry by entry; a 40-digit Decimal."""
    op = affine_set.op
    e, f = ([Fraction(v) for v in w] for w in (op.e, op.f))
    P = [[Fraction(v) for v in row] for row in P]
    s_bar, r_bar = ([Fraction(v) for v in t] for t in affine_set.projected_target)
    m, n = len(f), len(e)
    y = [sum(P[i][j] * e[j] for j in range(n)) - s_bar[i] for i in range(m)]
    x = [sum(P[i][j] * f[i] for i in range(m)) - r_bar[j] for j in range(n)]
    a, b = sum(v * v for v in e), sum(v * v for v in f)
    u, v = [Fraction(0)] * m, [Fraction(0)] * n
    if a and b:
        fy = sum(fi * yi for fi, yi in zip(f, y)) / (a + b)
        ex = sum(ej * xj for ej, xj in zip(e, x)) / (a + b)
        u = [(yi - fy * fi) / a for yi, fi in zip(y, f)]
        v = [(xj - ex * ej) / b for xj, ej in zip(x, e)]
    elif a:
        u = [yi / a for yi in y]
    elif b:
        v = [xj / b for xj in x]
    square = sum((u[i] * e[j] + f[i] * v[j]) ** 2 for i in range(m) for j in range(n))
    with localcontext() as ctx:
        ctx.prec = 40
        return (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()


def test_delta_is_as_accurate_as_the_full_size_difference():
    # delta_k from the marginal residual against an exact rational ||A^+(A(P) - b_bar)||,
    # next to the former ||P - P_B(P)||_F, at P = P_A(T_k) for 200 starts per algorithm and
    # case, each stopped after 1 to 29 iterations. Both err by about one rounding of delta
    # (below 1e-14 here), so which is closer at one point is a coin flip; the mean error over
    # each algorithm's 1000 points, and the largest over all 3000, must be no larger.
    rng = np.random.default_rng(90)
    cases = [(unit_operator(4, 5), DEMO_ROW_SUMS, DEMO_COL_SUMS),
             (unit_operator(4, 5), DEMO_ROW_SUMS + [1.0, 0.0, 0.0, 0.0], DEMO_COL_SUMS)]
    for mode in ("generic", "e_zero", "f_zero"):  # weighted targets, off the range of A
        op = random_operator(rng, 4, 5, mode)
        cases.append((op, DEMO_SOLUTION @ op.e + rng.normal(size=4),
                      DEMO_SOLUTION.T @ op.f + rng.normal(size=5)))
    box = make_box(DEMO_ROW_SUMS, DEMO_COL_SUMS)
    errors = {alg: ([], []) for alg in ALGS}
    for op, s, r in cases:
        affine_set = make_affine_set(op, s, r)
        for alg in ALGS:
            for _ in range(200):
                cfg = SolverConfig(algorithm=alg, max_iterations=int(rng.integers(1, 30)))
                reference = reference_run(affine_set, box, rng.uniform(-100, 100, (4, 5)), cfg)
                PA = box.project(reference.iterates[-1])
                exact = exact_gap(affine_set, PA)
                new, old = errors[alg]
                new.append(float(abs(Decimal(reference.trace.deltas[-1]) - exact)))
                old.append(float(abs(Decimal(float(frobenius_norm(PA - affine_set.project(PA))))
                                     - exact)))
    for alg, (new, old) in errors.items():
        assert np.mean(new) <= np.mean(old), alg
    assert max(max(new) for new, _ in errors.values()) <= max(max(old) for _, old in errors.values())
    assert max(max(new) for new, _ in errors.values()) <= 1e-14


def test_recorded_iterates_follow_map_recurrence():
    affine_set, box = demo_problem()
    rng = np.random.default_rng(63)
    T0 = rng.uniform(-100, 100, size=(4, 5))
    iterates = pinned_reference(affine_set, box, T0, SolverConfig(algorithm="MAP")).iterates
    for Tk, Tk1 in zip(iterates, iterates[1:]):
        assert np.array_equal(Tk1, affine_set.project(box.project(Tk)))


def test_recorded_iterates_follow_dr_recurrence():
    affine_set, box = demo_problem()
    rng = np.random.default_rng(64)
    T0 = rng.uniform(-100, 100, size=(4, 5))
    iterates = pinned_reference(affine_set, box, T0, SolverConfig(algorithm="DR")).iterates
    for Tk, Tk1 in zip(iterates, iterates[1:]):
        PA = box.project(Tk)
        assert np.array_equal(Tk1, Tk - PA + affine_set.project(2.0 * PA - Tk))


def test_dykstra_records_box_candidates():
    affine_set, box = demo_problem()
    rng = np.random.default_rng(65)
    T0 = rng.uniform(-100, 100, size=(4, 5))
    reference = pinned_reference(affine_set, box, T0, SolverConfig(algorithm="DYK"))
    assert len(reference.box_candidates) == len(reference.iterates) - 1 > 0
    for A in reference.box_candidates:
        assert in_box(box, A)


def test_map_shadow_sequence_fejer_monotone():
    affine_set, box = demo_problem()
    rng = np.random.default_rng(66)
    for _ in range(5):
        T0 = rng.uniform(-100, 100, size=(4, 5))
        reference = pinned_reference(affine_set, box, T0, SolverConfig(algorithm="MAP"))
        assert reference.trace.converged
        target = reference.trace.first_feasible_matrix
        dists = [frobenius_norm(box.project(Tk) - target) for Tk in reference.iterates]
        for d_now, d_next in zip(dists, dists[1:]):
            assert d_next <= d_now + 1e-9


@pytest.mark.parametrize("alg", ("DR", "MAP"))
def test_convex_convergence_random_starts(alg):
    affine_set, box = demo_problem()
    rng = np.random.default_rng(67)
    for _ in range(20):
        T0 = rng.uniform(-100, 100, size=(4, 5))
        trace = run(affine_set, box, T0, SolverConfig(algorithm=alg))
        assert trace.converged
        F = trace.first_feasible_matrix
        assert in_box(box, F)
        PA = box.project(F)
        resid = frobenius_norm(PA - affine_set.project(PA))
        assert resid <= 1e-9 * 1.01


def test_integer_feasible_matrices_are_exact():
    affine_set, box = demo_problem(integer=True)
    rng = np.random.default_rng(68)
    found = 0
    for _ in range(30):
        T0 = rng.uniform(-100, 100, size=(4, 5))
        for alg in ALGS:
            trace = run(affine_set, box, T0, SolverConfig(algorithm=alg))
            if trace.converged:
                found += 1
                F = trace.first_feasible_matrix
                assert np.array_equal(F, np.round(F))
                assert np.all(F >= 0)
                assert np.array_equal(F.sum(axis=1), DEMO_ROW_SUMS)
                assert np.array_equal(F.sum(axis=0), DEMO_COL_SUMS)
                assert trace.deltas[trace.first_feasible_iteration] == 0.0
    assert found > 0


def test_integer_sums_are_judged_against_the_range_projected_targets():
    # Inconsistent raw targets whose range projection is integral: every
    # found matrix meets (s_bar, r_bar) = (s - 1, r + 1), never (s, r).
    s = np.array([35.0, 45.0, 34.0, 26.0])
    affine_set = make_affine_set(unit_operator(4, 5), s, DEMO_COL_SUMS)
    s_bar, r_bar = affine_set.projected_target
    assert np.array_equal(s_bar, s - 1.0) and np.array_equal(r_bar, DEMO_COL_SUMS + 1.0)
    box = make_box(s_bar, r_bar, integer_restricted=True)
    found = 0
    for seed in range(4):
        T0 = np.random.default_rng(seed).uniform(-100.0, 100.0, size=(4, 5))
        for alg in ALGS:
            trace = pinned_reference(affine_set, box, T0, SolverConfig(algorithm=alg)).trace
            if trace.converged:
                found += 1
                F = trace.first_feasible_matrix
                assert np.array_equal(F.sum(axis=1), s_bar)
                assert np.array_equal(F.sum(axis=0), r_bar)
    assert found > 0


def test_dr_and_map_keep_no_dykstra_correction():
    # The state is (T,) for DR and MAP and (T, T + R) for Dykstra, so their peak
    # memory lies at least half a stack of starts below Dykstra's. Ten iterations
    # end before any start is feasible: the first feasible matrices that a run
    # returns, half a stack when half of the starts leave at once, are its output.
    m, n = 32, 64
    rng = np.random.default_rng(74)
    M = rng.integers(0, 10, size=(m, n)).astype(float)
    affine_set = make_affine_set(unit_operator(m, n), M.sum(axis=1), M.sum(axis=0))
    box = make_box(M.sum(axis=1), M.sum(axis=0))
    starts = rng.uniform(-100.0, 100.0, size=(16, m, n))
    peaks = {}
    for alg in ALGS:
        tracemalloc.start()
        try:
            run_batch(affine_set, box, starts, SolverConfig(algorithm=alg, max_iterations=10))
            _, peaks[alg] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks["DR"] <= peaks["DYK"] - starts.nbytes / 2
    assert peaks["MAP"] <= peaks["DYK"] - starts.nbytes / 2


@pytest.mark.parametrize("alg", ALGS)
def test_an_iteration_keeps_no_full_size_array_but_the_state_and_box_stacks(alg):
    # A^+ writes into a part of a stack whose value is no longer needed and the residuals
    # take m + n entries per start, so the peak is the state and box-output stacks (DR
    # 1 + 2 parts, MAP 1 + 1, Dykstra 2 + 2) and well under half a stack more
    m, n = 32, 64
    rng = np.random.default_rng(76)
    M = rng.integers(0, 10, size=(m, n)).astype(float)
    affine_set = make_affine_set(unit_operator(m, n), M.sum(axis=1), M.sum(axis=0))
    box = make_box(M.sum(axis=1), M.sum(axis=0))
    starts = rng.uniform(-100.0, 100.0, size=(64, m, n))
    tracemalloc.start()
    try:
        _, traces = _solve(affine_set, box, starts, SolverConfig(algorithm=alg, max_iterations=5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any(trace.converged for trace in traces)  # no start left the stack
    parts = {"DR": 1 + 2, "MAP": 1 + 1, "DYK": 2 + 2}[alg]
    assert peak <= (parts + 0.5) * starts.nbytes


def test_integer_map_mostly_stalls():
    affine_set, box = demo_problem(integer=True)
    rng = np.random.default_rng(69)
    converged = 0
    for _ in range(25):
        T0 = rng.uniform(-100, 100, size=(4, 5))
        trace = run(affine_set, box, T0, SolverConfig(algorithm="MAP"))
        converged += trace.converged
    assert converged <= 5


def test_integer_feasibility_compares_the_weighted_sums_with_the_targets():
    # weights 2: the targets are twice the plain sums, so the plain sums never meet them
    op = ScaledMarginalOperator(2 * np.ones(5), 2 * np.ones(4))
    affine_set = make_affine_set(op, DEMO_SOLUTION @ op.e, DEMO_SOLUTION.T @ op.f)
    box = make_box(DEMO_ROW_SUMS, DEMO_COL_SUMS, integer_restricted=True)
    for alg in ALGS:
        trace = pinned_reference(affine_set, box, DEMO_SOLUTION, SolverConfig(algorithm=alg)).trace
        assert trace.first_feasible_iteration == 0
        assert np.array_equal(trace.first_feasible_matrix, DEMO_SOLUTION)


def test_non_integral_targets_never_integer_feasible():
    # integer row sums cannot match fractional targets, so the run must
    # exhaust its iterations rather than claim feasibility
    s = np.array([2.5, 2.5])
    r = np.array([2.5, 2.5])
    affine_set = make_affine_set(unit_operator(2, 2), s, r)
    box = make_box(s, r, integer_restricted=True)
    trace = run(affine_set, box, np.ones((2, 2)), SolverConfig(algorithm="MAP", max_iterations=10))
    assert not trace.converged


def test_delta_sequence_length_bounded():
    affine_set, box = demo_problem()
    rng = np.random.default_rng(70)
    T0 = rng.uniform(-100, 100, size=(4, 5))
    cfg = SolverConfig(algorithm="DYK", max_iterations=7)
    trace = run(affine_set, box, T0, cfg)
    assert len(trace.deltas) <= cfg.max_iterations + 1


def test_degenerate_operator_runs_on_python_path():
    # row-sum-only constraints (f = 0)
    op = ScaledMarginalOperator(np.ones(3), np.zeros(2))
    s = np.array([3.0, 6.0])
    r = np.array([2.0, 3.0, 4.0])
    affine_set = make_affine_set(op, s, r)
    box = make_box(s, r)
    rng = np.random.default_rng(71)
    trace = run(affine_set, box, rng.uniform(-5, 5, size=(2, 3)), SolverConfig(algorithm="MAP"))
    assert trace.converged
    F = trace.first_feasible_matrix
    assert np.allclose(F.sum(axis=1), s, atol=1e-8)
    assert in_box(box, F)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    mode=st.sampled_from(OPERATOR_MODES),
    integer=st.booleans(),
    size=st.integers(1, 6),
    max_iterations=st.integers(1, 40),
    tol=st.sampled_from([1e-9, 1e-4, 1e-1]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_batch_runs_match_reference_and_single_runs_bit_for_bit(
        m, n, mode, integer, size, max_iterations, tol, seed):
    # The targets are the weighted sums of a nonnegative integer matrix in
    # the box, so the problem is feasible; an integer box takes integer weights.
    rng = np.random.default_rng(seed)
    M = rng.integers(0, 10, size=(m, n)).astype(float)
    op = random_operator(rng, m, n, mode, integer=integer)
    affine_set = make_affine_set(op, M @ op.e, M.T @ op.f)
    box = make_box(M.sum(axis=1), M.sum(axis=0), integer_restricted=integer)
    starts = rng.uniform(-20.0, 20.0, size=(size, m, n))
    for alg in ALGS:
        cfg = SolverConfig(algorithm=alg, max_iterations=max_iterations, feasibility_tol=tol)
        batch = run_batch(affine_set, box, starts, cfg)
        assert len(batch) == size
        for T0, trace in zip(starts, batch):
            reference = reference_run(affine_set, box, T0, cfg).trace
            assert_same_trace(trace, reference)
            assert_same_trace(run(affine_set, box, T0, cfg), reference)


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("mode", ["unit", "generic"])
def test_a_batch_under_the_small_buffer_matches_single_runs_under_the_default_one(
        mode, integer, monkeypatch):
    # rows of 128 entries: the batch forms A^+ under the small buffer, and the reference,
    # with no row long enough for it, under numpy's default
    m, n = 12, 128
    rng = np.random.default_rng(128 + integer)
    M = rng.integers(0, 10, size=(m, n)).astype(float)
    op = random_operator(rng, m, n, mode, integer=integer)
    affine_set = make_affine_set(op, M @ op.e, M.T @ op.f)
    box = make_box(M.sum(axis=1), M.sum(axis=0), integer_restricted=integer)
    starts = rng.uniform(-20.0, 20.0, size=(8, m, n))
    seen, pinv = set(), ScaledMarginalOperator._pinv
    monkeypatch.setattr(ScaledMarginalOperator, "_pinv", lambda *args, **kwargs:
                        seen.add(np.getbufsize()) or pinv(*args, **kwargs))
    for alg in ALGS:
        cfg = SolverConfig(algorithm=alg, max_iterations=30)
        seen.clear()
        batch = run_batch(affine_set, box, starts, cfg)
        assert OUTER_BUFSIZE in seen
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(rcp_operator, "OUTER_BUFSIZE", math.inf)
            for T0, trace in zip(starts, batch):
                assert_same_trace(trace, reference_run(affine_set, box, T0, cfg).trace)
        assert seen == {NUMPY_BUFSIZE}


def test_run_validates_its_start_once(monkeypatch):
    # one as_array call (through as_matrix), one finiteness pass, and the box check, then the engine
    from rowcolproj import linalg, solvers

    affine_set, box = demo_problem()
    calls, as_array = [], linalg.as_array

    def counted(a, *args, **kwargs):
        calls.append(a)
        return as_array(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "as_array", counted)
    monkeypatch.setattr(solvers, "as_array", counted)
    T0 = np.arange(20.0).reshape(4, 5)
    trace = run(affine_set, box, T0, SolverConfig(algorithm="DR"))
    assert len(calls) == 1 and calls[0] is T0
    assert_same_trace(trace, run_batch(affine_set, box, T0[None], SolverConfig(algorithm="DR"))[0])
    with pytest.raises(ValueError, match="box shape"):
        run(affine_set, make_box(np.ones(4), np.ones(4)), T0, SolverConfig(algorithm="DR"))


def test_run_batch_rejects_bad_stacks():
    affine_set, box = demo_problem()
    cfg = SolverConfig(algorithm="DR")
    for starts in (np.zeros((4, 5)), np.zeros((0, 4, 5)), np.zeros((2, 5, 4))):
        with pytest.raises(ValueError, match="stack"):
            run_batch(affine_set, box, starts, cfg)
    bad = np.zeros((2, 4, 5))
    bad[1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run_batch(affine_set, box, bad, cfg)
    with pytest.raises(ValueError, match="box shape"):
        run_batch(affine_set, make_box(np.ones(4), np.ones(4)), np.zeros((1, 4, 5)), cfg)


def test_integer_box_rejects_sums_beyond_exact_floats():
    limit = 2.0 ** 53
    cfg = SolverConfig(algorithm="MAP", max_iterations=1)

    def solve(s, r, box):
        affine_set = make_affine_set(unit_operator(len(s), len(r)), s, r)
        return run(affine_set, box, np.zeros(box.shape), cfg)

    # 2 * 1e17 > 2^53: integer row sums of such entries are not exact in float64
    huge = make_box([1e17, 1e17], [1e17, 1e17], integer_restricted=True)
    assert np.array_equal(huge.project(np.full((2, 2), 0.4)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="2\\^53"):
        solve([1e17, 1e17], [1e17, 1e17], huge)
    with pytest.raises(ValueError, match="2\\^53"):
        run_batch(make_affine_set(unit_operator(2, 2), [1e17, 1e17], [1e17, 1e17]), huge,
                  np.zeros((3, 2, 2)), cfg)
    s, r = [limit / 2, 1.0], [limit / 2, limit / 2]
    with pytest.raises(ValueError, match="2\\^53"):
        solve(s, r, make_box(s, r, integer_restricted=True))
    column = HyperBox(lower=-np.full((4, 1), limit / 4), upper=np.zeros((4, 1)),
                      integer_restricted=True)
    with pytest.raises(ValueError, match="2\\^53"):
        solve(np.zeros(4), [0.0], column)
    s, r = [limit / 2 - 1, 1.0], [limit / 2 - 1, limit / 2 - 1]
    solve(s, r, make_box(s, r, integer_restricted=True))
    solve([1e17, 1e17], [1e17, 1e17], make_box([1e17, 1e17], [1e17, 1e17]))  # no exact-sum claim


def test_integer_box_needs_integer_weights_and_exact_weighted_sums():
    cfg = SolverConfig(algorithm="DR", max_iterations=50)
    X = np.array([[1.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
    box = HyperBox(lower=np.zeros((2, 3)), upper=np.full((2, 3), 2.0), integer_restricted=True)
    # A(X) - s_bar is 1.1e-16 as computed, so with these weights "feasible" decides nothing
    op = ScaledMarginalOperator([0.1, 0.2, 0.3], [0.7, 0.1])
    with pytest.raises(ValueError, match="integer weights"):
        run(make_affine_set(op, *op.apply(X)), box, X, cfg)
    # the reach's unweighted row and column sums are at most 3e6, a weighted one 1e16 > 2^53
    wide = HyperBox(lower=np.zeros((2, 3)), upper=np.full((2, 3), 1e6), integer_restricted=True)
    for op in (ScaledMarginalOperator([1e10, 1.0, 1.0], [1.0, 1.0]),
               ScaledMarginalOperator([1.0, 1.0, 1.0], [1e10, 1.0])):
        affine_set = make_affine_set(op, *op.apply(X))
        with pytest.raises(ValueError, match="2\\^53"):
            run(affine_set, wide, X, cfg)
        with pytest.raises(ValueError, match="2\\^53"):
            run_batch(affine_set, wide, X[None], cfg)
        assert run(affine_set, box, X, cfg).first_feasible_iteration == 0  # exact sums


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    mode=st.sampled_from(OPERATOR_MODES),
    size=st.integers(1, 6),
    max_iterations=st.integers(1, 70),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_integer_runs_that_repeat_a_state_keep_full_length_traces(
        m, n, mode, size, max_iterations, seed):
    # An integer box takes integer weights, whose sums of an integer matrix are exact.
    rng = np.random.default_rng(seed)
    M = rng.integers(0, 10, size=(m, n)).astype(float)
    op = random_operator(rng, m, n, mode, integer=True)
    affine_set = make_affine_set(op, M @ op.e, M.T @ op.f)
    box = make_box(M.sum(axis=1), M.sum(axis=0), integer_restricted=True)
    starts = rng.uniform(-20.0, 20.0, size=(size, m, n))
    for alg in ALGS:
        cfg = SolverConfig(algorithm=alg, max_iterations=max_iterations)
        for T0, trace in zip(starts, run_batch(affine_set, box, starts, cfg)):
            reference = reference_run(affine_set, box, T0, cfg).trace
            assert_same_trace(trace, reference)
            assert_same_trace(run(affine_set, box, T0, cfg), reference)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 4),
    mode=st.sampled_from(OPERATOR_MODES),
    integer=st.booleans(),
    size=st.integers(1, 4),
    max_iterations=st.integers(1, 30),
    seed=st.integers(0, 2 ** 32 - 1),
)
# Dykstra must turn the -0.0 of this W_0 into +0.0, or its first feasible point differs
@example(m=1, n=3, mode="sparse", integer=False, size=1, max_iterations=1, seed=21006)
def test_signed_zeros_and_negative_bounds_match_the_reference_bit_for_bit(
        m, n, mode, integer, size, max_iterations, seed):
    # Bounds at or below zero, whose zeros carry either sign, and starts made of
    # -0.0, +0.0 and a few small values: the stacked steps must keep every zero's sign.
    rng = np.random.default_rng(seed)

    def signed_zeros(a):
        return np.where(a == 0.0, rng.choice([-0.0, 0.0], size=a.shape), a)

    depth = rng.integers(0, 4, size=(m, n))
    width = rng.integers(0, 4, size=(m, n))
    box = HyperBox(lower=signed_zeros(-depth.astype(float)),
                   upper=signed_zeros((width - depth).astype(float)), integer_restricted=integer)
    M = (rng.integers(0, width + 1) - depth).astype(float)  # a point of the box
    op = random_operator(rng, m, n, mode, integer=integer)
    affine_set = make_affine_set(op, M @ op.e, M.T @ op.f)
    starts = rng.choice([-0.0, 0.0, -0.5, 0.5, -1.0, 1.5, -3.0], size=(size, m, n))
    for alg in ALGS:
        cfg = SolverConfig(algorithm=alg, max_iterations=max_iterations)
        for T0, trace in zip(starts, run_batch(affine_set, box, starts, cfg)):
            reference = reference_run(affine_set, box, T0, cfg).trace
            assert_same_trace(trace, reference)
            assert_same_trace(run(affine_set, box, T0, cfg), reference)


def test_demo_integer_runs_take_the_cycle_exit_and_keep_their_traces(monkeypatch):
    # Integer MAP settles on fixed points and DR and Dykstra enter cycles on
    # the bundled instance. A start that leaves the stack at a repeated state
    # is projected fewer times than its full-length trace implies, so fewer
    # projected matrices than the reference traces imply show that the exit
    # was taken.
    affine_set, box = demo_problem(integer=True)
    starts = np.random.default_rng(72).uniform(-100.0, 100.0, size=(40, 4, 5))
    projected = [0]
    box_project = HyperBox._project

    def counting_project(self, T, out=None):
        projected[0] += math.prod(T.shape[:-2])  # matrices, whatever the stack's layout
        return box_project(self, T, out=out)

    monkeypatch.setattr(HyperBox, "_project", counting_project)
    for alg in ALGS:
        references = [reference_run(affine_set, box, T0, SolverConfig(algorithm=alg)).trace
                      for T0 in starts]
        full_length = sum(2 * len(ref.deltas) - 1 if alg == "DYK" else len(ref.deltas)
                          for ref in references)
        projected[0] = 0
        batch = run_batch(affine_set, box, starts, SolverConfig(algorithm=alg))
        assert projected[0] < full_length
        for trace, reference in zip(batch, references):
            assert_same_trace(trace, reference)


@pytest.mark.parametrize("floor", ["zero", "signed-zero"])
@pytest.mark.parametrize("alg", ALGS)
def test_256x384_runs_match_the_reference_bit_for_bit(alg, floor):
    # make_box's +0.0 lower bound clamps at a scalar 0.0, so the reference runs a copy of
    # the box that clamps at the (m, n) array; a -0.0 entry keeps the array in both
    m, n = 256, 384
    rng = np.random.default_rng(384)
    M = rng.integers(0, 10, size=(m, n)).astype(float)
    affine_set = make_affine_set(unit_operator(m, n), M.sum(axis=1), M.sum(axis=0))
    box = make_box(M.sum(axis=1), M.sum(axis=0))
    if floor == "signed-zero":
        lower = np.zeros((m, n))
        lower[3, 5] = -0.0
        box = HyperBox(lower=lower, upper=box.upper)
    array_box = HyperBox(lower=box.lower, upper=box.upper)
    object.__setattr__(array_box, "_floor", array_box.lower)
    assert (np.ndim(box._floor) == 0) == (floor == "zero")
    starts = rng.uniform(-5.0, 15.0, size=(2, m, n))
    starts[:, ::7, ::5] = rng.choice([-0.0, 0.0], size=starts[:, ::7, ::5].shape)
    cfg = SolverConfig(algorithm=alg, max_iterations=12)
    batch = run_batch(affine_set, box, starts, cfg)
    for T0, trace in zip(starts, batch):
        single = run(affine_set, box, T0, cfg)
        assert_same_trace(single, reference_run(affine_set, array_box, T0, cfg).trace)
        assert_same_trace(trace, single)
