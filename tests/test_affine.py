import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowcolproj.affine import make_affine_set
from rowcolproj.linalg import frobenius_norm
from rowcolproj.operator import ScaledMarginalOperator, unit_operator
from rowcolproj.oracle import build_explicit, oracle_project

from _support import (
    DEMO_COL_SUMS,
    DEMO_ROW_SUMS,
    DEMO_SOLUTION,
    OPERATOR_MODES,
    ghr_project,
    khoury_project,
    nine_pass_pinv,
    random_operator,
    romero_project,
    same_bits,
)


def ghr_set(e, f, gamma):
    """The Glunt-Hayden-Reams set {X : X e = gamma e, X^T f = gamma f} as projector inputs."""
    return make_affine_set(ScaledMarginalOperator(e, f), gamma * np.asarray(e), gamma * np.asarray(f))


def bistochastic_set(n):
    """Khoury's set (all row and column sums 1) as projector inputs."""
    return make_affine_set(unit_operator(n, n), np.ones(n), np.ones(n))


def test_consistent_targets_have_zero_residual():
    afs = make_affine_set(unit_operator(4, 5), DEMO_ROW_SUMS, DEMO_COL_SUMS)
    assert afs.consistency_residual == 0.0
    assert np.array_equal(afs.projected_target.row_part, DEMO_ROW_SUMS)
    assert np.array_equal(afs.projected_target.col_part, DEMO_COL_SUMS)


def test_inconsistent_targets_are_range_projected():
    afs = make_affine_set(unit_operator(2, 2), [1.0, 1.0], [3.0, 3.0])
    assert np.allclose(afs.projected_target.row_part, [2.0, 2.0], atol=1e-14)
    assert np.allclose(afs.projected_target.col_part, [2.0, 2.0], atol=1e-14)
    assert afs.consistency_residual == pytest.approx(2.0, abs=1e-14)


@pytest.mark.filterwarnings("error")
def test_residual_of_targets_far_from_the_range_is_finite():
    # the squares of the 1e200 differences overflow; their norm does not
    afs = make_affine_set(unit_operator(2, 2), [1e200, 1e200], [-1e200, -1e200])
    assert np.array_equal(afs.projected_target.row_part, [0.0, 0.0])
    assert afs.consistency_residual == 2e200


def test_targets_are_read_only_copies():
    s, r = DEMO_ROW_SUMS.copy(), DEMO_COL_SUMS.copy()
    afs = make_affine_set(unit_operator(4, 5), s, r)
    T = np.arange(20.0).reshape(4, 5)
    before = afs.project(T)
    s[0], r[0] = 1000.0, -1000.0  # the caller edits its own arrays afterwards
    assert same_bits(afs.project(T), before)
    assert np.array_equal(afs.projected_target.row_part, DEMO_ROW_SUMS)
    for stored in (*afs.target, *afs.projected_target):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0.0


def test_zero_operator_targets_project_to_zero():
    op = ScaledMarginalOperator(np.zeros(3), np.zeros(2))
    afs = make_affine_set(op, [1.0, 2.0], [3.0, 4.0, 5.0])
    assert not np.concatenate(afs.projected_target).any()


def test_projected_target_recomputable():
    rng = np.random.default_rng(20)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 3, 4, mode)
        s = rng.normal(size=3)
        r = rng.normal(size=4)
        afs = make_affine_set(op, s, r)
        again = op.project_range(afs.target)
        assert np.max(np.abs(np.concatenate(afs.projected_target) - np.concatenate(again))) <= 1e-12


def test_project_fixes_demo_solution():
    afs = make_affine_set(unit_operator(4, 5), DEMO_ROW_SUMS, DEMO_COL_SUMS)
    out = afs.project(DEMO_SOLUTION)
    assert np.max(np.abs(out - DEMO_SOLUTION)) <= 1e-12


def test_project_zero_operator_returns_input():
    op = ScaledMarginalOperator(np.zeros(3), np.zeros(2))
    afs = make_affine_set(op, [1.0, 2.0], [3.0, 4.0, 5.0])
    T = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(afs.project(T), T)


def test_project_zero_matrix_demo_targets():
    # closed-form value: s_i/n + r_j/m - total/(m n), so entry (0,0) is 5.85
    afs = make_affine_set(unit_operator(4, 5), DEMO_ROW_SUMS, DEMO_COL_SUMS)
    out = afs.project(np.zeros((4, 5)))
    expected = DEMO_ROW_SUMS[:, None] / 5 + DEMO_COL_SUMS[None, :] / 4 - 131.0 / 20
    assert out[0, 0] == pytest.approx(5.85, abs=1e-13)
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_project_achieves_projected_targets():
    rng = np.random.default_rng(21)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 4, 5, mode)
        s = rng.normal(size=4)
        r = rng.normal(size=5)
        afs = make_affine_set(op, s, r)
        for _ in range(5):
            T = rng.normal(size=(4, 5)) * 10
            out = afs.project(T)
            pair = op.apply(out)
            dev = np.max(np.abs(np.concatenate(pair) - np.concatenate(afs.projected_target)))
            assert dev <= 1e-10 * (1 + frobenius_norm(T))


def test_project_matches_term_expansion():
    # composition through the pseudoinverse vs the expanded closed form
    rng = np.random.default_rng(22)
    for _ in range(50):
        op = random_operator(rng, 3, 4, "generic")
        s = rng.normal(size=3)
        r = rng.normal(size=4)
        T = rng.normal(size=(3, 4))
        afs = make_affine_set(op, s, r)
        e, f = op.e, op.f
        denom = op.e_norm_sq + op.f_norm_sq
        a = T @ e - s
        b = T.T @ f - r
        fe = np.outer(f, e)
        expansion = (
            T
            - (np.outer(a, e) - (float(f @ a) / denom) * fe) / op.e_norm_sq
            - (np.outer(f, b) - (float(e @ b) / denom) * fe) / op.f_norm_sq
        )
        assert np.max(np.abs(afs.project(T) - expansion)) <= 1e-13


def test_project_idempotent():
    rng = np.random.default_rng(23)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 4, 5, mode)
        afs = make_affine_set(op, rng.normal(size=4), rng.normal(size=5))
        for _ in range(5):
            once = afs.project(rng.normal(size=(4, 5)))
            twice = afs.project(once)
            assert np.max(np.abs(twice - once)) <= 1e-12


def test_project_residual_is_affine_orthogonal():
    # T - P(T) is orthogonal to differences of members of the constraint set
    rng = np.random.default_rng(24)
    op = random_operator(rng, 3, 5, "generic")
    afs = make_affine_set(op, rng.normal(size=3), rng.normal(size=5))
    for _ in range(20):
        T = rng.normal(size=(3, 5)) * 5
        S1 = afs.project(rng.normal(size=(3, 5)) * 5)
        S2 = afs.project(rng.normal(size=(3, 5)) * 5)
        inner = np.vdot(T - afs.project(T), S1 - S2)
        scale = (1 + frobenius_norm(T)) * (1 + frobenius_norm(S1 - S2))
        assert abs(inner) <= 1e-10 * scale


def test_project_residual_lies_in_adjoint_range():
    rng = np.random.default_rng(25)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 4, 4, mode)
        afs = make_affine_set(op, rng.normal(size=4), rng.normal(size=4))
        M = build_explicit(op)
        projector = np.linalg.pinv(M) @ M  # onto ran A*, the row space of M
        for _ in range(5):
            T = rng.normal(size=(4, 4))
            residual = (T - afs.project(T)).reshape(-1)
            assert np.max(np.abs(projector @ residual - residual)) <= 1e-12


def test_project_nonexpansive():
    rng = np.random.default_rng(26)
    op = random_operator(rng, 4, 5, "generic")
    afs = make_affine_set(op, rng.normal(size=4), rng.normal(size=5))
    for _ in range(30):
        T1 = rng.normal(size=(4, 5)) * 10
        T2 = rng.normal(size=(4, 5)) * 10
        lhs = frobenius_norm(afs.project(T1) - afs.project(T2))
        assert lhs <= frobenius_norm(T1 - T2) * (1 + 1e-12)


def test_project_matches_kkt_oracle():
    rng = np.random.default_rng(27)
    for mode in OPERATOR_MODES:
        for _ in range(10):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            op = random_operator(rng, m, n, mode)
            s = rng.normal(size=m) * 3
            r = rng.normal(size=n) * 3
            T = rng.normal(size=(m, n)) * 3
            afs = make_affine_set(op, s, r)
            assert np.max(np.abs(afs.project(T) - oracle_project(op, s, r, T))) <= 1e-9


def test_unit_sums_matches_general_projector():
    rng = np.random.default_rng(28)
    op = unit_operator(4, 5)
    for k in range(1000):
        if k % 2 == 0:
            # consistent targets from an integer matrix: sums match exactly
            W = rng.integers(-30, 30, size=(4, 5)).astype(float)
            s = W.sum(axis=1)
            r = W.sum(axis=0)
        else:
            s = rng.normal(size=4) * 10
            r = rng.normal(size=5) * 10
        T = rng.normal(size=(4, 5)) * 10
        general = make_affine_set(op, s, r).project(T)
        assert np.max(np.abs(romero_project(s, r, T) - general)) <= 1e-12


def test_unit_sums_fixes_feasible_matrix():
    out = make_affine_set(unit_operator(4, 5), DEMO_ROW_SUMS, DEMO_COL_SUMS).project(DEMO_SOLUTION)
    assert np.array_equal(out, DEMO_SOLUTION)
    assert np.array_equal(romero_project(DEMO_ROW_SUMS, DEMO_COL_SUMS, DEMO_SOLUTION), DEMO_SOLUTION)


def test_unit_sums_zero_matrix_demo_targets():
    # the Romero reference itself, against the closed-form value
    out = romero_project(DEMO_ROW_SUMS, DEMO_COL_SUMS, np.zeros((4, 5)))
    expected = DEMO_ROW_SUMS[:, None] / 5 + DEMO_COL_SUMS[None, :] / 4 - 131.0 / 20
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_eigenpair_fixes_scaled_identity():
    rng = np.random.default_rng(29)
    e = rng.normal(size=5)
    f = rng.normal(size=5)
    out = ghr_set(e, f, 2.5).project(2.5 * np.eye(5))
    assert np.max(np.abs(out - 2.5 * np.eye(5))) <= 1e-12


def test_eigenpair_matches_general_projector():
    rng = np.random.default_rng(30)
    for _ in range(50):
        e = rng.normal(size=5)
        f = rng.normal(size=5)
        gamma = float(rng.normal())
        T = rng.normal(size=(5, 5)) * 4
        assert np.max(np.abs(ghr_project(e, f, gamma, T) - ghr_set(e, f, gamma).project(T))) <= 1e-12


def test_eigenpair_reduces_to_bistochastic():
    rng = np.random.default_rng(31)
    e = np.ones(4)
    for _ in range(20):
        T = rng.normal(size=(4, 4)) * 3
        assert np.max(np.abs(ghr_set(e, e, 1.0).project(T) - khoury_project(T))) <= 1e-12


def test_eigenpair_rejects_bad_inputs():
    # zero weights are the formula's degenerate cases, not errors: with
    # f = 0 only X e = gamma e is left, and the KKT oracle agrees
    T = np.arange(4.0).reshape(2, 2)
    for e, f in (([1.0, 0.0], [0.0, 0.0]), ([0.0, 0.0], [1.0, 2.0]), ([0.0, 0.0], [0.0, 0.0])):
        afs = ghr_set(e, f, 3.0)
        oracle = oracle_project(afs.op, 3.0 * np.asarray(e), 3.0 * np.asarray(f), T)
        assert np.max(np.abs(afs.project(T) - oracle)) <= 1e-12
    with pytest.raises(ValueError):
        ghr_set([1.0, 0.0], [1.0, 1.0], 1.0).project(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ghr_set([1.0, 1.0], [1.0, 1.0], float("nan"))


def test_bistochastic_fixes_permutations():
    P = np.eye(4)[[2, 0, 3, 1]]
    assert np.max(np.abs(bistochastic_set(4).project(P) - P)) <= 1e-15


def test_bistochastic_two_by_two():
    # KKT solution of min ||X - T||^2 with all row/column sums 1:
    # with T = [[1,0],[0,0]] the unique minimizer is [[.75,.25],[.25,.75]]
    out = bistochastic_set(2).project(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.max(np.abs(out - np.array([[0.75, 0.25], [0.25, 0.75]]))) <= 1e-15


def test_bistochastic_matches_kkt_oracle():
    op = unit_operator(2, 2)
    T = np.array([[1.0, 0.0], [0.0, 0.0]])
    ones = np.ones(2)
    assert np.max(np.abs(bistochastic_set(2).project(T) - oracle_project(op, ones, ones, T))) <= 1e-12
    assert np.max(np.abs(khoury_project(T) - oracle_project(op, ones, ones, T))) <= 1e-12


def test_bistochastic_matches_unit_sums():
    rng = np.random.default_rng(33)
    ones = np.ones(6)
    for _ in range(30):
        T = rng.normal(size=(6, 6)) * 5
        lhs = khoury_project(T)
        assert np.max(np.abs(lhs - bistochastic_set(6).project(T))) <= 1e-12
        assert np.max(np.abs(lhs - romero_project(ones, ones, T))) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    shape=st.one_of(st.tuples(st.just(1), st.integers(1, 6)),
                    st.tuples(st.integers(1, 6), st.just(1)),
                    st.tuples(st.integers(2, 6), st.integers(2, 6))),
    mode=st.sampled_from(OPERATOR_MODES),
    consistent=st.booleans(),
    exponent=st.floats(-3.0, 9.0),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_project_properties_over_shapes_modes_and_magnitudes(shape, mode, consistent, exponent, seed):
    rng = np.random.default_rng(seed)
    magnitude = 10.0 ** exponent
    m, n = shape
    op = random_operator(rng, m, n, mode)
    if consistent:
        s, r = op.apply(rng.normal(size=shape) * magnitude)
    else:
        s, r = rng.normal(size=m) * magnitude, rng.normal(size=n) * magnitude
    afs = make_affine_set(op, s, r)
    T1, T2 = rng.normal(size=shape) * magnitude, rng.normal(size=shape) * magnitude
    P1, P2 = afs.project(T1), afs.project(T2)
    # every bound is relative to the size of what went in and came out
    scale = max(frobenius_norm(T1), frobenius_norm(P1))
    assert frobenius_norm(afs.project(P1) - P1) <= 1e-12 * scale
    assert frobenius_norm(P1 - P2) <= frobenius_norm(T1 - T2) + 1e-12 * (scale + frobenius_norm(P2))
    assert frobenius_norm(P1 - oracle_project(op, s, r, T1)) <= 1e-11 * scale


# finite entries up to 1e150 in magnitude, signed zeros drawn on purpose
UNIT_ENTRIES = st.one_of(st.floats(-1e150, 1e150), st.sampled_from([0.0, -0.0]))


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)), data=st.data())
def test_unit_projection_matches_textbook_terms_bit_for_bit(shape, data):
    B, m, n = shape
    draw = lambda count: np.array(data.draw(st.lists(UNIT_ENTRIES, min_size=count, max_size=count)))
    T = draw(B * m * n).reshape(shape)
    afs = make_affine_set(unit_operator(m, n), draw(m), draw(n))
    before = T.copy()
    row_part, col_part = afs.op._apply(T)
    s, r = afs.target
    expected = T - nine_pass_pinv(afs.op, row_part - s, col_part - r)
    # the engine's call on the whole stack, and the public projection of each matrix
    assert same_bits(T - afs.op._pinv(row_part - s, col_part - r), expected)
    for matrix, projected in zip(T, expected):
        assert same_bits(afs.project(matrix), projected)
    assert same_bits(T, before)
