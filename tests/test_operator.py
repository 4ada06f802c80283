import numpy as np
import pytest

from rowcolproj.linalg import frobenius_norm
from rowcolproj.operator import MarginalPair, ScaledMarginalOperator, unit_operator
from rowcolproj.oracle import build_explicit

from _support import (
    DEMO_COL_SUMS,
    DEMO_ROW_SUMS,
    DEMO_SOLUTION,
    OPERATOR_MODES,
    explicit_pinv,
    nine_pass_pinv,
    penrose_violation,
    random_operator,
    same_bits,
)


def test_construction_caches_norms_and_flags():
    op = ScaledMarginalOperator([3.0, 4.0], [1.0, 2.0, 2.0])
    assert op.e_norm_sq == 25.0
    assert op.f_norm_sq == 9.0
    assert not op.e_is_zero and not op.f_is_zero
    assert not op.unit
    assert op.shape == (3, 2)
    assert unit_operator(3, 2).unit


def test_degeneracy_is_exact_zero_not_tolerance():
    op = ScaledMarginalOperator([1e-300, 0.0], [0.0, 0.0])
    assert not op.e_is_zero
    assert op.f_is_zero


def test_weights_are_read_only():
    op = unit_operator(2, 2)
    with pytest.raises(ValueError):
        op.e[0] = 5.0


def test_apply_demo_matrix():
    pair = unit_operator(4, 5).apply(DEMO_SOLUTION)
    assert np.array_equal(pair.row_part, DEMO_ROW_SUMS)
    assert np.array_equal(pair.col_part, DEMO_COL_SUMS)


def test_apply_zero_weights():
    op = ScaledMarginalOperator(np.zeros(3), np.zeros(2))
    pair = op.apply(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(pair.row_part, np.zeros(2))
    assert np.array_equal(pair.col_part, np.zeros(3))


def test_apply_hand_expansion():
    op = ScaledMarginalOperator([1.0, 2.0], [1.0])
    pair = op.apply(np.array([[3.0, 4.0]]))
    assert np.array_equal(pair.row_part, [11.0])
    assert np.array_equal(pair.col_part, [3.0, 4.0])


def test_apply_shape_mismatch():
    with pytest.raises(ValueError):
        unit_operator(2, 2).apply(np.ones((2, 3)))


def test_adjoint_identity_random():
    # <A(T), (y,x)> = <T, A*(y,x)>, with A* the transpose of the explicit matrix
    rng = np.random.default_rng(10)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 3, 4, mode)
        adjoint = build_explicit(op).T
        for _ in range(10):
            T = rng.normal(size=(3, 4))
            y = rng.normal(size=3)
            x = rng.normal(size=4)
            pair = op.apply(T)
            lhs = float(pair.row_part @ y) + float(pair.col_part @ x)
            rhs = float(T.reshape(-1) @ (adjoint @ np.concatenate([y, x])))
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_pinv_zero_operator_is_zero():
    op = ScaledMarginalOperator(np.zeros(3), np.zeros(2))
    out = op.pinv_apply(MarginalPair(np.array([4.0, 5.0]), np.array([1.0, 2.0, 3.0])))
    assert np.array_equal(out, np.zeros((2, 3)))


def test_pinv_e_zero_case():
    op = ScaledMarginalOperator(np.zeros(2), np.array([1.0, 0.0]))
    out = op.pinv_apply(MarginalPair(np.array([9.0, -3.0]), np.array([5.0, 7.0])))
    assert np.array_equal(out, [[5.0, 7.0], [0.0, 0.0]])


def test_pinv_f_zero_case():
    op = ScaledMarginalOperator(np.array([1.0, 0.0]), np.zeros(2))
    out = op.pinv_apply(MarginalPair(np.array([5.0, 7.0]), np.array([9.0, -3.0])))
    assert np.array_equal(out, [[5.0, 0.0], [7.0, 0.0]])


@pytest.mark.parametrize("mode", OPERATOR_MODES)
def test_penrose_conditions(mode):
    rng = np.random.default_rng(11)
    for _ in range(8):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        op = random_operator(rng, m, n, mode)
        assert penrose_violation(build_explicit(op), explicit_pinv(op)) <= 1e-10


def test_penrose_unit_weights_4x5():
    op = unit_operator(4, 5)
    assert penrose_violation(build_explicit(op), explicit_pinv(op)) <= 1e-10


@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (4, 1), (4, 5), (32, 48), (256, 384)])
def test_pinv_matches_textbook_terms_bit_for_bit_for_unit_weights(m, n):
    op = unit_operator(m, n)
    rng = np.random.default_rng(m * 1000 + n)
    y, x = rng.uniform(-100.0, 100.0, size=(3, m)), rng.uniform(-100.0, 100.0, size=(3, n))
    assert same_bits(op._pinv(y, x), nine_pass_pinv(op, y, x))
    assert same_bits(op.pinv_apply(MarginalPair(y[0], x[0])), nine_pass_pinv(op, y[0], x[0]))


@pytest.mark.parametrize("m, n", [(1, 1), (4, 5), (32, 48)])
@pytest.mark.parametrize("side", ["e", "f"])
def test_weights_one_ulp_from_unit_take_the_rank_two_expression(m, n, side):
    rng = np.random.default_rng(m * 1000 + n)
    e, f = np.ones(n), np.ones(m)
    weights = e if side == "e" else f
    weights[rng.integers(len(weights))] = np.nextafter(1.0, 2.0)
    op = ScaledMarginalOperator(e, f)
    assert op.unit is False
    y, x = rng.uniform(-100.0, 100.0, size=(3, m)), rng.uniform(-100.0, 100.0, size=(3, n))
    denom = op.e_norm_sq + op.f_norm_sq
    u = (y - (np.vecdot(y, f) / denom)[:, None] * f) / op.e_norm_sq
    v = (x - (np.vecdot(x, e) / denom)[:, None] * e) / op.f_norm_sq
    out = op._pinv(y, x)
    assert same_bits(out, u[:, :, None] * e + f[:, None] * v[:, None, :])
    assert not same_bits(out, u[:, :, None] + v[:, None, :])


def test_project_range_annihilates_orthogonal_direction():
    rng = np.random.default_rng(12)
    op = random_operator(rng, 3, 4, "generic")
    out = op.project_range(MarginalPair(op.f, -op.e))
    assert frobenius_norm(out.concat()[None, :]) <= 1e-12


def test_project_range_fixes_consistent_pair():
    op = unit_operator(4, 5)
    out = op.project_range(MarginalPair(DEMO_ROW_SUMS, DEMO_COL_SUMS))
    assert np.array_equal(out.row_part, DEMO_ROW_SUMS)
    assert np.array_equal(out.col_part, DEMO_COL_SUMS)


def test_project_range_degenerate_cases():
    y = np.array([1.0, 2.0])
    x = np.array([3.0, 4.0, 5.0])
    op = ScaledMarginalOperator(np.zeros(3), np.ones(2))
    out = op.project_range(MarginalPair(y, x))
    assert np.array_equal(out.row_part, np.zeros(2))
    assert np.array_equal(out.col_part, x)
    op = ScaledMarginalOperator(np.ones(3), np.zeros(2))
    out = op.project_range(MarginalPair(y, x))
    assert np.array_equal(out.row_part, y)
    assert np.array_equal(out.col_part, np.zeros(3))
    op = ScaledMarginalOperator(np.zeros(3), np.zeros(2))
    out = op.project_range(MarginalPair(y, x))
    assert not out.concat().any()


def test_project_range_idempotent_and_self_adjoint():
    rng = np.random.default_rng(13)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 3, 4, mode)
        for _ in range(10):
            p = MarginalPair(rng.normal(size=3), rng.normal(size=4))
            q = MarginalPair(rng.normal(size=3), rng.normal(size=4))
            Pp = op.project_range(p)
            PPp = op.project_range(Pp)
            assert np.max(np.abs(PPp.concat() - Pp.concat())) <= 1e-12
            # self-adjoint: <P p, q> = <p, P q>
            lhs = float(Pp.concat() @ q.concat())
            rhs = float(p.concat() @ op.project_range(q).concat())
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_project_range_after_apply_is_identity():
    rng = np.random.default_rng(14)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 4, 3, mode)
        for _ in range(5):
            pair = op.apply(rng.normal(size=(4, 3)))
            out = op.project_range(pair)
            assert np.max(np.abs(out.concat() - pair.concat())) <= 1e-12


def test_project_range_adjoint_zero_operator():
    # A^+ A, the projection onto ran A*, of the zero operator is zero
    op = ScaledMarginalOperator(np.zeros(3), np.zeros(2))
    assert np.array_equal(op.pinv_apply(op.apply(np.ones((2, 3)))), np.zeros((2, 3)))


def test_project_range_adjoint_fixes_range_form():
    # A^+ A fixes every member y e^T + f x^T of ran A*
    rng = np.random.default_rng(15)
    op = random_operator(rng, 3, 4, "generic")
    T = np.outer(rng.normal(size=3), op.e) + np.outer(op.f, rng.normal(size=4))
    out = op.pinv_apply(op.apply(T))
    assert np.max(np.abs(out - T)) <= 1e-12


def test_project_range_adjoint_is_pinv_after_apply():
    # A^+ A against the row-space projector of the explicit matrix, from LAPACK's SVD
    rng = np.random.default_rng(16)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 4, 5, mode)
        M = build_explicit(op)
        projector = np.linalg.pinv(M) @ M
        for _ in range(5):
            T = rng.normal(size=(4, 5))
            direct = op.pinv_apply(op.apply(T))
            assert np.max(np.abs(direct.reshape(-1) - projector @ T.reshape(-1))) <= 1e-12


def test_norm_attained_on_rank_one():
    # the operator norm sqrt(|e|^2 + |f|^2), the explicit matrix's largest
    # singular value, is attained at f e^T
    rng = np.random.default_rng(17)
    op = random_operator(rng, 4, 5, "generic")
    norm = np.linalg.norm(build_explicit(op), 2)
    assert norm == pytest.approx(np.sqrt(op.e_norm_sq + op.f_norm_sq), rel=1e-12)
    T = np.outer(op.f, op.e)
    pair = op.apply(T)
    ratio = float(np.sqrt(pair.row_part @ pair.row_part + pair.col_part @ pair.col_part))
    ratio /= frobenius_norm(T)
    assert ratio == pytest.approx(norm, abs=1e-12 * norm)
