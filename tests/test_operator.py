import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rowcolproj import operator as rcp_operator
from rowcolproj.affine import make_affine_set
from rowcolproj.linalg import frobenius_norm
from rowcolproj.operator import OUTER_BUFSIZE, MarginalPair, ScaledMarginalOperator, unit_operator
from rowcolproj.oracle import build_explicit

from _support import (
    DEMO_COL_SUMS,
    DEMO_ROW_SUMS,
    DEMO_SOLUTION,
    NUMPY_BUFSIZE,
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
    op = ScaledMarginalOperator([1e-150, 0.0], [0.0, 0.0])
    assert not op.e_is_zero
    assert op.f_is_zero


@pytest.mark.parametrize("e, f", [
    (np.full(5, 1e154), np.ones(4)),    # |e|^2 = 5e308 overflows
    (np.full(5, 1e153), np.full(4, 1e154)),  # |f|^2 = 4e308 overflows
    (np.array([1e154]), np.zeros(1)),   # |e|^2 = 1e308 is finite, 2|e|^2 is not
])
def test_weights_whose_norm_sums_overflow_are_refused(e, f):
    # a projection built from an infinite norm misses its targets; refused before any numpy warning
    with pytest.raises(ValueError, match="the weights are out of float64 range"):
        ScaledMarginalOperator(e, f)


def test_largest_accepted_weights_give_a_finite_projection():
    e, f = np.full(5, 1e76), np.full(4, 1e76)   # |f|^2 (2|e|^2 + |f|^2) = 5.6e305
    op = ScaledMarginalOperator(e, f)
    assert np.isfinite(op.pinv_apply(MarginalPair(np.ones(4), np.ones(5)))).all()
    assert all(np.isfinite(factor).all() for factor in op._norm_factors)


@pytest.mark.filterwarnings("error")
def test_weights_whose_norm_factor_product_overflows_are_refused():
    # |f|^2 (2|e|^2 + |f|^2) = 5.6e309 overflows, and 2 over it rounds to 0 rather than
    # overflowing: that factor would be 0, and _pinv_norm_sq wrong by percents
    with pytest.raises(ValueError, match="scale e, f, s and r by one power of two"):
        ScaledMarginalOperator(np.full(5, 1e77), np.full(4, 1e77))


@pytest.mark.parametrize("e, f", [
    (np.ones(5), np.full(4, 1e-200)),   # |f|^2 underflows to 0, so A^+ divides by 0
    (np.full(5, 1e-200), np.zeros(4)),  # the same on the degenerate branch
    (np.full(5, 1e-78), np.full(4, 1e-78)),  # 2/(|f|^2 (2|e|^2 + |f|^2)) = 3.6e310
    (np.full(5, 1e-155), np.ones(4)),   # (2|e|^2 + |f|^2)/|e|^2 = 8e309
    # a squared norm below 2^-1022 keeps few significant bits, and A^+ loses them
    (np.full(5, 1e-157), np.full(4, 1e-3)),  # |e|^2 = 5e-314: A^+ was off by up to 2.9e-11
    (np.zeros(5), np.full(4, 1e-161)),  # |f|^2 = 4e-322 on the degenerate branches
    (np.full(5, 1e-161), np.zeros(4)),
])
@pytest.mark.filterwarnings("error")  # refused before any numpy warning
def test_weights_whose_norm_factors_underflow_or_overflow_are_refused(e, f):
    with pytest.raises(ValueError, match="the weights are out of float64 range"):
        ScaledMarginalOperator(e, f)


# the smallest weights of each kind accepted at 4x5; each nonzero squared norm is 4e-308 or more
SMALLEST_WEIGHTS = [
    (np.full(5, 1e-77), np.full(4, 1e-77)),
    (np.full(5, 1e-154), np.ones(4)),
    (np.ones(5), np.full(4, 1e-154)),
    (np.zeros(5), np.full(4, 1e-154)),
    (np.full(5, 1e-154), np.zeros(4)),
]


@pytest.mark.parametrize("case", list(OPERATOR_MODES) + list(range(len(SMALLEST_WEIGHTS))))
@pytest.mark.filterwarnings("error")
def test_pinv_norm_sq_of_a_zero_residual_is_exactly_zero(case):
    # the integer engine stops on a zero residual alone; its delta_k must then be exactly 0
    if isinstance(case, str):
        op = random_operator(np.random.default_rng(5), 4, 5, case)
    else:
        op = ScaledMarginalOperator(*SMALLEST_WEIGHTS[case])
    zero = np.zeros(9)
    zero[::2] = -0.0
    stack = np.stack([zero, -zero, np.zeros(9)])
    assert same_bits(op._pinv_norm_sq(zero), np.float64(0.0))
    assert same_bits(op._pinv_norm_sq(stack), np.zeros(3))


WEIGHT_KINDS = ("zero", "constant", "mixed", "random", "partly_zero")


def weight_vector(rng, kind, size, exponent):
    """A weight vector of one kind at magnitude 10**exponent ("mixed": one magnitude per entry)."""
    if kind == "zero":
        return np.zeros(size)
    if kind == "constant":
        return np.full(size, 10.0 ** exponent * rng.choice([-1.0, 1.0]))
    if kind == "mixed":
        return rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-330, 160, size=size)
    v = rng.normal(size=size) * 10.0 ** exponent
    if kind == "partly_zero":
        v[rng.random(size) < 0.5] = 0.0
    return v


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    kinds=st.tuples(st.sampled_from(WEIGHT_KINDS), st.sampled_from(WEIGHT_KINDS)),
    exponents=st.tuples(st.floats(-330, 160), st.floats(-330, 160)),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(m=4, n=5, kinds=("constant", "constant"), exponents=(77.0, 77.0), seed=0)
@pytest.mark.filterwarnings("error")
def test_weights_are_refused_or_give_finite_and_accurate_norm_factors(m, n, kinds, exponents, seed):
    rng = np.random.default_rng(seed)
    e = weight_vector(rng, kinds[0], n, exponents[0])
    f = weight_vector(rng, kinds[1], m, exponents[1])
    try:
        op = ScaledMarginalOperator(e, f)
    except ValueError:
        return
    assert all(np.isfinite(factor).all() for factor in op._norm_factors)
    y, x = op._apply(rng.normal(size=(m, n)))
    fast = op._pinv_norm_sq(np.concatenate((y, x)))
    with np.errstate(over="ignore"):  # with e = 0, A^+ forms f x^T before dividing by |f|^2
        full = np.sum(op._pinv(y, x) ** 2)
    if np.isfinite(full):
        assert fast == pytest.approx(full, rel=1e-12)


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


@pytest.mark.parametrize("mode", OPERATOR_MODES)
@pytest.mark.parametrize("stack", [(), (3,), (2, 3)])
def test_out_forms_return_out_with_the_bits_of_the_fresh_forms(mode, stack):
    # zero, unit and generic weights, on one matrix and on stacks; out holds other values first
    rng = np.random.default_rng(len(stack) * 10 + OPERATOR_MODES.index(mode))
    m, n = 4, 5
    op = random_operator(rng, m, n, mode)
    T = rng.uniform(-100.0, 100.0, size=stack + (m, n))
    T[..., 0, 0] = -0.0
    z = np.full(stack + (m + n,), np.nan)
    assert op._apply(T, out=z) is z
    assert same_bits(z, np.concatenate(op._apply(T), axis=-1))
    # y and x as the engine passes them: strided views of one (..., m + n) buffer
    y, x = z[..., :m], z[..., m:]
    K = rng.uniform(-1.0, 1.0, size=stack + (m, n))
    K.flat[0], K.flat[-1] = -0.0, np.nan
    assert op._pinv(y, x, out=K) is K
    assert same_bits(K, op._pinv(y, x))
    assert same_bits(K, op._pinv(y.copy(), x.copy()))


@pytest.mark.parametrize("mode", OPERATOR_MODES)
@pytest.mark.parametrize("shape, small_buffer", [
    ((4, 5), False),
    ((97, 85), False),       # three rows fit in the small buffer too
    ((96, 86), True),
    ((1, 128), True),        # 128 entries
    ((64, 128), True),       # 8192 entries: numpy's default buffer
    ((65, 128), True),       # 8320 entries
    ((2, 32, 128), True),    # 8192 entries, stacked
    ((2, 33, 128), True),    # 8448 entries, stacked
    ((4, 2730), True),
    ((4, 2731), False),      # fewer than three rows fit in the default buffer
    ((3, 31, 384), True),
])
def test_outer_form_under_the_small_buffer_keeps_the_bits_of_the_default_buffer(
        mode, shape, small_buffer, monkeypatch):
    # the buffers _pinv runs under, the caller's error settings kept, and the bits of the
    # same formula at numpy's default buffer: with and without out, -0.0 entries in y and x
    *stack, m, n = shape
    rng = np.random.default_rng(m * 1000 + n)
    op = random_operator(rng, m, n, mode)
    y, x = rng.uniform(-100.0, 100.0, size=(*stack, m)), rng.uniform(-100.0, 100.0, size=(*stack, n))
    y[..., ::3], x[..., 1::4] = -0.0, -0.0
    with monkeypatch.context() as patch:  # no row is long enough for the small buffer
        patch.setattr(rcp_operator, "OUTER_BUFSIZE", math.inf)
        expected = op._pinv(y, x)
    seen, pinv = [], ScaledMarginalOperator._pinv
    monkeypatch.setattr(ScaledMarginalOperator, "_pinv", lambda *args, **kwargs: seen.append(
        (np.getbufsize(), np.geterr()["over"])) or pinv(*args, **kwargs))
    with np.errstate(over="raise"):
        assert same_bits(op._pinv(y, x), expected)
        K = np.full(shape, np.nan)
        assert op._pinv(y, x, out=K) is K and same_bits(K, expected)
        if not stack:
            assert same_bits(op.pinv_apply(MarginalPair(y, x)), expected)
    # per form, a call at the caller's buffer and, for rows of 86 to 2730, one under the small one
    buffers = [NUMPY_BUFSIZE, OUTER_BUFSIZE] if small_buffer else [NUMPY_BUFSIZE]
    assert seen == [(size, "raise") for size in buffers] * (2 + (not stack))


@pytest.mark.parametrize("callers_buffer", [NUMPY_BUFSIZE, 1024, 65536])
def test_pinv_and_project_restore_the_callers_buffer_size(callers_buffer):
    # 1024 holds fewer than three 384-entry rows, so _pinv keeps it
    m, n = 256, 384
    op = ScaledMarginalOperator(np.full(n, 2.0), np.ones(m))
    rng = np.random.default_rng(3)
    T = rng.uniform(0.0, 9.0, size=(m, n))
    affine_set = make_affine_set(op, T @ op.e + 1.0, T.T @ op.f)
    with np.errstate():
        np.setbufsize(callers_buffer)
        op._pinv(rng.normal(size=(2, m)), rng.normal(size=(2, n)))
        assert np.getbufsize() == callers_buffer
        affine_set.project(T)
        assert np.getbufsize() == callers_buffer
    assert np.getbufsize() == NUMPY_BUFSIZE


def test_project_range_annihilates_orthogonal_direction():
    rng = np.random.default_rng(12)
    op = random_operator(rng, 3, 4, "generic")
    out = op.project_range(MarginalPair(op.f, -op.e))
    assert frobenius_norm(np.concatenate(out)[None, :]) <= 1e-12


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
    assert not np.concatenate(out).any()


def test_project_range_idempotent_and_self_adjoint():
    rng = np.random.default_rng(13)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 3, 4, mode)
        for _ in range(10):
            p = MarginalPair(rng.normal(size=3), rng.normal(size=4))
            q = MarginalPair(rng.normal(size=3), rng.normal(size=4))
            Pp = op.project_range(p)
            PPp = op.project_range(Pp)
            assert np.max(np.abs(np.concatenate(PPp) - np.concatenate(Pp))) <= 1e-12
            # self-adjoint: <P p, q> = <p, P q>
            lhs = float(np.concatenate(Pp) @ np.concatenate(q))
            rhs = float(np.concatenate(p) @ np.concatenate(op.project_range(q)))
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_project_range_after_apply_is_identity():
    rng = np.random.default_rng(14)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 4, 3, mode)
        for _ in range(5):
            pair = op.apply(rng.normal(size=(4, 3)))
            out = op.project_range(pair)
            assert np.max(np.abs(np.concatenate(out) - np.concatenate(pair))) <= 1e-12


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
