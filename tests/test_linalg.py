import tracemalloc

import numpy as np
import pytest

from rowcolproj.linalg import (
    add,
    as_matrix,
    as_vector,
    frobenius_inner,
    frobenius_norm,
    matvec,
    outer,
    scale,
    spectral_norm,
    subtract,
    tmatvec,
)

from _support import DEMO_SOLUTION, top_singular_two_columns


def test_frobenius_inner_identity_with_itself():
    assert frobenius_inner(np.eye(2), np.eye(2)) == 2.0


def test_frobenius_inner_zero_matrix():
    T = np.arange(6.0).reshape(2, 3)
    assert frobenius_inner(T, np.zeros((2, 3))) == 0.0


def test_frobenius_inner_demo_total():
    assert frobenius_inner(DEMO_SOLUTION, np.ones((4, 5))) == 131.0


def test_frobenius_inner_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(3, 4))
        assert frobenius_inner(A, B) == pytest.approx(frobenius_inner(B, A), abs=1e-14)


def test_frobenius_inner_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_inner(np.ones((2, 2)), np.ones((2, 3)))


def test_frobenius_inner_positive_definite():
    rng = np.random.default_rng(1)
    for _ in range(50):
        T = rng.normal(size=(2, 5))
        assert frobenius_inner(T, T) > 0.0
    assert frobenius_inner(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0


def test_outer_basis_vectors():
    assert np.array_equal(outer([1.0, 0.0], [0.0, 1.0]), [[0.0, 1.0], [0.0, 0.0]])


def test_outer_zero_vector():
    assert np.array_equal(outer([0.0, 0.0], [1.0, 2.0, 3.0]), np.zeros((2, 3)))


def test_outer_entrywise():
    assert np.array_equal(outer([2.0, 3.0], [1.0, 4.0]), [[2.0, 8.0], [3.0, 12.0]])


def test_outer_adjoint_identity():
    # <outer(v,u) x, y> = <x,u> <v,y> for all conformable x, y
    rng = np.random.default_rng(2)
    for _ in range(30):
        v = rng.normal(size=3)
        u = rng.normal(size=4)
        x = rng.normal(size=4)
        y = rng.normal(size=3)
        lhs = float((outer(v, u) @ x) @ y)
        rhs = float(x @ u) * float(v @ y)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_rank_one():
    # singular values of [[0,2],[0,0]] are {2, 0}: sqrt(trace T^T T) = 2
    T = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert spectral_norm(T) == pytest.approx(2.0, rel=1e-10)


def test_spectral_norm_requires_positive_tol():
    with pytest.raises(ValueError):
        spectral_norm(np.eye(2), tol=0.0)


def test_spectral_norm_dominated_by_frobenius():
    rng = np.random.default_rng(3)
    for _ in range(50):
        T = rng.normal(size=(3, 4))
        assert spectral_norm(T) <= frobenius_norm(T) + 1e-12


def test_spectral_norm_two_column_characteristic_polynomial():
    rng = np.random.default_rng(4)
    for _ in range(50):
        T = rng.normal(size=(rng.integers(2, 6), 2))
        assert spectral_norm(T) == pytest.approx(top_singular_two_columns(T), rel=1e-8)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(5)
    for _ in range(30):
        T = rng.normal(size=(3, 4))
        assert spectral_norm(T) == pytest.approx(np.linalg.norm(T, 2), rel=1e-7)


def test_spectral_norm_null_start_recovery():
    # all-ones start lies exactly in the null space of T^T T here; in the
    # last matrix the first basis start does too, so e_1 gives the answer
    cases = [([[1.0, -1.0], [1.0, -1.0]], 2.0), ([[1.0, -1.0]], np.sqrt(2.0)),
             ([[0.0, 1.0, -1.0]], np.sqrt(2.0))]
    for T, expected in cases:
        assert spectral_norm(np.array(T)) == pytest.approx(expected, rel=1e-9)


def test_spectral_norm_memory_is_linear_in_size():
    T = np.random.default_rng(6).normal(size=(256, 384))
    tracemalloc.start()
    try:
        spectral_norm(T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_frobenius_norm_of_a_stack_matches_each_matrix():
    stack = np.random.default_rng(7).normal(size=(5, 6, 7))
    norms = frobenius_norm(stack)
    assert norms.shape == (5,)
    assert all(norms[b] == frobenius_norm(stack[b]) for b in range(5))
    assert isinstance(frobenius_norm(stack[0]), float)


def test_arithmetic_helpers():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.ones((2, 2))
    assert np.array_equal(add(A, B), A + 1.0)
    assert np.array_equal(subtract(A, B), A - 1.0)
    assert np.array_equal(scale(2.0, A), 2.0 * A)
    x = np.array([1.0, -1.0])
    assert np.array_equal(matvec(A, x), [-1.0, -1.0])
    assert np.array_equal(tmatvec(A, x), [-2.0, -2.0])
    with pytest.raises(ValueError):
        matvec(A, np.ones(3))
    with pytest.raises(ValueError):
        tmatvec(A, np.ones(3))
    with pytest.raises(ValueError):
        add(A, np.ones((2, 3)))


def test_validation_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_vector([np.inf])
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])  # 1-d input
    with pytest.raises(ValueError):
        as_vector([[1.0], [2.0]], name="v")
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 2)), shape=(2, 3))
    with pytest.raises(ValueError):
        as_vector(np.ones(2), dim=3)
