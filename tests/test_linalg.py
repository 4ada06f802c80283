import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowcolproj.linalg import (
    as_array,
    as_matrix,
    as_vector,
    frobenius_norm,
    spectral_norm,
)

from _support import top_singular_two_columns


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_rank_one():
    # singular values of [[0,2],[0,0]] are {2, 0}: sqrt(trace T^T T) = 2
    T = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert spectral_norm(T) == pytest.approx(2.0, rel=1e-10)


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
    # the all-ones vector, and in the last matrix also e_1, lie in the null space
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


def test_spectral_norm_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(8)
    for shape in [(300, 4, 5), (40, 1, 7), (40, 7, 1), (3, 256, 384)]:
        stack = rng.normal(size=shape) * 100.0
        norms = spectral_norm(stack)
        assert norms.shape == shape[:1]
        assert all(norms[b] == spectral_norm(stack[b]) for b in range(shape[0]))
    assert isinstance(spectral_norm(stack[0]), float)


def test_spectral_norm_of_zero_stacks():
    for shape in [(1, 1, 1), (5, 4, 5), (2, 3, 1)]:
        assert np.array_equal(spectral_norm(np.zeros(shape)), np.zeros(shape[0]))


def test_spectral_norm_rejects_vectors():
    with pytest.raises(ValueError):
        spectral_norm(np.ones(3))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.one_of(st.tuples(st.just(1), st.integers(1, 6)),
                    st.tuples(st.integers(1, 6), st.just(1)),
                    st.tuples(st.integers(1, 6), st.integers(1, 6))),
    magnitude=st.sampled_from([1e-3, 1.0, 1e3, 1e9, 1e15]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_spectral_norm_properties(shape, magnitude, seed):
    stack = np.random.default_rng(seed).uniform(-magnitude, magnitude, size=(3,) + shape)
    norms = spectral_norm(stack)
    for T, sigma in zip(stack, norms):
        assert sigma == spectral_norm(T)
        # ||T||_2 lies between the largest row or column 2-norm and ||T||_F
        widest = max(np.max(np.linalg.norm(T, axis=0)), np.max(np.linalg.norm(T, axis=1)))
        assert widest * (1 - 1e-14) <= sigma <= frobenius_norm(T) * (1 + 1e-14)
        if 1 in shape:
            # a single row or column is its own top singular vector
            assert sigma == pytest.approx(frobenius_norm(T), rel=1e-14)


def test_frobenius_norm_of_a_stack_matches_each_matrix():
    stack = np.random.default_rng(7).normal(size=(5, 6, 7))
    norms = frobenius_norm(stack)
    assert norms.shape == (5,)
    assert all(norms[b] == frobenius_norm(stack[b]) for b in range(5))
    assert isinstance(frobenius_norm(stack[0]), float)


def test_validation_rejects_non_finite():
    with pytest.raises(ValueError, match="matrix contains non-finite entries"):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="vector contains non-finite entries"):
        as_vector([np.inf])
    with pytest.raises(ValueError, match="must be a nonempty 2-d array, got shape \\(2,\\)"):
        as_matrix([1.0, 2.0])  # 1-d input
    with pytest.raises(ValueError, match="v must be a nonempty 1-d array"):
        as_vector([[1.0], [2.0]], name="v")
    with pytest.raises(ValueError, match="must have shape \\(2, 3\\), got \\(2, 2\\)"):
        as_matrix(np.ones((2, 2)), shape=(2, 3))
    with pytest.raises(ValueError, match="must have shape \\(3,\\), got \\(2,\\)"):
        as_vector(np.ones(2), dim=3)
    # a stack's leading length is free; each matrix's shape is checked
    with pytest.raises(ValueError, match="must have shape \\(5, 2, 3\\), got \\(5, 3, 2\\)"):
        as_array(np.ones((5, 3, 2)), 3, (2, 3))
    with pytest.raises(ValueError, match="must hold numbers"):
        as_array({"a": 1}, 1)
    # booleans are refused in lists, nested lists and bool arrays, not read as 0 and 1
    for flags in ([True, 1.0], [[1.0], [np.True_]], np.ones(2, dtype=bool)):
        with pytest.raises(ValueError, match="v must hold numbers, not booleans"):
            as_array(flags, np.ndim(flags), name="v")
    assert as_array([[[1, 2, 3]], [[4, 5, 6]]], 3, (1, 3)).dtype == np.float64
