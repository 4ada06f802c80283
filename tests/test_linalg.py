import ctypes
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowcolproj import linalg
from rowcolproj.linalg import (
    DIRECT_SVD_ENTRIES,
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


def counted_dgesdd(monkeypatch, info=None):
    """Counts the calls of the bundled dgesdd by spectral_norm, which go on to the real one, or
    only set INFO to ``info``; skips without the library."""
    blas, calls = linalg._openblas(), []
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")

    def dgesdd(*args):
        calls.append(args)
        if info is None:
            return blas[2](*args)
        ctypes.c_int64.from_address(args[-1]).value = info

    monkeypatch.setattr(linalg, "_openblas", lambda: (*blas[:2], dgesdd))
    return calls


MATRIX_SHAPES = [(4, 5), (5, 4), (1, 7), (7, 1), (27, 37), (25, 40), (32, 48), (48, 32),
                 (1, 1500), (1500, 1), (256, 384)]  # 999 and 1000 entries at the threshold


@pytest.mark.parametrize("lookup", ["bundled", "fallback"])
@pytest.mark.parametrize("shape", MATRIX_SHAPES)
def test_spectral_norm_has_numpys_bits_on_either_path(shape, lookup, monkeypatch):
    if lookup == "fallback":
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        calls = []
    else:
        calls = counted_dgesdd(monkeypatch)
    rng, direct = np.random.default_rng(shape), lookup == "bundled" and np.prod(shape) >= DIRECT_SVD_ENTRIES
    expected_calls = 0
    for lead in [(), (1,), (3,), (2, 3)]:
        for scale in (0.0, 1e-3, 1.0, 1e12):
            T = rng.normal(size=lead + shape) * scale
            norms, reference = spectral_norm(T), np.linalg.norm(T, 2, axis=(-2, -1))
            assert type(norms) is type(reference) and np.shape(norms) == lead
            assert np.array_equal(np.asarray(norms).view(np.int64), np.asarray(reference).view(np.int64))
            expected_calls += (1 + int(np.prod(lead))) * direct  # a workspace query, then each matrix
    assert isinstance(spectral_norm(np.ones(shape)), np.float64)
    assert len(calls) == expected_calls + 2 * direct


def test_spectral_norm_raises_when_dgesdd_does_not_converge(monkeypatch):
    counted_dgesdd(monkeypatch, info=1)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        spectral_norm(np.ones((32, 48)))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else True,
                    reason="needs two usable CPUs")
def test_a_large_spectral_norm_lets_other_threads_run():
    # numpy's linalg holds the GIL for one matrix or a stack of one (the harness's one-start
    # blocks), and on that path this thread woke 7.7 ms late; its stacked loop drops it for more
    if linalg._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    stack, done, late = np.random.default_rng(9).normal(size=(4, 256, 384)), threading.Event(), []

    def norms():
        for matrix in stack:
            spectral_norm(matrix)
            spectral_norm(matrix[None])
        done.set()

    thread = threading.Thread(target=norms)
    thread.start()
    while not done.is_set():
        begin = time.perf_counter()
        time.sleep(0.0005)
        late.append(time.perf_counter() - begin - 0.0005)
    thread.join()
    assert len(late) >= 5 and np.median(late) < 0.002


def test_spectral_norms_on_more_threads_than_cpus_keep_numpys_bits():
    # every thread in the bundled dgesdd at once, switching every microsecond
    stack = np.random.default_rng(10).normal(size=(6, 32, 48))
    reference, results = np.linalg.norm(stack, 2, axis=(-2, -1)), []

    def compute():
        results.extend(spectral_norm(stack) for _ in range(20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=compute) for _ in range((os.cpu_count() or 1) + 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 20 * len(threads)
    assert all(np.array_equal(norms.view(np.int64), reference.view(np.int64)) for norms in results)


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
