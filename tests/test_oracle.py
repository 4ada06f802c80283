import numpy as np
import pytest

from rowcolproj.affine import make_affine_set
from rowcolproj.operator import MarginalPair, ScaledMarginalOperator, unit_operator
from rowcolproj.oracle import build_explicit, oracle_project

from _support import OPERATOR_MODES, random_operator


def test_build_explicit_1x1():
    op = ScaledMarginalOperator([3.0], [4.0])
    assert np.array_equal(build_explicit(op), [[3.0], [4.0]])


def test_build_explicit_matches_apply_on_basis():
    rng = np.random.default_rng(50)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 2, 2, mode)
        M = build_explicit(op)
        for i in range(2):
            for j in range(2):
                E = np.zeros((2, 2))
                E[i, j] = 1.0
                assert np.array_equal(M[:, i * 2 + j], np.concatenate(op.apply(E)))


def test_build_explicit_matches_apply_random():
    rng = np.random.default_rng(51)
    for mode in OPERATOR_MODES:
        op = random_operator(rng, 4, 5, mode)
        M = build_explicit(op)
        for _ in range(5):
            T = rng.normal(size=(4, 5))
            assert np.max(np.abs(M @ T.reshape(-1) - np.concatenate(op.apply(T)))) <= 1e-12


def test_rank_structure():
    assert np.linalg.matrix_rank(build_explicit(unit_operator(4, 5))) == 8
    rng = np.random.default_rng(52)
    op = random_operator(rng, 3, 4, "e_zero")
    assert np.linalg.matrix_rank(build_explicit(op)) == 4
    op = random_operator(rng, 3, 4, "f_zero")
    assert np.linalg.matrix_rank(build_explicit(op)) == 3
    op = random_operator(rng, 3, 4, "both_zero")
    assert np.linalg.matrix_rank(build_explicit(op)) == 0


def test_oracle_returns_feasible_input_unchanged():
    rng = np.random.default_rng(53)
    op = unit_operator(3, 4)
    W = rng.normal(size=(3, 4))
    s = W.sum(axis=1)
    r = W.sum(axis=0)
    out = oracle_project(op, s, r, W)
    assert np.max(np.abs(out - W)) <= 1e-10


def test_oracle_zero_operator_returns_input():
    op = ScaledMarginalOperator(np.zeros(4), np.zeros(3))
    T = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(oracle_project(op, np.ones(3), np.ones(4), T), T)


def test_oracle_satisfies_projected_constraints():
    rng = np.random.default_rng(54)
    for mode in OPERATOR_MODES:
        for _ in range(10):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            op = random_operator(rng, m, n, mode)
            s = rng.normal(size=m) * 4
            r = rng.normal(size=n) * 4
            T = rng.normal(size=(m, n)) * 4
            X = oracle_project(op, s, r, T)
            target = np.concatenate(op.project_range(MarginalPair(s, r)))
            resid = np.max(np.abs(build_explicit(op) @ X.reshape(-1) - target))
            scale = 1 + float(np.sqrt(s @ s + r @ r))
            assert resid <= 1e-10 * scale


def test_oracle_optimality_orthogonal_to_null_directions():
    # X* - T must be orthogonal to every direction Z with M vec(Z) = 0
    rng = np.random.default_rng(55)
    op = random_operator(rng, 3, 4, "generic")
    M = build_explicit(op)
    null_basis = _null_space(M)
    s = rng.normal(size=3)
    r = rng.normal(size=4)
    for _ in range(20):
        T = rng.normal(size=(3, 4)) * 5
        X = oracle_project(op, s, r, T)
        diff = (X - T).reshape(-1)
        for z in null_basis.T:
            assert abs(diff @ z) <= 1e-9 * (1 + np.linalg.norm(diff))


def _null_space(M):
    _, svals, Vt = np.linalg.svd(M)
    rank = int(np.sum(svals > 1e-12 * svals.max())) if svals.size else 0
    return Vt[rank:].T


def test_oracle_handles_zero_trailing_weight_entry():
    # the redundant-row choice must not assume the last weight entry is nonzero
    rng = np.random.default_rng(56)
    e = np.array([1.0, 2.0, 0.0])
    f = np.array([1.5, 0.0])
    op = ScaledMarginalOperator(e, f)
    s = rng.normal(size=2)
    r = rng.normal(size=3)
    T = rng.normal(size=(2, 3))
    X = oracle_project(op, s, r, T)
    afs = make_affine_set(op, s, r)
    assert np.max(np.abs(X - afs.project(T))) <= 1e-9


def test_oracle_agrees_with_projector_sample():
    rng = np.random.default_rng(57)
    for _ in range(60):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        mode = OPERATOR_MODES[int(rng.integers(len(OPERATOR_MODES)))]
        op = random_operator(rng, m, n, mode)
        s = rng.normal(size=m) * 5
        r = rng.normal(size=n) * 5
        T = rng.normal(size=(m, n)) * 5
        afs = make_affine_set(op, s, r)
        assert np.max(np.abs(afs.project(T) - oracle_project(op, s, r, T))) <= 1e-9
