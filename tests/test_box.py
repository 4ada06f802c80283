import numpy as np
import pytest

from rowcolproj.box import HyperBox, make_box, round_half_away
from rowcolproj.linalg import frobenius_norm

from _support import DEMO_COL_SUMS, DEMO_ROW_SUMS, in_box, nearest_integer_in_interval


def test_make_box_demo_bounds():
    box = make_box(DEMO_ROW_SUMS, DEMO_COL_SUMS)
    assert box.upper[0, 2] == 32.0  # min(32, 37)
    assert np.array_equal(box.lower, np.zeros((4, 5)))
    assert np.array_equal(box.upper, np.minimum.outer(DEMO_ROW_SUMS, DEMO_COL_SUMS))


def test_make_box_degenerate_zero_targets():
    box = make_box([0.0, 0.0], [0.0])
    assert np.array_equal(box.upper, np.zeros((2, 1)))
    assert np.array_equal(box.project(np.array([[5.0], [-2.0]])), np.zeros((2, 1)))


def test_make_box_entrywise_min():
    box = make_box([5.0], [3.0, 7.0])
    assert np.array_equal(box.upper, [[3.0, 5.0]])


def test_make_box_rejects_negative_targets():
    with pytest.raises(ValueError):
        make_box([-1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        make_box([1.0], [2.0, -0.5])


def test_hyperbox_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        HyperBox(lower=np.ones((2, 2)), upper=np.zeros((2, 2)))


def test_hyperbox_rejects_integer_free_interval():
    with pytest.raises(ValueError):
        HyperBox(lower=np.full((1, 1), 0.2), upper=np.full((1, 1), 0.8),
                 integer_restricted=True)
    # the same interval is fine without the restriction
    HyperBox(lower=np.full((1, 1), 0.2), upper=np.full((1, 1), 0.8))


def test_project_clamps_demo_entry():
    box = make_box(DEMO_ROW_SUMS, DEMO_COL_SUMS)
    T = np.zeros((4, 5))
    T[0, 2] = 40.0
    assert box.project(T)[0, 2] == 32.0


def test_project_clamps_below():
    box = make_box(DEMO_ROW_SUMS, DEMO_COL_SUMS)
    T = np.full((4, 5), -5.0)
    assert np.array_equal(box.project(T), np.zeros((4, 5)))


def test_integer_rounding_ties_away_from_zero():
    box = make_box([10.0], [10.0], integer_restricted=True)
    assert box.project(np.array([[3.6]]))[0, 0] == 4.0
    assert box.project(np.array([[3.5]]))[0, 0] == 4.0
    assert box.project(np.array([[3.4]]))[0, 0] == 3.0


def test_round_half_away_negative_values():
    assert np.array_equal(round_half_away([-3.5, -2.5, -0.5, 0.5]), [-4.0, -3.0, -1.0, 1.0])


def test_integer_projection_matches_enumeration_oracle():
    rng = np.random.default_rng(40)
    box = make_box([4.0, 7.0], [6.0, 3.0, 5.0], integer_restricted=True)
    for _ in range(300):
        T = rng.uniform(-3.0, 10.0, size=(2, 3))
        out = box.project(T)
        for i in range(2):
            for j in range(3):
                z = nearest_integer_in_interval(T[i, j], box.lower[i, j], box.upper[i, j])
                assert out[i, j] == z, (T[i, j], box.lower[i, j], box.upper[i, j])


def test_integer_projection_reclamps_to_integer_endpoints():
    # continuous clamp can land on a fractional bound; the result must
    # still be an integer inside the box
    box = HyperBox(lower=np.full((1, 1), 0.3), upper=np.full((1, 1), 2.7),
                   integer_restricted=True)
    assert box.project(np.array([[9.0]]))[0, 0] == 2.0
    assert box.project(np.array([[-9.0]]))[0, 0] == 1.0
    assert box.project(np.array([[2.9]]))[0, 0] == 2.0


def test_project_idempotent():
    rng = np.random.default_rng(41)
    for integer in (False, True):
        box = make_box(DEMO_ROW_SUMS, DEMO_COL_SUMS, integer_restricted=integer)
        for _ in range(20):
            T = rng.uniform(-100, 100, size=(4, 5))
            once = box.project(T)
            assert np.array_equal(box.project(once), once)


def test_project_nonexpansive_continuous():
    rng = np.random.default_rng(42)
    box = make_box(DEMO_ROW_SUMS, DEMO_COL_SUMS)
    for _ in range(50):
        T1 = rng.uniform(-100, 100, size=(4, 5))
        T2 = rng.uniform(-100, 100, size=(4, 5))
        lhs = frobenius_norm(box.project(T1) - box.project(T2))
        assert lhs <= frobenius_norm(T1 - T2) * (1 + 1e-12)


def test_projection_lands_in_box():
    rng = np.random.default_rng(43)
    for integer in (False, True):
        box = make_box(DEMO_ROW_SUMS, DEMO_COL_SUMS, integer_restricted=integer)
        for _ in range(50):
            out = box.project(rng.uniform(-200, 200, size=(4, 5)))
            assert in_box(box, out)
