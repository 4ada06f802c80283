import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowcolproj.box import HyperBox, make_box, round_half_away
from rowcolproj.linalg import frobenius_norm

from _support import (
    DEMO_COL_SUMS,
    DEMO_ROW_SUMS,
    in_box,
    nearest_integer_in_interval,
    same_bits,
    two_clip_project,
)


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


BELOW_HALF = 0.5 - 2.0 ** -54  # 0.49999999999999994, the largest float below 1/2
BIG_ODD = 2.0 ** 52 + 1.0     # floats in [2^52, 2^53) are 1 apart, so x + 0.5 is a tie there


def exact_round_half_away(x):
    """Nearest integer to the float x, ties away from zero, in exact rational arithmetic."""
    return math.copysign(math.floor(abs(Fraction(x)) + Fraction(1, 2)), x)


def test_round_half_away_negative_values():
    assert np.array_equal(round_half_away([-3.5, -2.5, -0.5, 0.5]), [-4.0, -3.0, -1.0, 1.0])
    # signed zeros: -0.3 rounds to -0.0 and -0.0 to +0.0
    values = [-0.0, 0.0, -0.3, 0.3, BELOW_HALF, -BELOW_HALF, BIG_ODD, -BIG_ODD,
              2.0 ** 52 - 0.5, -(2.0 ** 52 - 0.5), 2.0 ** 53 - 1.0, 1e300, -1e300]
    expected = [0.0, 0.0, -0.0, 0.0, 0.0, -0.0, BIG_ODD, -BIG_ODD,
                2.0 ** 52, -(2.0 ** 52), 2.0 ** 53 - 1.0, 1e300, -1e300]
    assert same_bits(round_half_away(values), np.array(expected))


EDGE_VALUES = [0.0, -0.0, 0.5, -0.5, 1.5, -2.5, BELOW_HALF, -BELOW_HALF, 2.0 ** 52 - 0.5,
               BIG_ODD, -BIG_ODD, 2.0 ** 53 - 1.0, -(2.0 ** 53 - 3.0)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-2.0 ** 54, 2.0 ** 54),
                          st.integers(-2 ** 20, 2 ** 20).map(lambda k: k + 0.5),
                          st.integers(2 ** 51, 2 ** 52 - 1).map(lambda k: float(2 * k + 1)),
                          st.sampled_from(EDGE_VALUES)),
                min_size=1, max_size=80))
def test_round_half_away_is_exact(values):
    # one array, so numpy's vector loops run as in the solvers
    rounded = round_half_away(values)
    assert rounded.tolist() == [exact_round_half_away(x) for x in values]


def test_integer_box_keeps_its_own_large_odd_points():
    box = HyperBox(lower=np.zeros((1, 2)), upper=np.full((1, 2), 2.0 ** 53),
                   integer_restricted=True)
    point = np.array([[BIG_ODD, 2.0 ** 53 - 1.0]])
    assert same_bits(box.project(point), point)


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


@pytest.mark.parametrize("integer_restricted", [False, True])
@pytest.mark.parametrize("lower, upper", [(0.0, 9.0), (-0.0, 9.0), (-1.0, 0.0), (-1.0, -0.0)])
def test_signed_zeros_at_a_bound_do_not_depend_on_the_stack_layout(lower, upper, integer_restricted):
    # a stack of 1x1 matrices projects as each matrix does alone
    box = HyperBox(lower=[[lower]], upper=[[upper]], integer_restricted=integer_restricted)
    T = np.array([-0.0, 0.0, -0.3, 0.3, -0.5, 0.5])[:, None, None]
    stacked = box._project(T)
    for k in range(len(T)):
        assert same_bits(stacked[k], box.project(T[k]))


@pytest.mark.parametrize("integer_restricted", [False, True])
@pytest.mark.parametrize("shape", [(6, 1, 1), (2, 100, 4, 5), (2, 3, 32, 48), (2, 1, 256, 384)])
def test_a_zero_lower_bound_clamps_as_the_array_bound_does_bit_for_bit(shape, integer_restricted):
    # every make_box box clamps at the scalar 0.0; the clamp against its (m, n) array of
    # +0.0 gives the same bits, signed zeros included, on every stack layout
    rng = np.random.default_rng(sum(shape))
    m, n = shape[-2:]
    s, r = rng.uniform(0.0, 3.0, size=m), rng.uniform(0.0, 3.0, size=n)
    s[0] = 0.0
    box = make_box(s, r, integer_restricted=integer_restricted)
    assert np.ndim(box._floor) == 0 and not np.signbit(box._floor)
    T = rng.choice([-0.0, 0.0, -1e-300, 1e-300, -5e-324, 5e-324, -0.3, 0.3, -0.5, 1.7, 3.5],
                   size=shape)
    rounded = round_half_away(T) if integer_restricted else T
    expected = np.minimum(np.maximum(rounded, box.lower), box.upper)
    assert same_bits(box._project(T), expected)
    assert same_bits(box._project(T, out=np.empty_like(T)), expected)
    for k in np.ndindex(shape[:-2]):
        assert same_bits(box.project(T[k]), expected[k])


@pytest.mark.parametrize("integer_restricted", [False, True])
@pytest.mark.parametrize("entry", [-0.0, -0.5, 0.25, -1.0])
def test_a_signed_or_nonzero_lower_entry_keeps_the_array_bound(entry, integer_restricted):
    # an integer box stores ceil(-0.5) = -0.0, which a scalar +0.0 floor would lose
    lower = np.zeros((4, 5))
    lower[1, 2] = entry
    box = HyperBox(lower=lower, upper=np.full((4, 5), 2.0), integer_restricted=integer_restricted)
    assert box._floor is box.lower
    T = np.random.default_rng(5).choice([-0.0, 0.0, -0.3, 0.3, -0.5, 0.5], size=(2, 3, 4, 5))
    rounded = round_half_away(T) if integer_restricted else T
    assert same_bits(box._project(T), np.minimum(np.maximum(rounded, box.lower), box.upper))
    if box.lower[1, 2] == 0.0:  # a stored -0.0 is what the clamp of +0.0 returns there
        assert np.signbit(box.lower[1, 2]) and np.signbit(box._project(np.zeros((4, 5)))[1, 2])


def test_integer_projection_is_the_two_clip_projection_bit_for_bit():
    # negative, fractional, integer and signed-zero bounds; inputs at and between
    # the bounds, at ties and at +-0.0; stacks long enough for numpy's SIMD loops
    rng = np.random.default_rng(44)
    shape = (64, 6, 7)
    lower = rng.uniform(-20.0, 5.0, size=shape[1:])
    lower[0] = np.round(lower[0])
    lower[1, :3] = (-0.0, 0.0, -0.5)
    upper = lower + rng.uniform(1.0, 20.0, size=shape[1:])
    upper[2] = np.floor(upper[2])
    upper[1, :3] = (0.0, 0.0, 2.5)
    box = HyperBox(lower=lower, upper=upper, integer_restricted=True)
    T = rng.uniform(-30.0, 30.0, size=shape)
    T[:8] = np.round(T[:8]) + 0.5
    T[8:16] = rng.choice([-0.0, 0.0, -0.3, 0.3, -0.5, 0.5], size=(8, *shape[1:]))
    T[16:20] = lower
    T[20:24] = upper
    T[24:28] = np.nextafter(lower, -np.inf)
    T[28:32] = np.nextafter(upper, np.inf)
    assert same_bits(box._project(T), two_clip_project(lower, upper, T))


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
