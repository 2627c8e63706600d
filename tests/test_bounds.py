"""Closed-form bound formulas and sample-size calculators."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from delib.averaging import K2_BETA_THRESHOLD, THETA2
from delib.bounds import (
    HOEFFDING_RATE,
    ThetaOutOfRange,
    copeland_distortion_from_theta,
    copeland_k2_distortion,
    lower_bounds_from_theta,
    sample_size_averaging,
    sample_size_random_choice,
)


def test_copeland_distortion_values():
    assert copeland_distortion_from_theta(0.0) == 1.0
    assert copeland_distortion_from_theta(THETA2) == pytest.approx(
        3.0 + 2.0 * math.sqrt(2.0), abs=1e-12)
    # certified theta_3 numbers land near 0.2522
    assert copeland_distortion_from_theta(0.2522) == pytest.approx(
        2.803990108526242, abs=1e-12)


def test_lower_bounds_values():
    det, rand = lower_bounds_from_theta(0.25)
    assert det == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert rand == pytest.approx(4.0 / 3.0, abs=1e-12)
    det, rand = lower_bounds_from_theta(THETA2)
    assert det == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
    assert rand == pytest.approx((2.0 + math.sqrt(2.0)) / 2.0, abs=1e-12)


def test_lower_bounds_caps():
    # (1+t)/(1-t) = 19 and 1/(1-t) = 10 at t = 0.9, both past their caps
    assert lower_bounds_from_theta(0.9) == (3.0, 2.0)


@given(st.floats(0.0, 1.0, exclude_max=True))
def test_bounds_from_theta_are_ordered(theta):
    # the Copeland upper bound never falls below the floors it brackets
    det, rand = lower_bounds_from_theta(theta)
    assert copeland_distortion_from_theta(theta) >= det >= rand >= 1.0


def _brackets(x: float, exact: Fraction, up: bool) -> bool:
    """x is exact rounded up (or down): on the named side of it, and its
    neighbour toward it lies on the other side."""
    step = math.nextafter(x, -math.inf if up else math.inf)
    if up:
        return Fraction(x) >= exact > Fraction(step)
    return Fraction(x) <= exact < Fraction(step)


def test_derived_bounds_round_outward_at_certified_theta3():
    # theta_3 <= 513/2048: round to nearest gave 2.783571602881728, 2.97e-16
    # below (2561/1535)^2, so the reported k = 3 bound was not an upper bound
    t = 513 / 2048
    exact = Fraction(2561, 1535) ** 2
    assert Fraction(2.783571602881728) < exact
    assert _brackets(copeland_distortion_from_theta(t), exact, up=True)
    det, rand = lower_bounds_from_theta(t)
    assert _brackets(det, Fraction(2561, 1535), up=False)
    assert _brackets(rand, Fraction(2048, 1535), up=False)
    # the k = 2 chain bound at the beta reproduce-tables certifies
    beta = K2_BETA_THRESHOLD + 1e-3
    assert _brackets(copeland_k2_distortion(beta), 1 + Fraction(beta), up=True)
    assert copeland_k2_distortion(3.0) == 4.0


@given(st.floats(0.0, 1.0, exclude_max=True))
def test_derived_bounds_round_outward(theta):
    t = Fraction(theta)
    r = (1 + t) / (1 - t)
    assert _brackets(copeland_distortion_from_theta(theta), r * r, up=True)
    det, rand = lower_bounds_from_theta(theta)
    assert det == 3.0 if r >= 3 else _brackets(det, r, up=False)
    assert rand == 2.0 if 1 / (1 - t) >= 2 else \
        _brackets(rand, 1 / (1 - t), up=False)


@given(st.floats(0.0, 1e6))
def test_k2_distortion_rounds_up(beta):
    assert _brackets(copeland_k2_distortion(beta), 1 + Fraction(beta), up=True)


def test_theta_range_is_enforced():
    for bad in (1.0, -0.1, 2.0):
        with pytest.raises(ThetaOutOfRange):
            copeland_distortion_from_theta(bad)
        with pytest.raises(ThetaOutOfRange):
            lower_bounds_from_theta(bad)
    # subclass of ValueError, so generic handlers still catch it
    assert issubclass(ThetaOutOfRange, ValueError)


def test_sample_size_averaging_values():
    # ceil(ln(m(m-1)/delta) / (2 eps^2))
    assert HOEFFDING_RATE == 2.0
    assert sample_size_averaging(2, 0.1, 0.1) == 150
    assert sample_size_averaging(5, 0.05, 0.1) == 1060
    assert sample_size_averaging(5, 0.05, 0.1) == math.ceil(
        math.log(20 / 0.1) / (2 * 0.05**2))


@pytest.mark.parametrize("epsilon", [1e-160, 1e-200])
def test_sample_size_rejects_an_epsilon_too_small_to_count(epsilon):
    # 1e-160 squared is subnormal and the count overflows to inf; 1e-200
    # squared underflows to 0
    with pytest.raises(ValueError, match="too small"):
        sample_size_averaging(5, epsilon, 0.1)
    with pytest.raises(ValueError, match="too small"):
        sample_size_random_choice(5, epsilon, 0.1)


def test_sample_size_random_choice_values():
    assert sample_size_random_choice(4, 0.1, 0.1) == (240, 3, 720)
    assert sample_size_random_choice(5, 0.1, 0.1) == (265, 5, 1325)


@pytest.mark.parametrize("sizes", [sample_size_averaging,
                                   lambda *a: sample_size_random_choice(*a)[0]],
                         ids=["averaging", "random-choice"])
def test_sample_sizes_meet_the_union_bound(sizes):
    # every pair is observed N times; a two-sided Hoeffding bound per pair,
    # summed over the m(m-1)/2 pairs, must stay within delta
    for m in range(2, 11):
        for eps, delta in ((0.1, 0.1), (0.05, 0.1), (0.2, 0.01), (0.1, 0.5)):
            n = sizes(m, eps, delta)
            fail = m * (m - 1) / 2 * 2 * math.exp(-HOEFFDING_RATE * n * eps**2)
            assert fail <= delta, (m, eps, delta, n)


def test_sample_size_scales_inverse_square_in_epsilon():
    n1 = sample_size_averaging(6, 0.1, 0.05)
    n2 = sample_size_averaging(6, 0.05, 0.05)
    assert 3.9 <= n2 / n1 <= 4.1


def test_sampling_argument_validation():
    with pytest.raises(ValueError):
        sample_size_averaging(1, 0.1, 0.1)
    for eps, delta in ((0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0)):
        with pytest.raises(ValueError):
            sample_size_averaging(3, eps, delta)
        with pytest.raises(ValueError):
            sample_size_random_choice(3, eps, delta)
