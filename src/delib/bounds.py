"""Closed-form distortion bounds and sample-size calculators.

The deliberation analysis funnels into a single scalar: the largest mean
bias theta (or zeta, for the random-choice relaxation) achievable under
the win constraint. These helpers turn that scalar into distortion bounds,
bracket theta_k for general k in closed form, give a closed-form
random-choice group size, and size the group samples needed to estimate
pairwise win probabilities.

Sample sizes bound each of the m(m-1)/2 pairwise estimates with the
two-sided Hoeffding bound 2 exp(-2 N eps^2) and union-bound over the
pairs, a failure budget of delta / (m(m-1)/2) per pair. That takes
N = ceil(ln(m(m-1) / delta) / (2 eps^2)) observations of every pair, and
both sampling modes observe each pair N times.
"""

from __future__ import annotations

import math

HOEFFDING_RATE = 2.0   # exponent factor in P(|error| > eps) <= 2 exp(-rate N eps^2)
C_EPSILON_PER_DELTA = 1.0  # epsilon = c * delta in the closed-form group size


class ThetaOutOfRange(ValueError):
    pass


def _check_theta(theta: float) -> float:
    if not (0.0 <= theta < 1.0):
        raise ThetaOutOfRange(f"theta must be in [0,1), got {theta!r}")
    return float(theta)


def copeland_distortion_from_theta(theta: float) -> float:
    """Distortion guarantee ((1+theta)/(1-theta))^2 of the two-hop argument."""
    t = _check_theta(theta)
    r = (1.0 + t) / (1.0 - t)
    return r * r


def lower_bounds_from_theta(theta: float) -> tuple[float, float]:
    """(deterministic, randomized) floors implied by a mean bias of theta.

    min(3, (1+theta)/(1-theta)) for deterministic rules and
    min(2, 1/(1-theta)) for randomized ones.
    """
    t = _check_theta(theta)
    return (
        min(3.0, (1.0 + t) / (1.0 - t)),
        min(2.0, 1.0 / (1.0 - t)),
    )


def theta_upper_bound_closed_form(k: int) -> float:
    """min(1/sqrt(k), (8.27/k)(1 + 2/k)); the second term comes from a
    Berry-Esseen argument and overtakes the variance bound for large k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return min(1.0 / math.sqrt(k), 8.27 / k * (1.0 + 2.0 / k))


def theta_lower_bound_closed_form(k: int) -> float:
    """Mean bias of the verified lower-bound family: 1/(k+1) for odd k,
    2/(3k) for even k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return 1.0 / (k + 1) if k % 2 else 2.0 / (3.0 * k)


def group_size_closed_form(epsilon: float) -> int:
    """Chernoff-style group size 4/delta^2 * log(2/delta), with
    epsilon = C_EPSILON_PER_DELTA * delta.

    Asymptotic companion to randomchoice.group_size_for_epsilon; clamped
    below at 1 (large epsilon makes the formula vacuous).
    """
    if not (0.0 < epsilon < math.inf):
        raise ValueError(
            f"epsilon must be positive and finite, got {epsilon!r}")
    delta = epsilon / C_EPSILON_PER_DELTA
    return math.ceil(max(1.0, 4.0 / delta**2 * math.log(2.0 / delta)))


def _check_sampling_args(m: int, epsilon: float, delta: float) -> None:
    if m < 2:
        raise ValueError(f"need at least 2 alternatives, got {m}")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0,1), got {epsilon!r}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0,1), got {delta!r}")


def sample_size_averaging(m: int, epsilon: float, delta: float) -> int:
    """Groups needed so every pairwise estimate is within epsilon, w.p. 1-delta.

    Each ranking group observes all m(m-1)/2 pairs at once, so N groups
    give every pair N observations.
    """
    _check_sampling_args(m, epsilon, delta)
    rate = HOEFFDING_RATE * epsilon**2
    groups = math.log(m * (m - 1) / delta) / rate if rate else math.inf
    if not math.isfinite(groups):
        raise ValueError(f"epsilon {epsilon!r} is too small: the group count "
                         "is not a finite float")
    return math.ceil(groups)


def sample_size_random_choice(
    m: int, epsilon: float, delta: float,
) -> tuple[int, int, int]:
    """(groups_per_matching, matchings, total) for matching-based sampling.

    A group deliberates only the pairs of one matching, and each pair lies
    in exactly one matching, so each matching needs the N groups of
    sample_size_averaging, with the same failure budget delta / (m(m-1)/2)
    per pair. A round-robin schedule has m-1 matchings for even m and m for
    odd m.
    """
    per_matching = sample_size_averaging(m, epsilon, delta)
    matchings = m - 1 if m % 2 == 0 else m
    return per_matching, matchings, per_matching * matchings
