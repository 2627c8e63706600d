"""Randomized property suites over the whole pipeline.

Each suite draws many random configurations from a fixed seed, so failures
replay exactly. The four properties:

  * the Copeland winner always passes the two-step reachability check,
  * Monte Carlo pairwise estimates agree with exact enumeration,
  * the elected candidate's cost ratio never exceeds the mean-bias bound,
  * the relaxed win probability is monotone and concave in omega.
"""

import math

import numpy as np
import pytest

from delib.metric import bias_distribution, social_cost
from delib.models import (
    LINEAR,
    BiasTransform,
    ModelConfig,
    exact_pk,
    monte_carlo_pk,
)
from delib.randomchoice import constraint_lhs
from delib.tournament import (
    Tournament,
    copeland_winner,
    uncovered_check,
)

from conftest import random_euclidean_instance


def _random_tournament(rng, m):
    """Random dominance pattern: each pair gets one winner, or both on a tie."""
    beats = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            r = rng.random()
            if r < 0.1:
                beats[i, j] = beats[j, i] = True
            elif r < 0.55:
                beats[i, j] = True
            else:
                beats[j, i] = True
    names = tuple(f"c{i}" for i in range(m))
    return Tournament(names, beats, tol=0.0)


def test_copeland_winner_is_always_uncovered():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        t = _random_tournament(rng, m)
        assert uncovered_check(t, copeland_winner(t))


def test_monte_carlo_pk_tracks_exact_enumeration():
    rng = np.random.default_rng(99)
    trials = 4000
    for case in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        inst = random_euclidean_instance(rng, m=m, n=n)
        variant = "averaging" if case % 2 == 0 else "random-choice"
        model = ModelConfig(variant, k=int(rng.integers(1, 5)))
        c1, c2 = inst.candidates[0], inst.candidates[1]
        exact = exact_pk(inst, model, c1, c2)
        mc = monte_carlo_pk(inst, model, c1, c2, trials=trials, seed=case)
        # 4 standard errors plus a floor for estimates pinned at 0 or 1
        slack = 4.0 * math.sqrt(exact.value * (1 - exact.value) / trials)
        assert abs(mc.value - exact.value) <= slack + 2e-3


def test_cost_ratio_obeys_mean_bias_bound():
    # with gamma = E[B(w,x)] >= 0, combining SC(w) - SC(x) = gamma d(w,x)
    # with d(w,x) <= SC(w) + SC(x) gives SC(w)/SC(x) <= (1+gamma)/(1-gamma);
    # the negative orientation is the same fact with the pair swapped
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(500):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        inst = random_euclidean_instance(rng, m=m, n=n)
        idx = rng.permutation(m)[:2]
        w, x = inst.candidates[idx[0]], inst.candidates[idx[1]]
        gamma = bias_distribution(inst, w, x).mean()
        if gamma < 0.0:
            w, x, gamma = x, w, -gamma
        if gamma >= 1.0 - 1e-12:
            continue    # bound degenerates; nothing to check
        ratio = social_cost(inst, w) / social_cost(inst, x)
        assert ratio <= (1.0 + gamma) / (1.0 - gamma) + 1e-9
        checked += 1
    assert checked >= 450


@pytest.mark.parametrize("g_spec,beta", [
    ("linear", 1.0),
    ("linear", 0.4),
    ("sqrt", 1.0),
    ("pow:0.75", 0.7),
])
@pytest.mark.parametrize("k,alpha", [(2, 0.3), (3, 0.62), (6, 0.85)])
def test_constraint_lhs_monotone_and_concave_in_omega(g_spec, beta, k, alpha):
    g = BiasTransform.parse(g_spec)
    grid = np.linspace(0.0, 1.0, 201)
    vals = np.array([constraint_lhs(k, alpha, w, g, beta) for w in grid])
    diffs = np.diff(vals)
    assert (diffs >= -1e-12).all()              # nondecreasing
    second = np.diff(vals[1:])[1:] - np.diff(vals[1:])[:-1]
    assert (second <= 1e-10).all()              # concave past the omega=0 step


def test_constraint_lhs_jumps_only_at_zero():
    # the l = k boundary term makes omega = 0 special; past it the curve
    # is continuous, so neighboring grid values stay close
    vals = [constraint_lhs(4, 0.9, w, LINEAR, 1.0)
            for w in np.linspace(1e-6, 1.0, 400)]
    gaps = np.abs(np.diff(vals))
    assert gaps.max() <= 0.02
