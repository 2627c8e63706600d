"""Sampled-pipeline simulation: schedules, configs, estimators, reports."""

import itertools
import json
import math

import numpy as np
import pytest

from delib.instances import lb1_instance
from delib.metric import MetricInstance
from delib.models import ModelConfig, exact_pk
from delib.sampling import (
    MATCHING_GROUPS,
    RANKING_GROUPS,
    SampleRunConfig,
    empirical_distortion_trials,
    round_robin_matchings,
    simulate_estimated_pmatrix,
)
from delib.tournament import exact_pmatrix_reference

from conftest import random_euclidean_instance


def test_round_robin_matchings_partition_all_pairs():
    for m in range(2, 21):
        rounds = round_robin_matchings(m)
        assert len(rounds) == (m - 1 if m % 2 == 0 else m)
        seen = list(itertools.chain.from_iterable(rounds))
        assert len(seen) == len(set(seen)) == m * (m - 1) // 2
        assert set(seen) == {
            (i, j) for i in range(m) for j in range(i + 1, m)
        }
        # a label appears at most once per round
        for rnd in rounds:
            flat = [x for pair in rnd for x in pair]
            assert len(flat) == len(set(flat))


def test_round_robin_matchings_rejects_small_m():
    with pytest.raises(ValueError):
        round_robin_matchings(1)


def _avg(k=2):
    return ModelConfig("averaging", k)


def _rc(k=2):
    return ModelConfig("random-choice", k)


def test_config_validation(small_line_instance):
    inst = small_line_instance
    with pytest.raises(ValueError, match="unknown mode"):
        SampleRunConfig(inst, _avg(), groups=10, mode="Census")
    with pytest.raises(ValueError, match="groups"):
        SampleRunConfig(inst, _avg(), groups=0)
    with pytest.raises(ValueError, match="trials"):
        SampleRunConfig(inst, _avg(), groups=5, trials=0)
    # the mode must match the model variant
    with pytest.raises(ValueError):
        SampleRunConfig(inst, _avg(), groups=5, mode=MATCHING_GROUPS)
    with pytest.raises(ValueError):
        SampleRunConfig(inst, _rc(), groups=5, mode=RANKING_GROUPS)
    SampleRunConfig(inst, _rc(), groups=5, mode=MATCHING_GROUPS)


def test_degenerate_pair_estimates_hit_one():
    # both voters sit strictly closer to A, so every sampled group agrees
    inst = MetricInstance.build(
        ["A", "B"],
        [("u", 0.6), ("v", 0.4)],
        {("A", "B"): 6.0, ("A", "u"): 1.0, ("A", "v"): 2.0,
         ("B", "u"): 5.0, ("B", "v"): 4.0, ("u", "v"): 1.0},
    )
    cfg = SampleRunConfig(inst, _avg(), groups=64, seed=3)
    pm = simulate_estimated_pmatrix(cfg)
    assert pm.p[0, 1] == 1.0
    assert pm.p[1, 0] == 0.0


def test_simulation_is_seed_reproducible(small_line_instance):
    cfg = SampleRunConfig(small_line_instance, _avg(), groups=200, seed=11)
    p1 = simulate_estimated_pmatrix(cfg).p
    p2 = simulate_estimated_pmatrix(cfg).p
    np.testing.assert_array_equal(p1, p2)
    other = SampleRunConfig(small_line_instance, _avg(), groups=200, seed=12)
    assert not np.array_equal(p1, simulate_estimated_pmatrix(other).p)


def test_trial_zero_matches_single_simulation(small_line_instance):
    cfg = SampleRunConfig(
        small_line_instance, _avg(), groups=150, trials=3, seed=7,
        epsilon=0.2,
    )
    report = empirical_distortion_trials(cfg)
    pm = simulate_estimated_pmatrix(cfg)
    exact = exact_pmatrix_reference(cfg.instance, cfg.model)
    m = exact.m
    err0 = max(
        abs(pm.p[i, j] - exact.p[i, j])
        for i in range(m) for j in range(i + 1, m)
    )
    assert report.max_errors[0] == pytest.approx(err0, abs=0.0)


def test_ranking_estimator_converges():
    rng = np.random.default_rng(5)
    inst = random_euclidean_instance(rng, m=4, n=9)
    model = _avg(k=3)
    cfg = SampleRunConfig(inst, model, groups=100_000, seed=2)
    pm = simulate_estimated_pmatrix(cfg)
    exact = exact_pmatrix_reference(inst, model)
    err = np.nanmax(np.abs(pm.p - exact.p))
    assert err <= 0.01


def test_ranking_estimator_honours_ties_to_second():
    # lb1_instance(3) puts mass on exact zero sums, so the tie rule matters:
    # with ties to X the exact p(W, X) is 1/8
    inst = lb1_instance(3)
    model = ModelConfig("averaging", 3, tie_to_first=False)
    groups = 20_000
    pm = simulate_estimated_pmatrix(SampleRunConfig(inst, model, groups, seed=0))
    exact = exact_pk(inst, model, "W", "X").value
    radius = math.sqrt(math.log(2 / 1e-6) / (2 * groups))
    assert abs(pm.p[0, 1] - exact) <= radius


def test_matching_estimator_converges():
    rng = np.random.default_rng(8)
    inst = random_euclidean_instance(rng, m=4, n=7)
    model = _rc(k=3)
    cfg = SampleRunConfig(
        inst, model, groups=20_000, seed=4, mode=MATCHING_GROUPS,
    )
    pm = simulate_estimated_pmatrix(cfg)
    exact = exact_pmatrix_reference(inst, model)
    err = np.nanmax(np.abs(pm.p - exact.p))
    assert err <= 0.015
    # orientation bookkeeping survives the per-matching loop
    iu = np.triu_indices(inst.m, 1)
    np.testing.assert_array_equal(pm.p[iu], 1.0 - pm.p.T[iu])


def test_report_fields_and_aggregates(small_line_instance):
    cfg = SampleRunConfig(
        small_line_instance, _avg(), groups=300, trials=5, seed=1,
        epsilon=0.08,
    )
    report = empirical_distortion_trials(cfg)
    assert report.config_mode == RANKING_GROUPS
    assert (report.groups, report.trials, report.seed) == (300, 5, 1)
    assert len(report.winners) == len(report.distortions) == 5
    assert len(report.max_errors) == 5
    assert report.mean_distortion == pytest.approx(
        float(np.mean(report.distortions)), abs=0.0)
    assert report.max_distortion == max(report.distortions)
    assert report.frac_within_epsilon == pytest.approx(
        float(np.mean([e <= 0.08 for e in report.max_errors])), abs=0.0)
    assert all(d >= 1.0 for d in report.distortions)

    payload = json.loads(report.to_json())
    assert payload["trials"] == 5
    assert payload["winners"] == report.winners


def test_report_without_epsilon_leaves_fraction_unset(small_line_instance):
    cfg = SampleRunConfig(small_line_instance, _avg(), groups=50, trials=2)
    report = empirical_distortion_trials(cfg)
    assert report.frac_within_epsilon is None


def test_matching_mode_report_runs(small_line_instance):
    cfg = SampleRunConfig(
        small_line_instance, _rc(), groups=400, trials=2, seed=9,
        mode=MATCHING_GROUPS, epsilon=0.1,
    )
    report = empirical_distortion_trials(cfg)
    assert report.config_mode == MATCHING_GROUPS
    assert len(report.winners) == 2
    assert report.frac_within_epsilon is not None
