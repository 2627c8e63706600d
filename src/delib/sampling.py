"""Finite-sample simulation of the deliberation-to-Copeland pipeline.

Ground truth uses exact pairwise win probabilities; at desk scale the
interesting question is how the pipeline behaves when those probabilities
are estimated from finitely many sampled groups. Two sampling modes:

  * RankingGroups (averaging rule): every sampled group decides every
    pair at once, on its members' summed distance differences, so p-hat
    for each pair is a frequency over all groups.
  * MatchingGroups (random-choice rule): the candidate pairs are split
    into a round-robin schedule of matchings; each matching gets its own
    budget of groups, and a group contributes one Bernoulli outcome per
    pair in its matching.

Trials are independent replicas driven by (seed, trial) substreams, so a
run is deterministic given its seed regardless of scheduling. Each group's
k members are the inverse CDF of the masses at k uniforms of the
substream's random() stream, the draws Generator.choice(p=masses) makes:
cdf = masses.cumsum(), divided by its last value, then
searchsorted(cdf, u, side="right"). A matching's coins follow its groups.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .metric import MetricInstance, _distortions, candidate_distance, signed_diffs
from .models import (
    ModelConfig, _atom_gvals, _block_rng, _inverse_cdf, group_win_probs,
)
from .tournament import PMatrix, build_pmatrix, build_tournament, copeland_winner

RANKING_GROUPS = "RankingGroups"
MATCHING_GROUPS = "MatchingGroups"


def round_robin_matchings(m: int) -> list[list[tuple[int, int]]]:
    """Partition the edges of the complete graph on m labels into matchings.

    Circle method: even m gives m-1 perfect matchings; odd m gives m
    near-perfect matchings with each label sitting out exactly once.
    Every unordered pair appears in exactly one matching.
    """
    if m < 2:
        raise ValueError(f"need at least 2 labels, got {m}")
    labels = list(range(m))
    bye = None
    if m % 2 == 1:
        labels.append(bye)
    n = len(labels)
    rounds = []
    ring = labels[1:]
    for _ in range(n - 1):
        seats = [labels[0]] + ring
        pairs = []
        for i in range(n // 2):
            a, b = seats[i], seats[n - 1 - i]
            if a is bye or b is bye:
                continue
            pairs.append((min(a, b), max(a, b)))
        rounds.append(sorted(pairs))
        ring = ring[-1:] + ring[:-1]
    return rounds


@dataclass(frozen=True)
class SampleRunConfig:
    """One sampling experiment.

    groups counts total sampled groups in RankingGroups mode and groups
    per matching in MatchingGroups mode. epsilon is only a reporting
    threshold (fraction of trials whose worst pair error stays below it).
    """

    instance: MetricInstance
    model: ModelConfig
    groups: int
    trials: int = 1
    seed: int = 0
    mode: str = RANKING_GROUPS
    epsilon: float | None = None

    def __post_init__(self):
        if self.mode not in (RANKING_GROUPS, MATCHING_GROUPS):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.mode == MATCHING_GROUPS and self.model.variant != "random-choice":
            raise ValueError("MatchingGroups requires the random-choice variant")
        if self.mode == RANKING_GROUPS and self.model.variant != "averaging":
            raise ValueError("RankingGroups requires the averaging variant")
        if self.epsilon is not None and not (0.0 <= self.epsilon < math.inf):
            raise ValueError("epsilon must be non-negative and finite, "
                             f"got {self.epsilon!r}")


def _prepare(config: SampleRunConfig):
    """What every trial of the config shares: the member lookup, the
    inverse CDF of the masses normalized as Generator.choice normalizes
    them, and each pair (i, j), i < j, with its atoms' diffs and gvals."""
    inst = config.instance
    cdf = inst.masses.cumsum()
    cdf /= cdf[-1]
    pairs = {}
    for i, j in itertools.combinations(range(inst.m), 2):
        ci, cj = inst.candidates[i], inst.candidates[j]
        diffs = signed_diffs(inst, ci, cj)
        pairs[i, j] = (diffs, _atom_gvals(config.model, diffs,
                                          candidate_distance(inst, ci, cj)))
    return _inverse_cdf(cdf), pairs


def _simulate(config: SampleRunConfig, rng, draw, pairs) -> PMatrix:
    """One trial's estimated P-matrix from rng, with draw and pairs from
    _prepare(config). RankingGroups draws one (groups x k) member matrix;
    MatchingGroups draws one per matching, each followed by that
    matching's coins."""
    model = config.model
    m = config.instance.m
    shape = (config.groups, model.k)
    P = np.full((m, m), np.nan)
    if config.mode == RANKING_GROUPS:
        members = draw(rng.random(shape))
        for pair, (diffs, gvals) in pairs.items():
            P[pair] = group_win_probs(model, members, diffs, gvals).mean()
    else:
        for matching in round_robin_matchings(m):
            members = draw(rng.random(shape))
            coins = rng.random((config.groups, len(matching)))
            for e, pair in enumerate(matching):
                wins = coins[:, e] < group_win_probs(model, members, *pairs[pair])
                P[pair] = np.count_nonzero(wins) / config.groups
    upper = np.triu_indices(m, 1)
    P.T[upper] = 1.0 - P[upper]
    return PMatrix(
        config.instance.candidates, P, "MonteCarlo",
        trials=config.groups, seed=config.seed,
    )


def simulate_estimated_pmatrix(config: SampleRunConfig) -> PMatrix:
    """Estimated pairwise probabilities for trial 0 of the config."""
    return _simulate(config, _block_rng(config.seed, 0), *_prepare(config))


@dataclass
class SampleRunReport:
    """Per-trial pipeline outcomes plus aggregates."""

    config_mode: str
    groups: int
    trials: int
    seed: int
    epsilon: float | None
    winners: list[str] = field(default_factory=list)
    distortions: list[float] = field(default_factory=list)
    max_errors: list[float] = field(default_factory=list)
    mean_distortion: float = math.nan
    max_distortion: float = math.nan
    frac_within_epsilon: float | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "mode": self.config_mode,
                "groups": self.groups,
                "trials": self.trials,
                "seed": self.seed,
                "epsilon": self.epsilon,
                "winners": self.winners,
                "distortions": self.distortions,
                "max_errors": self.max_errors,
                "mean_distortion": self.mean_distortion,
                "max_distortion": self.max_distortion,
                "frac_within_epsilon": self.frac_within_epsilon,
            },
            indent=2,
        )


def empirical_distortion_trials(config: SampleRunConfig) -> SampleRunReport:
    """Run the sampled pipeline `trials` times against the exact reference.

    Each trial estimates the pairwise matrix from fresh groups, runs
    Copeland on the estimate, and scores the elected candidate's
    distortion; the per-pair error is measured against exact enumeration
    on the orientation (i, j), i < j, that the sampler estimates directly.
    """
    exact = build_pmatrix(config.instance, config.model, "exact")
    upper = np.triu_indices(exact.m, 1)
    draw, pairs = _prepare(config)
    distortion = _distortions(config.instance)
    report = SampleRunReport(
        config_mode=config.mode, groups=config.groups, trials=config.trials,
        seed=config.seed, epsilon=config.epsilon,
    )
    for t in range(config.trials):
        pm = _simulate(config, _block_rng(config.seed, t), draw, pairs)
        w = copeland_winner(build_tournament(pm))
        report.winners.append(w)
        report.distortions.append(distortion[w])
        err = np.abs(pm.p[upper] - exact.p[upper]).max()
        report.max_errors.append(float(err))
    report.mean_distortion = float(np.mean(report.distortions))
    report.max_distortion = float(np.max(report.distortions))
    if config.epsilon is not None:
        report.frac_within_epsilon = float(
            np.mean([e <= config.epsilon for e in report.max_errors])
        )
    return report
