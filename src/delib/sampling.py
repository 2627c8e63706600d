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
run is deterministic given its seed regardless of scheduling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .metric import MetricInstance, candidate_distance, distortion_of, signed_diffs
from .models import ModelConfig, _atom_gvals, _block_rng, group_win_probs
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


def _simulate(config: SampleRunConfig, rng) -> PMatrix:
    inst = config.instance
    model = config.model
    m = inst.m
    masses = inst.masses
    P = np.full((m, m), np.nan)

    def win_probs(draws, i, j):
        """Each sampled group's chance to output candidate i over j."""
        ci, cj = inst.candidates[i], inst.candidates[j]
        diffs = signed_diffs(inst, ci, cj)
        d12 = candidate_distance(inst, ci, cj)
        gvals = _atom_gvals(model, diffs, d12)
        return group_win_probs(model, draws, diffs, gvals)

    if config.mode == RANKING_GROUPS:
        draws = rng.choice(len(masses), size=(config.groups, model.k), p=masses)
        for i in range(m):
            for j in range(i + 1, m):
                P[i, j] = win_probs(draws, i, j).mean()
    else:
        for matching in round_robin_matchings(m):
            draws = rng.choice(
                len(masses), size=(config.groups, model.k), p=masses
            )
            coins = rng.random((config.groups, len(matching)))
            for e, (i, j) in enumerate(matching):
                wins = coins[:, e] < win_probs(draws, i, j)
                P[i, j] = np.count_nonzero(wins) / config.groups
    upper = np.triu_indices(m, 1)
    P.T[upper] = 1.0 - P[upper]
    return PMatrix(
        inst.candidates, P, "MonteCarlo",
        trials=config.groups, seed=config.seed,
    )


def simulate_estimated_pmatrix(config: SampleRunConfig) -> PMatrix:
    """Estimated pairwise probabilities for trial 0 of the config."""
    return _simulate(config, _block_rng(config.seed, 0))


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
    m = exact.m
    report = SampleRunReport(
        config_mode=config.mode, groups=config.groups, trials=config.trials,
        seed=config.seed, epsilon=config.epsilon,
    )
    for t in range(config.trials):
        pm = _simulate(config, _block_rng(config.seed, t))
        tour = build_tournament(pm)
        w = copeland_winner(tour)
        report.winners.append(w)
        report.distortions.append(distortion_of(config.instance, w))
        err = max(
            abs(pm.p[i, j] - exact.p[i, j])
            for i in range(m) for j in range(i + 1, m)
        )
        report.max_errors.append(float(err))
    report.mean_distortion = float(np.mean(report.distortions))
    report.max_distortion = float(np.max(report.distortions))
    if config.epsilon is not None:
        report.frac_within_epsilon = float(
            np.mean([e <= config.epsilon for e in report.max_errors])
        )
    return report
