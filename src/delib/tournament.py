"""Pairwise deliberation probabilities and Copeland aggregation.

A full m-way election is decided by running the pairwise deliberation model
on every ordered candidate pair, thresholding at 1/2 to get a dominance
digraph, and picking the max-Copeland-score candidate (ties by declaration
order). When every pair has a beater, the winner is uncovered: it beats any
rival directly or beats someone who beats the rival. Were some rival j out
of its reach in two steps, j alone would beat the winner and everything the
winner beats, and so outscore it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence

from .metric import MetricInstance, distortion_of
from .models import ModelConfig, exact_pk_pairs, monte_carlo_pk

EXACT_DOMINANCE_TOL = 1e-9   # exact p values sit on 1/2 only up to rounding
MC_DOMINANCE_TOL = 0.0


@dataclass(frozen=True)
class MonteCarlo:
    """Estimation mode: per-pair Bernoulli sampling with a root seed."""

    trials: int
    seed: int


@dataclass(frozen=True, eq=False)
class PMatrix:
    candidates: tuple[str, ...]
    p: np.ndarray               # p[i][j] = P(pair (i,j) deliberation outputs i)
    method: str                 # "Exact" | "MonteCarlo"
    trials: int | None = None
    seed: int | None = None

    def __post_init__(self):
        self.p.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.candidates)

    def to_json(self) -> str:
        return json.dumps(
            {
                "candidates": list(self.candidates),
                "method": self.method,
                "trials": self.trials,
                "seed": self.seed,
                "p": [
                    [None if i == j else self.p[i, j] for j in range(self.m)]
                    for i in range(self.m)
                ],
            },
            indent=2,
        )


def _pair_seed(seed: int, i: int, j: int) -> int:
    return int(SeedSequence(entropy=[seed, i, j]).generate_state(1, np.uint64)[0])


def build_pmatrix(
    inst: MetricInstance, model: ModelConfig, mode="exact",
) -> PMatrix:
    """Fill the pairwise probability table.

    Exact mode runs one enumeration per atom count for all unordered pairs
    (exact_pk_pairs), which gives both orientations of every pair exactly
    (tie conventions make p[i][j] + p[j][i] exceed 1 by the tie mass).
    Monte Carlo mode samples one Bernoulli stream per unordered pair, seeded
    from (seed, i, j), and mirrors p[j][i] = 1 - p[i][j], the way per-pair
    field estimates are collected.
    """
    m = inst.m
    P = np.full((m, m), np.nan)
    if mode == "exact":
        c = inst.candidates
        pairs = list(itertools.combinations(range(m), 2))
        probs = exact_pk_pairs(inst, model, [(c[i], c[j]) for i, j in pairs])
        for (i, j), (p, q) in zip(pairs, probs):
            P[i, j], P[j, i] = p, q
        return PMatrix(inst.candidates, P, "Exact")
    if isinstance(mode, MonteCarlo):
        for i in range(m):
            for j in range(i + 1, m):
                r = monte_carlo_pk(
                    inst, model, inst.candidates[i], inst.candidates[j],
                    trials=mode.trials, seed=_pair_seed(mode.seed, i, j),
                )
                P[i, j] = r.value
                P[j, i] = 1.0 - r.value
        return PMatrix(
            inst.candidates, P, "MonteCarlo", trials=mode.trials, seed=mode.seed
        )
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True, eq=False)
class Tournament:
    candidates: tuple[str, ...]
    beats: np.ndarray           # beats[i][j]: p[i][j] >= 1/2 - tol
    tol: float

    def __post_init__(self):
        self.beats.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.candidates)


def default_tol(pm: PMatrix) -> float:
    return EXACT_DOMINANCE_TOL if pm.method == "Exact" else MC_DOMINANCE_TOL


def build_tournament(pm: PMatrix, tol: float | None = None) -> Tournament:
    if tol is None:
        tol = default_tol(pm)
    if not (0.0 <= tol < math.inf):
        raise ValueError(f"tol must be non-negative and finite, got {tol!r}")
    beats = (pm.p >= 0.5 - tol) & ~np.eye(pm.m, dtype=bool)
    return Tournament(pm.candidates, beats, tol)


def copeland_scores(t: Tournament) -> np.ndarray:
    """One point per unordered pair: the sole beater takes it, and it splits
    half and half when both orientations beat or neither does. Scores always
    sum to m(m-1)/2.
    """
    b = t.beats
    points = np.where(b == b.T, 0.5, b.astype(float))
    return np.where(np.eye(t.m, dtype=bool), 0.0, points).sum(axis=1)


def copeland_winner(t: Tournament) -> str:
    scores = copeland_scores(t)
    return t.candidates[int(np.argmax(scores))]   # first max = declaration order


def uncovered_check(t: Tournament, w: str) -> bool:
    """True iff w reaches every rival in at most two dominance steps
    (half-point ties count as dominance in both directions)."""
    wi = t.candidates.index(w)
    direct = t.beats[wi]
    two_step = (t.beats[wi].astype(int) @ t.beats.astype(int)) > 0
    reach = direct | two_step
    return all(reach[j] for j in range(t.m) if j != wi)


def pipeline_distortion(inst: MetricInstance, model: ModelConfig) -> tuple[str, float]:
    """End to end: exact pairwise probabilities -> tournament -> Copeland
    winner -> distortion of that winner."""
    pm = build_pmatrix(inst, model, "exact")
    t = build_tournament(pm)
    w = copeland_winner(t)
    return w, distortion_of(inst, w)

