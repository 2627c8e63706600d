"""Deliberation models for a single pair of alternatives.

A group of k voters is sampled i.i.d. from the instance's mass distribution.
Averaging: the group outputs the first alternative iff the sum of normalized
biases is <= 0 (tie convention configurable). Random choice: the group outputs
the first alternative with probability A/(A+B), where A (resp. B) sums a
concave transform g of |bias| over members favoring the first (resp. second)
alternative; an opinion-change weight beta mixes this with random dictatorship.

group_win_probs is the one decision kernel for both rules: exact_pk,
monte_carlo_pk and the sampler all feed it matrices of sampled members.
Averaging decisions are made on summed distance differences d(i,c1)-d(i,c2)
(the positive divisor d(c1,c2) cannot change the sign), and each group is
decided on the exact sum of its members' stored differences, whatever the
distances. Only the differences themselves are rounded, once each, when
they are formed from the stored distances. exact_pk enumerates location
multisets with multinomial weights.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .metric import MetricInstance, candidate_distance, signed_diffs

ENUMERATION_BUDGET = 2_000_000
_MC_BLOCK = 1 << 16
_EXACT_BLOCK = 1 << 12
# A float sum of k terms errs by less than (k-1)·(eps/2)·sum|term|, and
# sum|term| <= k·max|term|; 2·eps·k·k·max|term| bounds that with a margin.
_SUM_SLACK = 2 * np.finfo(float).eps


class EnumerationBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class BiasTransform:
    """Concave transform g on [0,1] with g(0)=0, g(1)=1.

    kind one of "linear", "sqrt", "pow"; "pow" uses exponent e in (0, 1].
    """

    kind: str = "linear"
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "sqrt", "pow"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "pow" and not (0.0 < self.exponent <= 1.0):
            raise ValueError(f"pow exponent must be in (0,1]: {self.exponent!r}")

    def apply(self, x):
        if self.kind == "linear":
            return x
        if self.kind == "sqrt":
            return np.sqrt(x)
        return np.power(x, self.exponent)

    def spec(self) -> str:
        if self.kind == "pow":
            return f"pow:{self.exponent!r}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "BiasTransform":
        if text == "linear":
            return cls("linear")
        if text == "sqrt":
            return cls("sqrt")
        if text.startswith("pow:"):
            return cls("pow", float(text[4:]))
        raise ValueError(f"cannot parse transform {text!r}")


LINEAR = BiasTransform("linear")
SQRT = BiasTransform("sqrt")


@dataclass(frozen=True)
class ModelConfig:
    """Deliberation model: variant, group size, and tie conventions.

    tie_to_first: an Averaging bias sum of exactly 0 counts for the first
    alternative. all_zero_to_first: a random-choice group whose members are
    all exactly indifferent outputs the first alternative (else a fair coin).
    """

    variant: str                      # "averaging" | "random-choice"
    k: int
    g: BiasTransform = LINEAR
    beta: float = 1.0
    tie_to_first: bool = True
    all_zero_to_first: bool = True

    def __post_init__(self):
        if self.variant not in ("averaging", "random-choice"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.k < 1:
            raise ValueError(f"group size must be >= 1, got {self.k}")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must be in [0,1], got {self.beta}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "variant": self.variant,
                "k": self.k,
                "g": self.g.spec(),
                "beta": self.beta,
                "tie_to_first": self.tie_to_first,
                "all_zero_to_first": self.all_zero_to_first,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        doc = json.loads(text)
        return cls(
            variant=doc["variant"],
            k=int(doc["k"]),
            g=BiasTransform.parse(doc.get("g", "linear")),
            beta=float(doc.get("beta", 1.0)),
            tie_to_first=bool(doc.get("tie_to_first", True)),
            all_zero_to_first=bool(doc.get("all_zero_to_first", True)),
        )


@dataclass(frozen=True)
class PkResult:
    value: float
    stderr: float
    method: str                 # "Exact" | "MonteCarlo"
    trials: int | None = None
    seed: int | None = None


def _atoms(inst: MetricInstance, c1: str, c2: str):
    """Locations merged by exact distance difference d(i,c1)-d(i,c2)."""
    d12 = candidate_distance(inst, c1, c2)
    merged: dict[float, list[float]] = {}
    for d, p in zip(signed_diffs(inst, c1, c2), inst.masses):
        merged.setdefault(float(d), []).append(float(p))
    diffs = sorted(merged)
    probs = [math.fsum(merged[d]) for d in diffs]
    return np.array(diffs), np.array(probs), d12


def _member_sums(values, members) -> np.ndarray:
    """Each row's sum of values over its members, added left to right."""
    total = values[members[:, 0]]
    for col in range(1, members.shape[1]):
        total += values[members[:, col]]
    return total


def group_win_probs(model: ModelConfig, members, diffs, gvals) -> np.ndarray:
    """Chance that each sampled group outputs the first alternative.

    members is a (groups x k) integer matrix of atom indices; diffs holds
    each atom's signed difference d(i,c1) - d(i,c2) and gvals its transformed
    normalized bias g(|d(i,c1) - d(i,c2)| / d(c1,c2)), which only random
    choice reads.

    Averaging decides a group on the sign of the exact sum of its members'
    diffs. The float row sum decides every row whose magnitude exceeds its
    rounding bound; math.fsum, which rounds correctly and so keeps the exact
    sign, decides the rest. A zero sum goes to the first alternative iff
    model.tie_to_first.
    """
    k = model.k
    if model.variant == "averaging":
        s = _member_sums(diffs, members)
        near = np.abs(s) <= _SUM_SLACK * k * k * np.abs(diffs).max()
        if near.any():
            s[near] = [math.fsum(row) for row in diffs[members[near]].tolist()]
        tie = 1.0 if model.tie_to_first else 0.0
        return np.where(s < 0, 1.0, np.where(s > 0, 0.0, tie))
    neg = diffs < 0
    a = _member_sums(np.where(neg, gvals, 0.0), members)
    b = _member_sums(np.where(diffs > 0, gvals, 0.0), members)
    tot = a + b
    azf = 1.0 if model.all_zero_to_first else 0.5
    core = np.where(tot > 0, a / np.where(tot > 0, tot, 1.0), azf)
    n_neg = _member_sums(neg.astype(float), members)
    return model.beta * core + (1.0 - model.beta) * (n_neg / k)


def exact_pk(
    inst: MetricInstance, model: ModelConfig, c1: str, c2: str,
    budget: int = ENUMERATION_BUDGET,
) -> PkResult:
    """Exact probability that a deliberating group outputs c1 over c2.

    Enumerates multisets of bias atoms, as sorted index rows in blocks, with
    multinomial weights. Raises EnumerationBudgetExceeded when C(n+k-1, k)
    exceeds the budget.
    """
    diffs, probs, d12 = _atoms(inst, c1, c2)
    n, k = len(diffs), model.k
    if math.comb(n + k - 1, k) > budget:
        raise EnumerationBudgetExceeded(
            f"{math.comb(n + k - 1, k)} multisets exceed budget {budget}"
        )
    gvals = model.g.apply(np.abs(diffs / d12))
    # weight factor comb(rem, c) * p**c for rem members left, c of them here
    comb = np.array([[math.comb(r, c) for c in range(k + 1)]
                     for r in range(k + 1)], dtype=float)
    powers = np.array([[p**c for c in range(k + 1)] for p in probs])
    multisets = itertools.combinations_with_replacement(range(n), k)
    row = np.dtype((np.intp, k))

    def terms():
        while True:
            members = np.fromiter(itertools.islice(multisets, _EXACT_BLOCK), row)
            rows = len(members)
            if not rows:
                return
            cells = (members + n * np.arange(rows)[:, None]).ravel()
            counts = np.bincount(cells, minlength=rows * n).reshape(rows, n)
            w = np.ones(rows)
            rem = np.full(rows, k)
            for atom in range(n):
                c = counts[:, atom]
                w *= comb[rem, c] * powers[atom, c]
                rem -= c
            yield (w * group_win_probs(model, members, diffs, gvals)).tolist()

    p = math.fsum(itertools.chain.from_iterable(terms()))
    return PkResult(value=min(1.0, max(0.0, p)), stderr=0.0, method="Exact")


def _block_rng(seed: int, block: int) -> Generator:
    """Counter-style stream: randomness is a pure function of (seed, block),
    so chunked or parallel execution reproduces identical per-trial draws.
    """
    return Generator(Philox(SeedSequence(entropy=[seed, block])))


def monte_carlo_pk(
    inst: MetricInstance, model: ModelConfig, c1: str, c2: str,
    trials: int, seed: int,
) -> PkResult:
    """Unbiased Monte Carlo estimate of exact_pk with Bernoulli outcomes.

    Trial t draws from the fixed stream (seed, t // block, t % block), making
    the estimate independent of chunking. stderr = sqrt(p(1-p)/trials).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    diffs, probs, d12 = _atoms(inst, c1, c2)
    k = model.k
    cum = np.cumsum(probs)
    cum[-1] = max(cum[-1], 1.0)  # guard against rounding at the top
    averaging = model.variant == "averaging"
    gvals = model.g.apply(np.abs(diffs / d12))

    width = k if averaging else k + 1
    successes = 0
    done = 0
    block = 0
    while done < trials:
        rows = min(_MC_BLOCK, trials - done)
        rng = _block_rng(seed, block)
        u = rng.random((rows, width))
        idx = np.searchsorted(cum, u[:, :k], side="right")
        pwin = group_win_probs(model, idx, diffs, gvals)
        wins = pwin if averaging else u[:, k] < pwin
        successes += int(np.count_nonzero(wins))
        done += rows
        block += 1
    phat = successes / trials
    return PkResult(
        value=phat,
        stderr=math.sqrt(phat * (1.0 - phat) / trials),
        method="MonteCarlo",
        trials=trials,
        seed=seed,
    )
