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
they are formed from the stored distances.

exact_pk_pairs enumerates location multisets with multinomial weights once
per atom count for a whole set of pairs, say every pair of a P-matrix: the
pairs whose atoms number n share one pass over the multisets of range(n),
with the pair axis last. It returns both orientations of each pair, each
bit for bit what its own enumeration would give; exact_pk_pair is its
one-pair call and exact_pk returns that call's first value.

Sampled members, in monte_carlo_pk and in the sampler, are the inverse CDF
of uniform draws from a Generator's random() stream, the stream that
Generator.choice(p=...) reads; _inverse_cdf looks them up.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .metric import MetricInstance, candidate_distance, signed_diffs

# member slots exact enumeration may fill: C(n+k-1, k) multisets of k each
ENUMERATION_BUDGET = 2_000_000
_MC_BLOCK = 1 << 16
_EXACT_BLOCK = 1 << 12
# rows x pairs of terms one batched enumeration holds per orientation
_EXACT_TERMS = 1 << 15
# the largest group size whose binomials C(k, c) are all finite floats:
# C(1029, 514) is about 1.43e308, and C(1030, 515) is past the float range
_MAX_EXACT_K = 1029
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
            try:
                exponent = float(text[4:])
            except ValueError:
                raise ValueError(f"cannot parse transform {text!r}") from None
            return cls("pow", exponent)
        raise ValueError(f"cannot parse transform {text!r}")


LINEAR = BiasTransform("linear")
SQRT = BiasTransform("sqrt")


@dataclass(frozen=True)
class ModelConfig:
    """Deliberation model: variant, group size, and tie conventions.

    tie_to_first: an Averaging bias sum of exactly 0 counts for the first
    alternative. all_zero_to_first: a random-choice group whose members are
    all exactly indifferent gives its beta-weighted share to the first
    alternative (else half of it); the random-dictator term counts such
    members for neither side, so with beta < 1, p_ij + p_ji can fall below 1.
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
        """Read a model file, rejecting any field of the wrong JSON type
        (a bool is not a number here) rather than coercing it."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a model file holds one JSON object")

        def required(name):
            if name not in doc:
                raise ValueError(f"model field {name!r} is missing")
            return doc[name]

        def checked(name, types, default=None):
            v = required(name) if default is None else doc.get(name, default)
            if not (isinstance(v, types)
                    and isinstance(v, bool) == (types is bool)):
                raise ValueError(f"model field {name!r} has the wrong type: {v!r}")
            return v

        return cls(
            variant=required("variant"),
            k=checked("k", int),
            g=BiasTransform.parse(checked("g", str, "linear")),
            beta=float(checked("beta", (int, float), 1.0)),
            tie_to_first=checked("tie_to_first", bool, True),
            all_zero_to_first=checked("all_zero_to_first", bool, True),
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


def _atom_gvals(model: ModelConfig, diffs, d12: float):
    """Each atom's g(|d(i,c1) - d(i,c2)| / d(c1,c2)) for random choice;
    None for averaging, whose decision reads only the diffs."""
    if model.variant == "averaging":
        return None
    return model.g.apply(np.abs(diffs / d12))


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
    choice reads. Given (atoms x pairs) diffs and gvals, one column per
    pair, it returns (groups x pairs), each column bit for bit the 1-D
    call on that pair's columns.

    Averaging decides a group on the sign of the exact sum of its members'
    diffs. The float row sum decides every row whose magnitude exceeds its
    rounding bound; math.fsum, which rounds correctly and so keeps the exact
    sign, decides the rest. A zero sum goes to the first alternative iff
    model.tie_to_first.
    """
    k = model.k
    if model.variant == "averaging":
        s = _member_sums(diffs, members)
        near = np.abs(s) <= _SUM_SLACK * k * k * np.abs(diffs).max(axis=0)
        if near.any():
            hit = np.nonzero(near)
            s[hit] = [math.fsum(row) for row in
                      diffs[(members[hit[0]].T, *hit[1:])].T.tolist()]
        tie = 1.0 if model.tie_to_first else 0.0
        return np.where(s < 0, 1.0, np.where(s > 0, 0.0, tie))
    # in place, with the same operations as
    # beta * where(a + b > 0, a / (a + b), azf) + (1 - beta) * (n_neg / k)
    neg = diffs < 0
    core = _member_sums(np.where(neg, gvals, 0.0), members)
    tot = _member_sums(np.where(diffs > 0, gvals, 0.0), members)
    tot += core
    some = tot > 0
    np.divide(core, tot, out=core, where=some)
    core[~some] = 1.0 if model.all_zero_to_first else 0.5
    core *= model.beta
    del tot, some
    share = _member_sums(neg.astype(float), members)
    share /= k
    share *= 1.0 - model.beta
    core += share
    return core


def _multiset_rows(n: int, k: int, block: int):
    """Every sorted k-multiset of range(n) as a row of atom indices, in
    itertools.combinations_with_replacement order, in blocks of at most
    `block` rows. Row r is unranked in the combinatorial number
    system: R = C(n+k-1, k)-1-r is the colex rank of a k-combination
    c_1 < ... < c_k of range(n+k-1); slot i = k, ..., 1 takes the largest
    c_i with C(c_i, i) <= R, then R -= C(c_i, i), and row entry k-i is
    n-1-(c_i-(i-1))."""
    total = math.comb(n + k - 1, k)
    # below[i-1, d] = C(i-1+d, i) for the offsets d = c_i-(i-1) slot i can
    # take, capped at total, which no rank reaches
    below = np.array([[min(math.comb(i - 1 + d, i), total) for d in range(n)]
                      for i in range(1, k + 1)], dtype=np.int64)
    for first in range(0, total, block):
        rank = total - 1 - np.arange(first, min(first + block, total))
        rows = np.empty((len(rank), k), dtype=np.intp)
        for i in range(k, 0, -1):
            d = np.searchsorted(below[i - 1], rank, side="right") - 1
            rank -= below[i - 1, d]
            rows[:, k - i] = n - 1 - d
        yield rows


def exact_pk_pairs(
    inst: MetricInstance, model: ModelConfig, pairs: list[tuple[str, str]],
    budget: int = ENUMERATION_BUDGET,
) -> list[tuple[float, float]]:
    """Exact probabilities that a deliberating group outputs c1 over c2 and
    c2 over c1, for each (c1, c2) in pairs, from multisets of bias atoms
    with multinomial weights: the pairs whose atoms number n share one
    enumeration, with the pair axis last, unless their terms would pass
    _EXACT_TERMS.

    The (c2, c1) enumeration sees atom n-1-a where this one sees a, with its
    diff negated: each row read backwards against -diffs is one of its rows,
    and the weight factors taken from the last atom down give its weight bit
    for bit. Each orientation of each pair is summed with one correctly
    rounded math.fsum, so row order and batching do not matter: every value
    is bit for bit what a one-pair call gives. Raises ValueError when k
    exceeds _MAX_EXACT_K and EnumerationBudgetExceeded for the first pair
    whose member slots, C(n+k-1, k) multisets of k members each, exceed the
    budget, both before any enumeration.
    """
    k = model.k
    if k > _MAX_EXACT_K:
        raise ValueError(
            f"group size k = {k} is too large for exact enumeration: its "
            f"binomial weights exceed the float range past k = {_MAX_EXACT_K}"
        )
    atoms = [_atoms(inst, c1, c2) for c1, c2 in pairs]
    by_count = {}
    for i, (diffs, _, _) in enumerate(atoms):
        multisets = math.comb(len(diffs) + k - 1, k)
        if multisets * k > budget:
            raise EnumerationBudgetExceeded(
                f"{multisets} multisets of {k} members ({multisets * k} "
                f"member slots) exceed budget {budget}"
            )
        by_count.setdefault(len(diffs), []).append(i)
    # weight factor comb(rem, c) * p**c for rem members left, c of them here;
    # Pascal's rule keeps one row of exact ints at a time
    comb = np.zeros((k + 1, k + 1))
    row = [1]
    for r in range(k + 1):
        comb[r, :r + 1] = [float(x) for x in row]
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
    out = [None] * len(atoms)
    for n, group in by_count.items():
        # a batch holds its terms until the fsum: at most _EXACT_TERMS per
        # orientation, or one pair's
        step = max(1, _EXACT_TERMS // math.comb(n + k - 1, k))
        for batch in (group[s:s + step] for s in range(0, len(group), step)):
            diffs, probs, d12 = (np.stack(x, axis=-1)
                                 for x in zip(*(atoms[i] for i in batch)))
            gvals = _atom_gvals(model, diffs, d12)
            powers = np.array([[[p**c for p in ps] for c in range(k + 1)]
                               for ps in probs.tolist()])
            fwd, rev = [], []
            block = max(1, _EXACT_BLOCK // len(batch))
            for members in _multiset_rows(n, k, block):
                rows = len(members)
                counts = np.bincount(
                    (members + n * np.arange(rows)[:, None]).ravel(),
                    minlength=rows * n,
                ).reshape(rows, n)
                for terms, groups, values, order in (
                    (fwd, members, diffs, range(n)),
                    (rev, members[:, ::-1], -diffs, range(n - 1, -1, -1)),
                ):
                    w = np.ones((rows, len(batch)))
                    rem = np.full(rows, k)
                    for atom in order:
                        c = counts[:, atom]
                        w *= comb[rem, c][:, None] * powers[atom, c]
                        rem -= c
                    terms.append(
                        w * group_win_probs(model, groups, values, gvals))
            for col, i in enumerate(batch):
                out[i] = tuple(
                    min(1.0, max(0.0, math.fsum(itertools.chain.from_iterable(
                        t[:, col].tolist() for t in terms))))
                    for terms in (fwd, rev)
                )
    return out


def exact_pk_pair(
    inst: MetricInstance, model: ModelConfig, c1: str, c2: str,
    budget: int = ENUMERATION_BUDGET,
) -> tuple[float, float]:
    """exact_pk_pairs for the one pair (c1, c2)."""
    return exact_pk_pairs(inst, model, [(c1, c2)], budget)[0]


def exact_pk(
    inst: MetricInstance, model: ModelConfig, c1: str, c2: str,
    budget: int = ENUMERATION_BUDGET,
) -> PkResult:
    """Exact probability that a deliberating group outputs c1 over c2: the
    first value of exact_pk_pair."""
    p = exact_pk_pair(inst, model, c1, c2, budget)[0]
    return PkResult(value=p, stderr=0.0, method="Exact")


def _block_rng(seed: int, block: int) -> Generator:
    """Counter-style stream: randomness is a pure function of (seed, block),
    so chunked or parallel execution reproduces identical per-trial draws.
    """
    return Generator(Philox(SeedSequence(entropy=[seed, block])))


def _inverse_cdf(cum):
    """The inverse-CDF lookup for the nondecreasing values cum: a function
    that maps an array u of floats in [0, 1) to
    np.searchsorted(cum, u, side="right"), element for element.

    It reads a guide table (Chen & Asau 1974; Devroye 1986, III.2.4) of
    B = 2^j >= 4n buckets for n values. As B is a power of two, u·B is
    exact, so bucket b = floor(u·B) holds u in [b/B, (b+1)/B) with no
    rounding, and lo[b], the count of values <= b/B, is a lower bound on
    the answer. One exact comparison with the first value above b/B
    finishes every u whose bucket has at most one value strictly inside;
    u in a bucket with more (many tiny masses) goes to np.searchsorted.
    """
    size = 1 << (4 * len(cum) - 1).bit_length()
    edges = np.arange(size + 1) / size
    lo = np.searchsorted(cum, edges[:-1], side="right")
    crowded = np.searchsorted(cum, edges[1:], side="left") - lo > 1
    next_value = np.append(cum, np.inf)[lo]
    any_crowded = bool(crowded.any())

    def lookup(u):
        b = np.multiply(u, size, out=np.empty(u.shape, np.intp),
                        casting="unsafe")
        step = next_value.take(b) <= u
        idx = lo.take(b)
        idx += step
        if any_crowded:
            far = crowded.take(b)
            idx[far] = np.searchsorted(cum, u[far], side="right")
        return idx

    return lookup


def _mc_successes(model: ModelConfig, draw, diffs, gvals, rng, rows) -> int:
    """Successes among `rows` trials drawn from rng; a block's arrays are
    freed before the next block draws."""
    k = model.k
    averaging = model.variant == "averaging"
    u = rng.random((rows, k if averaging else k + 1))
    pwin = group_win_probs(model, draw(u[:, :k]), diffs, gvals)
    return int(np.count_nonzero(pwin if averaging else u[:, k] < pwin))


def monte_carlo_pk(
    inst: MetricInstance, model: ModelConfig, c1: str, c2: str,
    trials: int, seed: int,
) -> PkResult:
    """Unbiased Monte Carlo estimate of exact_pk with Bernoulli outcomes.

    Trial t draws from the fixed stream (seed, t // block, t % block), making
    the estimate independent of chunking: k uniforms, whose inverse CDF
    over the atoms picks the members, then for random choice one uniform
    for the group's coin. stderr = sqrt(p(1-p)/trials).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    diffs, probs, d12 = _atoms(inst, c1, c2)
    cum = np.cumsum(probs)
    cum /= cum[-1]               # as Generator.choice normalizes p
    draw = _inverse_cdf(cum)
    gvals = _atom_gvals(model, diffs, d12)
    successes = sum(
        _mc_successes(model, draw, diffs, gvals, _block_rng(seed, block),
                      min(_MC_BLOCK, trials - first))
        for block, first in enumerate(range(0, trials, _MC_BLOCK))
    )
    phat = successes / trials
    return PkResult(
        value=phat,
        stderr=math.sqrt(phat * (1.0 - phat) / trials),
        method="MonteCarlo",
        trials=trials,
        seed=seed,
    )
