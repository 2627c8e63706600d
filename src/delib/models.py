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

exact_pk_pairs computes a whole set of pairs, say every pair of a P-matrix,
and returns both orientations of each; the pairs whose atoms number n
share one batch, with the pair axis last. Random choice enumerates the
k-multisets of range(n) with multinomial weights. Averaging meets in the
middle: it enumerates the multisets of two half-groups, sorts the second
half by its sum, and finds by binary search the second halves that
surely lose or win against each first half; group_win_probs decides only
the groups in the window between, and none where every group sum is
exact in floats. exact_pk_pair is its one-pair call and exact_pk returns
that call's first value.

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

# member slots exact enumeration may fill: C(n+k-1, k) multisets of k each,
# or for averaging both half-groups and the groups near a tie
ENUMERATION_BUDGET = 2_000_000
_MC_BLOCK = 1 << 16
_EXACT_BLOCK = 1 << 12
# rows x pairs one batch holds in an array, or one pair's rows
_EXACT_TERMS = 1 << 15
# the largest group size whose binomials C(k, c) are all finite floats:
# C(1029, 514) is about 1.43e308, and C(1030, 515) is past the float range
_MAX_EXACT_K = 1029
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


def _sum_slack(diffs, k: int):
    """For each column of diffs, a bound on how far a float sum of k of its
    entries can stray from their exact sum.

    Let u = eps/2 and M = max|d|. A sum of h terms added left to right errs
    by at most (h-1)·u·h·M, so the slack 4u·k·k·M bounds a full group's
    error four times over. It also covers the meet-in-the-middle split:
    half sums s1, s2 of k1 + k2 = k terms err by at most u·(k1² + k2²)·M
    <= u·k²·M together, and forming -s1 ± slack rounds once more, by at
    most u·(|s1| + slack) <= u·(k·M + slack); the three stay below the
    slack, so a half-2 sum beyond -s1 ± slack fixes the exact sign.
    """
    return _SUM_SLACK * k * k * np.abs(diffs).max(axis=0)


def _exact_sums(diffs, k: int):
    """For each column of diffs, whether every float sum of k of its
    entries is exact.

    It is when the diffs are integer multiples of a power of two g with
    k·M < 2^53·g, M = max|d|, and k·M < 2^1023: every partial sum of up to
    k diffs is then a multiple of g below 2^53·g in magnitude, a float, so
    no addition rounds. The g tried is 2^(e+b-53), where M < 2^e and
    k <= 2^b, at most four times the least g the bound allows.
    """
    big = np.abs(diffs).max(axis=0)
    grid = np.ldexp(1.0, np.maximum(
        np.frexp(big)[1] + (k - 1).bit_length() - 53, -1074))
    return (np.fmod(diffs, grid) == 0).all(axis=0) & (big < 2.0**1023 / k)


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
    rounding bound (_sum_slack); math.fsum, which rounds correctly and so
    keeps the exact sign, decides the rest, unless the column's sums are
    all exact. A zero sum goes to the first alternative iff
    model.tie_to_first.
    """
    k = model.k
    if model.variant == "averaging":
        s = _member_sums(diffs, members)
        near = np.abs(s) <= _sum_slack(diffs, k)
        if near.any():
            near &= ~_exact_sums(diffs, k)
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


def _counts(members, n: int) -> np.ndarray:
    """(rows x n) count of each atom in each row of members."""
    rows = len(members)
    return np.bincount((members + n * np.arange(rows)[:, None]).ravel(),
                       minlength=rows * n).reshape(rows, n)


def _weights(counts, h: int, comb, powers, order) -> np.ndarray:
    """Each row's multinomial weight, one column per pair: the factors
    comb(rem, c) * p**c, for rem of the h members left and c of them at
    the atom, multiplied atom by atom in `order`."""
    w = np.ones((len(counts), powers.shape[-1]))
    rem = np.full(len(counts), h)
    for atom in order:
        c = counts[:, atom]
        w *= comb[rem, c][:, None] * powers[atom, c]
        rem -= c
    return w


def _total(terms) -> float:
    """One correctly rounded sum of the term arrays, clipped to [0, 1]."""
    return min(1.0, max(0.0, math.fsum(itertools.chain.from_iterable(
        t.tolist() for t in terms))))


def _stack(batch, k: int):
    """The batch's diffs, (atoms x pairs), its d(c1, c2), one per pair, and
    powers[atom, c, pair] = p**c for c = 0..k."""
    diffs, probs, d12 = (np.stack(x, axis=-1) for x in zip(*batch))
    powers = np.array([[[p**c for p in ps] for c in range(k + 1)]
                       for ps in probs.tolist()])
    return diffs, d12, powers


def _enumerate_pairs(model: ModelConfig, n: int, batch, comb):
    """(p, q) of each pair of the batch, all of whose atoms number n, from
    one pass over the k-multisets of range(n)."""
    k = model.k
    diffs, d12, powers = _stack(batch, k)
    gvals = _atom_gvals(model, diffs, d12)
    fwd, rev = [], []
    for members in _multiset_rows(n, k, max(1, _EXACT_BLOCK // len(batch))):
        counts = _counts(members, n)
        for terms, groups, values, order in (
            (fwd, members, diffs, range(n)),
            (rev, members[:, ::-1], -diffs, range(n - 1, -1, -1)),
        ):
            terms.append(_weights(counts, k, comb, powers, order)
                         * group_win_probs(model, groups, values, gvals))
    return [(_total(t[:, col] for t in fwd), _total(t[:, col] for t in rev))
            for col in range(len(batch))]


def _prefix_sums(w) -> np.ndarray:
    """Row j of the result, j = 0..rows, sums the first j rows of w, within
    about one rounding: np.cumsum adds row by row, and the error of each of
    its additions, found exactly by TwoSum (Knuth 1969), is summed too."""
    s = np.cumsum(w, axis=0)
    step = s[1:] - s[:-1]
    err = (s[:-1] - (s[1:] - step)) + (w[1:] - step)
    s[1:] += np.cumsum(err, axis=0)
    return np.concatenate([np.zeros((1, w.shape[1])), s])


def _split_pairs(model: ModelConfig, n: int, batch, comb, budget):
    """Averaging (p, q) of each pair of the batch by meet-in-the-middle, or
    None for a pair whose groups near a tie would pass the budget while
    its full enumeration fits."""
    k = model.k
    diffs, _, powers = _stack(batch, k)
    halves = []
    for h in (k // 2, k - k // 2):
        rows = next(_multiset_rows(n, h, math.comb(n + h - 1, h)))
        halves.append((rows, _member_sums(diffs, rows),
                       _weights(_counts(rows, n), h, comb, powers, range(n))))
    (rows1, s1, w1), (rows2, s2, w2) = halves
    # half 2 by its sum, with the weight below each row and from it on
    order = np.argsort(s2, axis=0, kind="stable")
    s2 = np.take_along_axis(s2, order, 0)
    w2 = np.take_along_axis(w2, order, 0)
    below = _prefix_sums(w2)
    above = _prefix_sums(w2[::-1])[::-1]
    slack = np.where(_exact_sums(diffs, k), 0.0, _sum_slack(diffs, k))
    half_slots = rows1.size + rows2.size
    full_slots = math.comb(n + k - 1, k) * k
    out = []
    for col in range(len(batch)):
        # half-2 rows [0, lo) make S < 0 and [hi, end) S > 0, whatever the
        # rounding; the window [lo, hi) between is decided group by group
        lo = np.searchsorted(s2[:, col], -s1[:, col] - slack[col], "left")
        hi = np.searchsorted(s2[:, col], -s1[:, col] + slack[col], "right")
        if slack[col] == 0:
            # exact sums: the window holds exactly the groups with S = 0
            a, b = (hi, lo) if model.tie_to_first else (lo, hi)
            out.append((_total([w1[:, col] * below[a, col]]),
                        _total([w1[:, col] * above[b, col]])))
            continue
        wide = hi - lo
        slots = half_slots + int(wide.sum()) * k
        if slots > budget:
            if full_slots <= budget:
                out.append(None)
                continue
            raise EnumerationBudgetExceeded(
                f"{len(rows1)} and {len(rows2)} multisets of {k // 2} and "
                f"{k - k // 2} members and {int(wide.sum())} groups of {k} "
                f"near a tie ({slots} member slots) exceed budget {budget}")
        fwd = [w1[:, col] * below[lo, col]]
        rev = [w1[:, col] * above[hi, col]]
        first = np.repeat(np.arange(len(rows1)), wide)
        second = np.arange(len(first)) + np.repeat(lo - np.cumsum(wide) + wide,
                                                   wide)
        for start in range(0, len(first), _EXACT_BLOCK):
            i = first[start:start + _EXACT_BLOCK]
            j = second[start:start + _EXACT_BLOCK]
            members = np.hstack([rows1[i], rows2[order[j, col]]])
            w = w1[i, col] * w2[j, col]
            for terms, values in ((fwd, diffs[:, col]), (rev, -diffs[:, col])):
                terms.append(w * group_win_probs(model, members, values, None))
        out.append((_total(fwd), _total(rev)))
    return out


def exact_pk_pairs(
    inst: MetricInstance, model: ModelConfig, pairs: list[tuple[str, str]],
    budget: int = ENUMERATION_BUDGET,
) -> list[tuple[float, float]]:
    """Exact probabilities that a deliberating group outputs c1 over c2 and
    c2 over c1, for each (c1, c2) in pairs. The pairs whose atoms number n
    are batched, with the pair axis last, unless a batch would pass
    _EXACT_TERMS rows x pairs. Each unordered pair is computed once, with
    its candidates in name order, so (c2, c1) gives the reverse of (c1, c2)
    bit for bit. Each orientation is summed with one correctly rounded
    math.fsum.

    Random choice, and averaging with k = 1, enumerate the k-multisets of
    bias atoms with multinomial weights; its (c2, c1) enumeration reads
    each row backwards against -diffs, with the weight factors taken from
    the last atom down.

    Averaging with k >= 2 meets in the middle (Horowitz & Sahni 1974): it
    enumerates the k1 = k // 2 and k2 = k - k1 multisets of each half-group
    and weighs each pair of halves by the product of their weights. Half 2
    is sorted by its sum, so for each half-1 row two binary searches
    (_sum_slack) split it into groups surely below 0, surely above 0 and a
    window between; group_win_probs decides the window's full groups, and
    where the pair's sums are all exact, the window holds exactly the ties.
    A pair whose window would pass the budget is enumerated instead, if
    that fits: no pair whose enumeration fits the budget is refused.

    Where the binomials C(k2, c) are exact (k2 <= 56) and p**c is within
    an ulp, each averaging value is within (4k + 4)·eps of the exact
    probability, about twice its first-order error: each half's weight errs
    by at most 2·eps relative per atom present, the prefix sums of half 2's
    weights (_prefix_sums) by about eps/2, and each product and the final
    sum by eps/2.

    Raises ValueError when k exceeds _MAX_EXACT_K. Raises
    EnumerationBudgetExceeded, before any enumeration, for the first pair
    whose member slots exceed the budget: C(n+k-1, k) multisets of k each,
    or for averaging the two halves' multisets and members; and, once the
    pair is split, when its halves plus k slots per group in the window
    exceed the budget and so does its full enumeration.
    """
    k = model.k
    if k > _MAX_EXACT_K:
        raise ValueError(
            f"group size k = {k} is too large for exact enumeration: its "
            f"binomial weights exceed the float range past k = {_MAX_EXACT_K}"
        )
    flip = [c1 > c2 for c1, c2 in pairs]
    atoms = [_atoms(inst, c1, c2) for c1, c2 in pairs]
    # (c2, c1)'s atoms are (c1, c2)'s in reverse order, diffs negated
    atoms = [(-d[::-1], p[::-1], d12) if f else (d, p, d12)
             for (d, p, d12), f in zip(atoms, flip)]
    split = model.variant == "averaging" and k > 1
    sizes = (k // 2, k - k // 2) if split else (k,)
    by_count = {}
    for i, (diffs, _, _) in enumerate(atoms):
        n = len(diffs)
        multisets = [math.comb(n + h - 1, h) for h in sizes]
        slots = sum(c * h for c, h in zip(multisets, sizes))
        if slots > budget:
            raise EnumerationBudgetExceeded(
                f"{' and '.join(map(str, multisets))} multisets of "
                f"{' and '.join(map(str, sizes))} members ({slots} member "
                f"slots) exceed budget {budget}"
            )
        by_count.setdefault(n, []).append(i)
    # weight factor comb(rem, c) * p**c for rem members left, c of them here;
    # Pascal's rule keeps one row of exact ints at a time
    comb = np.zeros((k + 1, k + 1))
    row = [1]
    for r in range(k + 1):
        comb[r, :r + 1] = [float(x) for x in row]
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
    out = [None] * len(atoms)

    def run(decide, n, h, group, *args):
        """Decide the group's pairs in batches; return those left open."""
        step = max(1, _EXACT_TERMS // math.comb(n + h - 1, h))
        for s in range(0, len(group), step):
            batch = group[s:s + step]
            for i, p in zip(batch, decide(
                    model, n, [atoms[i] for i in batch], comb, *args)):
                out[i] = p
        return [i for i in group if out[i] is None]

    for n, group in by_count.items():
        if split:
            group = run(_split_pairs, n, sizes[-1], group, budget)
        run(_enumerate_pairs, n, k, group)
    return [p[::-1] if f else p for p, f in zip(out, flip)]


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
