"""Generators for the constructed instances used in the analysis.

Every generator returns a validated MetricInstance. The one-dimensional
families realize a target bias distribution on a segment between two
candidates; the three-candidate worst case and the many-candidate star are
built directly from their distance tables.
"""

from __future__ import annotations

import math
from itertools import combinations

from .metric import BiasDistribution, MetricInstance

# validate's triangle scan makes a build cubic in the point count: 1,717
# candidates took 28 s and 460 MB to build on a 2-core virtual machine
DEFAULT_CANDIDATE_BUDGET = 1_000


class BudgetExceeded(Exception):
    """Requested instance would enumerate more candidates than allowed."""


def line_instance_from_bias_distribution(dist: BiasDistribution) -> MetricInstance:
    """Realize a bias distribution on the unit segment between candidates W
    and X.

    An atom a lands at distance (1+a)/2 from W and (1-a)/2 from X, so its
    normalized bias is exactly a. Atoms at -1 or +1 sit on the candidates
    themselves. Recovery of the atom values is exact when they are dyadic
    rationals; otherwise correct to one rounding.
    """
    w, x = "W", "X"
    ids = []
    distances = {(w, x): 1.0}
    masses = {}
    d_w = {}
    for idx, (a, p) in enumerate(zip(dist.values, dist.probs)):
        v = f"v{idx}"
        ids.append(v)
        masses[v] = p
        d_w[v] = (1.0 + a) / 2.0
        distances[(v, w)] = d_w[v]
        distances[(v, x)] = (1.0 - a) / 2.0
    for i, j in combinations(ids, 2):
        distances[(i, j)] = abs(d_w[i] - d_w[j])
    return MetricInstance.build(
        candidates=[w, x],
        locations=[(v, masses[v]) for v in ids],
        distances=distances,
    )


def lb1_instance(k: int) -> MetricInstance:
    """Two-candidate instance on which size-k averaging groups pick the
    costlier candidate W at least half the time.

    Odd k: half the mass sits at X and half at a point whose bias is
    -1 + 2/(k+1), so the group tie lands exactly on zero and the <=0
    convention hands it to W. The segment is scaled by k+1 so every
    pairwise distance is an integer and the tie is exact in floating
    point (the unit-segment realization of the same distribution rounds
    the tie away from zero for some k). Even k: mass 1/2 + 1/(3k) at X
    and the rest at W.
    """
    if k < 2:
        raise ValueError("group size must be at least 2")
    if k % 2 == 1:
        span = float(k + 1)
        return MetricInstance.build(
            candidates=["W", "X"],
            locations=[("near", 0.5), ("X", 0.5)],
            distances={
                ("W", "X"): span,
                ("near", "W"): 1.0,
                ("near", "X"): float(k),
            },
        )
    p = 0.5 + 1.0 / (3.0 * k)
    dist = BiasDistribution.from_atoms([(-1.0, 1.0 - p), (1.0, p)])
    return line_instance_from_bias_distribution(dist)


def theta2_extremal_instance() -> MetricInstance:
    """The two-point distribution attaining the k=2 averaging bias bound:
    bias +1 with probability 1/sqrt(2), bias -1 with the rest.

    The +1 mass s is stored one ulp below 1/sqrt(2): the pair picks W
    unless both draws are +1, so feasibility needs s*s <= 1/2, and the
    correctly rounded double lands a hair above. Costs one ulp of mean.
    """
    s = math.nextafter(math.sqrt(0.5), 0.0)
    dist = BiasDistribution.from_atoms([(-1.0, 1.0 - s), (1.0, s)])
    return line_instance_from_bias_distribution(dist)


def copeland_k2_worst_case(delta: float) -> MetricInstance:
    """Three candidates W, X, Y on a line with spacing 1, mass 1 - alpha just
    off X and mass alpha at Y, alpha = 1 - 1/sqrt(2).

    The off-X voters sit at distance delta from X and 1 + delta from both W
    and Y. With averaging pairs (k=2) this makes the W-vs-Y pair of near
    voters an exact zero-sum tie (going to W) and the mixed group in Y-vs-X
    a tie or a hair below it (going to Y), so p2(W,Y) = (1-alpha)^2 >= 1/2
    and p2(Y,X) = 1 - (1-alpha)^2 = 1/2 up to one rounding. The near mass is
    stored as the double closest to 1/sqrt(2) so that its square really is
    >= 1/2. The social optimum is X; W's cost ratio approaches 3 + sqrt(2)
    as delta shrinks.
    """
    if not (0.0 < delta <= 0.01):
        raise ValueError("delta must be in (0, 0.01]")
    near = math.sqrt(0.5)   # correctly rounded; near^2 rounds up to 0.5 + 1 ulp
    return MetricInstance.build(
        candidates=["W", "X", "Y"],
        locations=[("v", near), ("Y", 1.0 - near)],
        distances={
            ("W", "X"): 1.0,
            ("X", "Y"): 1.0,
            ("W", "Y"): 2.0,
            ("v", "W"): 1.0 + delta,
            ("v", "X"): delta,
            ("v", "Y"): 1.0 + delta,
        },
    )


def example1_instance(n: int, k: int, delta: float) -> MetricInstance:
    """Star instance with a center candidate c and one candidate c_S per
    k-subset S of the n voters.

    Every voter is at 1 + delta from c; voters in S are at 1 from c_S and
    the rest at 3. Distances between candidates route through the center
    (2 - delta) or a shared voter (2). Any deterministic rule that elects
    some c_S pays a cost ratio approaching 3 for large n; c itself is the
    social optimum. delta is at most 1, or d(c_S, c_T) = 2 would exceed
    the route through c, 2(2 - delta).
    """
    if not (n >= k >= 2):
        raise ValueError("need n >= k >= 2")
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must be in (0, 1]")
    n_cands = math.comb(n, k) + 1
    if n_cands > DEFAULT_CANDIDATE_BUDGET:
        raise BudgetExceeded(
            f"{n_cands} candidates exceed the budget of "
            f"{DEFAULT_CANDIDATE_BUDGET}"
        )
    subsets = list(combinations(range(n), k))
    cand_names = ["c"] + ["c_" + "_".join(str(i) for i in s) for s in subsets]
    voters = [f"v{i}" for i in range(n)]
    mass = 1.0 / n

    distances = {}
    for i, j in combinations(range(n), 2):
        distances[(voters[i], voters[j])] = 2.0
    for i in range(n):
        distances[(voters[i], "c")] = 1.0 + delta
    for sub, name in zip(subsets, cand_names[1:]):
        members = set(sub)
        for i in range(n):
            distances[(voters[i], name)] = 1.0 if i in members else 3.0
        distances[("c", name)] = 2.0 - delta
    for a, b in combinations(cand_names[1:], 2):
        distances[(a, b)] = 2.0

    return MetricInstance.build(
        candidates=cand_names,
        locations=[(v, mass) for v in voters],
        distances=distances,
    )


FAMILIES = {
    "lb1": lb1_instance,
    "theta2-extremal": theta2_extremal_instance,
    "copeland-k2": copeland_k2_worst_case,
    "example1": example1_instance,
}
