"""Reference computations made apart from delib, used to check its outputs.

Nothing here imports delib. Each function works from plain numbers
(per-location distance differences, masses, closed forms) or from a
program's JSON form, so a fault in the library cannot hide in its own
check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(actual: float, expected: float, tol: float, what: str) -> None:
    require(
        abs(actual - expected) <= tol,
        f"{what}: got {actual!r}, expected {expected!r} within {tol:g}",
    )


# -- deliberation rules ------------------------------------------------------


def averaging_p_fraction(diffs, masses, k: int, tie_to_first: bool) -> Fraction:
    """Exact chance that k i.i.d. draws sum below 0 (or to 0 when ties go
    to the first alternative), by a k-fold convolution over exact sums.

    diffs are the per-location d(i,c1) - d(i,c2) and masses their weights,
    both taken as the exact rationals their floats denote. On lattice
    instances every sum is an integer, so the support stays small.
    """
    step: dict[Fraction, Fraction] = {}
    for d, p in zip(diffs, masses):
        key = Fraction(d)
        step[key] = step.get(key, Fraction(0)) + Fraction(p)
    dist = {Fraction(0): Fraction(1)}
    for _ in range(k):
        nxt: dict[Fraction, Fraction] = {}
        for s, ps in dist.items():
            for d, pd in step.items():
                t = s + d
                nxt[t] = nxt.get(t, Fraction(0)) + ps * pd
        dist = nxt
    win = sum((p for s, p in dist.items() if s < 0), Fraction(0))
    if tie_to_first:
        win += dist.get(Fraction(0), Fraction(0))
    return win


def _transform(kind: str, x: float) -> float:
    if kind == "linear":
        return x
    if kind == "sqrt":
        return math.sqrt(x)
    raise ValueError(f"no reference for transform {kind!r}")


def random_choice_p_bruteforce(
    biases, masses, k: int, g: str = "linear", beta: float = 1.0,
    all_zero_to_first: bool = True,
) -> float:
    """Chance the random-choice rule outputs the first alternative, summed
    over every ordered k-tuple of locations (n**k terms).

    A group picks a member with probability proportional to g(|bias|) and
    follows that member; with weight 1 - beta it follows a uniformly random
    member instead.
    """
    terms = []
    for tup in itertools.product(range(len(biases)), repeat=k):
        w = math.prod(masses[i] for i in tup)
        if w == 0.0:
            continue
        a = math.fsum(_transform(g, -biases[i]) for i in tup if biases[i] < 0)
        b = math.fsum(_transform(g, biases[i]) for i in tup if biases[i] > 0)
        if a + b > 0:
            core = a / (a + b)
        else:
            core = 1.0 if all_zero_to_first else 0.5
        n_neg = sum(1 for i in tup if biases[i] < 0)
        terms.append(w * (beta * core + (1.0 - beta) * n_neg / k))
    return math.fsum(terms)


# -- Copeland aggregation ----------------------------------------------------


def beats_from(P, tol: float) -> list[list[bool]]:
    """beats[i][j]: p[i][j] >= 1/2 - tol, the documented dominance rule."""
    m = len(P)
    return [[i != j and P[i][j] >= 0.5 - tol for j in range(m)] for i in range(m)]


def copeland_winner_ref(beats) -> int:
    """First max-score candidate; a pair beaten both ways splits its point."""
    m = len(beats)
    scores = [0.0] * m
    for i in range(m):
        for j in range(i + 1, m):
            bi, bj = beats[i][j], beats[j][i]
            require(bi or bj, f"neither of pair ({i},{j}) beats the other")
            if bi and bj:
                scores[i] += 0.5
                scores[j] += 0.5
            elif bi:
                scores[i] += 1.0
            else:
                scores[j] += 1.0
    best = max(scores)
    return scores.index(best)


def uncovered(beats, w: int) -> bool:
    """w reaches every rival directly or through one intermediate."""
    m = len(beats)
    return all(
        beats[w][j] or any(beats[w][l] and beats[l][j] for l in range(m))
        for j in range(m) if j != w
    )


def social_costs(loc_dists, masses) -> list[float]:
    """loc_dists[c] lists the distances of every location to candidate c."""
    return [
        math.fsum(p * d for p, d in zip(masses, row)) for row in loc_dists
    ]


def distortion_ref(loc_dists, masses, w: int) -> float:
    costs = social_costs(loc_dists, masses)
    return costs[w] / min(costs)


# -- random-choice relaxation ------------------------------------------------


def zeta_linear_closed_form(k: int) -> float:
    """zeta_k for the linear transform: the optimum sits at alpha = 2**(-1/k)
    with omega -> 0, so zeta_k = 1 - 2**(-1/k)."""
    return 1.0 - 2.0 ** (-1.0 / k)


def relaxed_win_prob(
    k: int, alpha: float, omega: float, g: str = "linear", beta: float = 1.0,
) -> float:
    """Win probability of the relaxed two-point configuration: l of the k
    members sit on the first alternative's side at mean bias -omega, the
    rest at +1; the group follows a member with chance proportional to
    g(|bias|). The l = k corner at omega = 0 resolves to 0."""
    gw = _transform(g, omega)
    total = 0.0
    for ell in range(1, k + 1):
        num = ell * gw
        den = num + (k - ell)
        frac = num / den if den > 0 else 0.0
        total += math.comb(k, ell) * alpha**ell * (1 - alpha) ** (k - ell) * frac
    return beta * total + (1.0 - beta) * alpha


def group_size_ref(epsilon: float, cap: int = 4096) -> int:
    """Smallest k with ((1 + zeta_k) / (1 - zeta_k))**2 <= 1 + epsilon, with
    zeta_k from the linear closed form."""
    for k in range(1, cap + 1):
        z = zeta_linear_closed_form(k)
        if ((1.0 + z) / (1.0 - z)) ** 2 <= 1.0 + epsilon:
            return k
    raise CheckFailed(f"no group size up to {cap} reaches 1 + {epsilon}")


# -- box programs ------------------------------------------------------------


def _eval_tree(node, env):
    op = node[0]
    if op == "const":
        return Fraction(node[1])
    if op == "var":
        return env[node[1]]
    if op == "neg":
        return -_eval_tree(node[1], env)
    a = _eval_tree(node[1], env)
    b = _eval_tree(node[2], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    raise ValueError(f"unknown expression node {op!r}")


def exact_program_check(doc: dict, point: dict[str, float], slack: float):
    """Evaluate a program given as its JSON form at a point, in exact
    rational arithmetic. Raises CheckFailed when the point leaves the box
    or breaks a constraint by more than `slack`; returns the exact
    objective value."""
    env = {name: Fraction(point[name]) for name, _, _ in doc["vars"]}
    for name, lo, hi in doc["vars"]:
        require(
            Fraction(lo) <= env[name] <= Fraction(hi),
            f"{doc['name']}: {name} = {point[name]!r} outside [{lo}, {hi}]",
        )
    tol = Fraction(slack)
    for i, c in enumerate(doc["constraints"]):
        v = _eval_tree(c["expr"], env)
        rhs = Fraction(c["rhs"])
        ok = v >= rhs - tol if c["relation"] == ">=" else v <= rhs + tol
        require(
            ok,
            f"{doc['name']}: constraint {i} ({c['relation']} {c['rhs']}) "
            f"is {float(v)!r} at the incumbent",
        )
    return _eval_tree(doc["objective"], env)


# -- sampling ----------------------------------------------------------------


def hoeffding_radius(groups: int, delta: float) -> float:
    """Two-sided Hoeffding radius for a mean of `groups` Bernoulli draws."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * groups))
