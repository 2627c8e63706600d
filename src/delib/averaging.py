"""Certified bounds on the mean bias achievable under the averaging rule.

A deliberating group of size k averages its members' normalized biases and
picks the first alternative on a nonpositive sum. Over all bias
distributions D on [-1, 1] whose k-fold sum is nonpositive with probability
at least 1/2, the largest possible E[D] is a small non-convex program for
k = 2 and, after a reduction to three independent two-point distributions,
a family of eight non-convex programs for k = 3. This module encodes those
programs for the interval solver and exposes the closed-form bounds for
general k.

Support reductions used by the encodings:
  * k = 2: mass can be pushed to support {-1, 0, 1} without lowering the
    objective or breaking the probability constraint, so two probability
    variables suffice.
  * k = 3: three independent two-point distributions with a common mean
    dominate the i.i.d. optimum; ordering their gaps c3 >= c2 >= c1 >= 0
    splits the probability constraint into eight polynomial cases. Where a
    case range involves max or min of {c2 + c1, c3}, the max/min sits on
    the conjunctive side of the inequality, so a pair of plain inequalities
    encodes it exactly and no case needs subdividing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial

from .boxopt import (
    BoxProgram,
    GlobalOptimum,
    Var,
    solve_global,
)
from .instances import line_instance_from_bias_distribution
from .metric import BiasDistribution
from .models import ModelConfig, exact_pk

THETA2 = math.sqrt(2.0) - 1.0
K2_BETA_THRESHOLD = 2.0 + math.sqrt(2.0)
AUDIT_TOL = 1e-9


def _solve_cases(run, cases, threads, first=()):
    """Map run over independent case programs, at most `threads` at once.

    Concurrent solves run in worker processes: the solver spends its time
    in many small numpy calls under the GIL, so threads gave no speedup.
    `run` must therefore be picklable (a module-level function or a
    partial of one). Cases in `first` are submitted before the rest so a
    long solve does not start last; results come back keyed in `cases`
    order either way.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if threads == 1 or len(cases) == 1:
        return {c: run(c) for c in cases}
    from concurrent.futures import ProcessPoolExecutor

    order = [c for c in first if c in cases]
    order += [c for c in cases if c not in order]
    with ProcessPoolExecutor(max_workers=min(threads, len(cases))) as pool:
        futures = {c: pool.submit(run, c) for c in order}
        return {c: futures[c].result() for c in cases}


@dataclass
class ThetaResult:
    """Certified upper bound on theta_k with the best witness found."""

    k: int
    value: float                                  # rigorous upper bound
    incumbent: BiasDistribution | None            # feasible witness, if any
    incumbent_value: float | None
    per_case: dict[int, GlobalOptimum] | None
    audit_pk: float | None = None                 # exact win prob of witness

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "value": self.value,
                "incumbent": {
                    "values": list(self.incumbent.values),
                    "probs": list(self.incumbent.probs),
                }
                if self.incumbent is not None
                else None,
                "incumbent_value": self.incumbent_value,
                "per_case": {
                    str(c): json.loads(o.to_json())
                    for c, o in self.per_case.items()
                }
                if self.per_case is not None
                else None,
                "audit_pk": self.audit_pk,
            },
            indent=2,
        )


def audit_distribution(dist: BiasDistribution, k: int) -> float:
    """Exact probability that a size-k averaging group picks the first
    alternative, on the line realization of the distribution. Independent
    feasibility check for solver witnesses."""
    inst = line_instance_from_bias_distribution(dist)
    model = ModelConfig(variant="averaging", k=k)
    return exact_pk(inst, model, "W", "X").value


# ---------------------------------------------------------------------------
# k = 2


def build_theta2_program(expanded: bool = True) -> BoxProgram:
    """Maximize 1 - 2p - q over p = Pr[D = -1], q = Pr[D = 0].

    The win constraint for two draws is (p + q)^2 + 2p(1 - p - q) >= 1/2.
    The default encoding expands it to q^2 - p^2 + 2p >= 1/2, which is the
    same set but gives tighter interval enclosures; expanded=False keeps
    the raw form (the two must certify the same optimum).
    """
    p, q = Var("p"), Var("q")
    if expanded:
        win = q * q - p * p + 2 * p
    else:
        win = (p + q) ** 2 + 2 * p * (1 - p - q)
    return BoxProgram(
        [("p", 0.0, 1.0), ("q", 0.0, 1.0)],
        1 - 2 * p - q,
        [(win, ">=", 0.5), (p + q, "<=", 1.0)],
        name="theta2-expanded" if expanded else "theta2-raw",
    )


def solve_theta2(tol: float = 1e-6) -> ThetaResult:
    """Certified theta_2; the optimum is sqrt(2) - 1 at p = 1 - 1/sqrt(2)."""
    opt = solve_global(build_theta2_program(), tol=tol)
    incumbent = None
    inc_val = None
    audit = None
    if opt.point is not None:
        p, q = opt.point["p"], opt.point["q"]
        incumbent = BiasDistribution.from_atoms(
            [(-1.0, p), (0.0, q), (1.0, 1.0 - p - q)]
        )
        inc_val = opt.value
        audit = audit_distribution(incumbent, 2)
    return ThetaResult(
        k=2, value=opt.bound, incumbent=incumbent, incumbent_value=inc_val,
        per_case={0: opt}, audit_pk=audit,
    )


# ---------------------------------------------------------------------------
# k = 2 Copeland chain programs

K2_CASES = (1, 2)


def _k2_objective(case: int, beta: float, B, p, q, r, s, t):
    """Slack of the chain-distortion inequality at support probabilities
    p..t of the first bias distribution; positive slack anywhere means the
    distortion bound 1 + beta can fail. The second distribution contributes
    its separately-optimized constant A."""
    A = (1.0 + 2.0 / beta) * THETA2
    w = 2.0 / beta
    if case == 1:       # 0 <= B <= 1, support B+1 > 1-B > 0 > B-1 > -B-1
        return (
            A
            + p * (w * (B + 1) - 1)
            + q * (w * (1 - B) - 1)
            - r
            - s * (w * (1 - B) + 1)
            - t * (w * (B + 1) + 2 * B + 1)
        )
    # B >= 1, support B+1 > B-1 > 0 > 1-B > -B-1
    return (
        A
        + p * (w * (B + 1) - 1)
        + q * (w * (B - 1) - 1)
        - r * B
        - s * (w * (B - 1) + 2 * B - 1)
        - t * (w * (B + 1) + 2 * B + 1)
    )


def build_k2_case_program(case: int, beta: float, reduced: bool = False) -> BoxProgram:
    """Non-convex program whose nonpositive maximum certifies distortion
    <= 1 + beta for the given case of the gap variable B.

    The full form carries all five support probabilities with the unit-sum
    equality as paired inequalities. The reduced form eliminates r via
    r = 1 - p - q - s - t (an exact reparametrization, not a relaxation),
    which removes the equality and speeds up the solver.
    """
    if case not in K2_CASES:
        raise ValueError(f"case must be 1 or 2, got {case}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    b_rng = (0.0, 1.0) if case == 1 else (1.0, 100.0)
    B, p, q, s, t = Var("B"), Var("p"), Var("q"), Var("s"), Var("t")
    if reduced:
        r = 1 - p - q - s - t
        win = (p + q) ** 2 + 2 * p * (r + s) + 2 * q * r
        return BoxProgram(
            [("B", *b_rng), ("p", 0, 1), ("q", 0, 1), ("s", 0, 1), ("t", 0, 1)],
            _k2_objective(case, beta, B, p, q, r, s, t),
            [(win, "<=", 0.5), (p + q + s + t, "<=", 1.0)],
            name=f"copeland-k2-case{case}-reduced",
        )
    r = Var("r")
    win = (p + q) ** 2 + 2 * p * (r + s) + 2 * q * r
    total = p + q + r + s + t
    return BoxProgram(
        [("B", *b_rng), ("p", 0, 1), ("q", 0, 1), ("r", 0, 1), ("s", 0, 1),
         ("t", 0, 1)],
        _k2_objective(case, beta, B, p, q, r, s, t),
        [(win, "<=", 0.5), (total, "<=", 1.0), (total, ">=", 1.0)],
        name=f"copeland-k2-case{case}",
    )


def _k2_seeds(case: int):
    """Feasible warm starts; the first is tight at beta = 2 + sqrt(2)."""
    inv_rt2 = math.sqrt(0.5)
    base = {"B": 1.0, "p": 1.0 - inv_rt2, "q": 0.0, "s": 0.0, "t": 0.0}
    corners = [
        base,
        {"B": 1.0, "p": 0.0, "q": 0.0, "s": 0.0, "t": 0.0},
        {"B": 1.0, "p": 0.0, "q": 0.0, "s": 0.0, "t": 1.0},
    ]
    return corners


def _solve_k2_case(case, beta, tol, max_boxes):
    prog = build_k2_case_program(case, beta, reduced=True)
    return solve_global(prog, tol=tol, max_boxes=max_boxes, seeds=_k2_seeds(case))


def solve_copeland_k2(
    beta_distortion: float,
    tol: float = 1e-4,
    max_boxes: int = 2_000_000,
    threads: int = 1,
) -> tuple[GlobalOptimum, GlobalOptimum]:
    """Certified maxima of both case programs at the given beta.

    Both maxima strictly negative certifies that the Copeland chain
    argument gives distortion <= 1 + beta. Internally solves the reduced
    five-variable forms and reports the certificates on the full
    six-variable programs (the reduction is an exact reparametrization, so
    values and bounds transfer unchanged). threads caps how many case
    programs solve concurrently; each solve is deterministic, so the
    result does not depend on it.
    """
    if beta_distortion <= 0:
        raise ValueError("beta_distortion must be positive")
    run = partial(
        _solve_k2_case, beta=beta_distortion, tol=tol, max_boxes=max_boxes
    )
    solved = _solve_cases(run, K2_CASES, threads)
    out = []
    for case in K2_CASES:
        opt = solved[case]
        point = None
        if opt.point is not None:
            point = dict(opt.point)
            point["r"] = 1.0 - point["p"] - point["q"] - point["s"] - point["t"]
        out.append(replace(opt, point=point, program=f"copeland-k2-case{case}"))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# k = 3 case programs

THETA3_CASES = (1, 2, 3, 4, 5, 6, 7, 8)


def _theta3_prob_expr(case: int, p1, p2, p3):
    """Probability that the gap variables cover the mean sum, per case."""
    if case == 1:
        return p1 * p2 * p3
    if case == 2:
        return p3 * p2
    if case == 3:
        return p3 * p2 + p3 * p1 * (1 - p2)
    if case == 4:
        return p3
    if case == 5:
        return p3 * p2 + p3 * (1 - p2) * p1 + (1 - p3) * p2 * p1
    if case == 6:
        return 1 - (1 - p3) * (1 - p1 * p2)
    if case == 7:
        return 1 - (1 - p3) * (1 - p2)
    return 1 - (1 - p3) * (1 - p2) * (1 - p1)


def _theta3_prob_cuts(case: int, p1, p2, p3):
    """Linear consequences of the case probability constraint.

    Each case event is a boolean combination of three independent
    indicators; union bounds (the event forces at least one indicator from
    every covering pair) and Markov's inequality on the indicator count
    give linear inequalities the constraint already implies. Adding them
    leaves the feasible set unchanged but sharpens interval pruning.
    """
    if case == 1:
        return [(p1, ">=", 0.5), (p2, ">=", 0.5), (p3, ">=", 0.5)]
    if case == 2:
        return [(p2, ">=", 0.5), (p3, ">=", 0.5)]
    if case == 3:
        # event = z3 and (z2 or z1)
        return [(p3, ">=", 0.5), (p1 + p2, ">=", 0.5)]
    if case == 5:
        # event = at least two of three: every pair covers it, and the
        # indicator count is at least 2 on it
        return [
            (p1 + p2, ">=", 0.5),
            (p1 + p3, ">=", 0.5),
            (p2 + p3, ">=", 0.5),
            (p1 + p2 + p3, ">=", 1.0),
        ]
    if case == 6:
        # event = z3 or (z1 and z2)
        return [(p3 + p1, ">=", 0.5), (p3 + p2, ">=", 0.5)]
    if case == 7:
        return [(p2 + p3, ">=", 0.5)]
    if case == 8:
        return [(p1 + p2 + p3, ">=", 0.5)]
    return []


def _theta3_range(case: int, c1, c2, c3):
    """(lower exprs, upper exprs) bracketing the sum of the three means."""
    if case == 1:
        return [c3 + c2], [c3 + c2 + c1]
    if case == 2:
        return [c3 + c1], [c3 + c2]
    if case == 3:
        return [c3, c2 + c1], [c3 + c1]
    if case == 4:
        return [c2 + c1], [c3]
    if case == 5:
        return [c3], [c2 + c1]
    if case == 6:
        return [c2], [c2 + c1, c3]
    if case == 7:
        return [c1], [c2]
    return [], [c1]


def build_theta3_case_program(case: int) -> BoxProgram:
    """One of the eight case programs bounding theta_3.

    Variables th, c_i, p_i, with the two-point distributions recovered as
    a_i = th + c_i p_i, b_i = a_i - c_i, so the defining equalities of the
    a_i, b_i hold by construction. The box restricts th >= 0, which is
    harmless because a feasible point with th = 0 (all gaps zero) exists
    in every case.
    """
    if case not in THETA3_CASES:
        raise ValueError(f"case must be 1..8, got {case}")
    th = Var("th")
    c = [Var("c1"), Var("c2"), Var("c3")]
    p = [Var("p1"), Var("p2"), Var("p3")]
    S = 3 * th + c[0] * p[0] + c[1] * p[1] + c[2] * p[2]
    lo, hi = _theta3_range(case, *c)
    cons = [(c[2] - c[1], ">=", 0.0), (c[1] - c[0], ">=", 0.0),
            (_theta3_prob_expr(case, *p), ">=", 0.5)]
    cons += _theta3_prob_cuts(case, *p)
    for e in lo:
        cons.append((S - e, ">=", 0.0))
    for e in hi:
        cons.append((S - e, "<=", 0.0))
    for i in range(3):
        cons.append((th + c[i] * p[i], "<=", 1.0))          # a_i <= 1
        cons.append((c[i] * (1 - p[i]) - th, "<=", 1.0))    # b_i >= -1
    return BoxProgram(
        [("th", 0, 1), ("c1", 0, 2), ("c2", 0, 2), ("c3", 0, 2),
         ("p1", 0, 1), ("p2", 0, 1), ("p3", 0, 1)],
        th,
        cons,
        name=f"theta3-case{case}-reduced",     # bench/spans.py keys on it
    )


def lb1_k3_point() -> dict[str, float]:
    """The k = 3 lower-bound witness in case coordinates: all three
    distributions are 1 w.p. 1/2 and -1/2 w.p. 1/2, mean 1/4. Feasible for
    case 5 (tight there)."""
    return {
        "th": 0.25, "c1": 1.5, "c2": 1.5, "c3": 1.5,
        "p1": 0.5, "p2": 0.5, "p3": 0.5,
    }


def lb1_k3_distribution() -> BiasDistribution:
    return BiasDistribution.from_atoms([(-0.5, 0.5), (1.0, 0.5)])


def _theta3_seeds(case: int):
    seeds = [{"th": 0.0, "c1": 0.0, "c2": 0.0, "c3": 0.0,
              "p1": 1.0, "p2": 1.0, "p3": 1.0}]
    if case == 5:
        seeds.append(lb1_k3_point())
    if case == 6:
        # feasible in exact arithmetic with objective 1/4; without it the
        # search finds no incumbent above th = 0 and cannot certify
        seeds.append({"th": 0.25, "c1": 1.0, "c2": 1.0, "c3": 1.5,
                      "p1": 0.0, "p2": 0.0, "p3": 0.5})
    return seeds


def _solve_theta3_case(case, tol, budget, case3_bound_target, bound_target):
    prog = build_theta3_case_program(case)
    target = case3_bound_target if case == 3 else bound_target
    return solve_global(
        prog, tol=tol, max_boxes=budget, seeds=_theta3_seeds(case),
        bound_target=target,
    )


def solve_theta3(
    tol: float = 5e-4,
    budget: int = 2_000_000,
    case3_bound_target: float = 0.2529,
    bound_target: float = 0.2504,
    threads: int = 1,
) -> ThetaResult:
    """Certified upper bound on theta_3 as the max over the eight cases.

    Case 3 is the hardest: its solve stops as soon as the rigorous bound
    drops to case3_bound_target. Every other case stops the same way at
    bound_target. At the defaults cases 5 and 6 certify to within tol,
    each from a seeded feasible point at 0.25; the other six end
    BudgetExhausted at their target, each still with a valid bound, so the
    value is the case-3 bound (about 0.2529), not 0.25 plus the tolerance.
    The solves take minutes: case 5 alone evaluates about 1.65M boxes.
    The reported incumbent is the k = 3 lower-bound witness with mean
    0.25, independently audited by exact enumeration. threads caps
    concurrent case solves without affecting any reported number; case 5,
    the longest, is started first.
    """
    run = partial(
        _solve_theta3_case, tol=tol, budget=budget,
        case3_bound_target=case3_bound_target, bound_target=bound_target,
    )
    per_case = _solve_cases(run, THETA3_CASES, threads, first=(5,))
    value = max(o.bound for o in per_case.values())
    incumbent = lb1_k3_distribution()
    best_case = max(
        (o.value, c) for c, o in per_case.items() if o.value is not None
    )[1]
    inc_val = per_case[best_case].value
    audit = audit_distribution(incumbent, 3)
    return ThetaResult(
        k=3, value=value, incumbent=incumbent,
        incumbent_value=inc_val, per_case=per_case, audit_pk=audit,
    )


# ---------------------------------------------------------------------------
# closed forms and the heuristic for larger k


def theta_upper_bound_closed_form(k: int) -> float:
    """min(1/sqrt(k), (8.27/k)(1 + 2/k)); the second term comes from a
    Berry-Esseen argument and overtakes the variance bound for large k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return min(1.0 / math.sqrt(k), 8.27 / k * (1.0 + 2.0 / k))


def theta_lower_bound_closed_form(k: int) -> float:
    """Mean bias of the verified lower-bound family: 1/(k+1) for odd k,
    2/(3k) for even k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return 1.0 / (k + 1) if k % 2 else 2.0 / (3.0 * k)


def two_point_win_prob(x: float, y: float, p: float, k: int) -> float:
    """P[sum of k draws <= 0] for D = x w.p. 1-p, y w.p. p.

    Each group is decided on the sign of the exact sum of its draws
    (`math.fsum` rounds once, which keeps the sign), as in
    `models.group_win_probs`.
    """
    total = 0.0
    for j in range(k + 1):
        if math.fsum([y] * j + [x] * (k - j)) <= 0:
            total += math.comb(k, j) * p**j * (1 - p) ** (k - j)
    return total


def binary_support_search(
    k: int, value_step: float = 0.05, prob_step: float = 0.01,
) -> tuple[float, BiasDistribution]:
    """Heuristic grid search over two-point distributions; NOT certified.

    Scans D = {x w.p. 1-p, y w.p. p} with x <= 0 <= y on a grid and keeps
    the best mean subject to the exact win-probability constraint. Useful
    as a conjecture probe for k >= 4 where no certified solve exists.
    """
    best = (-1.0, None)
    nx = round(1.0 / value_step)
    np_ = round(1.0 / prob_step)
    for ix in range(nx + 1):
        x = -ix * value_step
        for iy in range(nx + 1):
            y = iy * value_step
            for ip in range(np_ + 1):
                p = ip * prob_step
                if two_point_win_prob(x, y, p, k) >= 0.5:
                    mean = (1 - p) * x + p * y
                    if mean > best[0]:
                        best = (mean, (x, y, p))
    mean, atoms = best
    if atoms is None:
        raise RuntimeError("no feasible two-point distribution found")
    x, y, p = atoms
    return mean, BiasDistribution.from_atoms([(x, 1 - p), (y, p)])
