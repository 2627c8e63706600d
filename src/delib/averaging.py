"""Certified bounds on the mean bias achievable under the averaging rule.

A deliberating group of size k averages its members' normalized biases and
picks the first alternative on a nonpositive sum. Over all bias
distributions D on [-1, 1] whose k-fold sum is nonpositive with probability
at least 1/2, the largest possible E[D] is a small non-convex program for
k = 2 and, after a reduction to three independent two-point distributions,
a family of eight non-convex programs for k = 3. This module encodes those
programs for the interval solver, solves them, and audits their
witnesses.

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
from dataclasses import dataclass
from functools import partial

from .boxopt import (
    BUDGET_EXHAUSTED,
    CERTIFIED,
    BoxProgram,
    Const,
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
# The objectives' coefficients grow as 2 / beta, and case 2's box multiplies
# them by B + 1 <= 101 before enclosures sum several of them; 2 / beta
# overflows to inf below about 1.1e-308, and 2e-308 already overflows the
# B = 1 terms. At this floor (2 / beta)(B + 1) stays below about 2e302.
_K2_MIN_BETA = 1e-300


def _k2_objective(case: int, beta: float, B, p, q, r, s, t):
    """Slack of the chain-distortion inequality at support probabilities
    p..t of the first bias distribution; positive slack anywhere means the
    distortion bound 1 + beta can fail. The second distribution contributes
    its separately-optimized constant A."""
    if not (0.0 < beta < math.inf):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    if beta < _K2_MIN_BETA:
        raise ValueError(f"beta must be at least {_K2_MIN_BETA!r}, "
                         f"got {beta!r}")
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


def build_k2_case_program(case: int, beta: float) -> BoxProgram:
    """Non-convex program whose nonpositive maximum certifies distortion
    <= 1 + beta for the given case of the gap variable B.

    It carries B and all five support probabilities, with the unit-sum
    equality as paired inequalities. Case 1 has B in [0, 1]; case 2 keeps
    B in [1, 100] as a box, though `solve_copeland_k2` certifies it for
    every B >= 1. The solver works on the programs of
    `build_k2_part_program`, and certificates are reported on these.
    """
    if case not in K2_CASES:
        raise ValueError(f"case must be 1 or 2, got {case}")
    b_rng = (0.0, 1.0) if case == 1 else (1.0, 100.0)
    B, p, q, r, s, t = (Var(v) for v in "Bpqrst")
    win = (p + q) ** 2 + 2 * p * (r + s) + 2 * q * r
    total = p + q + r + s + t
    return BoxProgram(
        [("B", *b_rng), ("p", 0, 1), ("q", 0, 1), ("r", 0, 1), ("s", 0, 1),
         ("t", 0, 1)],
        _k2_objective(case, beta, B, p, q, r, s, t),
        [(win, "<=", 0.5), (total, "<=", 1.0), (total, ">=", 1.0)],
        name=f"copeland-k2-case{case}",
    )


K2_PARTS = ("B1", "B0", "slope")


def build_k2_part_program(part: str, beta: float) -> BoxProgram:
    """One of the three programs in (p, q, s, t) that certify the k = 2
    chain without B.

    r = 1 - p - q - s - t is eliminated, an exact reparametrization that
    turns the unit sum into p + q + s + t <= 1. The feasible set does not
    depend on B, and each case objective is affine in B, so:
      * "B1" is the objective at B = 1, where both cases' objectives agree
        (built from case 1's);
      * "B0" is case 1's objective at B = 0, its other endpoint;
      * "slope" is case 2's B-slope, its objective at B = 1 minus its
        objective at B = 0. Where it is negative, case 2's maximum over
        B >= 1 is its maximum at B = 1.
    Each objective is `_k2_objective` with B a constant, so it shares the
    full programs' constants and arithmetic.
    """
    if part not in K2_PARTS:
        raise ValueError(f"part must be one of {K2_PARTS}, got {part!r}")
    p, q, s, t = (Var(v) for v in "pqst")
    r = 1 - p - q - s - t

    def at(case, b):
        return _k2_objective(case, beta, Const(b), p, q, r, s, t)

    if part == "B1":
        objective = at(1, 1.0)
    elif part == "B0":
        objective = at(1, 0.0)
    else:
        objective = at(2, 1.0) - at(2, 0.0)
    win = (p + q) ** 2 + 2 * p * (r + s) + 2 * q * r
    return BoxProgram(
        [("p", 0, 1), ("q", 0, 1), ("s", 0, 1), ("t", 0, 1)],
        objective,
        [(win, "<=", 0.5), (p + q + s + t, "<=", 1.0)],
        name=f"copeland-k2-{part}",
    )


def _k2_seeds():
    """Feasible warm starts; the first is tight at beta = 2 + sqrt(2)."""
    zero = {"p": 0.0, "q": 0.0, "s": 0.0, "t": 0.0}
    return [{**zero, "p": 1.0 - math.sqrt(0.5)}, zero, {**zero, "t": 1.0}]


def _solve_k2_part(part, beta, targets, **solve_kw):
    """Solve one part program, stopping at its entry in `targets` if any.
    Module level, so a partial of it pickles for `_solve_cases`."""
    return solve_global(build_k2_part_program(part, beta), seeds=_k2_seeds(),
                        bound_target=targets.get(part), **solve_kw)


def solve_k2_parts(
    beta: float,
    tol: float = 1e-4,
    max_boxes: int = 2_000_000,
    threads: int = 1,
) -> dict[str, GlobalOptimum]:
    """Certificates of the three part programs, keyed by part.

    B1 is solved first, to within tol. B0 then stops once its bound is at
    or below B1's, where it can no longer raise case 1's bound, and the
    slope stops once its bound is at or below 0. Each solve has max_boxes
    boxes. threads caps how many of the last two solve concurrently; each
    solve is deterministic, so the result does not depend on it.
    """
    run = partial(_solve_k2_part, beta=beta, tol=tol, max_boxes=max_boxes)
    b1 = run("B1", targets={})
    rest = _solve_cases(partial(run, targets={"B0": b1.bound, "slope": 0.0}),
                        ("B0", "slope"), threads)
    return {"B1": b1, **rest}


def k2_case_certificates(
    parts: dict[str, GlobalOptimum],
) -> tuple[GlobalOptimum, GlobalOptimum]:
    """Both case certificates on the full programs, from the part
    certificates of `solve_k2_parts`. Case 1's bound is the larger of its
    endpoint bounds, and its incumbent the better of theirs (B = 1 on a
    tie). Case 2's bound is B1's where the slope's bound is negative, and
    +inf (not certified) otherwise; its incumbent is B1's. Each case counts
    the boxes of the solves its bound rests on. B and r are put back into
    each point."""
    b1, b0, slope = (parts[k] for k in K2_PARTS)
    certs = []
    for case, ends, bound, boxes in (
            (1, {1.0: b1, 0.0: b0}, max(b1.bound, b0.bound), b0.boxes),
            (2, {1.0: b1}, b1.bound if slope.bound < 0 else math.inf,
             slope.boxes)):
        b = max(ends, key=lambda b: ends[b].value)
        x, value = ends[b].point, ends[b].value
        gap = bound - value
        certs.append(GlobalOptimum(
            point={"B": b, "p": x["p"], "q": x["q"],
                   "r": 1.0 - x["p"] - x["q"] - x["s"] - x["t"],
                   "s": x["s"], "t": x["t"]},
            value=value, bound=bound, gap=gap, boxes=b1.boxes + boxes,
            status=CERTIFIED if gap <= b1.tol else BUDGET_EXHAUSTED,
            tol=b1.tol, program=f"copeland-k2-case{case}",
        ))
    return tuple(certs)


def solve_copeland_k2(
    beta: float,
    tol: float = 1e-4,
    max_boxes: int = 2_000_000,
    threads: int = 1,
) -> tuple[GlobalOptimum, GlobalOptimum]:
    """Certified maxima of both case programs at the given beta.

    Both maxima strictly negative certifies that the Copeland chain
    argument gives distortion <= 1 + beta, for every B >= 0. The three
    4-variable solves of `solve_k2_parts` give the certificates, reported
    on the full six-variable programs of `build_k2_case_program` (the
    reparametrization is exact, so values and bounds transfer unchanged).
    max_boxes caps each of the three solves. threads > 1 runs the B0 and
    slope solves concurrently and does not change the result.
    """
    return k2_case_certificates(
        solve_k2_parts(beta, tol, max_boxes, threads))


# ---------------------------------------------------------------------------
# k = 3 case programs

THETA3_CASES = (1, 2, 3, 4, 5, 6, 7, 8)


def _theta3_case(case: int, p1, p2, p3, c1, c2, c3):
    """The case's probability that the gap variables cover the mean sum,
    its cuts, and the lower and upper expressions bracketing the sum of
    the three means.

    The cuts are linear consequences of the probability constraint. Each
    case event is a boolean combination of three independent indicators;
    union bounds (the event forces at least one indicator from every
    covering pair) and Markov's inequality on the indicator count give
    linear inequalities the constraint already implies. Adding them leaves
    the feasible set unchanged but sharpens interval pruning.
    """
    if case == 1:
        prob = p1 * p2 * p3
        cuts = [(p1, ">=", 0.5), (p2, ">=", 0.5), (p3, ">=", 0.5)]
        lo, hi = [c3 + c2], [c3 + c2 + c1]
    elif case == 2:
        prob = p3 * p2
        cuts = [(p2, ">=", 0.5), (p3, ">=", 0.5)]
        lo, hi = [c3 + c1], [c3 + c2]
    elif case == 3:
        # event = z3 and (z2 or z1)
        prob = p3 * p2 + p3 * p1 * (1 - p2)
        cuts = [(p3, ">=", 0.5), (p1 + p2, ">=", 0.5)]
        lo, hi = [c3, c2 + c1], [c3 + c1]
    elif case == 4:
        prob, cuts = p3, []
        lo, hi = [c2 + c1], [c3]
    elif case == 5:
        # event = at least two of three: every pair covers it, and the
        # indicator count is at least 2 on it
        prob = p3 * p2 + p3 * (1 - p2) * p1 + (1 - p3) * p2 * p1
        cuts = [(p1 + p2, ">=", 0.5), (p1 + p3, ">=", 0.5),
                (p2 + p3, ">=", 0.5), (p1 + p2 + p3, ">=", 1.0)]
        lo, hi = [c3], [c2 + c1]
    elif case == 6:
        # event = z3 or (z1 and z2)
        prob = 1 - (1 - p3) * (1 - p1 * p2)
        cuts = [(p3 + p1, ">=", 0.5), (p3 + p2, ">=", 0.5)]
        lo, hi = [c2], [c2 + c1, c3]
    elif case == 7:
        prob = 1 - (1 - p3) * (1 - p2)
        cuts = [(p2 + p3, ">=", 0.5)]
        lo, hi = [c1], [c2]
    else:
        prob = 1 - (1 - p3) * (1 - p2) * (1 - p1)
        cuts = [(p1 + p2 + p3, ">=", 0.5)]
        lo, hi = [], [c1]
    return prob, cuts, lo, hi


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
    prob, cuts, lo, hi = _theta3_case(case, *p, *c)
    cons = [(c[2] - c[1], ">=", 0.0), (c[1] - c[0], ">=", 0.0),
            (prob, ">=", 0.5), *cuts]
    cons += [(S - e, ">=", 0.0) for e in lo]
    cons += [(S - e, "<=", 0.0) for e in hi]
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


def _solve_theta3_case(case, **solve_kw):
    """Solve one theta_3 case program from its feasible warm starts.
    Module level, so a partial of it pickles for `_solve_cases`."""
    return solve_global(build_theta3_case_program(case),
                        seeds=_theta3_seeds(case), **solve_kw)


def solve_theta3(
    tol: float = 5e-4,
    budget: int = 3_000_000,
    bound_target: float = 0.2504,
    threads: int = 1,
) -> ThetaResult:
    """Certified upper bound on theta_3 as the max over the eight cases.

    Every case solve stops the same way: certified to within tol, or as
    soon as its rigorous bound drops to bound_target, or at budget boxes.
    At the defaults cases 5 and 6 certify to within tol, each from a
    seeded feasible point at 0.25; the other six end BudgetExhausted at
    bound_target, each still with a valid bound. The value is then the
    certified bound of cases 5 and 6, 0.25 + 2^-11, not 0.25 plus the
    tolerance. The solves take minutes: case 3 evaluates about 2.66M
    boxes and case 5 about 2.08M, so the budget leaves both room (at 2M
    boxes case 5 would stop near 0.2510). The reported incumbent is the
    k = 3 lower-bound witness with mean 0.25, independently audited by
    exact enumeration. threads caps concurrent case solves without
    affecting any reported number; cases 5 and 3, the longest, are
    started first.
    """
    run = partial(_solve_theta3_case, tol=tol, max_boxes=budget,
                  bound_target=bound_target)
    per_case = _solve_cases(run, THETA3_CASES, threads, first=(5, 3))
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
