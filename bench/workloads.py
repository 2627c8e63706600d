"""The benchmark's workloads: inputs, timed operations and their checks.

A workload's set-up turns a seed into inputs and returns a list of
operations. Each operation is one call sequence into delib (timed) and a
check of its output against the computations in reference.py (not timed).
Every pass runs the same operations in the same order.

Inputs come from `random.Random(seed)`, never from delib. Where the work
of an operation must not depend on the seed (so that run times compare
across seeds), the seed moves only values the work does not scale with:
masses on fixed lattice positions, or point positions of a fixed count.
"""

from __future__ import annotations

import inspect
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from reference import (
    CheckFailed,
    averaging_p_fraction,
    beats_from,
    close,
    copeland_winner_ref,
    distortion_ref,
    exact_program_check,
    group_size_ref,
    hoeffding_radius,
    random_choice_p_bruteforce,
    relaxed_win_prob,
    require,
    uncovered,
    zeta_linear_closed_form,
)

EXACT_TOL = 1e-9       # dominance tolerance the exact tournament documents
MC_TOL = 0.0           # ... and the Monte Carlo one
FEAS_SLACK = 1e-12     # constraint slack solve_global documents for incumbents
P_TOL = 1e-12          # exact probabilities: float evaluation vs exact value
MC_SIGMAS = 5.0


class KnownFault(CheckFailed):
    """The check of an operation that fails because of a known fault."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False   # a KnownFault counts as a failed operation


SIZES = {
    "full": {
        "tables": {
            "theta3_cases": (7, 8), "theta3_bound_max": 0.2505,
            "theta3_bound_target": None, "sweep": (2, 30),
            "epsilons": (0.5, 0.25, 0.1),
        },
        "exact": {
            "m": 5,
            "avg_grid": ((3, 12), (5, 9), (7, 7), (9, 6)),   # (k, atoms)
            "rc_grid": ((3, 10), (5, 8), (7, 6), (9, 5)),
            "rc_small": ((3, 4), (5, 3)),                    # brute-forced, m = 3
            "lb1_k": tuple(range(3, 10)),
        },
        "sample": {
            "ms": (3, 4), "locations": 8, "k": 3, "trials": 50,
            "epsilon": 0.05, "delta": 0.25,
            "mc_trials": 400_000, "pmatrix_trials": 100_000,
            "tie_groups": 20_000,
        },
    },
    "smoke": {
        "tables": {
            "theta3_cases": (8,), "theta3_bound_max": 0.27,
            "theta3_bound_target": 0.27, "sweep": (2, 5),
            "epsilons": (0.5,),
        },
        "exact": {
            "m": 3,
            "avg_grid": ((3, 6), (5, 4)),
            "rc_grid": ((3, 5),),
            "rc_small": ((3, 3),),
            "lb1_k": (3, 4),
        },
        "sample": {
            "ms": (3,), "locations": 6, "k": 3, "trials": 8,
            "epsilon": 0.05, "delta": 0.25,
            "mc_trials": 40_000, "pmatrix_trials": 20_000,
            "tie_groups": 20_000,
        },
    },
}


# -- instances ---------------------------------------------------------------


def planar_instance(lib, rng: random.Random, m: int, n: int):
    """m candidates and n locations uniform in the unit square, Euclidean
    distances, random positive masses. Sums of distance differences
    almost never collide."""
    cands = [f"c{i}" for i in range(m)]
    locs = [f"v{i}" for i in range(n)]
    xy = {p: (rng.random(), rng.random()) for p in cands + locs}
    names = cands + locs
    dist = {
        (a, b): math.hypot(xy[a][0] - xy[b][0], xy[a][1] - xy[b][1])
        for i, a in enumerate(names) for b in names[i + 1:]
    }
    return lib.metric.MetricInstance.build(
        cands, list(zip(locs, _masses(rng, n))), dist
    )


def lattice_instance(lib, rng: random.Random, m: int, n: int):
    """Candidates and locations at integer points of a line: locations at
    2, 4, ..., 2n, candidates at fixed odd points spread over [1, 2n + 1].
    Every distance difference is an integer, so group sums collide
    heavily and ties are common. Only the masses depend on the seed."""
    cand_x = [1 + 2 * round(i * n / (m - 1)) for i in range(m)]
    cands = [f"c{i}" for i in range(m)]
    locs = [f"v{i}" for i in range(n)]
    pos = dict(zip(cands, cand_x)) | {v: 2 * (i + 1) for i, v in enumerate(locs)}
    names = cands + locs
    dist = {
        (a, b): float(abs(pos[a] - pos[b]))
        for i, a in enumerate(names) for b in names[i + 1:]
    }
    return lib.metric.MetricInstance.build(
        cands, list(zip(locs, _masses(rng, n))), dist
    )


def _masses(rng: random.Random, n: int) -> list[float]:
    w = [rng.random() + 0.05 for _ in range(n)]
    total = math.fsum(w)
    return [x / total for x in w]


class View:
    """Plain-number view of an instance for the reference computations."""

    def __init__(self, inst):
        index = {p: k for k, p in enumerate(inst.points)}
        rows = [index[l] for l in inst.location_ids]
        self.cands = list(inst.candidates)
        self.masses = [float(x) for x in inst.masses]
        self.loc = [[float(inst.dist[r, index[c]]) for r in rows]
                    for c in inst.candidates]
        self.d = [[float(inst.dist[index[a], index[b]]) for b in inst.candidates]
                  for a in inst.candidates]

    def diffs(self, i: int, j: int) -> list[float]:
        return [a - b for a, b in zip(self.loc[i], self.loc[j])]

    def biases(self, i: int, j: int) -> list[float]:
        return [x / self.d[i][j] for x in self.diffs(i, j)]

    def exact_p(self, model) -> list[list[float]]:
        """Reference P-matrix: Fraction convolution for averaging,
        brute force over ordered k-tuples for random choice."""
        m = len(self.cands)
        P = [[math.nan] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                if model.variant == "averaging":
                    P[i][j] = float(averaging_p_fraction(
                        self.diffs(i, j), self.masses, model.k,
                        model.tie_to_first))
                else:
                    P[i][j] = random_choice_p_bruteforce(
                        self.biases(i, j), self.masses, model.k,
                        model.g.spec(), model.beta, model.all_zero_to_first)
        return P


def _once(fn):
    """Compute a reference value on first use and keep it for the run."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _check_p_matrix(pm, ref, what: str) -> None:
    m = len(ref)
    for i in range(m):
        for j in range(m):
            if i != j:
                close(float(pm.p[i, j]), ref[i][j], P_TOL, f"{what} p[{i},{j}]")


def _check_complementary(pm, what: str) -> None:
    m = pm.m
    for i in range(m):
        for j in range(i + 1, m):
            close(float(pm.p[i, j] + pm.p[j, i]), 1.0, P_TOL,
                  f"{what} p[{i},{j}] + p[{j},{i}]")


def _check_winner(view: View, pm, tour, winner: str, tol: float, what: str) -> int:
    """The tournament follows the dominance rule, the winner is the
    Copeland winner under the documented tie rule, and it is uncovered."""
    P = [[float(x) for x in row] for row in pm.p]
    beats = beats_from(P, tol)
    m = len(beats)
    require(
        all(bool(tour.beats[i, j]) == beats[i][j]
            for i in range(m) for j in range(m) if i != j),
        f"{what}: tournament edges differ from p >= 1/2 - {tol:g}",
    )
    w = copeland_winner_ref(beats)
    require(winner == view.cands[w],
            f"{what}: winner {winner}, Copeland rule gives {view.cands[w]}")
    require(uncovered(beats, w), f"{what}: winner {winner} is covered")
    return w


# -- tables ------------------------------------------------------------------


def build_tables(lib, rng: random.Random, size: dict) -> list[Op]:
    """The paper's tables at desk scale. No input depends on the seed: the
    programs are the paper's own."""
    av, rc, box = lib.averaging, lib.randomchoice, lib.boxopt
    defaults = inspect.signature(av.solve_theta3).parameters
    tol = defaults["tol"].default
    budget = defaults["budget"].default
    target = size["theta3_bound_target"] or defaults["bound_target"].default
    beta = 3.4152
    ops = []

    theta2_doc = _once(lambda: json.loads(av.build_theta2_program().to_json()))

    def check_theta2(res):
        b = Fraction(res.value)
        require((b + 1) ** 2 >= 2, f"theta_2 bound {res.value!r} < sqrt(2) - 1")
        require(res.value <= math.sqrt(2) - 1 + 1e-6,
                f"theta_2 bound {res.value!r} not within 1e-6 of sqrt(2) - 1")
        opt = res.per_case[0]
        require(opt.point is not None, "theta_2: no incumbent")
        val = exact_program_check(theta2_doc(), opt.point, FEAS_SLACK)
        close(float(val), opt.value, 1e-12, "theta_2 incumbent objective")
        require(opt.bound >= opt.value, "theta_2 bound below its incumbent")
        require(res.audit_pk >= 0.5 - 1e-9,
                f"theta_2 witness wins with {res.audit_pk!r} < 1/2")

    ops.append(Op("theta2", av.solve_theta2, check_theta2))

    k2_docs = _once(lambda: [
        json.loads(av.build_k2_case_program(c, beta).to_json()) for c in (1, 2)
    ])

    def check_k2(cases):
        for c, opt in zip((1, 2), cases):
            require(opt.status == "Certified",
                    f"k2 case {c}: status {opt.status}")
            require(opt.bound < 0, f"k2 case {c}: bound {opt.bound!r} >= 0")
            require(opt.point is not None, f"k2 case {c}: no incumbent")
            val = exact_program_check(k2_docs()[c - 1], opt.point, FEAS_SLACK)
            close(float(val), opt.value, 1e-9, f"k2 case {c} incumbent objective")
            require(opt.bound >= opt.value, f"k2 case {c}: bound below incumbent")

    ops.append(Op("k2-chain",
                  lambda: av.solve_copeland_k2(beta, threads=1), check_k2))

    for case in size["theta3_cases"]:
        prog = av.build_theta3_case_program(case)
        seeds = av._theta3_seeds(case)
        doc = _once(lambda prog=prog: json.loads(prog.to_json()))

        def run(prog=prog, seeds=seeds):
            return box.solve_global(prog, tol=tol, max_boxes=budget,
                                    seeds=seeds, bound_target=target)

        def check(opt, case=case, doc=doc):
            require(opt.bound <= size["theta3_bound_max"],
                    f"theta_3 case {case}: bound {opt.bound!r} > "
                    f"{size['theta3_bound_max']}")
            require(opt.point is not None, f"theta_3 case {case}: no incumbent")
            require(opt.bound >= opt.value,
                    f"theta_3 case {case}: bound below incumbent")
            val = exact_program_check(doc(), opt.point, FEAS_SLACK)
            close(float(val), opt.value, 1e-12,
                  f"theta_3 case {case} incumbent objective")

        ops.append(Op(f"theta3-case{case}", run, check))

    paper = {2: (3.34, 1.82, 1.41), 3: (2.31, 1.51, 1.25), 4: (1.90, 1.37, 1.18)}

    def check_zeta(z, g: str):
        what = f"zeta_{z.k} ({g})"
        require(relaxed_win_prob(z.k, z.alpha, z.omega, g, z.beta) >= 0.5 - 1e-9,
                f"{what}: argmax breaks the win constraint")
        close((1 - z.alpha) - z.alpha * z.omega, z.value, 1e-9,
              f"{what}: objective at the argmax")
        r = (1 + z.value) / (1 - z.value)
        close(z.distortion_upper, r * r, 1e-12 * r * r, f"{what}: distortion")
        close(z.det_lb, min(3.0, r), 1e-12, f"{what}: deterministic floor")
        close(z.rand_lb, min(2.0, 1 / (1 - z.value)), 1e-12,
              f"{what}: randomized floor")
        if g == "linear":
            close(z.value, zeta_linear_closed_form(z.k), 1e-6,
                  f"{what} against 1 - 2^(-1/k)")

    def check_table(rows):
        for z in rows:
            check_zeta(z, "linear")
            for got, want, what in zip(
                    (z.distortion_upper, z.det_lb, z.rand_lb), paper[z.k],
                    ("distortion", "det_lb", "rand_lb")):
                close(got, want, 0.01, f"zeta_{z.k} {what} against the paper")

    ops.append(Op("zeta-table", lambda: [rc.zeta(k) for k in (2, 3, 4)],
                  check_table))

    k_lo, k_hi = size["sweep"]

    def check_sweep(rows, g):
        require([z.k for z in rows] == list(range(k_lo, k_hi + 1)),
                f"sweep ({g}) covers the wrong group sizes")
        for z in rows:
            check_zeta(z, g)
        d = [z.distortion_upper for z in rows]
        require(all(a > b for a, b in zip(d, d[1:])),
                f"sweep ({g}): distortion not decreasing in k")

    ops.append(Op("sweep-linear", lambda: rc.sweep(k_lo, k_hi),
                  lambda rows: check_sweep(rows, "linear")))
    sqrt = lib.models.SQRT
    ops.append(Op("sweep-sqrt", lambda: rc.sweep(k_lo, k_hi, sqrt),
                  lambda rows: check_sweep(rows, "sqrt")))

    eps = size["epsilons"]

    def check_sizes(sizes):
        for e, k in zip(eps, sizes):
            want = group_size_ref(e)
            require(k == want, f"group size for epsilon {e}: {k}, expected {want}")

    ops.append(Op("group-size",
                  lambda: [rc.group_size_for_epsilon(e) for e in eps],
                  check_sizes))
    return ops


# -- exact -------------------------------------------------------------------


def build_exact(lib, rng: random.Random, size: dict) -> list[Op]:
    """Exact P-matrices and Copeland winners for both rules, on lattice
    and generic instances and on the paper's instance families."""
    md, tn = lib.models, lib.tournament
    ops = []

    def pmatrix_op(name, inst, model, exact_ref, pipeline=False, extra=None):
        """exact_ref: compare every p with View.exact_p; otherwise check
        p_ij + p_ji = 1, which holds when no group can tie."""
        view = _once(lambda: View(inst))
        ref = _once(lambda: view().exact_p(model))

        def run():
            pm = tn.build_pmatrix(inst, model)
            tour = tn.build_tournament(pm)
            out = (pm, tour, tn.copeland_winner(tour))
            if pipeline:
                out += tn.pipeline_distortion(inst, model)
            return out

        def check(out):
            pm, tour, winner = out[:3]
            if exact_ref:
                _check_p_matrix(pm, ref(), name)
            else:
                _check_complementary(pm, name)
            w = _check_winner(view(), pm, tour, winner, EXACT_TOL, name)
            if pipeline:
                require(out[3] == winner,
                        f"{name}: pipeline elects {out[3]}, tournament {winner}")
                close(out[4], distortion_ref(view().loc, view().masses, w),
                      1e-12, f"{name}: distortion of {winner}")
            if extra is not None:
                extra(view(), pm, w)

        ops.append(Op(name, run, check))

    m = size["m"]
    for k, n in size["avg_grid"]:
        model = md.ModelConfig("averaging", k)
        pmatrix_op(f"avg-lattice-k{k}-n{n}", lattice_instance(lib, rng, m, n),
                   model, exact_ref=True)
        pmatrix_op(f"avg-generic-k{k}-n{n}", planar_instance(lib, rng, m, n),
                   model, exact_ref=False)
    for k, n in size["rc_grid"]:
        pmatrix_op(f"rc-generic-k{k}-n{n}", planar_instance(lib, rng, m, n),
                   md.ModelConfig("random-choice", k), exact_ref=False)
    for k, n in size["rc_small"]:
        pmatrix_op(f"rc-small-k{k}-n{n}", planar_instance(lib, rng, 3, n),
                   md.ModelConfig("random-choice", k), exact_ref=True,
                   pipeline=True)

    for k in size["lb1_k"]:
        inst = lib.instances.lb1_instance(k)
        for rule in ("averaging", "random-choice"):
            pmatrix_op(f"lb1-k{k}-{rule}", inst, md.ModelConfig(rule, k),
                       exact_ref=True, pipeline=True,
                       extra=_lb1_check(k) if rule == "averaging" else None)

    inst = lib.instances.copeland_k2_worst_case(1e-3)
    for rule in ("averaging", "random-choice"):
        pmatrix_op(f"copeland-k2-worst-{rule}", inst, md.ModelConfig(rule, 2),
                   exact_ref=True, pipeline=True, extra=_chain_bound_check)
    return ops


def _lb1_check(k: int):
    """lb1_instance(k): mean bias 1/(k+1) (odd k) or 2/(3k) (even k) toward
    X, yet size-k averaging groups pick W at least half the time."""
    def check(view, pm, w):
        mean = math.fsum(p * b for p, b in zip(view.masses, view.biases(0, 1)))
        want = 1 / (k + 1) if k % 2 else 2 / (3 * k)
        close(mean, want, 1e-12, f"lb1_instance({k}) mean bias")
        p = float(pm.p[0, 1])
        require(p >= 0.5 - P_TOL, f"lb1_instance({k}): p(W, X) = {p!r} < 1/2")
    return check


def _chain_bound_check(view, pm, w):
    """The elected candidate stays within the k = 2 Copeland chain bound."""
    d = distortion_ref(view.loc, view.masses, w)
    bound = 3 + math.sqrt(2)
    require(d <= bound + 1e-9, f"copeland_k2_worst_case: distortion {d!r} > {bound!r}")


# -- sample ------------------------------------------------------------------


def _within_sigmas(estimate: float, p: float, trials: int, what: str) -> None:
    """A Monte Carlo estimate lies within MC_SIGMAS standard errors of the
    exact p (the reference sum may stray from [0, 1] by a rounding)."""
    se = math.sqrt(max(p * (1 - p), 0.0) / trials)
    require(abs(estimate - p) <= MC_SIGMAS * se + P_TOL,
            f"{what}: {estimate!r} vs exact {p!r}, more than "
            f"{MC_SIGMAS} standard errors ({se:.2e}) apart")


def build_sample(lib, rng: random.Random, size: dict) -> list[Op]:
    """The sampled pipeline in both modes at the Hoeffding group counts,
    Monte Carlo estimates, and one operation that fails on a known fault."""
    md, tn, sm, bd = lib.models, lib.tournament, lib.sampling, lib.bounds
    eps, delta, trials, k = size["epsilon"], size["delta"], size["trials"], size["k"]
    avg = md.ModelConfig("averaging", k)
    rcm = md.ModelConfig("random-choice", k)
    ops = []
    insts = {m: planar_instance(lib, rng, m, size["locations"]) for m in size["ms"]}
    views = {m: _once(lambda inst=inst: View(inst)) for m, inst in insts.items()}

    def trials_op(m, mode, model, rule, groups):
        cfg = sm.SampleRunConfig(
            insts[m], model, groups=groups, trials=trials,
            seed=rng.randrange(2**32), mode=mode, epsilon=eps,
        )

        def check(rep):
            view = views[m]()
            what = f"{mode} m={m}"
            require(len(rep.winners) == trials == len(rep.max_errors),
                    f"{what}: {len(rep.winners)} trials reported")
            for w, d in zip(rep.winners, rep.distortions):
                close(d, distortion_ref(view.loc, view.masses,
                                        view.cands.index(w)),
                      1e-12, f"{what}: distortion of {w}")
            within = sum(e <= eps for e in rep.max_errors) / trials
            require(within >= 1 - delta,
                    f"{what}: {within:.3f} of trials within {eps}, "
                    f"below 1 - delta = {1 - delta}")
            close(rep.frac_within_epsilon, within, 1e-12,
                  f"{what}: reported share within epsilon")
            close(rep.mean_distortion, math.fsum(rep.distortions) / trials,
                  1e-12, f"{what}: mean distortion")

        ops.append(Op(f"{rule}-m{m}", lambda: sm.empirical_distortion_trials(cfg),
                      check))

    for m in insts:
        trials_op(m, "RankingGroups", avg, "ranking",
                  bd.sample_size_averaging(m, eps, delta))
        trials_op(m, "MatchingGroups", rcm, "matching",
                  bd.sample_size_random_choice(m, eps, delta)[0])

    m_mc = max(insts)
    inst = insts[m_mc]
    for rule, model in (("avg", avg), ("rc", rcm)):
        ref = _once(lambda model=model: views[m_mc]().exact_p(model))
        seed = rng.randrange(2**32)
        n_mc = size["mc_trials"]

        def run_pk(model=model, seed=seed):
            return md.monte_carlo_pk(inst, model, "c0", "c1", n_mc, seed)

        def check_pk(res, ref=ref, rule=rule):
            _within_sigmas(res.value, ref()[0][1], n_mc, f"monte_carlo_pk ({rule})")

        ops.append(Op(f"mc-pk-{rule}", run_pk, check_pk))

        mode = tn.MonteCarlo(trials=size["pmatrix_trials"], seed=rng.randrange(2**32))

        def run_pm(model=model, mode=mode):
            pm = tn.build_pmatrix(inst, model, mode)
            tour = tn.build_tournament(pm)
            return pm, tour, tn.copeland_winner(tour)

        def check_pm(out, ref=ref, rule=rule, mode=mode):
            pm, tour, winner = out
            P = ref()
            for i in range(m_mc):
                for j in range(i + 1, m_mc):
                    _within_sigmas(float(pm.p[i, j]), P[i][j], mode.trials,
                                   f"MC P-matrix ({rule}) p[{i},{j}]")
                    require(pm.p[j, i] == 1.0 - pm.p[i, j],
                            f"MC P-matrix ({rule}) not mirrored at ({i},{j})")
            _check_winner(views[m_mc](), pm, tour, winner, MC_TOL,
                          f"MC P-matrix ({rule})")

        ops.append(Op(f"mc-pmatrix-{rule}", run_pm, check_pm))

    # RankingGroups ignores tie_to_first (ties always go to the lower
    # index), so with ties to the second alternative the sampled p(W, X)
    # estimates the wrong quantity. Fixed inputs and seed: it fails on
    # every run until the sampler honours the tie rule.
    lb1 = lib.instances.lb1_instance(3)
    tie_model = md.ModelConfig("averaging", 3, tie_to_first=False)
    tie_cfg = sm.SampleRunConfig(lb1, tie_model, groups=size["tie_groups"], seed=0)
    tie_ref = _once(lambda: float(averaging_p_fraction(
        View(lb1).diffs(0, 1), list(lb1.masses), 3, tie_to_first=False)))

    def run_tie():
        return (sm.simulate_estimated_pmatrix(tie_cfg),
                md.exact_pk(lb1, tie_model, "W", "X"))

    def check_tie(out):
        pm, exact = out
        close(exact.value, tie_ref(), P_TOL, "exact_pk on lb1_instance(3), ties to X")
        radius = hoeffding_radius(tie_cfg.groups, 1e-6)
        if abs(pm.p[0, 1] - exact.value) > radius:
            raise KnownFault(
                f"RankingGroups with tie_to_first=False samples p(W, X) = "
                f"{float(pm.p[0, 1])!r}; exact {exact.value!r} (radius {radius:.4f})")

    ops.append(Op("ranking-ties-to-second", run_tie, check_tie, known_fault=True))
    return ops


WORKLOADS = {"tables": build_tables, "exact": build_exact, "sample": build_sample}
