"""Command line interface: one executable exposing the whole pipeline.

Subcommands emit JSON (canonical machine format) or CSV (figure data).
Every primary output embeds the package version, the effective
configuration, and the seed (null for deterministic commands), and a
rerun with identical inputs and seed is byte-identical. CSV files carry
the same metadata as leading '#' comment lines above the header row.

Exit codes: 0 success, 1 domain error (bad values, invalid instances,
IO failures), 2 usage error (unparseable or inconsistent flags).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

from . import __version__
from .averaging import (
    K2_BETA_THRESHOLD,
    THETA2,
    k2_case_certificates,
    solve_copeland_k2,
    solve_k2_parts,
    solve_theta2,
    solve_theta3,
)
from .bounds import (
    copeland_distortion_from_theta,
    copeland_k2_distortion,
    lower_bounds_from_theta,
    sample_size_averaging,
    sample_size_random_choice,
    theta_lower_bound_closed_form,
    theta_upper_bound_closed_form,
)
from .instances import FAMILIES, BudgetExceeded
from .metric import (
    InvalidInstance,
    distortion_of,
    instance_to_json,
    load_instance,
    social_optimum,
)
from .models import (
    ENUMERATION_BUDGET,
    BiasTransform,
    ModelConfig,
    exact_pk,
    monte_carlo_pk,
)
from .randomchoice import incumbent_feasibility, sweep, zeta
from .sampling import SampleRunConfig, empirical_distortion_trials
from .tournament import (
    MonteCarlo,
    build_pmatrix,
    build_tournament,
    copeland_scores,
    copeland_winner,
    uncovered_check,
)

SWEEP_COLUMNS = ("k", "zeta", "alpha", "omega",
                 "distortion_upper", "det_lb", "rand_lb")


# ---------------------------------------------------------------------------
# output plumbing


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _meta(command: str, config: dict, seed) -> dict:
    """The header of every output: version, command, seed and config."""
    return {"version": __version__, "command": command,
            "seed": seed, "config": config}


def _emit_json(command: str, config: dict, payload: dict,
               out: str | None, seed=None) -> None:
    doc = _meta(command, config, seed)
    doc.update(payload)
    _write(json.dumps(doc, indent=2) + "\n", out)


def _csv_text(command: str, config: dict, columns, rows, seed=None) -> str:
    meta = json.dumps(_meta(command, config, seed), sort_keys=True)
    lines = [f"# delib {meta}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else repr(v) for v in row
        ))
    return "\n".join(lines) + "\n"


def _sweep_csv(command: str, config: dict, results) -> str:
    return _csv_text(command, config, SWEEP_COLUMNS, [
        (r.k, r.value, r.alpha, r.omega,
         r.distortion_upper, r.det_lb, r.rand_lb)
        for r in results
    ])


def _load(args):
    """Read --instance and --model. Returns both, the config that reports
    them, and the seed to report: null unless --trials samples."""
    inst = load_instance(args.instance)
    with open(args.model) as fh:
        model = ModelConfig.from_json(fh.read())
    config = {"instance": args.instance, "model": json.loads(model.to_json())}
    return inst, model, config, None if args.trials is None else args.seed


def _given(**kwargs) -> dict:
    """The keyword arguments whose flags were given: the rest keep the
    solver's defaults."""
    return {name: v for name, v in kwargs.items() if v is not None}


def _elect(args):
    """Load the instance and model, build the P-matrix and the tournament,
    and elect the Copeland winner. Also returns the config and seed that
    the tournament and pipeline commands report."""
    inst, model, config, seed = _load(args)
    mode = "exact" if seed is None else MonteCarlo(args.trials, seed)
    pm = build_pmatrix(inst, model, mode)
    t = build_tournament(pm, args.tol)
    config.update(trials=args.trials, tol=t.tol)
    return inst, pm, t, copeland_winner(t), config, seed


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    config = {"instance": args.instance}
    try:
        load_instance(args.instance)
        violations = []
    except InvalidInstance as e:
        violations = e.violations
    _emit_json("validate", config,
               {"valid": not violations, "violations": violations}, args.out)
    return 1 if violations else 0


def _cmd_gen_instance(args) -> int:
    build = FAMILIES[args.family]
    params = {name: getattr(args, name)
              for name in inspect.signature(build).parameters}
    if None in params.values():
        *rest, last = (f"--{name}" for name in params)
        need = f"{', '.join(rest)} and {last} are" if rest else f"{last} is"
        raise UsageError(f"{need} required for family {args.family}")
    # every family's parameters are flags; a family takes only its own
    flags = {name for b in FAMILIES.values()
             for name in inspect.signature(b).parameters}
    unused = [f"--{name}" for name, v in vars(args).items()
              if name in flags and name not in params and v is not None]
    _require(not unused,
             f"family {args.family} takes no {', '.join(unused)}")
    doc = json.loads(instance_to_json(build(**params)))
    doc["meta"] = _meta("gen-instance", {"family": args.family, **params},
                        None)
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_pk(args) -> int:
    inst, model, config, seed = _load(args)
    if args.pair is not None:
        c1, c2 = _split_pair(args.pair)
    else:
        _require(inst.m >= 2, "instance has fewer than two candidates")
        c1, c2 = inst.candidates[0], inst.candidates[1]
    config.update(pair=[c1, c2], trials=args.trials)
    if seed is not None:
        res = monte_carlo_pk(inst, model, c1, c2, args.trials, seed)
    else:
        res = exact_pk(inst, model, c1, c2, budget=args.budget)
    _emit_json("pk", config,
               {"value": res.value, "stderr": res.stderr,
                "method": res.method},
               args.out, seed=seed)
    return 0


def _cmd_tournament(args) -> int:
    _, pm, t, w, config, seed = _elect(args)
    _emit_json(
        "tournament", config,
        {
            "pmatrix": json.loads(pm.to_json()),
            "copeland_scores": dict(zip(t.candidates,
                                        copeland_scores(t).tolist())),
            "winner": w,
            "winner_uncovered": uncovered_check(t, w),
        },
        args.out, seed=seed,
    )
    return 0


def _cmd_pipeline(args) -> int:
    inst, pm, _, w, config, seed = _elect(args)
    _emit_json(
        "pipeline", config,
        {"winner": w, "distortion": distortion_of(inst, w),
         "social_optimum": social_optimum(inst), "method": pm.method},
        args.out, seed=seed,
    )
    return 0


def _cmd_solve_avg(args) -> int:
    _require(args.k == 3 or args.budget is None,
             "--budget applies to --k 3 only")
    config = {"k": args.k, "tol": args.tol, "budget": args.budget}
    if args.k == 2:
        res = solve_theta2(**_given(tol=args.tol))
    else:
        res = solve_theta3(threads=args.threads,
                           **_given(tol=args.tol, budget=args.budget))
    # a small budget can leave theta_3's bound at 1: rigorous, but the
    # bound formulas need theta < 1, so those fields are null
    vacuous = res.value >= 1.0
    det_lb, rand_lb = ((None, None) if vacuous
                       else lower_bounds_from_theta(res.value))
    payload = json.loads(res.to_json())
    payload.update({
        "theta_lower_closed_form": theta_lower_bound_closed_form(args.k),
        "theta_upper_closed_form": theta_upper_bound_closed_form(args.k),
        "copeland_distortion_upper": (
            None if vacuous else copeland_distortion_from_theta(res.value)),
        "det_lb_at_bound": det_lb,
        "rand_lb_at_bound": rand_lb,
    })
    _emit_json("solve-avg", config, payload, args.out)
    return 0


def _cmd_solve_copeland_k2(args) -> int:
    parts = solve_k2_parts(
        args.beta, threads=args.threads,
        **_given(tol=args.tol, max_boxes=args.budget),
    )
    case1, case2 = k2_case_certificates(parts)
    certified = case1.bound < 0 and case2.bound < 0
    config = {"beta": args.beta, "tol": args.tol, "budget": args.budget}
    _emit_json(
        "solve-copeland-k2", config,
        {
            "beta": args.beta,
            "beta_threshold": K2_BETA_THRESHOLD,
            "both_negative": certified,
            "distortion_upper": (copeland_k2_distortion(args.beta)
                                 if certified else None),
            "cases": [json.loads(case1.to_json()),
                      json.loads(case2.to_json())],
            "parts": {part: json.loads(opt.to_json())
                      for part, opt in parts.items()},
        },
        args.out,
    )
    return 0


def _cmd_solve_random(args) -> int:
    g = BiasTransform.parse(args.g)
    res = zeta(args.k, g, args.beta,
               alpha_step=args.alpha_step, omega_tol=args.omega_tol)
    pk, gap = incumbent_feasibility(res)
    config = {"k": args.k, "g": args.g, "beta": args.beta,
              "alpha_step": args.alpha_step, "omega_tol": args.omega_tol}
    payload = json.loads(res.to_json())
    payload.update({"incumbent_exact_pk": pk, "incumbent_gap": gap})
    _emit_json("solve-random", config, payload, args.out)
    return 0


def _cmd_sweep_random(args) -> int:
    g = BiasTransform.parse(args.g)
    results = sweep(args.k_min, args.k_max, g, args.beta,
                    alpha_step=args.alpha_step, omega_tol=args.omega_tol)
    config = {"k_min": args.k_min, "k_max": args.k_max, "g": args.g,
              "beta": args.beta, "alpha_step": args.alpha_step,
              "omega_tol": args.omega_tol}
    _write(_sweep_csv("sweep-random", config, results), args.out)
    return 0


def _cmd_bounds(args) -> int:
    samples = None if args.samples is None else _split_samples(args.samples)
    x = args.theta if args.theta is not None else args.zeta
    _require(x is not None or samples is not None,
             "one of --theta, --zeta, --samples is required")
    config = {"theta": args.theta, "zeta": args.zeta,
              "samples": args.samples}
    payload = _given(theta=args.theta, zeta=args.zeta)
    payload.update(zip(("m", "epsilon", "delta"), samples or ()))
    # a bad theta raises before any sample size is computed
    if x is not None:
        payload["copeland_upper"] = copeland_distortion_from_theta(x)
        payload["det_lb"], payload["rand_lb"] = lower_bounds_from_theta(x)
    if samples is not None:
        payload["samples_averaging"] = sample_size_averaging(*samples)
        payload.update(zip(
            ("samples_per_matching", "matchings", "samples_random_choice"),
            sample_size_random_choice(*samples)))
    _emit_json("bounds", config, payload, args.out)
    return 0


def _cmd_sample_sim(args) -> int:
    inst, model, config, seed = _load(args)
    cfg = SampleRunConfig(
        instance=inst, model=model, groups=args.groups, trials=args.trials,
        seed=seed, mode=args.mode, epsilon=args.epsilon,
    )
    report = empirical_distortion_trials(cfg)
    config.update(groups=args.groups, trials=args.trials, mode=args.mode,
                  epsilon=args.epsilon)
    _emit_json("sample-sim", config, json.loads(report.to_json()),
               args.out, seed=seed)
    if args.out is not None:
        root, _ = os.path.splitext(args.out)
        _write(_csv_text("sample-sim", config,
                         ("trial", "winner", "distortion", "max_error"),
                         [(str(t), w, d, e) for t, (w, d, e) in enumerate(
                             zip(report.winners, report.distortions,
                                 report.max_errors))],
                         seed=seed),
               root + ".csv")
    return 0


def _cmd_reproduce_tables(args) -> int:
    config = {"tol": args.tol, "budget": args.budget}

    # averaging model: certified theta bounds and Copeland distortion
    t2 = solve_theta2(**_given(tol=args.tol))
    beta = K2_BETA_THRESHOLD + 1e-3
    case1, case2 = solve_copeland_k2(
        beta, threads=args.threads,
        **_given(tol=args.tol, max_boxes=args.budget),
    )
    k2_upper = (copeland_k2_distortion(beta)
                if case1.bound < 0 and case2.bound < 0 else math.nan)
    t3 = solve_theta3(threads=args.threads,
                      **_given(tol=args.tol, budget=args.budget))
    rows1 = [
        (2, THETA2, t2.value, k2_upper,
         lower_bounds_from_theta(THETA2)[0]),
        (3, theta_lower_bound_closed_form(3), t3.value,
         (math.nan if t3.value >= 1.0
          else copeland_distortion_from_theta(t3.value)),
         lower_bounds_from_theta(theta_lower_bound_closed_form(3))[0]),
    ]
    # only now: the solves above reject a bad --tol or --budget, and a
    # usage fault leaves no directory behind
    os.makedirs(args.out, exist_ok=True)
    _write(_csv_text("reproduce-tables", config,
                     ("k", "theta_lower", "theta_upper",
                      "copeland_upper", "det_lb"), rows1),
           os.path.join(args.out, "table1.csv"))

    # random-choice model: linear g at k = 2, 3, 4 and the two sweeps
    for name, results in (
            ("table2.csv", [zeta(k) for k in (2, 3, 4)]),
            ("fig1.csv", sweep(2, 30)),
            ("fig2.csv", sweep(2, 30, BiasTransform.parse("sqrt")))):
        _write(_sweep_csv("reproduce-tables", config, results),
               os.path.join(args.out, name))
    return 0


# ---------------------------------------------------------------------------
# parser


class UsageError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise UsageError(message)


def _split_pair(text: str) -> tuple[str, str]:
    parts = text.split(",")
    _require(len(parts) == 2, f"--pair expects 'A,B', got {text!r}")
    return parts[0], parts[1]


def _split_samples(text: str) -> tuple[int, float, float]:
    parts = text.split(",")
    _require(len(parts) == 3,
             f"--samples expects 'm,epsilon,delta', got {text!r}")
    try:
        return int(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise UsageError(f"--samples expects 'm,epsilon,delta', got {text!r}")


def _add_io(p, model=True):
    p.add_argument("--instance", required=True, help="instance JSON file")
    if model:
        p.add_argument("--model", required=True,
                       help="model config JSON file")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_mc(p):
    p.add_argument("--trials", type=int, default=None,
                   help="Monte-Carlo trials per pair (default: exact)")
    p.add_argument("--seed", type=int, default=0)


def _add_solve(p, budget_help: str):
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--budget", type=int, default=None, help=budget_help)
    p.add_argument("--threads", type=int, default=1)


def _add_random(p):
    p.add_argument("--g", default="linear",
                   help="bias transform: linear | sqrt | pow:E")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--alpha-step", type=float, default=1e-3)
    p.add_argument("--omega-tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="delib",
        description="Deliberation distortion toolkit: models, Copeland "
                    "pipeline, certified bounds, sampling.",
    )
    ap.add_argument("--version", action="version",
                    version=f"delib {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    _add_io(p, model=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen-instance", help="emit a named instance family")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen_instance)

    p = sub.add_parser("pk", help="pairwise win probability")
    _add_io(p)
    p.add_argument("--pair", default=None, help="candidates 'A,B' "
                   "(default: first two declared)")
    _add_mc(p)
    p.add_argument("--budget", type=int, default=ENUMERATION_BUDGET,
                   help="exact mode's enumeration budget in member "
                        "slots: C(n+k-1, k) multisets of k members each "
                        "for random choice; for averaging, both "
                        "half-groups' multisets and k per group near a tie")
    p.set_defaults(func=_cmd_pk)

    for name, text, func in (
            ("tournament", "pairwise matrix, scores, winner", _cmd_tournament),
            ("pipeline", "winner and its distortion", _cmd_pipeline)):
        p = sub.add_parser(name, help=text)
        _add_io(p)
        _add_mc(p)
        p.add_argument("--tol", type=float, default=None,
                       help="dominance tolerance for the tournament")
        p.set_defaults(func=func)

    p = sub.add_parser("solve-avg",
                       help="certified max mean bias, averaging rule")
    p.add_argument("--k", type=int, required=True, choices=(2, 3))
    _add_solve(p, "boxes per theta_3 case (--k 3 only)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve_avg)

    p = sub.add_parser("solve-copeland-k2",
                       help="certify the k=2 Copeland chain cases negative")
    p.add_argument("--beta", type=float, required=True)
    _add_solve(p, "boxes per sub-solve (B = 1, B = 0, B-slope)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve_copeland_k2)

    p = sub.add_parser("solve-random",
                       help="max mean bias, random-choice rule")
    p.add_argument("--k", type=int, required=True)
    _add_random(p)
    p.set_defaults(func=_cmd_solve_random)

    p = sub.add_parser("sweep-random",
                       help="random-choice bounds over a range of k")
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    _add_random(p)
    p.set_defaults(func=_cmd_sweep_random)

    p = sub.add_parser("bounds", help="closed-form bound report")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--theta", type=float, default=None)
    g.add_argument("--zeta", type=float, default=None)
    p.add_argument("--samples", default=None,
                   help="sample-size query 'm,epsilon,delta'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sample-sim",
                       help="finite-sample pipeline simulation")
    _add_io(p)
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="RankingGroups",
                   choices=("RankingGroups", "MatchingGroups"))
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=_cmd_sample_sim)

    p = sub.add_parser("reproduce-tables",
                       help="write table1/table2/fig1/fig2 CSVs")
    p.add_argument("--out", required=True, help="output directory")
    _add_solve(p, "boxes per k=2 sub-solve and per theta_3 case")
    p.set_defaults(func=_cmd_reproduce_tables)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, ZeroDivisionError, OverflowError,
            BudgetExceeded, OSError, json.JSONDecodeError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
