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
import json
import math
import os
import sys

from . import __version__
from .averaging import (
    K2_BETA_THRESHOLD,
    THETA2,
    solve_copeland_k2,
    solve_theta2,
    solve_theta3,
    theta_lower_bound_closed_form,
    theta_upper_bound_closed_form,
)
from .bounds import (
    bound_report,
    copeland_distortion_from_theta,
    lower_bounds_from_theta,
)
from .instances import FAMILIES, BudgetExceeded
from .metric import (
    InvalidInstance,
    distortion_of,
    instance_to_json,
    load_instance,
    social_optimum,
    validate,
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


def _emit_json(command: str, config: dict, payload: dict,
               out: str | None, seed=None) -> None:
    doc = {"version": __version__, "command": command,
           "seed": seed, "config": config}
    doc.update(payload)
    _write(json.dumps(doc, indent=2) + "\n", out)


def _csv_text(command: str, config: dict, columns, rows, seed=None) -> str:
    meta = {"version": __version__, "command": command,
            "seed": seed, "config": config}
    lines = [f"# delib {json.dumps(meta, sort_keys=True)}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else repr(v) for v in row
        ))
    return "\n".join(lines) + "\n"


def _load_model(path: str) -> ModelConfig:
    with open(path) as fh:
        return ModelConfig.from_json(fh.read())


def _pmatrix_mode(args):
    if args.trials is not None:
        return MonteCarlo(args.trials, args.seed)
    return "exact"


def _sweep_rows(results):
    return [
        (r.k, r.value, r.alpha, r.omega,
         r.distortion_upper, r.det_lb, r.rand_lb)
        for r in results
    ]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    config = {"instance": args.instance}
    try:
        inst = load_instance(args.instance)
    except InvalidInstance as e:
        _emit_json("validate", config,
                   {"valid": False, "violations": e.violations}, args.out)
        return 1
    violations = validate(inst)
    _emit_json("validate", config,
               {"valid": not violations, "violations": violations}, args.out)
    return 1 if violations else 0


def _cmd_gen_instance(args) -> int:
    build = FAMILIES[args.family]
    params: dict = {}
    if args.family == "lb1":
        _require(args.k is not None, "--k is required for family lb1")
        params = {"k": args.k}
        inst = build(args.k)
    elif args.family == "theta2-extremal":
        inst = build()
    elif args.family == "copeland-k2":
        _require(args.delta is not None,
                 "--delta is required for family copeland-k2")
        params = {"delta": args.delta}
        inst = build(args.delta)
    else:   # example1
        _require(
            None not in (args.n, args.k, args.delta),
            "--n, --k and --delta are required for family example1",
        )
        params = {"n": args.n, "k": args.k, "delta": args.delta}
        inst = build(args.n, args.k, args.delta)
    doc = json.loads(instance_to_json(inst))
    doc["meta"] = {"version": __version__, "command": "gen-instance",
                   "seed": None,
                   "config": {"family": args.family, **params}}
    _write(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_pk(args) -> int:
    inst = load_instance(args.instance)
    model = _load_model(args.model)
    if args.pair is not None:
        c1, c2 = _split_pair(args.pair)
    else:
        _require(inst.m >= 2, "instance has fewer than two candidates")
        c1, c2 = inst.candidates[0], inst.candidates[1]
    config = {"instance": args.instance, "model": json.loads(model.to_json()),
              "pair": [c1, c2], "trials": args.trials}
    if args.trials is not None:
        res = monte_carlo_pk(inst, model, c1, c2, args.trials, args.seed)
        seed = args.seed
    else:
        res = exact_pk(inst, model, c1, c2, budget=args.budget)
        seed = None
    _emit_json("pk", config,
               {"value": res.value, "stderr": res.stderr,
                "method": res.method},
               args.out, seed=seed)
    return 0


def _cmd_tournament(args) -> int:
    inst = load_instance(args.instance)
    model = _load_model(args.model)
    pm = build_pmatrix(inst, model, _pmatrix_mode(args))
    t = build_tournament(pm, args.tol)
    w = copeland_winner(t)
    config = {"instance": args.instance, "model": json.loads(model.to_json()),
              "trials": args.trials, "tol": t.tol}
    _emit_json(
        "tournament", config,
        {
            "pmatrix": json.loads(pm.to_json()),
            "copeland_scores": dict(zip(t.candidates,
                                        copeland_scores(t).tolist())),
            "winner": w,
            "winner_uncovered": uncovered_check(t, w),
        },
        args.out,
        seed=args.seed if args.trials is not None else None,
    )
    return 0


def _cmd_pipeline(args) -> int:
    inst = load_instance(args.instance)
    model = _load_model(args.model)
    pm = build_pmatrix(inst, model, _pmatrix_mode(args))
    t = build_tournament(pm, args.tol)
    w = copeland_winner(t)
    opt = social_optimum(inst)
    config = {"instance": args.instance, "model": json.loads(model.to_json()),
              "trials": args.trials, "tol": t.tol}
    _emit_json(
        "pipeline", config,
        {"winner": w, "distortion": distortion_of(inst, w),
         "social_optimum": opt, "method": pm.method},
        args.out,
        seed=args.seed if args.trials is not None else None,
    )
    return 0


def _cmd_solve_avg(args) -> int:
    config = {"k": args.k, "tol": args.tol, "budget": args.budget}
    if args.k == 2:
        res = solve_theta2(**({} if args.tol is None else {"tol": args.tol}))
    else:
        kwargs = {"threads": args.threads}
        if args.tol is not None:
            kwargs["tol"] = args.tol
        if args.budget is not None:
            kwargs["budget"] = args.budget
        res = solve_theta3(**kwargs)
    det_lb, rand_lb = lower_bounds_from_theta(res.value)
    payload = json.loads(res.to_json())
    payload.update({
        "theta_lower_closed_form": theta_lower_bound_closed_form(args.k),
        "theta_upper_closed_form": theta_upper_bound_closed_form(args.k),
        "copeland_distortion_upper": copeland_distortion_from_theta(res.value),
        "det_lb_at_bound": det_lb,
        "rand_lb_at_bound": rand_lb,
    })
    _emit_json("solve-avg", config, payload, args.out)
    return 0


def _cmd_solve_copeland_k2(args) -> int:
    kwargs = {"threads": args.threads}
    if args.tol is not None:
        kwargs["tol"] = args.tol
    if args.budget is not None:
        kwargs["max_boxes"] = args.budget
    case1, case2 = solve_copeland_k2(args.beta, **kwargs)
    certified = case1.bound < 0 and case2.bound < 0
    config = {"beta": args.beta, "tol": args.tol, "budget": args.budget}
    _emit_json(
        "solve-copeland-k2", config,
        {
            "beta": args.beta,
            "beta_threshold": K2_BETA_THRESHOLD,
            "both_negative": certified,
            "distortion_upper": 1.0 + args.beta if certified else None,
            "cases": [json.loads(case1.to_json()),
                      json.loads(case2.to_json())],
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
    _write(_csv_text("sweep-random", config, SWEEP_COLUMNS,
                     _sweep_rows(results)), args.out)
    return 0


def _cmd_bounds(args) -> int:
    m = epsilon = delta = None
    if args.samples is not None:
        m, epsilon, delta = _split_samples(args.samples)
    if args.theta is None and args.zeta is None and args.samples is None:
        raise UsageError("one of --theta, --zeta, --samples is required")
    report = bound_report(theta=args.theta, zeta=args.zeta, k=args.k,
                          m=m, epsilon=epsilon, delta=delta)
    config = {"theta": args.theta, "zeta": args.zeta, "k": args.k,
              "samples": args.samples}
    _emit_json("bounds", config, json.loads(report.to_json()), args.out)
    return 0


def _cmd_sample_sim(args) -> int:
    inst = load_instance(args.instance)
    model = _load_model(args.model)
    cfg = SampleRunConfig(
        instance=inst, model=model, groups=args.groups, trials=args.trials,
        seed=args.seed, mode=args.mode, epsilon=args.epsilon,
    )
    report = empirical_distortion_trials(cfg)
    config = {"instance": args.instance, "model": json.loads(model.to_json()),
              "groups": args.groups, "trials": args.trials,
              "mode": args.mode, "epsilon": args.epsilon}
    _emit_json("sample-sim", config, json.loads(report.to_json()),
               args.out, seed=args.seed)
    if args.out is not None:
        root, _ = os.path.splitext(args.out)
        _write(_csv_text("sample-sim", config,
                         ("trial", "winner", "distortion", "max_error"),
                         [(str(t), w, d, e) for t, (w, d, e) in enumerate(
                             zip(report.winners, report.distortions,
                                 report.max_errors))],
                         seed=args.seed),
               root + ".csv")
    return 0


def _cmd_reproduce_tables(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    avg_kwargs = {"threads": args.threads}
    if args.tol is not None:
        avg_kwargs["tol"] = args.tol
    if args.budget is not None:
        avg_kwargs["budget"] = args.budget
    config = {"tol": args.tol, "budget": args.budget}

    # averaging model: certified theta bounds and Copeland distortion
    t2 = solve_theta2(**({} if args.tol is None else {"tol": args.tol}))
    beta = K2_BETA_THRESHOLD + 1e-3
    k2_kwargs = dict(avg_kwargs)
    if args.budget is not None:
        k2_kwargs["max_boxes"] = k2_kwargs.pop("budget")
    case1, case2 = solve_copeland_k2(beta, **k2_kwargs)
    k2_upper = 1.0 + beta if (case1.bound < 0 and case2.bound < 0) else math.nan
    t3 = solve_theta3(**avg_kwargs)
    rows1 = [
        (2, THETA2, t2.value, k2_upper,
         lower_bounds_from_theta(THETA2)[0]),
        (3, theta_lower_bound_closed_form(3), t3.value,
         copeland_distortion_from_theta(t3.value),
         lower_bounds_from_theta(theta_lower_bound_closed_form(3))[0]),
    ]
    _write(_csv_text("reproduce-tables", config,
                     ("k", "theta_lower", "theta_upper",
                      "copeland_upper", "det_lb"), rows1),
           os.path.join(args.out, "table1.csv"))

    # random-choice model: linear g at k = 2, 3, 4 and the two sweeps
    table2 = [zeta(k) for k in (2, 3, 4)]
    _write(_csv_text("reproduce-tables", config, SWEEP_COLUMNS,
                     _sweep_rows(table2)),
           os.path.join(args.out, "table2.csv"))
    _write(_csv_text("reproduce-tables", config, SWEEP_COLUMNS,
                     _sweep_rows(sweep(2, 30))),
           os.path.join(args.out, "fig1.csv"))
    _write(_csv_text("reproduce-tables", config, SWEEP_COLUMNS,
                     _sweep_rows(sweep(2, 30, BiasTransform.parse("sqrt")))),
           os.path.join(args.out, "fig2.csv"))
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


def _add_io(p, instance=True, model=True):
    if instance:
        p.add_argument("--instance", required=True,
                       help="instance JSON file")
    if model:
        p.add_argument("--model", required=True,
                       help="model config JSON file")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_mc(p):
    p.add_argument("--trials", type=int, default=None,
                   help="Monte-Carlo trials per pair (default: exact)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="dominance tolerance for the tournament")


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
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=ENUMERATION_BUDGET,
                   help="enumeration budget for exact mode")
    p.set_defaults(func=_cmd_pk)

    p = sub.add_parser("tournament", help="pairwise matrix, scores, winner")
    _add_io(p)
    _add_mc(p)
    p.set_defaults(func=_cmd_tournament)

    p = sub.add_parser("pipeline", help="winner and its distortion")
    _add_io(p)
    _add_mc(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("solve-avg",
                       help="certified max mean bias, averaging rule")
    p.add_argument("--k", type=int, required=True, choices=(2, 3))
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve_avg)

    p = sub.add_parser("solve-copeland-k2",
                       help="certify the k=2 Copeland chain cases negative")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve_copeland_k2)

    p = sub.add_parser("solve-random",
                       help="max mean bias, random-choice rule")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", default="linear",
                   help="bias transform: linear | sqrt | pow:E")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--alpha-step", type=float, default=1e-3)
    p.add_argument("--omega-tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve_random)

    p = sub.add_parser("sweep-random",
                       help="random-choice bounds over a range of k")
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--g", default="linear")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--alpha-step", type=float, default=1e-3)
    p.add_argument("--omega-tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep_random)

    p = sub.add_parser("bounds", help="closed-form bound report")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--theta", type=float, default=None)
    g.add_argument("--zeta", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
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
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
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
    except (ValueError, KeyError, ZeroDivisionError, BudgetExceeded,
            OSError, json.JSONDecodeError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
