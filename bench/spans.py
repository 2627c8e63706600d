"""Spans around calls into delib, and the per-layer metrics made from them.

The tracer wraps every public function of each measured module, both where
it is defined and wherever another delib module imported it, so a call
from inside the library is recorded too (`delib.tournament.exact_pk` is
the same wrapper as `delib.models.exact_pk`). `MetricInstance.build` is
wrapped on its class. Each span has a name `<layer>.<function>`, a start,
an end (CPU time of the process, as for run_s) and the index of its parent
span; spans live in flat arrays and are written out when the run ends.

Per-layer numbers: `<layer>.self_s` is the layer's self time (span
durations minus the time their child spans cover); `<layer>.<function>.s`
is the inclusive time of that function's spans, and `instances.s` that of
the outermost `instances` spans. Pass metrics are per traced pass; the
set-up metrics (`metric.build.s`, `instances.s`,
`averaging.build_theta3_case_program.s`) come from the one traced set-up.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from array import array

# The measured layers. bounds (closed forms) and cli (JSON around the same
# calls) are not measured.
LAYERS = (
    "boxopt", "averaging", "randomchoice", "models", "tournament",
    "sampling", "metric", "instances",
)

# Spans whose arguments and result the metrics read.
KEEP_CALLS = {
    "boxopt.solve_global", "models.exact_pk", "models.monte_carlo_pk",
    "tournament.build_pmatrix", "sampling.empirical_distortion_trials",
    "sampling.simulate_estimated_pmatrix",
}

# solve_global program names -> the label used in boxopt.boxes.<label>
PROGRAM_LABELS = {
    "theta2-expanded": "theta2",
    "copeland-k2-case1-reduced": "k2-case1",
    "copeland-k2-case2-reduced": "k2-case2",
    "theta3-case7-reduced": "theta3-case7",
    "theta3-case8-reduced": "theta3-case8",
}

# name -> (unit, better); the order BENCHMARK.json lists them in.
PER_LAYER = {
    "boxopt.solve_global.s": ("s", "lower"),
    "boxopt.boxes_per_s.k2": ("1/s", "higher"),
    "boxopt.boxes_per_s.theta3": ("1/s", "higher"),
    **{f"boxopt.boxes.{label}": ("count", "lower")
       for label in PROGRAM_LABELS.values()},
    "averaging.self_s": ("s", "lower"),
    "averaging.build_theta3_case_program.s": ("s", "lower"),
    "randomchoice.zeta.calls": ("count", "lower"),
    "randomchoice.zeta.s": ("s", "lower"),
    "randomchoice.sweep.s": ("s", "lower"),
    "randomchoice.group_size_for_epsilon.s": ("s", "lower"),
    "models.exact_pk.calls": ("count", "lower"),
    "models.exact_pk.multisets": ("count", "lower"),
    "models.exact_pk.multisets_per_s": ("1/s", "higher"),
    "models.exact_pk.s.averaging-lattice": ("s", "lower"),
    "models.exact_pk.s.averaging-generic": ("s", "lower"),
    "models.exact_pk.s.random-choice": ("s", "lower"),
    "models.monte_carlo_pk.s": ("s", "lower"),
    "models.monte_carlo_pk.trials_per_s": ("1/s", "higher"),
    "models.random_choice_win_prob.calls": ("count", "lower"),
    "models.random_choice_win_prob.s": ("s", "lower"),
    "tournament.build_pmatrix.s.exact": ("s", "lower"),
    "tournament.build_pmatrix.pairs": ("count", "lower"),
    "tournament.build_pmatrix.s.mc": ("s", "lower"),
    "tournament.exact_pmatrix_reference.s": ("s", "lower"),
    "tournament.build_tournament.s": ("s", "lower"),
    "tournament.copeland_winner.s": ("s", "lower"),
    "sampling.self_s": ("s", "lower"),
    "sampling.groups_per_s.ranking": ("1/s", "higher"),
    "sampling.groups_per_s.matching": ("1/s", "higher"),
    "metric.build.s": ("s", "lower"),
    "instances.s": ("s", "lower"),
    "metric.distortion_of.calls": ("count", "lower"),
    "metric.distortion_of.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Spans:
    """Flat span storage: one entry per call, parents by index."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.calls: dict[int, tuple] = {}   # index -> (bound args, result)

    def __len__(self) -> int:
        return len(self.names)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

class Tracer:
    """Wraps the measured functions of one imported copy of delib."""

    def __init__(self, lib):
        self.spans = Spans()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [lib.package] + [getattr(lib, name) for name in lib.MODULES]
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, attr, fn, wrapper))
        cls = lib.metric.MetricInstance
        build = cls.__dict__["build"]
        self._patches.append(
            (cls, "build", build,
             classmethod(self._wrap("metric.build", build.__func__)))
        )

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        names, start, end, parent = spans.names, spans.start, spans.end, spans.parent
        calls = spans.calls
        sig = inspect.signature(fn) if name in KEEP_CALLS else None
        clock = time.process_time   # the clock run_s uses too

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if sig is not None:
                calls[i] = (sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self) -> Spans:
        """Hand over the spans recorded so far and empty the store the
        wrappers write to."""
        s = self.spans
        out = Spans()
        out.names, out.start, out.end = s.names[:], s.start[:], s.end[:]
        out.parent, out.calls = s.parent[:], dict(s.calls)
        del s.names[:], s.start[:], s.end[:], s.parent[:]
        s.calls.clear()
        return out


# -- metrics -------------------------------------------------------------


def _outer_time(spans: Spans, dur, prefix: str) -> float:
    """Inclusive time of the spans whose names start with prefix, skipping
    those nested in such a span."""
    total = 0.0
    for i, name in enumerate(spans.names):
        if not name.startswith(prefix):
            continue
        p = spans.parent[i]
        while p >= 0 and not spans.names[p].startswith(prefix):
            p = spans.parent[p]
        if p < 0:
            total += dur[i]
    return total


def _location_diffs(inst, c1: str, c2: str) -> list[float]:
    index = {p: k for k, p in enumerate(inst.points)}
    a, b = index[c1], index[c2]
    return [float(inst.dist[index[l], a] - inst.dist[index[l], b])
            for l in inst.location_ids]


def _matchings(m: int) -> int:
    return m - 1 if m % 2 == 0 else m


def per_layer(setup: Spans, passes: Spans, n_passes: int,
              overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from the set-up spans and the traced passes."""
    out = {name: 0.0 for name in PER_LAYER}
    dur = passes.durations()
    own = passes.self_times()
    names = passes.names

    def total(name):
        return sum(d for n, d in zip(names, dur) if n == name)

    def count(name):
        return sum(1 for n in names if n == name)

    k2_boxes = k2_time = t3_boxes = t3_time = 0.0
    mc_trials = 0
    multisets = 0
    groups = {"ranking": [0, 0.0], "matching": [0, 0.0]}
    pairs = 0
    for i, (args, result) in passes.calls.items():
        name = names[i]
        if name == "boxopt.solve_global":
            label = PROGRAM_LABELS.get(args["prog"].name)
            if label is None:
                continue
            out[f"boxopt.boxes.{label}"] += result.boxes
            if label.startswith("k2"):
                k2_boxes += result.boxes
                k2_time += dur[i]
            elif label.startswith("theta3"):
                t3_boxes += result.boxes
                t3_time += dur[i]
        elif name == "models.exact_pk":
            model = args["model"]
            diffs = _location_diffs(args["inst"], args["c1"], args["c2"])
            n = len(set(diffs))
            multisets += math.comb(n + model.k - 1, model.k)
            if model.variant == "random-choice":
                key = "random-choice"
            elif all(d.is_integer() for d in diffs):
                key = "averaging-lattice"
            else:
                key = "averaging-generic"
            out[f"models.exact_pk.s.{key}"] += dur[i]
        elif name == "models.monte_carlo_pk":
            mc_trials += args["trials"]
        elif name == "tournament.build_pmatrix":
            mode = args.get("mode", "exact")
            out["tournament.build_pmatrix.s." + ("exact" if mode == "exact" else "mc")] += dur[i]
        elif name in ("sampling.empirical_distortion_trials",
                      "sampling.simulate_estimated_pmatrix"):
            cfg = args["config"]
            trials = cfg.trials if name.endswith("trials") else 1
            if cfg.mode == "RankingGroups":
                g, key = trials * cfg.groups, "ranking"
            else:
                g, key = trials * cfg.groups * _matchings(cfg.instance.m), "matching"
            ref = sum(dur[j] for j in _children(passes, i)
                      if names[j] == "tournament.exact_pmatrix_reference")
            groups[key][0] += g
            groups[key][1] += dur[i] - ref
    for j, name in enumerate(names):
        if name in ("models.exact_pk", "models.monte_carlo_pk"):
            p = passes.parent[j]
            if p >= 0 and names[p] == "tournament.build_pmatrix":
                pairs += 1

    solve_s = total("boxopt.solve_global")
    out["boxopt.solve_global.s"] = solve_s
    out["boxopt.boxes_per_s.k2"] = k2_boxes / k2_time if k2_time else 0.0
    out["boxopt.boxes_per_s.theta3"] = t3_boxes / t3_time if t3_time else 0.0
    out["averaging.self_s"] = sum(
        o for n, o in zip(names, own) if n.startswith("averaging."))
    out["randomchoice.zeta.calls"] = count("randomchoice.zeta")
    out["randomchoice.zeta.s"] = total("randomchoice.zeta")
    out["randomchoice.sweep.s"] = total("randomchoice.sweep")
    out["randomchoice.group_size_for_epsilon.s"] = total("randomchoice.group_size_for_epsilon")
    pk_s = total("models.exact_pk")
    out["models.exact_pk.calls"] = count("models.exact_pk")
    out["models.exact_pk.multisets"] = multisets
    out["models.exact_pk.multisets_per_s"] = multisets / pk_s if pk_s else 0.0
    mc_s = total("models.monte_carlo_pk")
    out["models.monte_carlo_pk.s"] = mc_s
    out["models.monte_carlo_pk.trials_per_s"] = mc_trials / mc_s if mc_s else 0.0
    out["models.random_choice_win_prob.calls"] = count("models.random_choice_win_prob")
    out["models.random_choice_win_prob.s"] = total("models.random_choice_win_prob")
    out["tournament.build_pmatrix.pairs"] = pairs
    out["tournament.exact_pmatrix_reference.s"] = total("tournament.exact_pmatrix_reference")
    out["tournament.build_tournament.s"] = total("tournament.build_tournament")
    out["tournament.copeland_winner.s"] = total("tournament.copeland_winner")
    out["sampling.self_s"] = sum(
        o for n, o in zip(names, own) if n.startswith("sampling."))
    for key, (g, t) in groups.items():
        out[f"sampling.groups_per_s.{key}"] = g / t if t > 0 else 0.0
    out["metric.distortion_of.calls"] = count("metric.distortion_of")
    out["metric.distortion_of.s"] = total("metric.distortion_of")

    # rates are ratios and stay as they are; sums become per-pass figures
    for name, (unit, _) in PER_LAYER.items():
        if unit != "1/s":
            out[name] /= n_passes

    sdur = setup.durations()
    for metric, name in (("metric.build.s", "metric.build"),
                         ("averaging.build_theta3_case_program.s",
                          "averaging.build_theta3_case_program")):
        out[metric] = sum(
            d for n, d in zip(setup.names, sdur) if n == name)
    out["instances.s"] = _outer_time(setup, sdur, "instances.")
    out["trace.overhead_s"] = overhead_s
    return out


def _children(spans: Spans, i: int):
    """Indices of the direct children of span i (they follow it in order)."""
    j = i + 1
    end = spans.end[i]
    while j < len(spans) and spans.start[j] <= end:
        if spans.parent[j] == i:
            yield j
        j += 1


def write_trace(path, setup: Spans, passes: Spans) -> None:
    """JSON lines: a header naming the columns, then one line per span,
    [phase, name, start_s, end_s, parent] with times from the first span
    and parent an index within the same phase (-1 for none)."""
    t0 = setup.start[0] if len(setup) else (passes.start[0] if len(passes) else 0.0)
    with open(path, "w") as fh:
        fh.write(json.dumps({"columns": ["phase", "name", "start_s", "end_s",
                                         "parent"], "clock": "process CPU"}) + "\n")
        for phase, sp in (("setup", setup), ("pass", passes)):
            for n, a, b, p in zip(sp.names, sp.start, sp.end, sp.parent):
                fh.write(json.dumps([phase, n, round(a - t0, 9), round(b - t0, 9), p]) + "\n")
