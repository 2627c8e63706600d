"""Run one workload of the delib benchmark and print its result.

    python3 bench/run.py --workload {tables,exact,sample} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout: delib is imported from ./src and
nowhere else. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record goes to
bench/out/<workload>-seed<N>-trace<T>.json.

--trace 0 reports the end-to-end metrics: setup_s (median of several
set-ups, each a fresh import of delib plus building the workload's inputs),
run_s (median time of one pass over the workload's operations, checks not
included) and peak_rss_mb. Passes repeat until --seconds of wall time have
gone by; every run makes at least one whole pass.

Times are CPU time of this process: delib runs single-threaded here, so on
an idle core CPU time equals wall time, and on a shared virtual machine it
leaves out the time other tenants hold the core. The machine's speed still
drifts by up to a fifth over minutes, so run_s is the median pass time
scaled by REFERENCE_CAL_S / (median CPU time of calibrate(), a fixed loop
run between the operations for a tenth of their time): the pass time at
the reference machine's speed. Unscaled and wall times are kept in the
record file.

--trace 1 alternates untraced and traced passes (at least one of each)
and reports the per-layer metrics of spans.py; the spans go to
bench/out/trace-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from reference import CheckFailed  # noqa: E402
from workloads import SIZES, WORKLOADS, KnownFault  # noqa: E402
import spans as tracing  # noqa: E402

SETUP_REPEATS = 5
CAL_SHARE = 0.1
# calibrate() CPU time on the 2-core virtual machine the bounds were set on
# (Python 3.11.7, numpy 2.4.6); run_s is scaled to that machine's speed.
REFERENCE_CAL_S = 0.02
MODULES = tracing.LAYERS + ("bounds",)


class MissingSource(RuntimeError):
    pass


def load_delib() -> SimpleNamespace:
    """Import a fresh copy of delib from the checkout's src directory."""
    if not (SRC / "delib" / "__init__.py").is_file():
        raise MissingSource(f"no delib package under {SRC}")
    for name in [n for n in sys.modules if n == "delib" or n.startswith("delib.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("delib")
    if Path(pkg.__file__).resolve().parent != (SRC / "delib").resolve():
        raise MissingSource(f"delib imported from {pkg.__file__}, not {SRC}")
    lib = SimpleNamespace(package=pkg, MODULES=MODULES)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"delib.{name}"))
    return lib


class Speed:
    """Machine speed samples interleaved with the measured work: after each
    operation, calibrate() runs until its CPU time makes up CAL_SHARE of
    the operation's, so the samples follow the passes through time."""

    def __init__(self):
        self.samples: list[float] = []
        self._owed = 0.0

    def follow(self, cpu: float) -> None:
        self._owed += CAL_SHARE * cpu
        while self._owed > 0:
            t = calibrate()
            self.samples.append(t)
            self._owed -= t


class Tally:
    def __init__(self, speed: Speed | None = None):
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.failures: list[str] = []

    def run_pass(self, ops) -> tuple[float, float]:
        """Run every operation once; return the CPU time and the wall time
        spent inside delib."""
        gc.collect()
        cpu = wall = 0.0
        for op in ops:
            self.attempted += 1
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:   # a raising call is a failed operation
                self.failed += 1
                self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                op_cpu = time.process_time() - c0
                cpu += op_cpu
                wall += time.perf_counter() - w0
                if self.speed is not None:
                    self.speed.follow(op_cpu)
            try:
                op.check(out)
            except CheckFailed as exc:
                if op.known_fault and isinstance(exc, KnownFault):
                    self.failed += 1
                    self.failures.append(f"{op.name}: {exc}")
                else:
                    self.wrong.append(f"{op.name}: {exc}")
        return cpu, wall


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """One benchmark run; returns the full record (see main for the line)."""
    build = WORKLOADS[workload]
    params = SIZES[size][workload]
    speed = None if trace else Speed()
    tally = Tally(speed)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size}

    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.process_time()
            lib = load_delib()
            ops = build(lib, random.Random(seed), params)
            setups.append(time.process_time() - t0)
        passes = _passes(ops, tally, seconds)
        run_cpu = statistics.median(c for c, _ in passes)
        factor = REFERENCE_CAL_S / statistics.median(speed.samples)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (run_cpu * factor, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record.update(setup_cpu_s=setups, pass_cpu_wall_s=passes,
                      calibrate_cpu_s=speed.samples, run_cpu_s=run_cpu,
                      speed_factor=factor)
    else:
        lib = load_delib()
        tracer = tracing.Tracer(lib)
        tracer.install()
        ops = build(lib, random.Random(seed), params)
        setup_spans = tracer.take()
        plain, traced = [], []
        t_start = time.perf_counter()
        while True:
            tracer.uninstall()
            plain.append(tally.run_pass(ops))
            tracer.install()
            traced.append(tally.run_pass(ops))
            if time.perf_counter() - t_start >= seconds:
                break
        tracer.uninstall()
        pass_spans = tracer.take()
        overhead = (statistics.median(c for c, _ in traced)
                    - statistics.median(c for c, _ in plain))
        values = tracing.per_layer(setup_spans, pass_spans, len(traced),
                                   overhead)
        metrics = {name: (values[name], unit)
                   for name, (unit, _) in tracing.PER_LAYER.items()}
        OUT.mkdir(exist_ok=True)
        tracing.write_trace(OUT / f"trace-{workload}.jsonl", setup_spans,
                            pass_spans)
        record.update(plain_pass_cpu_wall_s=plain, traced_pass_cpu_wall_s=traced)

    record.update(
        correct=not tally.wrong, attempted=tally.attempted,
        failed=tally.failed, wrong=tally.wrong,
        failures=sorted(set(tally.failures)),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        machine={"python": platform.python_version(),
                 "platform": platform.platform(), "cpus": os.cpu_count()},
    )
    return record


def _passes(ops, tally: Tally, seconds: float) -> list[tuple[float, float]]:
    times = []
    t_start = time.perf_counter()
    while True:
        times.append(tally.run_pass(ops))
        if time.perf_counter() - t_start >= seconds:
            return times


def calibrate() -> float:
    """CPU time of a fixed loop that does no delib work: integer and float
    arithmetic in a dict-heavy Python loop, then small numpy array steps,
    the two kinds of work delib does."""
    t0 = time.process_time()
    d = {}
    acc = 0.0
    for i in range(20_000):
        x = (i * 2654435761) % 1000003
        k = x & 1023
        d[k] = d.get(k, 0.0) + x * 1e-6
        acc += math.sqrt(x)
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(1000):
        a = np.nextafter(np.maximum(a * 0.5, a - 0.1), np.inf)
    return time.process_time() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in record["wrong"]:
        print(f"WRONG {line}", file=sys.stderr)
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
