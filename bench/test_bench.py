"""Smoke run of the benchmark: all three workloads at reduced size, with
every check on, untraced and traced.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    rec = run.run_workload(workload, seed=7, seconds=0, trace=trace,
                           size="smoke")
    assert rec["correct"], rec["wrong"]
    passes = (len(rec["traced_pass_cpu_wall_s"]) * 2 if trace
              else len(rec["pass_cpu_wall_s"]))
    # the only operation allowed to fail is the known tie_to_first fault
    assert rec["failed"] == (passes if workload == "sample" else 0), rec["failures"]
    assert all(f.startswith("ranking-ties-to-second:") for f in rec["failures"])
    assert rec["attempted"] % passes == 0
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert list(rec["metrics"]) == [m["name"] for m in names]
    for m in names:
        assert rec["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in rec["metrics"].values())
