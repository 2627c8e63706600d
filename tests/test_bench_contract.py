"""The benchmark's smoke operations, run in-process against the delib under
test: a change that removes or renames something bench/workloads.py calls,
or breaks one of its checks, fails here rather than in a benchmark run.

The operations and checks come from bench/ unchanged; the library is the
already-imported delib, collected into the namespace bench/run.py builds
(run.load_delib would drop delib from sys.modules and import it again).
"""

import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from run import MODULES  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def _lib() -> SimpleNamespace:
    """What run.load_delib returns, without re-importing delib."""
    lib = SimpleNamespace(package=importlib.import_module("delib"),
                          MODULES=MODULES)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"delib.{name}"))
    return lib


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_operations_run_and_pass_their_checks(workload):
    ops = WORKLOADS[workload](_lib(), random.Random(7), SIZES["smoke"][workload])
    assert ops
    for op in ops:
        op.check(op.run())
