"""Certified box solves and the programs they solve, pinned bit for bit to
committed fixtures.

The `BoxProgram.to_json()` text of every paper program (theta_2 in both
encodings, both full k = 2 case programs and the three k = 2 part programs
at two betas, all eight theta_3 cases) is compared with `tests/data/golden_programs.json`, so a drift in
how a program is built or compiled fails here before any solve. Each
solve's full `GlobalOptimum` JSON (point, value, bound, gap, boxes,
status) is compared with `tests/data/golden_solves.json`, floats stored as
float.hex, so a change to the interval arithmetic or the branching
shows here as a changed float, not only as a moved box count. The
theta_3 cases come from the session's shared `theta3_run`, so they cost
no extra solve. After a deliberate change to the programs or the search,
rewrite the fixtures with

    PYTHONPATH=src python tests/test_golden_solves.py

which prints each solve's old -> new boxes, bound and status, and writes
nothing if any bound rose or any Certified solve lost its certificate.
"""

import json
from pathlib import Path

import pytest

from delib.averaging import (
    THETA3_CASES, solve_copeland_k2, solve_theta2, solve_theta3,
)
from delib.boxopt import CERTIFIED

from conftest import paper_programs

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden_solves.json"
PROGRAMS = DATA / "golden_programs.json"
K2_BETA = 3.4152


def _hexed(x):
    """x with every float written as float.hex, recursively."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_hexed(v) for v in x]
    return x


def _pinned(opt):
    return _hexed(json.loads(opt.to_json()))


def _outputs(theta2, k2, theta3) -> dict:
    return {
        "theta2": _pinned(theta2.per_case[0]),
        "k2": [_pinned(opt) for opt in k2],
        "theta3": {str(c): _pinned(theta3.per_case[c]) for c in THETA3_CASES},
    }


def _by_name(outputs) -> dict:
    """Each pinned solve of `_outputs` by one name."""
    return {"theta2": outputs["theta2"],
            **{f"k2-case{i}": o for i, o in enumerate(outputs["k2"], 1)},
            **{f"theta3-case{c}": o for c, o in outputs["theta3"].items()}}


def _loosened(old, new) -> list[str]:
    """Print old -> new boxes, bound and status of every solve in `new`;
    return the names of those whose bound rose or that lost Certified."""
    old, worse = _by_name(old), []
    for name, b in _by_name(new).items():
        a = old[name]
        was, now = float.fromhex(a["bound"]), float.fromhex(b["bound"])
        print(f"{name}: boxes {a['boxes']} -> {b['boxes']}, "
              f"bound {was!r} -> {now!r}, status {a['status']} -> {b['status']}")
        if now > was or (a["status"] == CERTIFIED
                         and b["status"] != CERTIFIED):
            worse.append(name)
    return worse


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def programs():
    return json.loads(PROGRAMS.read_text())


@pytest.fixture(scope="module")
def built():
    return paper_programs()


def test_every_paper_program_is_pinned(programs, built):
    assert len(built) == 20
    assert sorted(programs) == sorted(built)


@pytest.mark.parametrize("name", sorted(paper_programs()))
def test_paper_program_json_matches_golden(programs, built, name):
    assert built[name].to_json() == programs[name]


@pytest.fixture(scope="module")
def k2_run():
    return solve_copeland_k2(K2_BETA)


def test_theta2_solve_matches_golden(golden, theta2_run):
    assert _pinned(theta2_run[0].per_case[0]) == golden["theta2"]


@pytest.mark.parametrize("case", [1, 2])
def test_k2_solve_matches_golden(golden, k2_run, case):
    assert _pinned(k2_run[case - 1]) == golden["k2"][case - 1]


@pytest.mark.parametrize("case", THETA3_CASES)
def test_theta3_case_solve_matches_golden(golden, theta3_run, case):
    assert _pinned(theta3_run[0].per_case[case]) == golden["theta3"][str(case)]


def test_rewrite_refuses_a_looser_bound_or_a_lost_certificate(golden):
    new = json.loads(json.dumps(golden))
    new["theta2"]["bound"] = (float.fromhex(golden["theta2"]["bound"])
                              + 1e-9).hex()
    new["k2"][0]["status"] = "BudgetExhausted"
    new["theta3"]["7"]["bound"] = "0x0.0p+0"
    new["theta3"]["8"]["boxes"] += 1
    assert golden["k2"][0]["status"] == CERTIFIED
    assert _loosened(golden, new) == ["theta2", "k2-case1"]
    assert _loosened(golden, golden) == []


if __name__ == "__main__":
    outputs = _outputs(solve_theta2(), solve_copeland_k2(K2_BETA),
                       solve_theta3(threads=2))
    worse = _loosened(json.loads(GOLDEN.read_text()), outputs)
    if worse:
        raise SystemExit("not written: a bound rose or a certificate was "
                         f"lost in {', '.join(worse)}")
    PROGRAMS.write_text(json.dumps(
        {name: p.to_json() for name, p in paper_programs().items()},
        indent=1) + "\n")
    GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n")
