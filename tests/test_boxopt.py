import math

import pytest

import numpy as np

from delib.averaging import build_k2_case_program, build_theta3_case_program
from delib.boxopt import (
    BUDGET_EXHAUSTED,
    CERTIFIED,
    DEFAULT_FEAS_TOL,
    INFEASIBLE,
    BoxProgram,
    _coordinate_ascent,
    _evaluate,
    interval_eval,
    solve_global,
    var,
    variables,
)


def _corner_program(relation):
    x, y = variables("x", "y")
    return BoxProgram(
        [("x", 0.0, 1.0), ("y", 0.0, 1.0)],
        x + y,
        [(x * y, relation, 0.5)],
        name=f"xy-{relation}",
    )


def test_product_cap_optimum():
    # max x + y with xy <= 1/2 peaks where one factor saturates: 1 + 1/2
    res = solve_global(_corner_program("<="), tol=1e-6)
    assert res.status == CERTIFIED
    assert res.value == pytest.approx(1.5, abs=1e-6)
    assert res.bound >= res.value
    assert res.bound - res.value <= 1e-6
    x, y = res.point["x"], res.point["y"]
    assert x * y <= 0.5 + 1e-9
    assert {round(x, 6), round(y, 6)} == {0.5, 1.0}


def test_product_floor_optimum():
    # with xy >= 1/2 the top corner is feasible, so the max is 2 at (1, 1)
    res = solve_global(_corner_program(">="), tol=1e-6)
    assert res.status == CERTIFIED
    assert res.value == pytest.approx(2.0, abs=1e-6)
    assert res.point["x"] == pytest.approx(1.0, abs=1e-6)
    assert res.point["y"] == pytest.approx(1.0, abs=1e-6)


def test_infeasible_program():
    x = var("x")
    prog = BoxProgram([("x", 0.0, 1.0)], x, [(x, ">=", 2.0)])
    res = solve_global(prog, tol=1e-6)
    assert res.status == INFEASIBLE
    assert res.point is None and res.value is None


def test_deterministic_across_runs():
    a = solve_global(_corner_program("<="), tol=1e-6)
    b = solve_global(_corner_program("<="), tol=1e-6)
    assert a.value == b.value
    assert a.bound == b.bound
    assert a.boxes == b.boxes
    assert a.point == b.point


def test_widest_branching_same_optimum():
    a = solve_global(_corner_program("<="), tol=1e-6)
    b = solve_global(_corner_program("<="), tol=1e-6, branching="widest")
    assert b.status == CERTIFIED
    assert b.value == pytest.approx(a.value, abs=2e-6)
    with pytest.raises(ValueError):
        solve_global(_corner_program("<="), branching="narrowest")


def test_budget_exhausted_keeps_valid_bound():
    res = solve_global(_corner_program("<="), tol=1e-12, max_boxes=50)
    assert res.status == BUDGET_EXHAUSTED
    assert res.bound >= 1.5 - 1e-12
    if res.value is not None:
        assert res.value <= res.bound


def test_bound_target_early_stop():
    res = solve_global(_corner_program("<="), tol=1e-9, bound_target=1.7)
    assert res.target_met
    assert res.bound <= 1.7
    # a target below the optimum can never be met
    res2 = solve_global(_corner_program("<="), tol=1e-4, bound_target=1.2)
    assert not res2.target_met
    assert res2.bound >= 1.5 - 1e-4


def test_seeds_install_incumbent():
    # a feasible seed bounds the optimum from below from the start
    res = solve_global(_corner_program("<="), tol=1e-6, max_boxes=1,
                       seeds=[{"x": 1.0, "y": 0.5}])
    assert res.value == pytest.approx(1.5)
    # infeasible seeds are rejected by the exact check
    res2 = solve_global(_corner_program("<="), tol=1e-6, max_boxes=1,
                        seeds=[{"x": 1.0, "y": 1.0}])
    assert res2.value is None or res2.value < 1.6


def test_collect_infeasible_samples():
    x = var("x")
    prog = BoxProgram([("x", 0.0, 1.0)], x, [(x, "<=", 0.25)])
    res = solve_global(prog, tol=1e-6, collect_infeasible=5)
    assert 1 <= len(res.infeasible_samples) <= 5
    for lo, hi in res.infeasible_samples:
        # spot audit: a pruned box really does violate the constraint
        assert lo[0] > 0.25


def test_interval_eval_encloses_true_range():
    x = var("x")
    lo, hi = interval_eval(x * x - x, {"x": (0.0, 1.0)})
    assert lo <= -0.25 and hi >= 0.0
    lo, hi = interval_eval(x * x, {"x": (-2.0, 3.0)})
    assert lo <= 0.0 and hi >= 9.0


def test_interval_eval_point_box_tight():
    x, y = variables("x", "y")
    expr = x * y + x - 2 * y
    lo, hi = interval_eval(expr, {"x": (0.5, 0.5), "y": (0.25, 0.25)})
    want = 0.5 * 0.25 + 0.5 - 2 * 0.25
    assert lo <= want <= hi
    assert hi - lo <= 1e-12


def test_interval_eval_outward_widening_contains_endpoints():
    x = var("x")
    third = 1.0 / 3.0
    lo, hi = interval_eval(x * x, {"x": (third, third)})
    assert lo <= third * third <= hi


def test_program_validates_inputs():
    x = var("x")
    with pytest.raises(ValueError):
        BoxProgram([("x", 1.0, 0.0)], x)          # empty interval
    with pytest.raises(ValueError):
        BoxProgram([("x", 0.0, 1.0)], x, [(x, "==", 0.5)])
    y = var("y")
    with pytest.raises(ValueError, match="undeclared"):
        BoxProgram([("x", 0.0, 1.0)], y)


def test_degree_cap_enforced():
    x = var("x")
    with pytest.raises(ValueError):
        BoxProgram([("x", 0.0, 1.0)], x ** 5)


def _ascent_one_move_at_a_time(prog, x, val, feas_tol, sweeps):
    """The coordinate ascent as a scalar loop: each move is checked alone."""
    widths = prog.upper - prog.lower
    x = x.copy()
    for _ in range(sweeps):
        improved = False
        for j in range(prog.n):
            if widths[j] == 0:
                continue
            for frac in (0.25, 0.0625, 0.015625, 1e-4, 1e-6, 1e-8):
                step = widths[j] * frac
                for s in (step, -step):
                    xj = min(prog.upper[j], max(prog.lower[j], x[j] + s))
                    if xj == x[j]:
                        continue
                    cand = x.copy()
                    cand[j] = xj
                    ok, v = _evaluate(prog, cand[None, :], feas_tol)
                    if ok[0] and v[0] > val:
                        x, val = cand, float(v[0])
                        improved = True
                        break
                else:
                    continue
                break
        if not improved:
            break
    return x, val


@pytest.mark.parametrize("prog", [
    _corner_program("<="),
    build_k2_case_program(1, 3.4152),
    build_theta3_case_program(5),
], ids=lambda p: p.name)
def test_batched_ascent_takes_the_scalar_loops_moves(prog):
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = prog.lower + rng.random(prog.n) * (prog.upper - prog.lower)
        ok, v = _evaluate(prog, x[None, :], DEFAULT_FEAS_TOL)
        val = float(v[0]) if ok[0] else -math.inf
        for sweeps in (1, 3):
            got = _coordinate_ascent(prog, x, val, DEFAULT_FEAS_TOL, sweeps)
            want = _ascent_one_move_at_a_time(prog, x, val, DEFAULT_FEAS_TOL,
                                              sweeps)
            assert got[1] == want[1]
            assert np.array_equal(got[0], want[0])
