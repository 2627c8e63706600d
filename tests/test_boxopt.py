import math
import sys

import pytest

import numpy as np

from delib.averaging import (
    _k2_seeds,
    _theta3_seeds,
    build_k2_case_program,
    build_theta3_case_program,
)
from delib.boxopt import (
    BUDGET_EXHAUSTED,
    CERTIFIED,
    DEFAULT_FEAS_TOL,
    INFEASIBLE,
    BoxProgram,
    Var,
    _coordinate_ascent,
    _Tape,
    _evaluate,
    interval_eval,
    solve_global,
)


def _corner_program(relation):
    x, y = Var("x"), Var("y")
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
    x = Var("x")
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
    x = Var("x")
    prog = BoxProgram([("x", 0.0, 1.0)], x, [(x, "<=", 0.25)])
    res = solve_global(prog, tol=1e-6, collect_infeasible=5)
    assert 1 <= len(res.infeasible_samples) <= 5
    for lo, hi in res.infeasible_samples:
        # spot audit: a pruned box really does violate the constraint
        assert lo[0] > 0.25


def test_interval_eval_encloses_true_range():
    x = Var("x")
    lo, hi = interval_eval(x * x - x, {"x": (0.0, 1.0)})
    assert lo <= -0.25 and hi >= 0.0
    lo, hi = interval_eval(x * x, {"x": (-2.0, 3.0)})
    assert lo <= 0.0 and hi >= 9.0


def test_interval_eval_point_box_tight():
    x, y = Var("x"), Var("y")
    expr = x * y + x - 2 * y
    lo, hi = interval_eval(expr, {"x": (0.5, 0.5), "y": (0.25, 0.25)})
    want = 0.5 * 0.25 + 0.5 - 2 * 0.25
    assert lo <= want <= hi
    assert hi - lo <= 1e-12


def test_interval_eval_outward_widening_contains_endpoints():
    x = Var("x")
    third = 1.0 / 3.0
    lo, hi = interval_eval(x * x, {"x": (third, third)})
    assert lo <= third * third <= hi


def test_program_validates_inputs():
    x = Var("x")
    with pytest.raises(ValueError):
        BoxProgram([("x", 1.0, 0.0)], x)          # empty interval
    with pytest.raises(ValueError):
        BoxProgram([("x", 0.0, 1.0)], x, [(x, "==", 0.5)])
    y = Var("y")
    with pytest.raises(ValueError, match="undeclared"):
        BoxProgram([("x", 0.0, 1.0)], y)


def test_degree_cap_enforced():
    x = Var("x")
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


# solve_theta3's tol and seeds, no bound target; (case, branching, budget)
# -> (boxes, bound, status), taken before the objective shave reused the
# enclosing box's gradient bounds
_THETA3_TRAJECTORIES = {
    (1, "smear", 6000): (6465, 0.4417088031768799, BUDGET_EXHAUSTED),
    (2, "smear", 6000): (6259, 0.4365234375, BUDGET_EXHAUSTED),
    (3, "smear", 6000): (6487, 0.5, BUDGET_EXHAUSTED),
    (4, "smear", 6000): (6045, 0.3980712890625, BUDGET_EXHAUSTED),
    (5, "smear", 6000): (6507, 0.53460693359375, BUDGET_EXHAUSTED),
    (6, "smear", 6000): (6443, 0.3808441162109375, BUDGET_EXHAUSTED),
    (7, "smear", 6000): (6465, 0.470703125, BUDGET_EXHAUSTED),
    (8, "smear", 6000): (6177, 0.56341552734375, BUDGET_EXHAUSTED),
    (8, "widest", 3000): (3273, 0.6875, BUDGET_EXHAUSTED),
}


def _solve_theta3_capped(case, branching, budget):
    return solve_global(build_theta3_case_program(case), tol=5e-4,
                        max_boxes=budget, seeds=_theta3_seeds(case),
                        branching=branching)


@pytest.mark.parametrize("key", _THETA3_TRAJECTORIES,
                         ids=lambda k: f"case{k[0]}-{k[1]}-{k[2]}")
def test_theta3_search_trajectory_pinned(key):
    res = _solve_theta3_capped(*key)
    assert (res.boxes, res.bound, res.status) == _THETA3_TRAJECTORIES[key]


# solve_copeland_k2's tol and seeds on the reduced programs, widest
# branching at 8,000 boxes; (case, beta) -> (boxes, bound, status). The
# objective is a polynomial, so its centered form drives every bound.
_K2_TRAJECTORIES = {
    (1, 3.0): (8135, 0.29907989562182713, BUDGET_EXHAUSTED),
    (2, 3.0): (8017, 34.180590312288636, BUDGET_EXHAUSTED),
    (1, 3.4152): (8141, 0.18740279718985428, BUDGET_EXHAUSTED),
    (2, 3.4152): (8017, 28.865666972787313, BUDGET_EXHAUSTED),
}


@pytest.mark.parametrize("key", _K2_TRAJECTORIES,
                         ids=lambda k: f"case{k[0]}-beta{k[1]}")
def test_k2_search_trajectory_pinned(key):
    case, beta = key
    res = solve_global(build_k2_case_program(case, beta, reduced=True),
                       tol=1e-4, max_boxes=8000, seeds=_k2_seeds(case),
                       branching="widest")
    assert (res.boxes, res.bound, res.status) == _K2_TRAJECTORIES[key]


def test_objective_shave_makes_no_gradient_pass(monkeypatch):
    # every slab reuses its box's gradient bounds: the only gradient passes
    # are child_bounds' own, while the shave runs enclose_within
    callers, slab_passes = [], []
    enclose, within = _Tape.enclose, _Tape.enclose_within

    def counted_enclose(self, LO, HI):
        callers.append(sys._getframe(1).f_code.co_name)
        return enclose(self, LO, HI)

    def counted_within(self, LO, HI, mags):
        slab_passes.append(LO.shape[0])
        return within(self, LO, HI, mags)

    monkeypatch.setattr(_Tape, "enclose", counted_enclose)
    monkeypatch.setattr(_Tape, "enclose_within", counted_within)
    res = _solve_theta3_capped(8, "smear", 3000)
    assert res.boxes >= 3000
    assert callers and set(callers) == {"child_bounds"}
    assert slab_passes
