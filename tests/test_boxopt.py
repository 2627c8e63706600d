import math

import pytest

import numpy as np

from delib.averaging import (
    _k2_seeds,
    _theta3_seeds,
    build_k2_part_program,
    build_theta3_case_program,
)
from delib.boxopt import (
    BUDGET_EXHAUSTED,
    CERTIFIED,
    INFEASIBLE,
    BoxProgram,
    Var,
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
    assert res.bound == -math.inf and res.gap == math.inf


def test_budget_exhausted_without_incumbent():
    # the root box's midpoint has xy = 1/4 < 1/2; the search stops before
    # it finds a feasible point
    res = solve_global(_corner_program(">="), tol=1e-6, max_boxes=1)
    assert res.status == BUDGET_EXHAUSTED
    assert res.point is None and res.value is None
    assert res.bound >= 2.0 and res.gap == math.inf


@pytest.mark.parametrize("tol", [math.nan, -1e-9, math.inf, -math.inf])
def test_tolerance_must_be_non_negative_and_finite(tol):
    # no gap is <= a NaN or negative tol, so the solve would run to
    # max_boxes; an infinite tol would certify after the first epoch
    with pytest.raises(ValueError,
                       match="tol must be non-negative and finite"):
        solve_global(_corner_program("<="), tol=tol, max_boxes=10)


@pytest.mark.parametrize("max_boxes", [-1, -5])
def test_box_budget_must_be_non_negative(max_boxes):
    message = f"^max_boxes must be non-negative, got {max_boxes}"
    with pytest.raises(ValueError, match=message):
        solve_global(_corner_program("<="), max_boxes=max_boxes)


def test_zero_box_budget_encloses_the_root_only():
    res = solve_global(_corner_program("<="), tol=1e-6, max_boxes=0)
    assert res.status == BUDGET_EXHAUSTED and res.boxes == 1


def test_zero_tolerance_is_allowed():
    res = solve_global(_corner_program("<="), tol=0.0, max_boxes=10)
    assert res.tol == 0.0 and res.status == BUDGET_EXHAUSTED
    assert res.bound >= 1.5 >= res.value


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
    # an infeasible seed is rejected, leaving the root's midpoint
    res2 = solve_global(_corner_program("<="), tol=1e-6, max_boxes=1,
                        seeds=[{"x": 1.0, "y": 1.0}])
    assert res2.point == {"x": 0.5, "y": 0.5}
    assert res2.value == 1.0


def test_first_best_feasible_seed_is_kept():
    # (1, 1) violates xy <= 1/2; of the two seeds worth 1.5 the first stays
    res = solve_global(_corner_program("<="), tol=1e-6, max_boxes=1,
                       seeds=[{"x": 1.0, "y": 1.0}, {"x": 1.0, "y": 0.5},
                              {"x": 0.5, "y": 1.0}])
    assert res.point == {"x": 1.0, "y": 0.5}
    assert res.value == 1.5


def test_unsplittable_root_keeps_its_enclosure():
    # a point box has no midpoint strictly inside: its corner is the
    # incumbent and the root enclosure's upper end the bound
    x = Var("x")
    res = solve_global(BoxProgram([("x", 0.1, 0.1)], x * x), tol=0.0)
    assert res.status == BUDGET_EXHAUSTED
    assert res.boxes == 1
    assert res.point == {"x": 0.1}
    assert res.value == 0.010000000000000002
    assert res.bound == 0.010000000000000004


@pytest.mark.parametrize("branching", ["smear", "widest"])
@pytest.mark.parametrize("rhs, boxes, y", [(1.0, 63, 0.5), (0.3, 85, 0.25)])
def test_split_skips_a_coordinate_too_narrow_to_split(branching, rhs, boxes, y):
    # x spans one ulp, so its midpoint rounds to an endpoint; smear scores
    # x highest, and both rules split y instead. With y <= 0.3 the halves
    # above it are pruned, which splitting x would never do.
    x = Var("x")
    prog = BoxProgram([("x", 1.0, math.nextafter(1.0, 2.0)), ("y", 0.0, 1.0)],
                      1e20 * x * x, [(Var("y"), "<=", rhs)])
    res = solve_global(prog, tol=0.0, max_boxes=50, branching=branching)
    assert res.status == BUDGET_EXHAUSTED
    assert res.boxes == boxes
    assert res.point == {"x": 1.0, "y": y}
    assert res.bound == 1.0000000000000007e+20


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


def test_a_seed_is_kept_as_given():
    # one box: the incumbent is the best of the seeds and the root's
    # midpoint, each evaluated in floating point, with no move away from
    # a seed
    prog = build_k2_part_program("B1", 3.4152)
    seeds = _k2_seeds()
    opt = solve_global(prog, max_boxes=1, seeds=seeds)
    assert opt.point == seeds[0]
    x = np.array([[seeds[0][name] for name in prog.var_names]])
    ok, v = _evaluate(prog, x)
    assert ok[0]
    assert opt.value == float(v[0])


# solve_theta3's tol and seeds, no bound target; (case, branching, budget)
# -> (boxes, bound, status). The objective is the bare variable th, so a
# box's bound is its upper th edge, a dyadic split point of [0, 1].
_THETA3_TRAJECTORIES = {
    (1, "smear", 6000): (6439, 0.4375, BUDGET_EXHAUSTED),
    (2, "smear", 6000): (6229, 0.4375, BUDGET_EXHAUSTED),
    (3, "smear", 6000): (6451, 0.625, BUDGET_EXHAUSTED),
    (4, "smear", 6000): (6503, 0.4375, BUDGET_EXHAUSTED),
    (5, "smear", 6000): (6503, 0.625, BUDGET_EXHAUSTED),
    (6, "smear", 6000): (6465, 0.4375, BUDGET_EXHAUSTED),
    (7, "smear", 6000): (6041, 0.5, BUDGET_EXHAUSTED),
    (8, "smear", 6000): (6089, 0.625, BUDGET_EXHAUSTED),
    (8, "widest", 3000): (3429, 0.75, BUDGET_EXHAUSTED),
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


# solve_copeland_k2's tol and seeds on the part programs, widest
# branching at 8,000 boxes, no bound target; (part, beta) -> (boxes,
# bound, status). Each objective is linear in (p, q, s, t) with repeated
# reads, so its centered form drives every bound. B0 and the slope are
# named by the case they belong to; B1 serves both.
_K2_TRAJECTORIES = {
    ("B1", 3.0): (8175, 0.08618927062182626, BUDGET_EXHAUSTED),
    ("B1", 3.4152): (8077, 0.004494402366709986, BUDGET_EXHAUSTED),
    ("B0", 3.0): (8403, 0.023689270621826304, BUDGET_EXHAUSTED),
    ("B0", 3.4152): (8403, -0.05040721393687392, BUDGET_EXHAUSTED),
    ("slope", 3.0): (8403, -0.16666666666666333, BUDGET_EXHAUSTED),
    ("slope", 3.4152): (8403, -0.20719137971421545, BUDGET_EXHAUSTED),
}
_K2_PART_IDS = {"B1": "B1", "B0": "case1", "slope": "case2"}


@pytest.mark.parametrize("key", _K2_TRAJECTORIES,
                         ids=lambda k: f"{_K2_PART_IDS[k[0]]}-beta{k[1]}")
def test_k2_search_trajectory_pinned(key):
    part, beta = key
    res = solve_global(build_k2_part_program(part, beta), tol=1e-4,
                       max_boxes=8000, seeds=_k2_seeds(), branching="widest")
    assert (res.boxes, res.bound, res.status) == _K2_TRAJECTORIES[key]


def test_overflowing_root_enclosure_is_rejected():
    # 0 * inf makes the objective enclosure NaN; a NaN box used to be
    # dropped, certifying a false maximum of 0 after one box
    x, y = Var("x"), Var("y")
    prog = BoxProgram([("x", 0.0, 1.0), ("y", -1e200, 1e200)], x * (y * y))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            solve_global(prog)


def test_bounds_whose_box_centers_overflow_are_rejected():
    x = Var("x")
    prog = BoxProgram([("x", -1.0, 1.7e308)], x, [(x, "<=", 1.0)])
    with pytest.raises(ValueError, match="too large"):
        solve_global(prog)
