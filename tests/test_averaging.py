import math
from fractions import Fraction

import numpy as np
import pytest

from delib import averaging
from delib.averaging import (
    AUDIT_TOL,
    K2_BETA_THRESHOLD,
    K2_CASES,
    K2_PARTS,
    THETA2,
    audit_distribution,
    build_k2_case_program,
    build_k2_part_program,
    build_theta2_program,
    build_theta3_case_program,
    k2_case_certificates,
    lb1_k3_distribution,
    lb1_k3_point,
    solve_copeland_k2,
    solve_k2_parts,
    solve_theta2,
    _k2_seeds,
    _theta3_seeds,
)
from delib.bounds import (
    theta_lower_bound_closed_form,
    theta_upper_bound_closed_form,
)
from delib.boxopt import (
    _ADD,
    _CONST,
    _MUL,
    _NEG,
    _VAR,
    BUDGET_EXHAUSTED,
    CERTIFIED,
    GlobalOptimum,
    solve_global,
)
from delib.metric import BiasDistribution


def test_constants():
    assert THETA2 == pytest.approx(math.sqrt(2.0) - 1.0, abs=0.0)
    assert K2_BETA_THRESHOLD == pytest.approx(2.0 + math.sqrt(2.0), abs=0.0)


def test_solve_theta2_certificate():
    res = solve_theta2()
    assert res.k == 2
    assert res.value == pytest.approx(0.4142136573791506, abs=1e-9)
    assert abs(res.value - THETA2) <= 1e-4
    opt = res.per_case[0]
    assert opt.status == CERTIFIED
    assert opt.boxes == 399
    assert opt.point["p"] == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-3)
    assert opt.point["q"] <= 1e-3
    # the reported witness is feasible under independent exact enumeration
    assert res.audit_pk >= 0.5
    assert res.audit_pk == pytest.approx(0.5000001014, abs=1e-8)


def test_theta2_bound_is_sound_in_exact_arithmetic(theta2_run):
    # sqrt(2) - 1 <= bound, proved as (bound + 1)^2 >= 2 in rationals, and
    # the bound is no looser than the standing 0.4142141342163088
    bound = theta2_run[0].value
    assert (Fraction(bound) + 1) ** 2 >= 2
    assert bound <= 0.4142141342163088


def test_theta2_raw_and_expanded_encodings_agree():
    raw = solve_global(build_theta2_program(expanded=False), tol=1e-5,
                       max_boxes=200_000)
    assert raw.status == CERTIFIED
    assert raw.value == pytest.approx(THETA2, abs=1e-4)


def test_theta2_witness_distribution_shape():
    res = solve_theta2()
    # support {-1, 0, +1}: mass p at -1 maximizes room for +1 mass
    assert set(res.incumbent.values) <= {-1.0, 0.0, 1.0}
    assert res.incumbent_value == pytest.approx(res.value, abs=1e-6)


def test_solve_copeland_k2_above_threshold_certifies_negative():
    case1, case2 = solve_copeland_k2(3.4152)
    assert case1.bound < 0.0
    assert case2.bound < 0.0
    assert case1.status == CERTIFIED
    assert case2.status == CERTIFIED
    # the margin is thin: a hair above the 2 + sqrt(2) threshold
    assert case1.bound > -1e-3
    assert case2.bound > -1e-3
    # the search trajectory is pinned: a change to the enclosures or the
    # search order shows up here first. Case 1 counts the B = 1 and B = 0
    # solves, case 2 the B = 1 and slope solves; both bounds are B = 1's.
    assert (case1.boxes, case2.boxes) == (10_492, 9_962)
    assert case1.bound == case2.bound == -8.073232525534498e-05
    # the certificates sit on the full programs, with B and r in the point
    for case, opt in ((1, case1), (2, case2)):
        prog = build_k2_case_program(case, 3.4152)
        assert opt.program == prog.name
        assert list(opt.point) == list(prog.var_names)
        assert opt.point["B"] == 1.0


def test_solve_copeland_k2_below_threshold_has_positive_witness():
    beta = K2_BETA_THRESHOLD - 0.01
    case1, case2 = solve_copeland_k2(beta, max_boxes=200)
    values = [c.value for c in (case1, case2) if c.value is not None]
    assert max(values) > 0.0


def test_solve_copeland_k2_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        solve_copeland_k2(0.0)


@pytest.mark.parametrize("beta", [math.inf, math.nan, -1.0])
def test_k2_chain_requires_positive_finite_beta(beta):
    # an infinite beta would certify only distortion <= inf, and a NaN one
    # would fail later, on non-finite root enclosures
    with pytest.raises(ValueError, match="^beta must be positive and finite"):
        build_k2_case_program(1, beta)
    with pytest.raises(ValueError, match="^beta must be positive and finite"):
        build_k2_part_program("B1", beta)
    with pytest.raises(ValueError, match="^beta must be positive and finite"):
        solve_k2_parts(beta)


@pytest.mark.parametrize("beta", [1e-310, 2e-308, 1e-301])
def test_k2_chain_rejects_a_beta_whose_coefficients_overflow(beta):
    # 2 / beta times B + 1 overflows the enclosures; the message names beta,
    # not the variable bounds
    with pytest.raises(ValueError, match="^beta must be at least 1e-300"):
        build_k2_case_program(2, beta)
    with pytest.raises(ValueError, match="^beta must be at least 1e-300"):
        build_k2_part_program("slope", beta)
    with pytest.raises(ValueError, match="^beta must be at least 1e-300"):
        solve_k2_parts(beta)
    build_k2_part_program("slope", 1e-300)


def test_k2_slope_is_certified_negative_above_threshold():
    # the slope bound carries case 2 from B = 1 to every B >= 1
    parts = solve_k2_parts(3.4152)
    assert parts["slope"].bound < 0.0
    assert parts["slope"].target_met
    assert parts["B1"].status == CERTIFIED
    # B = 0 stops once it cannot raise case 1's bound above B = 1's
    assert parts["B0"].bound <= parts["B1"].bound


def test_k2_case2_is_not_certified_where_the_slope_is_not_negative():
    # at beta = 1 the slope is 1.4 at q = 0.7, t = 0.3: case 2 grows with
    # B, so no bound at B = 1 covers it
    parts = solve_k2_parts(1.0, max_boxes=2000)
    assert parts["slope"].bound >= 0.0
    _, case2 = k2_case_certificates(parts)
    assert case2.bound == math.inf
    assert case2.status != CERTIFIED


def _part(part, x, value, bound, boxes):
    """A synthetic part certificate at point x = (p, q, s, t)."""
    return GlobalOptimum(point=dict(zip("pqst", x)), value=value, bound=bound,
                         gap=bound - value, boxes=boxes, status=CERTIFIED,
                         tol=1e-4, program=f"copeland-k2-{part}")


def _full_point(B, x):
    p, q, s, t = x
    return {"B": B, "p": p, "q": q, "r": 1.0 - p - q - s - t, "s": s, "t": t}


def test_k2_case_certificates_compose_the_part_certificates():
    # no solve: synthetic parts pin how the cases are assembled
    x1, x0, xs = (0.1, 0.2, 0.05, 0.05), (0.3, 0.1, 0.2, 0.1), (0.4, 0, 0, 0)
    # the B = 0 incumbent beats B = 1's, so case 1 takes it, with B = 0
    parts = {"B1": _part("B1", x1, -0.5, -0.3, 10),
             "B0": _part("B0", x0, -0.2, -0.1, 20),
             "slope": _part("slope", xs, -1.0, -0.5, 30)}
    case1, case2 = k2_case_certificates(parts)
    assert (case1.point, case1.value, case1.bound, case1.boxes) == (
        _full_point(0.0, x0), -0.2, -0.1, 30)
    assert list(case1.point) == list("Bpqrst")
    assert case1.gap == -0.1 - -0.2
    assert (case1.status, case1.tol, case1.target_met, case1.program) == (
        BUDGET_EXHAUSTED, 1e-4, False, "copeland-k2-case1")
    # case 2 rests on B = 1 and the negative slope, never on B = 0
    assert (case2.point, case2.value, case2.bound, case2.boxes) == (
        _full_point(1.0, x1), -0.5, -0.3, 40)
    assert case2.gap == -0.3 - -0.5
    assert (case2.status, case2.program) == (BUDGET_EXHAUSTED,
                                             "copeland-k2-case2")

    # a value tie keeps the B = 1 incumbent; gaps within tol certify
    parts["B1"] = _part("B1", x1, -0.2, -0.19995, 10)
    parts["B0"] = _part("B0", x0, -0.2, -0.2, 20)
    case1, case2 = k2_case_certificates(parts)
    assert (case1.point, case1.value, case1.bound) == (
        _full_point(1.0, x1), -0.2, -0.19995)
    assert case1.gap == -0.19995 - -0.2
    assert (case1.status, case2.status) == (CERTIFIED, CERTIFIED)

    # a slope bound >= 0 leaves case 2 unbounded, with B = 1's incumbent
    parts["slope"] = _part("slope", xs, -1.0, 0.0, 30)
    case1, case2 = k2_case_certificates(parts)
    assert case1.status == CERTIFIED
    assert (case2.point, case2.value, case2.bound, case2.gap) == (
        _full_point(1.0, x1), -0.2, math.inf, math.inf)
    assert (case2.boxes, case2.status) == (40, BUDGET_EXHAUSTED)


def test_k2_fixed_b_program_certifies_with_a_linear_objective():
    # at B = 1 the objective is linear and reads q twice (r = 1 - p - q - s
    # - t), with cancelling signs; its natural extension stalled at bound
    # 0.4389 for 20,000 boxes before linear roots with repeated reads got
    # the centered form
    prog = build_k2_part_program("B1", 3.4152)
    assert prog._tape.degs[0] == 1
    res = solve_global(prog, tol=1e-4, max_boxes=20_000, seeds=_k2_seeds())
    assert res.status == CERTIFIED
    assert res.bound < 0.0


def test_k2_part_programs_derive_from_the_case_objectives():
    # at B = 1 both cases' objectives agree; the slope is case 2's B-slope
    rng = np.random.default_rng(3)
    x = rng.random((50, 4))
    for beta in (3.0, 3.4152):
        w = 2.0 / beta
        b1, b0, slope = (build_k2_part_program(part, beta)._tape.plain(x)[0]
                         for part in ("B1", "B0", "slope"))
        full = [build_k2_case_program(c, beta) for c in (1, 2)]
        r = 1.0 - x.sum(axis=1)
        for B, want in ((1.0, b1), (0.0, b0)):
            X = np.column_stack([np.full(50, B), x[:, :2], r, x[:, 2:]])
            assert np.allclose(full[0]._tape.plain(X)[0], want, atol=1e-12)
        X = np.column_stack([np.ones(50), x[:, :2], r, x[:, 2:]])
        at1 = full[1]._tape.plain(X)[0]
        assert np.allclose(at1, b1, atol=1e-12)
        X[:, 0] = 2.0
        assert np.allclose(full[1]._tape.plain(X)[0] - at1, slope, atol=1e-12)
        p, q, s, t = x.T
        assert np.allclose(slope, w * (p + q) - r - (w + 2) * (s + t),
                           atol=1e-12)


def test_k2_case_programs_expose_full_and_reduced_forms():
    # the full case programs carry B and r; the part programs, reduced by
    # r = 1 - p - q - s - t and a fixed B, carry (p, q, s, t)
    for case in K2_CASES:
        assert build_k2_case_program(case, 3.4152).var_names == tuple("Bpqrst")
    for part in K2_PARTS:
        assert build_k2_part_program(part, 3.4152).var_names == tuple("pqst")
    with pytest.raises(ValueError):
        build_k2_case_program(3, 3.4152)
    with pytest.raises(ValueError):
        build_k2_part_program("B2", 3.4152)
    with pytest.raises(ValueError):
        build_k2_part_program("B1", 0.0)


def test_solve_copeland_k2_does_not_depend_on_threads():
    one = solve_copeland_k2(3.4152, max_boxes=3000)
    two = solve_copeland_k2(3.4152, max_boxes=3000, threads=2)
    assert [o.to_json() for o in one] == [o.to_json() for o in two]


def test_theta3_case_programs_build():
    for case in range(1, 9):
        prog = build_theta3_case_program(case)
        assert prog.n == 7
    with pytest.raises(ValueError):
        build_theta3_case_program(0)
    with pytest.raises(ValueError):
        build_theta3_case_program(9)


def test_solve_theta3_gives_every_case_one_stopping_rule(monkeypatch):
    # no real solve: the stub records what each case program is asked for
    calls = {}

    def stub(prog, **kw):
        calls[prog.name] = kw
        return GlobalOptimum(point=None, value=0.25, bound=0.25, gap=0.0,
                             boxes=1, status=CERTIFIED, tol=kw["tol"],
                             program=prog.name)

    monkeypatch.setattr(averaging, "solve_global", stub)
    res = averaging.solve_theta3(threads=1)
    assert res.value == 0.25
    assert sorted(calls) == [f"theta3-case{c}-reduced" for c in range(1, 9)]
    for name, kw in calls.items():
        case = int(name.removeprefix("theta3-case").removesuffix("-reduced"))
        assert kw["bound_target"] == 0.2504, name
        assert (kw["tol"], kw["max_boxes"]) == (5e-4, 3_000_000), name
        assert kw["seeds"] == _theta3_seeds(case), name


def test_lb1_k3_point_is_feasible_for_case5():
    point = lb1_k3_point()
    assert point["th"] == 0.25
    dist = lb1_k3_distribution()
    assert dist.mean() == pytest.approx(0.25, abs=0.0)
    assert audit_distribution(dist, 3) == pytest.approx(0.5, abs=AUDIT_TOL)


def _exact(e, point):
    """Value of an expression in exact rational arithmetic."""
    if e.kind == _CONST:
        return Fraction(e.arg)
    if e.kind == _VAR:
        return point[e.arg]
    if e.kind == _NEG:
        return -_exact(e.arg[0], point)
    a, b = (_exact(x, point) for x in e.arg)
    return a * b if e.kind == _MUL else a + b if e.kind == _ADD else a - b


def test_theta3_case6_seed_is_exactly_feasible():
    # the seed that lets case 6 certify: (th, c1, c2, c3, p1, p2, p3) =
    # (1/4, 1, 1, 3/2, 0, 0, 1/2) satisfies all 14 constraints of the
    # reduced program in exact arithmetic, at objective 1/4
    prog = build_theta3_case_program(6)
    seed = _theta3_seeds(6)[-1]
    point = {n: Fraction(v) for n, v in seed.items()}
    assert point == {"th": Fraction(1, 4), "c1": 1, "c2": 1,
                     "c3": Fraction(3, 2), "p1": 0, "p2": 0,
                     "p3": Fraction(1, 2)}
    for i, n in enumerate(prog.var_names):
        assert prog.lower[i] <= point[n] <= prog.upper[i]
    assert _exact(prog.objective, point) == Fraction(1, 4)
    assert len(prog.constraints) == 14
    for c in prog.constraints:
        v = _exact(c.expr, point)
        assert v >= c.rhs if c.relation == ">=" else v <= c.rhs


def test_closed_form_bounds():
    assert theta_upper_bound_closed_form(1) == pytest.approx(1.0)
    assert theta_upper_bound_closed_form(4) == pytest.approx(0.5)
    assert theta_upper_bound_closed_form(100) == pytest.approx(
        8.27 / 100 * 1.02
    )
    assert theta_lower_bound_closed_form(2) == pytest.approx(1.0 / 3.0)
    assert theta_lower_bound_closed_form(3) == pytest.approx(0.25)
    assert theta_lower_bound_closed_form(9) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        theta_upper_bound_closed_form(0)
    with pytest.raises(ValueError):
        theta_lower_bound_closed_form(1)


def test_lower_bound_below_upper_bound_for_small_k():
    for k in range(2, 31):
        assert theta_lower_bound_closed_form(k) \
            <= theta_upper_bound_closed_form(k)


def test_two_point_witness_beats_closed_form_at_k4():
    # {-1 w.p. 0.39, +1 w.p. 0.61} has mean 0.22 > 2/(3k); the 2-2 tie
    # counts for the first alternative under the <= 0 rule
    dist = BiasDistribution.from_atoms([(-1.0, 0.39), (1.0, 0.61)])
    assert audit_distribution(dist, 4) >= 0.5
    assert dist.mean() == pytest.approx(0.22)
    assert dist.mean() > theta_lower_bound_closed_form(4)
