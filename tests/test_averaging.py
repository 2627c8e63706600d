import math
from fractions import Fraction

import pytest

from delib import averaging
from delib.averaging import (
    AUDIT_TOL,
    K2_BETA_THRESHOLD,
    THETA2,
    audit_distribution,
    binary_support_search,
    build_k2_case_program,
    build_theta2_program,
    build_theta3_case_program,
    lb1_k3_distribution,
    lb1_k3_point,
    solve_copeland_k2,
    solve_theta2,
    theta_lower_bound_closed_form,
    theta_upper_bound_closed_form,
    _theta3_seeds,
)
from delib.boxopt import (
    _ADD,
    _CONST,
    _MUL,
    _NEG,
    _VAR,
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
    assert res.value == pytest.approx(0.4142141342163088, abs=1e-9)
    assert abs(res.value - THETA2) <= 1e-4
    opt = res.per_case[0]
    assert opt.status == CERTIFIED
    assert opt.boxes == 203
    assert opt.point["p"] == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-3)
    assert opt.point["q"] <= 1e-3
    # the reported witness is feasible under independent exact enumeration
    assert res.audit_pk >= 0.5
    assert res.audit_pk == pytest.approx(0.5000001196, abs=1e-8)


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
    # search order shows up here first
    assert (case1.boxes, case2.boxes) == (14_491, 56_209)
    assert case1.bound == -8.008039858067844e-05
    assert case2.bound == -7.424092720149326e-05


def test_solve_copeland_k2_below_threshold_has_positive_witness():
    beta = K2_BETA_THRESHOLD - 0.01
    case1, case2 = solve_copeland_k2(beta, max_boxes=200)
    values = [c.value for c in (case1, case2) if c.value is not None]
    assert max(values) > 0.0


def test_solve_copeland_k2_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        solve_copeland_k2(0.0)


def test_k2_case_programs_expose_full_and_reduced_forms():
    full = build_k2_case_program(1, 3.4152, reduced=False)
    red = build_k2_case_program(1, 3.4152, reduced=True)
    assert full.n == red.n + 1
    with pytest.raises(ValueError):
        build_k2_case_program(3, 3.4152)


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


def _two_point_win_prob(x, y, p, k):
    """Reference: P[sum of k draws <= 0] for D = x w.p. 1-p, y w.p. p,
    each composition decided on its correctly rounded sum."""
    total = 0.0
    for j in range(k + 1):
        if math.fsum([y] * j + [x] * (k - j)) <= 0:
            total += math.comb(k, j) * p**j * (1 - p) ** (k - j)
    return total


def _grid_search_reference(k, value_step=0.05, prob_step=0.01):
    """The scalar triple loop over (x, y, p) that keeps the first strictly
    best feasible mean."""
    best = (-1.0, None)
    nx = round(1.0 / value_step)
    n_p = round(1.0 / prob_step)
    for ix in range(nx + 1):
        x = -ix * value_step
        for iy in range(nx + 1):
            y = iy * value_step
            for ip in range(n_p + 1):
                p = ip * prob_step
                if _two_point_win_prob(x, y, p, k) >= 0.5:
                    mean = (1 - p) * x + p * y
                    if mean > best[0]:
                        best = (mean, (x, y, p))
    mean, (x, y, p) = best
    return mean, BiasDistribution.from_atoms([(x, 1 - p), (y, p)])


@pytest.mark.parametrize("k, steps", [
    *((k, ()) for k in range(2, 10)),
    (4, (0.25, 0.05)), (4, (0.1, 0.02)), (3, (0.3, 0.07)), (5, (0.2, 0.03)),
])
def test_binary_support_search_matches_scalar_loop(k, steps):
    assert binary_support_search(k, *steps) == _grid_search_reference(k, *steps)


def test_binary_support_search_lower_bounds_theta():
    mean, dist = binary_support_search(4, value_step=0.25, prob_step=0.05)
    assert mean >= theta_lower_bound_closed_form(4) - 1e-9
    assert audit_distribution(dist, 4) >= 0.5 - 1e-12
    assert mean <= theta_upper_bound_closed_form(4) + 1e-9
