import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import delib.randomchoice as rc
from delib.bounds import group_size_closed_form
from delib.instances import line_instance_from_bias_distribution
from delib.metric import BiasDistribution
from delib.models import LINEAR, SQRT, BiasTransform, ModelConfig, exact_pk
from delib.randomchoice import (
    ZetaResult,
    constraint_lhs,
    group_size_for_epsilon,
    incumbent_feasibility,
    min_feasible_omega,
    sweep,
    zeta,
)


# -- constraint left-hand side -------------------------------------------------


def test_constraint_lhs_hand_values():
    # k=2, alpha=1/2, omega=1, linear: weights (1/4, 1/2, 1/4) over the
    # count of omega-voters; fractions 0, 1/2, 1 -> exactly 1/2
    assert constraint_lhs(2, 0.5, 1.0) == 0.5
    # a single voter who drew the omega side delegates to itself
    assert constraint_lhs(1, 1.0, 1.0) == 1.0
    # beta = 0 ignores the leans: probability is just alpha
    for a in (0.0, 0.3, 0.77, 1.0):
        assert constraint_lhs(3, a, 0.5, LINEAR, beta=0.0) == a


def test_constraint_lhs_exact_rational_cross_check():
    # independent evaluation over exact rationals for small k
    def frac_lhs(k, alpha, omega):
        a, w = Fraction(alpha), Fraction(omega)
        total = Fraction(0)
        for ell in range(k + 1):
            weight = math.comb(k, ell) * a**ell * (1 - a)**(k - ell)
            if ell == 0:
                continue
            total += weight * (ell * w) / (ell * w + (k - ell))
        return total

    for k in (1, 2, 3, 5):
        for alpha in (Fraction(1, 4), Fraction(3, 5)):
            for omega in (Fraction(1, 3), Fraction(7, 17), Fraction(1)):
                want = float(frac_lhs(k, alpha, omega))
                got = constraint_lhs(k, float(alpha), float(omega))
                assert got == pytest.approx(want, abs=1e-14), (k, alpha, omega)


def test_constraint_lhs_ell_equals_k_at_omega_zero():
    # every voter on the omega side with g(0) = 0 delegates to a zero
    # lean: that term contributes nothing instead of dividing by zero
    assert constraint_lhs(2, 1.0, 0.0) == 0.0
    assert constraint_lhs(5, 1.0, 0.0) == 0.0


def test_constraint_lhs_validation():
    with pytest.raises(ValueError):
        constraint_lhs(0, 0.5, 0.5)
    with pytest.raises(ValueError):
        constraint_lhs(2, -0.1, 0.5)
    with pytest.raises(ValueError):
        constraint_lhs(2, 0.5, 1.5)
    with pytest.raises(ValueError):
        constraint_lhs(2, 0.5, 0.5, LINEAR, beta=2.0)


# -- minimal feasible omega ----------------------------------------------------


def test_min_feasible_omega_anchor():
    # at alpha = 3/5 the constraint binds exactly at omega = 7/17
    got = min_feasible_omega(2, 0.6)
    assert got == pytest.approx(7.0 / 17.0, abs=1e-8)
    assert constraint_lhs(2, 0.6, got) >= 0.5 - 1e-9


def test_min_feasible_omega_zero_when_alpha_carries():
    # beta = 0 and alpha >= 1/2: feasible at omega = 0 exactly
    assert min_feasible_omega(2, 0.5, LINEAR, beta=0.0) == 0.0
    assert min_feasible_omega(2, 0.75, LINEAR, beta=0.0) == 0.0


def test_min_feasible_omega_infeasible_alpha():
    assert min_feasible_omega(1, 0.2) == math.inf
    assert min_feasible_omega(3, 0.0) == math.inf


def test_min_feasible_omega_monotone_in_alpha():
    vals = [min_feasible_omega(3, a) for a in np.linspace(0.6, 0.95, 12)]
    assert all(x >= y - 1e-9 for x, y in zip(vals, vals[1:]))


# -- bisection replay ------------------------------------------------------------
#
# Reference: the bisection of one alpha, one level per pass, with its k
# terms in one (k, 1) column.


def _sequential_lhs(k, weights, alphas, omegas, g, beta):
    ell = np.arange(1, k + 1, dtype=float)[:, None]
    gw = np.asarray(g.apply(np.asarray(omegas, dtype=float)))[None, :]
    num = ell * gw
    den = num + (k - ell)
    frac = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return beta * (weights * frac).sum(axis=0) + (1.0 - beta) * alphas


def _sequential_min_omega(k, alpha, g, beta, tol):
    a = np.array([alpha])
    w = rc._binomial_weights(k, a).T

    def ok(omega):
        return _sequential_lhs(k, w, a, [omega], g, beta)[0] >= 0.5

    if not ok(1.0):
        return math.inf
    if ok(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(max(1, math.ceil(math.log2(1.0 / tol)))):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


_units = st.floats(0.0, 1.0)
# The replay identities assume g.apply gives an element the same value in
# any batch; a pow: transform tests that beyond the two named ones.
_transforms = st.sampled_from([LINEAR, SQRT, BiasTransform.parse("pow:0.3")])


@given(k=st.integers(1, 60), alpha=_units, beta=_units, g=_transforms,
       tol=st.floats(1e-12, 0.3))
def test_scalar_solve_replays_sequential_bisection(k, alpha, beta, g, tol):
    want = _sequential_min_omega(k, alpha, g, beta, tol)
    got = min_feasible_omega(k, alpha, g, beta, tol)
    assert got.hex() == want.hex()


@given(k=st.integers(1, 60), alpha=_units, beta=_units, g=_transforms,
       tol=st.floats(1e-15, 0.3), hint=_units)
@example(k=4, alpha=0.84, beta=1.0, g=LINEAR, tol=1e-9, hint=0.0)
@example(k=4, alpha=0.84, beta=1.0, g=LINEAR, tol=1e-9, hint=1.0)
@example(k=9, alpha=0.7, beta=1.0, g=SQRT, tol=1e-9, hint=math.inf)
@example(k=9, alpha=0.7, beta=1.0, g=SQRT, tol=1e-9, hint=math.nan)
def test_hinted_solve_matches_unhinted(k, alpha, beta, g, tol, hint):
    # a hint only picks the path the first pass tests; with the exact
    # answer as the hint the whole path agrees
    want = _sequential_min_omega(k, alpha, g, beta, tol)
    for h in (hint, want):
        assert rc._min_omega(k, alpha, g, beta, tol, h).hex() == want.hex()


@pytest.mark.parametrize("k", [4, 8, 30])
@pytest.mark.parametrize("g", [LINEAR, SQRT])
def test_zeta_constraint_passes(monkeypatch, k, g):
    # the golden-section refinement starts each bisection from the path of
    # the omega before it; without the hint zeta makes 410 passes
    passes = []
    lhs = rc._lhs_array

    def counted(*args):
        passes.append(1)
        return lhs(*args)

    monkeypatch.setattr(rc, "_lhs_array", counted)
    zeta(k, g)
    assert len(passes) <= 210


@pytest.mark.parametrize("alpha_step", [0.7, 0.5, 1e-2])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 30])
def test_pruned_grid_replays_sequential_bisection(alpha_step, k):
    # alpha_step 0.7 gives the grid (0, 1) and 0.5 gives (0, 1/2, 1), so
    # only one or two alphas are left to bisect. At tol 1e-15 the last
    # bits of omega depend on the order the k terms are summed in
    # (k = 8, beta = 0.01 at alpha = 1/2).
    n = max(1, round(1.0 / alpha_step))
    grid = np.arange(n + 1) / n
    for g in (LINEAR, SQRT):
        for beta in (1.0, 0.5, 0.01, 0.0):
            for tol in (1e-9, 1e-15):
                want = np.array([
                    _sequential_min_omega(k, a, g, beta, tol) for a in grid
                ])
                got = rc._min_omega_array(k, grid, g, beta, tol)
                assert got.tobytes() == want.tobytes(), (g, beta, tol)


@given(k=st.integers(1, 60), alphas=st.lists(_units, min_size=1, max_size=30),
       beta=_units, g=_transforms, tol=st.floats(1e-15, 0.3))
@example(k=8, alphas=(np.arange(21) / 20).tolist(), beta=1.0, g=LINEAR,
         tol=1e-15)
def test_grid_and_single_alpha_solves_agree(k, alphas, beta, g, tol):
    # one bracket per alpha: a batch of alphas gives each the omega a
    # one-alpha grid gives it, min_feasible_omega's, to the last bit (at
    # k = 8, alpha = 0.65 a batch and a single alpha used to differ by a
    # few ulps)
    got = rc._min_omega_array(k, np.array(alphas), g, beta, tol)
    want = [min_feasible_omega(k, a, g, beta, tol) for a in alphas]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("k, g, beta, want", [
    (3, LINEAR, 1.0, {
        "k": 3, "g": "linear", "beta": 1.0, "zeta": 0.2062994736859412,
        "alpha": 0.7937005255748676, "omega": 9.313225746154785e-10,
        "distortion_upper": 2.309920005109069, "det_lb": 1.5198420987421914,
        "rand_lb": 1.2599210493710957, "alpha_step": 0.001, "omega_tol": 1e-09,
    }),
    (9, SQRT, 1.0, {
        "k": 9, "g": "sqrt", "beta": 1.0, "zeta": 0.19998798936478146,
        "alpha": 0.6999557881545937, "omega": 0.1429464891552925,
        "distortion_upper": 2.249887403393994, "det_lb": 1.4999624673284309,
        "rand_lb": 1.2499812336642155, "alpha_step": 0.001, "omega_tol": 1e-09,
    }),
    (2, LINEAR, 0.5, {
        "k": 2, "g": "linear", "beta": 0.5, "zeta": 0.3819660108711608,
        "alpha": 0.6180339885532502, "omega": 9.313225746154785e-10,
        "distortion_upper": 4.999999991126484, "det_lb": 2.236067975515611,
        "rand_lb": 1.6180339877578056, "alpha_step": 0.001, "omega_tol": 1e-09,
    }),
])
def test_zeta_json_pinned(k, g, beta, want):
    # the values of the one-level-per-pass bisection, to the last bit
    assert zeta(k, g, beta).to_json() == json.dumps(want, indent=2)


# -- the optimum ----------------------------------------------------------------


def test_zeta_linear_closed_form_family():
    # linear g, beta = 1: the optimum rides the corner alpha = 2^(-1/k)
    for k in range(1, 6):
        res = zeta(k)
        want = 1.0 - 2.0 ** (-1.0 / k)
        assert res.value == pytest.approx(want, abs=1e-7), k
        assert res.alpha == pytest.approx(2.0 ** (-1.0 / k), abs=1e-6), k


def test_zeta_table_values():
    assert zeta(2).distortion_upper == pytest.approx(3.3431457, abs=1e-4)
    assert zeta(3).distortion_upper == pytest.approx(2.3099200, abs=1e-4)
    assert zeta(4).distortion_upper == pytest.approx(1.9000258, abs=1e-4)


def test_zeta_sqrt_interior_optimum():
    res = zeta(3, SQRT)
    assert res.value == pytest.approx(0.2662148946, abs=1e-6)
    assert res.distortion_upper == pytest.approx(2.9776733, abs=5e-4)
    assert res.distortion_upper <= 2.98
    # genuinely interior: the corner family does not apply here
    assert 0.05 < res.omega < 0.2
    assert zeta(30, SQRT).distortion_upper == pytest.approx(2.0689649,
                                                            abs=1e-4)


def test_zeta_beta_half_golden_corner():
    # beta = 1/2, k = 2 admits a closed form: alpha* = (sqrt(5) - 1) / 2
    res = zeta(2, beta=0.5)
    assert res.value == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-6)
    assert res.alpha == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-5)


def test_zeta_beta_zero_exact():
    res = zeta(2, beta=0.0)
    assert res.value == 0.5
    assert res.alpha == 0.5
    assert res.omega == 0.0


def test_zeta_validation():
    with pytest.raises(ValueError):
        zeta(0)
    with pytest.raises(ValueError):
        zeta(2, alpha_step=0.0)
    with pytest.raises(ValueError):
        zeta(2, omega_tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_tolerances_must_be_positive_and_finite(tol):
    message = "tol must be positive and finite"
    with pytest.raises(ValueError, match="omega_" + message):
        zeta(3, omega_tol=tol)
    with pytest.raises(ValueError, match="omega_" + message):
        sweep(2, 3, omega_tol=tol)
    with pytest.raises(ValueError, match="^" + message):
        min_feasible_omega(3, 0.8, tol=tol)


def test_zeta_result_coerces_and_validates():
    with pytest.raises(ValueError):
        ZetaResult(2, "linear", 1.0, 1.5, 0.5, 0.5, 2.0, 1.5, 1.2,
                   1e-3, 1e-9)
    res = ZetaResult(2, "linear", 1.0, np.float64(0.25), 0.5, 0.5,
                     np.float64(2.0), 1.5, 1.2, 1e-3, 1e-9)
    assert type(res.value) is float
    assert type(res.distortion_upper) is float


def test_sweep_shape_and_validation():
    rows = sweep(2, 6)
    assert [r.k for r in rows] == [2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        sweep(0, 5)
    with pytest.raises(ValueError):
        sweep(5, 2)


# -- incumbent audit -------------------------------------------------------------


def test_incumbent_feasibility_exact_for_interior_optima():
    # two-point witnesses make the mean-substitution step lossless, so
    # the exact win probability lands on 1/2 whenever omega > 0
    for res in (zeta(2), zeta(3), zeta(3, SQRT), zeta(2, beta=0.5)):
        pk, gap = incumbent_feasibility(res)
        assert pk == pytest.approx(0.5, abs=1e-9)
        assert gap <= 1e-9


def test_incumbent_feasibility_reports_boundary_artifact():
    # at the omega = 0 corner the strictly-negative convention drops the
    # witness mass, so the audit honestly reports the violated constraint
    res = zeta(2, beta=0.0)
    pk, gap = incumbent_feasibility(res)
    assert pk == 0.0
    assert gap == pytest.approx(0.5)


@pytest.mark.parametrize("res", [
    zeta(2), zeta(3, SQRT), zeta(2, beta=0.5), zeta(2, beta=0.0), zeta(300),
    dataclasses.replace(zeta(3), alpha=1.0),    # a one-atom witness
], ids=["k2", "k3-sqrt", "k2-beta0.5", "k2-beta0", "k300", "one-atom"])
def test_two_atom_audit_matches_exact_enumeration(monkeypatch, res):
    # the binomial sum over the k + 1 group compositions agrees with exact
    # enumeration on the same line instance, also split into one-row blocks
    atoms = [(-res.omega, res.alpha), (1.0, 1.0 - res.alpha)]
    inst = line_instance_from_bias_distribution(
        BiasDistribution.from_atoms([(v, p) for v, p in atoms if p > 0.0]))
    model = ModelConfig(variant="random-choice", k=res.k,
                        g=BiasTransform.parse(res.g), beta=res.beta)
    exact = exact_pk(inst, model, "W", "X").value
    assert incumbent_feasibility(res)[0] == pytest.approx(exact, abs=1e-12)
    monkeypatch.setattr(rc, "_AUDIT_BLOCK_SLOTS", 1)
    assert incumbent_feasibility(res)[0] == pytest.approx(exact, abs=1e-12)


# -- group size ------------------------------------------------------------------


def test_group_size_for_epsilon_anchors():
    assert group_size_for_epsilon(10.0) == 1
    assert group_size_for_epsilon(0.91) == 4
    assert group_size_for_epsilon(0.90) == 5
    assert group_size_for_epsilon(0.5) == 7


def test_group_size_monotone_nonincreasing():
    eps = [2.5, 1.2, 0.9, 0.6, 0.4, 0.25]
    sizes = [group_size_for_epsilon(e) for e in eps]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_group_size_distortion_actually_clears_threshold():
    for eps in (0.9, 0.5):
        k = group_size_for_epsilon(eps)
        assert zeta(k).distortion_upper <= 1.0 + eps
        if k > 1:
            assert zeta(k - 1).distortion_upper > 1.0 + eps


def test_group_size_validation_and_cap(monkeypatch):
    with pytest.raises(ValueError):
        group_size_for_epsilon(0.0)
    monkeypatch.setattr(rc, "GROUP_SIZE_CAP", 8)
    with pytest.raises(RuntimeError, match="cap 8"):
        group_size_for_epsilon(1e-9)


def test_group_size_closed_form():
    assert group_size_closed_form(0.9) == 4
    assert group_size_closed_form(0.1) == 1199


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_group_sizes_require_positive_finite_epsilon(epsilon):
    # unchecked, a NaN epsilon gives sizes 2 and 1, and an infinite one
    # size 1 and a math domain error
    message = "^epsilon must be positive and finite"
    with pytest.raises(ValueError, match=message):
        group_size_for_epsilon(epsilon)
    with pytest.raises(ValueError, match=message):
        group_size_closed_form(epsilon)


# -- binomial weights ------------------------------------------------------------


def test_binomial_weights_direct_matches_fractions():
    # one row per alpha, columns l = 1..k; the l = 0 term never enters the
    # win probability
    alphas = np.array([0.125, 0.3, 0.875])
    W = rc._binomial_weights(6, alphas)
    assert W.shape == (3, 6)
    assert W.flags.c_contiguous
    for j, a in enumerate(alphas):
        fa = Fraction(float(a))
        for ell in range(1, 7):
            want = float(math.comb(6, ell) * fa**ell * (1 - fa)**(6 - ell))
            assert W[j, ell - 1] == pytest.approx(want, abs=1e-15)


def test_binomial_weights_lgamma_path_consistent(monkeypatch):
    # k = 1029 is models._MAX_EXACT_K, the last k with direct weights
    alphas = np.linspace(0.01, 0.99, 9)
    direct = {k: rc._binomial_weights(k, alphas) for k in (40, 1029)}
    monkeypatch.setattr(rc, "_MAX_EXACT_K", 10)
    for k, want in direct.items():
        logged = rc._binomial_weights(k, alphas)
        assert np.max(np.abs(want - logged)) <= 1e-12


def test_binomial_weights_large_k_rows_normalize():
    # k = 1200 takes the lgamma path; rows sum to 1 - (1-alpha)^k,
    # indistinguishable from 1 here. Measured drift is ~3e-13.
    alphas = np.array([0.3, 0.7, 0.999])
    W = rc._binomial_weights(1200, alphas)
    assert W.shape == (3, 1200)
    assert W.flags.c_contiguous
    assert (W >= 0.0).all()
    assert W.sum(axis=1) == pytest.approx(1.0 - (1.0 - alphas) ** 1200,
                                          abs=1e-9)


def test_zeta_unaffected_by_weight_path(monkeypatch):
    before = zeta(12).value
    monkeypatch.setattr(rc, "_MAX_EXACT_K", 2)
    after = zeta(12).value
    assert after == pytest.approx(before, abs=1e-10)


# -- transforms plumbed through ---------------------------------------------------


def test_pow_transform_between_linear_and_sqrt():
    g = BiasTransform.parse("pow:0.75")
    z_lin, z_pow, z_sqrt = zeta(4).value, zeta(4, g).value, zeta(4, SQRT).value
    assert z_lin < z_pow < z_sqrt
