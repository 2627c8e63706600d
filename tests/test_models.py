import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from delib.metric import BiasDistribution, MetricInstance, bias_distribution
from delib import models
from delib.models import (
    LINEAR,
    SQRT,
    BiasTransform,
    EnumerationBudgetExceeded,
    ModelConfig,
    exact_pk,
    exact_pk_pair,
    group_win_probs,
    monte_carlo_pk,
)
from delib.instances import line_instance_from_bias_distribution

from conftest import random_euclidean_instance


# -- bias transforms ---------------------------------------------------------


def test_transform_parse_spec_round_trip():
    for text in ("linear", "sqrt", "pow:0.5", "pow:0.25"):
        g = BiasTransform.parse(text)
        assert BiasTransform.parse(g.spec()).spec() == g.spec()
    assert LINEAR.spec() == "linear"
    assert SQRT.spec() == "sqrt"


def test_transform_values():
    x = np.array([0.0, 0.25, 1.0])
    assert LINEAR.apply(x) == pytest.approx([0.0, 0.25, 1.0])
    assert SQRT.apply(x) == pytest.approx([0.0, 0.5, 1.0])
    assert BiasTransform.parse("pow:0.5").apply(x) == pytest.approx(
        SQRT.apply(x)
    )


def test_transform_rejects_bad_exponent():
    with pytest.raises(ValueError):
        BiasTransform.parse("pow:0")
    with pytest.raises(ValueError):
        BiasTransform.parse("pow:1.5")
    with pytest.raises(ValueError):
        BiasTransform.parse("cube")


@pytest.mark.parametrize("text", ["pow:abc", "pow:", "cube"])
def test_transform_parse_names_an_unparseable_spec(text):
    with pytest.raises(ValueError,
                       match=f"^cannot parse transform '{text}'$"):
        BiasTransform.parse(text)


# -- group decision kernel ---------------------------------------------------


def _one_group(variant, biases, g=LINEAR, **options):
    """The kernel on a single group whose members are the given atoms."""
    model = ModelConfig(variant, len(biases), g=g, **options)
    diffs = np.array(biases, dtype=float)
    members = np.arange(len(biases))[None, :]
    return float(group_win_probs(model, members, diffs,
                                 g.apply(np.abs(diffs)))[0])


def _averaging_winner(biases, tie_to_first=True):
    """Winner index (1 or 2) of one averaging group."""
    win = _one_group("averaging", biases, tie_to_first=tie_to_first)
    return 1 if win == 1.0 else 2


def _random_choice_win(biases, g, beta, all_zero_to_first):
    return _one_group("random-choice", biases, g=g, beta=beta,
                      all_zero_to_first=all_zero_to_first)


def test_averaging_outcome_sign():
    assert _averaging_winner([-0.5, 0.2]) == 1
    assert _averaging_winner([0.5, 0.2]) == 2
    assert _averaging_winner([0.5, -0.5]) == 1     # tie goes to first
    assert _averaging_winner([0.5, -0.5], tie_to_first=False) == 2


def test_averaging_outcome_exact_cancellation():
    # the exact sum of a pairwise-cancelling group is zero, and the
    # zero-sum tie goes to the first alternative
    assert _averaging_winner([0.1, 0.2, -0.2, -0.1]) == 1
    assert _averaging_winner([0.1, 0.2, -0.2, -0.1], tie_to_first=False) == 2
    # 3 * 0.7 rounds to 2.0999999999999996, so the float sum of this group
    # is 0, but its exact sum is +2.2e-16: the second alternative wins
    group = [0.7, 0.7, 0.7, -2.0999999999999996]
    assert sum(group) == 0.0
    assert _averaging_winner(group) == 2


_diff_values = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)


@given(
    base=st.lists(_diff_values, min_size=1, max_size=4),
    data=st.data(),
    tie_to_first=st.booleans(),
)
def test_averaging_decision_is_sign_of_exact_sum(base, data, tie_to_first):
    # rounded multiples of the base values make sums that nearly cancel
    diffs = np.array(base + [-(c * x) for x in base for c in (2, 3)])
    k = data.draw(st.integers(1, 9))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, len(diffs) - 1), min_size=k, max_size=k),
        min_size=1, max_size=8))
    model = ModelConfig("averaging", k, tie_to_first=tie_to_first)
    got = group_win_probs(model, np.array(rows), diffs, np.abs(diffs))
    for row, win in zip(rows, got):
        exact = sum(Fraction(float(diffs[i])) for i in row)
        want = 1.0 if exact < 0 or (exact == 0 and tie_to_first) else 0.0
        assert win == want


# -- random choice win probability --------------------------------------------


def test_random_choice_win_prob_two_members():
    # speaker with bias -w trusts the other's lean g(w) vs own k-1 shares
    w = 0.3
    expected = 0.5 * (1.0) + 0.5 * 0.0
    # members -w and +w, linear, beta=1: each speaker sees one opposing lean
    # a = g(w) (mass toward first), b = g(w): symmetric -> 1/2 each side
    got = _random_choice_win([-w, w], LINEAR, 1.0, True)
    assert got == pytest.approx(expected)


def test_random_choice_win_prob_unanimous():
    assert _random_choice_win([-0.4, -0.1], LINEAR, 1.0, True) == 1.0
    assert _random_choice_win([0.4, 0.1], LINEAR, 1.0, True) == 0.0


def test_random_choice_all_zero_flag():
    assert _random_choice_win([0.0, 0.0], LINEAR, 1.0, True) == 1.0
    assert _random_choice_win([0.0, 0.0], LINEAR, 1.0, False) == 0.5
    # the random-dictator term counts an indifferent member for neither side
    assert _random_choice_win([0.0, 0.0], LINEAR, 0.25, True) == 0.25
    assert _random_choice_win([0.0, 0.0], LINEAR, 0.25, False) == 0.125


def test_random_choice_beta_mixes_fraction_negative():
    # beta = 0 ignores leans entirely: probability = fraction of negatives
    assert _random_choice_win([-0.9, 0.1, 0.1], LINEAR, 0.0, True) \
        == pytest.approx(1.0 / 3.0)
    mixed = _random_choice_win([-0.9, 0.1, 0.1], LINEAR, 0.5, True)
    pure = _random_choice_win([-0.9, 0.1, 0.1], LINEAR, 1.0, True)
    assert mixed == pytest.approx(0.5 * pure + 0.5 / 3.0)


@given(
    diffs=st.lists(_diff_values, min_size=1, max_size=6),
    data=st.data(),
    beta=st.floats(0.0, 1.0),
    all_zero_to_first=st.booleans(),
)
def test_random_choice_kernel_matches_per_group_loop(
    diffs, data, beta, all_zero_to_first,
):
    diffs = np.array(diffs)
    gvals = SQRT.apply(np.abs(diffs) / max(1.0, np.abs(diffs).max()))
    k = data.draw(st.integers(1, 9))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, len(diffs) - 1), min_size=k, max_size=k),
        min_size=1, max_size=8))
    model = ModelConfig("random-choice", k, beta=beta,
                        all_zero_to_first=all_zero_to_first)
    got = group_win_probs(model, np.array(rows), diffs, gvals)
    for row, win in zip(rows, got):
        a = math.fsum(gvals[i] for i in row if diffs[i] < 0)
        b = math.fsum(gvals[i] for i in row if diffs[i] > 0)
        core = a / (a + b) if a + b > 0 else (1.0 if all_zero_to_first else 0.5)
        n_neg = sum(1 for i in row if diffs[i] < 0)
        want = beta * core + (1.0 - beta) * (n_neg / k)
        # the kernel sums in another order: a few roundings per member
        assert abs(win - want) <= (4 * k + 4) * np.finfo(float).eps


# -- model config ------------------------------------------------------------


def test_model_config_round_trip():
    m = ModelConfig("random-choice", k=4, g=SQRT, beta=0.7,
                    tie_to_first=False)
    back = ModelConfig.from_json(m.to_json())
    assert back == m
    assert back.to_json() == m.to_json()
    # beta may be written as a JSON integer; it is read as the float
    back = ModelConfig.from_json('{"variant": "averaging", "k": 3, "beta": 1}')
    assert back.beta == 1.0 and isinstance(back.beta, float)


@pytest.mark.parametrize("field, value", [
    ("k", 3.7), ("k", 3.0), ("k", True), ("k", None), ("k", "3"),
    ("beta", "0.5"), ("beta", True), ("beta", None),
    ("g", None), ("g", 2),
    ("tie_to_first", "false"), ("tie_to_first", 0),
    ("all_zero_to_first", None),
])
def test_model_config_from_json_rejects_malformed_field(field, value):
    doc = json.loads(ModelConfig("averaging", 3).to_json())
    doc[field] = value
    with pytest.raises(ValueError, match=field):
        ModelConfig.from_json(json.dumps(doc))


def test_model_config_from_json_rejects_non_object():
    with pytest.raises(ValueError):
        ModelConfig.from_json("[3]")


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig("majority", k=2)
    with pytest.raises(ValueError):
        ModelConfig("averaging", k=0)
    with pytest.raises(ValueError):
        ModelConfig("averaging", k=2, beta=1.5)


# -- exact win probability ----------------------------------------------------


def test_exact_pk_two_point_hand_value():
    # D = +1 w.p. p, 0 w.p. 1-p; pair wins iff no +1 drawn, plus ties
    # sum <= 0 only when both draws are 0: probability (1-p)^2 ... but the
    # zero sum ties to the first alternative, so that mass counts fully
    p = 0.3
    dist = BiasDistribution.from_atoms([(1.0, p), (0.0, 1 - p)])
    inst = line_instance_from_bias_distribution(dist)
    model = ModelConfig("averaging", k=2)
    res = exact_pk(inst, model, "W", "X")
    assert res.method == "Exact"
    assert res.stderr == 0.0
    assert res.value == pytest.approx((1 - p) ** 2)


def test_exact_pk_symmetric_distribution_half():
    dist = BiasDistribution.from_atoms([(-0.5, 0.5), (0.5, 0.5)])
    inst = line_instance_from_bias_distribution(dist)
    # odd k: sum cannot be zero, symmetry gives exactly 1/2
    res = exact_pk(inst, ModelConfig("averaging", k=3), "W", "X")
    assert res.value == pytest.approx(0.5, abs=1e-12)


def test_exact_pk_orientation_complement():
    rng = np.random.default_rng(11)
    inst = random_euclidean_instance(rng, 2, 5)
    model = ModelConfig("averaging", k=3)
    a = exact_pk(inst, model, "c0", "c1").value
    b = exact_pk(inst, model, "c1", "c0").value
    # ties go to the named first alternative in each orientation
    assert a + b >= 1.0 - 1e-12


def test_exact_pk_random_choice_matches_manual():
    dist = BiasDistribution.from_atoms([(-0.25, 0.6), (1.0, 0.4)])
    inst = line_instance_from_bias_distribution(dist)
    model = ModelConfig("random-choice", k=2)
    # the four ordered groups by hand: both members for W wins surely, both
    # against surely loses, and a mixed pair (two orders) wins with
    # g(0.25) / (g(0.25) + g(1)) = 0.2
    want = 0.6 * 0.6 + 2 * (0.6 * 0.4) * 0.2
    got = exact_pk(inst, model, "W", "X")
    assert got.value == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("n, k", [(1, 1), (1, 5), (3, 1), (12, 6), (6, 9),
                                  (30, 3), (8, 10), (2, 1029), (1, 1029),
                                  (10000, 1)])
def test_multiset_rows_are_combinations_with_replacement(n, k):
    blocks = list(models._multiset_rows(n, k))
    want = list(itertools.combinations_with_replacement(range(n), k))
    assert np.concatenate(blocks).tolist() == [list(r) for r in want]
    assert all(len(b) <= models._EXACT_BLOCK for b in blocks)
    # (12, 6), (6, 9), (30, 3), (8, 10) and (10000, 1) span several blocks
    assert len(blocks) == -(-len(want) // models._EXACT_BLOCK)


def test_exact_pk_rejects_k_past_finite_binomials():
    dist = BiasDistribution.from_atoms([(-0.5, 0.5), (0.5, 0.5)])
    inst = line_instance_from_bias_distribution(dist)
    for variant in ("averaging", "random-choice"):
        with pytest.raises(ValueError, match="1030"):
            exact_pk(inst, ModelConfig(variant, k=1030), "W", "X")


def test_exact_k_limit_is_the_last_k_with_finite_binomials():
    top = models._MAX_EXACT_K
    assert top == 1029
    assert float(math.comb(top, top // 2)) == pytest.approx(1.43e308, rel=1e-3)
    with pytest.raises(OverflowError):
        float(math.comb(top + 1, (top + 1) // 2))
    # the largest k still enumerates: odd k on a symmetric two-atom
    # distribution has no zero sum, so the group is a fair coin
    dist = BiasDistribution.from_atoms([(-0.5, 0.5), (0.5, 0.5)])
    inst = line_instance_from_bias_distribution(dist)
    p, q = exact_pk_pair(inst, ModelConfig("averaging", k=top), "W", "X")
    assert p == pytest.approx(0.5, abs=1e-12)
    assert q == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("variant", ["averaging", "random-choice"])
def test_budget_is_checked_before_any_enumeration(monkeypatch, variant):
    def enumerate_rows(n, k):
        raise AssertionError("enumerated past the budget")
        yield

    monkeypatch.setattr(models, "_multiset_rows", enumerate_rows)
    inst = random_euclidean_instance(np.random.default_rng(2), 2, 6)
    model = ModelConfig(variant, k=4)   # C(9, 4) = 126 multisets
    with pytest.raises(EnumerationBudgetExceeded):
        exact_pk_pair(inst, model, "c0", "c1", budget=125)
    with pytest.raises(EnumerationBudgetExceeded):
        exact_pk(inst, model, "c0", "c1", budget=125)


def test_budget_counts_member_slots_not_multisets(monkeypatch):
    def enumerate_rows(n, k):
        raise AssertionError("enumerated past the budget")
        yield

    monkeypatch.setattr(models, "_multiset_rows", enumerate_rows)
    dist = BiasDistribution.from_atoms([(-0.5, 0.25), (0.0, 0.5), (0.5, 0.25)])
    inst = line_instance_from_bias_distribution(dist)
    # C(602, 600) = 180,901 multisets of 600 members: 108,540,600 slots
    assert math.comb(602, 600) <= models.ENUMERATION_BUDGET
    with pytest.raises(EnumerationBudgetExceeded, match="108540600"):
        exact_pk_pair(inst, ModelConfig("averaging", k=600), "W", "X")


def test_budget_admits_exactly_its_slot_count():
    inst = random_euclidean_instance(np.random.default_rng(2), 2, 6)
    model = ModelConfig("averaging", k=4)   # 126 multisets, 504 slots
    assert exact_pk(inst, model, "c0", "c1", budget=504).value == \
        exact_pk(inst, model, "c0", "c1").value
    with pytest.raises(EnumerationBudgetExceeded):
        exact_pk(inst, model, "c0", "c1", budget=503)


# -- inverse-CDF draws -------------------------------------------------------


_NEAR_ONE = 1.0 - 2.0**-53


def _assert_inverse_cdf_matches(cum, u):
    got = models._inverse_cdf(cum)(u)
    want = np.searchsorted(cum, u, side="right")
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _special_draws(cum):
    """0, 1 - 2^-53, each cdf value below 1 and its float neighbours."""
    inside = cum[cum < 1.0]
    return np.concatenate([
        [0.0, _NEAR_ONE], inside, np.nextafter(inside, 0.0),
        np.minimum(np.nextafter(inside, 2.0), _NEAR_ONE),
    ])


@given(
    masses=st.lists(
        st.one_of(st.just(0.0), st.just(1e-9),
                  st.floats(min_value=1e-12, max_value=1.0)),
        min_size=1, max_size=40,
    ),
    normalize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_cdf_equals_searchsorted(masses, normalize, seed):
    cum = np.cumsum(masses)
    if normalize and cum[-1] > 0:
        cum /= cum[-1]
    u = np.random.default_rng(seed).random(64)
    _assert_inverse_cdf_matches(cum, np.concatenate([u, _special_draws(cum)]))


@pytest.mark.parametrize("masses", [
    [1.0],
    [0.0, 1.0, 0.0],
    [0.25, 0.25, 0.25, 0.25],          # every cdf value on a bucket edge
    [1e-7] * 30 + [1.0 - 3e-6],        # 30 values in the first bucket
    [0.3] + [1e-4] * 25 + [0.7 - 2.5e-3],
])
def test_inverse_cdf_on_edges_and_crowded_buckets(masses):
    cum = np.cumsum(masses)
    cum[-1] = max(cum[-1], 1.0)
    u = np.random.default_rng(len(masses)).random((500, 3))
    _assert_inverse_cdf_matches(cum, u)
    _assert_inverse_cdf_matches(cum, _special_draws(cum))
    # a strided view, as monte_carlo_pk passes for random choice
    wide = np.random.default_rng(1).random((300, 4))
    _assert_inverse_cdf_matches(cum, wide[:, :3])


def test_monte_carlo_pk_deterministic_and_close():
    rng = np.random.default_rng(23)
    inst = random_euclidean_instance(rng, 2, 6)
    model = ModelConfig("averaging", k=3)
    exact = exact_pk(inst, model, "c0", "c1").value
    a = monte_carlo_pk(inst, model, "c0", "c1", 20_000, seed=5)
    b = monte_carlo_pk(inst, model, "c0", "c1", 20_000, seed=5)
    assert a.value == b.value
    assert a.method == "MonteCarlo"
    assert abs(a.value - exact) <= 4 * max(a.stderr, 1e-9)


def test_monte_carlo_pk_seed_changes_stream():
    rng = np.random.default_rng(30)   # interior win probability ~ 0.445
    inst = random_euclidean_instance(rng, 2, 6)
    model = ModelConfig("random-choice", k=2)
    a = monte_carlo_pk(inst, model, "c0", "c1", 2_000, seed=1)
    b = monte_carlo_pk(inst, model, "c0", "c1", 2_000, seed=2)
    assert a.value != b.value


def test_exact_pk_agrees_with_bias_distribution_route():
    # exact_pk on a metric instance equals enumeration on its bias atoms
    rng = np.random.default_rng(31)
    inst = random_euclidean_instance(rng, 2, 5)
    model = ModelConfig("averaging", k=2)
    dist = bias_distribution(inst, "c0", "c1")
    synth = line_instance_from_bias_distribution(dist)
    a = exact_pk(inst, model, "c0", "c1").value
    b = exact_pk(synth, model, "W", "X").value
    assert a == pytest.approx(b, abs=1e-12)


def _rounded_sum_instance():
    """Two locations whose stored diffs are 0.05 and -0.15000000000000002:
    three of the first plus one of the second sum to a tiny negative exact
    value, while the rounded product 3 * 0.05 cancels the second exactly."""
    return MetricInstance.build(
        ["A", "B"], [("u", 0.5), ("v", 0.5)],
        {("A", "B"): 0.15, ("A", "u"): 0.1, ("B", "u"): 0.05,
         ("A", "v"): 0.05, ("B", "v"): 0.2, ("u", "v"): 0.15},
    )


def test_exact_pk_decides_on_exact_sum_of_stored_diffs():
    inst = _rounded_sum_instance()
    d_u, d_v = 0.1 - 0.05, 0.05 - 0.2
    assert (d_u, d_v) == (0.05, -0.15000000000000002)
    # only the all-u group has a nonnegative exact sum; ties go to B
    assert 3 * Fraction(d_u) + Fraction(d_v) < 0
    assert 4 * Fraction(d_u) > 0
    model = ModelConfig("averaging", k=4, tie_to_first=False)
    assert exact_pk(inst, model, "A", "B").value == 15 / 16


def test_monte_carlo_pk_decides_on_exact_sum_of_stored_diffs():
    inst = _rounded_sum_instance()
    model = ModelConfig("averaging", k=4, tie_to_first=False)
    res = monte_carlo_pk(inst, model, "A", "B", 200_000, seed=1)
    p = 15 / 16
    assert abs(res.value - p) <= 5 * math.sqrt(p * (1 - p) / 200_000)
