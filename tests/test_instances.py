import math
from itertools import combinations

import pytest

from delib import instances
from delib.instances import (
    FAMILIES,
    BudgetExceeded,
    copeland_k2_worst_case,
    example1_instance,
    lb1_instance,
    line_instance_from_bias_distribution,
    theta2_extremal_instance,
)
from delib.metric import (
    BiasDistribution,
    bias_distribution,
    distortion_of,
    social_optimum,
    validate,
)
from delib.models import ModelConfig, exact_pk


def test_families_registry():
    assert set(FAMILIES) == {
        "lb1", "theta2-extremal", "copeland-k2", "example1"
    }


def test_line_realization_recovers_dyadic_atoms():
    dist = BiasDistribution.from_atoms([(-1.0, 0.25), (-0.5, 0.25),
                                        (0.25, 0.25), (1.0, 0.25)])
    inst = line_instance_from_bias_distribution(dist)
    assert validate(inst) == []
    back = bias_distribution(inst, "W", "X")
    assert back.values == dist.values
    assert back.probs == pytest.approx(dist.probs)


def test_lb1_mean_bias_matches_closed_form():
    for k in range(2, 10):
        inst = lb1_instance(k)
        mean = bias_distribution(inst, "W", "X").mean()
        want = 1.0 / (k + 1) if k % 2 else 2.0 / (3.0 * k)
        assert mean == pytest.approx(want, abs=1e-12), k


def test_lb1_win_probability_at_least_half():
    for k in range(2, 10):
        inst = lb1_instance(k)
        pk = exact_pk(inst, ModelConfig("averaging", k=k), "W", "X").value
        assert pk >= 0.5, k
        if k % 2 == 1:
            assert pk == pytest.approx(0.5, abs=0.0), k


def test_lb1_rejects_small_k():
    with pytest.raises(ValueError):
        lb1_instance(1)


def test_theta2_extremal_attains_the_bound():
    inst = theta2_extremal_instance()
    dist = bias_distribution(inst, "W", "X")
    assert dist.mean() == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)
    pk = exact_pk(inst, ModelConfig("averaging", k=2), "W", "X").value
    assert pk >= 0.5


def test_copeland_worst_case_geometry():
    inst = copeland_k2_worst_case(1e-3)
    assert inst.candidates == ("W", "X", "Y")
    assert validate(inst) == []
    assert social_optimum(inst) == "X"
    # W's distortion approaches 3 + sqrt(2) as delta shrinks
    target = 3.0 + math.sqrt(2.0)
    d1 = distortion_of(inst, "W")
    assert target - 0.05 <= d1 <= target
    d2 = distortion_of(copeland_k2_worst_case(1e-4), "W")
    assert target - d2 < target - d1


def test_copeland_worst_case_pair_probabilities():
    inst = copeland_k2_worst_case(1e-3)
    model = ModelConfig("averaging", k=2)
    # the near mass rounds so its square clears 1/2 for the (W, Y) pair;
    # the complementary (Y, X) pair then sits one rounding below 1/2 and
    # is rescued by the exact-mode dominance tolerance
    assert exact_pk(inst, model, "W", "Y").value >= 0.5
    assert exact_pk(inst, model, "Y", "X").value >= 0.5 - 1e-9


def test_copeland_worst_case_delta_range():
    with pytest.raises(ValueError):
        copeland_k2_worst_case(0.0)
    with pytest.raises(ValueError):
        copeland_k2_worst_case(0.02)


def test_example1_structure():
    n, k, delta = 6, 2, 0.01
    inst = example1_instance(n, k, delta)
    assert validate(inst) == []
    assert inst.m == 1 + math.comb(n, k)
    assert social_optimum(inst) == "c"
    # every subset candidate serves its k members at 1 and the rest at 3
    subset = [c for c in inst.candidates if c != "c"]
    for cs in subset:
        members = [v for v in inst.location_ids
                   if inst.distance(v, cs) == 1.0]
        assert len(members) == k
    # distortions of subset candidates increase as n grows
    def worst(n_):
        i = example1_instance(n_, k, delta)
        return min(distortion_of(i, c) for c in i.candidates if c != "c")
    w6, w12, w20 = worst(6), worst(12), worst(20)
    assert w6 < w12 < w20 < 3.0


@pytest.mark.parametrize("delta", [0.0, 1.01, math.inf, math.nan])
def test_example1_delta_range(delta):
    # past 1, d(c_S, c_T) = 2 exceeds the route through c, 2(2 - delta)
    with pytest.raises(ValueError, match=r"^delta must be in \(0, 1\]"):
        example1_instance(4, 2, delta)
    assert validate(example1_instance(4, 2, 1.0)) == []


def test_example1_budget(monkeypatch):
    with pytest.raises(BudgetExceeded):
        example1_instance(30, 8, 0.01)
    # the budget admits exactly its count: C(12, 2) + 1 = 67 candidates
    monkeypatch.setattr(instances, "DEFAULT_CANDIDATE_BUDGET", 66)
    with pytest.raises(BudgetExceeded, match="67 candidates"):
        example1_instance(12, 2, 0.01)
    monkeypatch.setattr(instances, "DEFAULT_CANDIDATE_BUDGET", 67)
    assert example1_instance(12, 2, 0.01).m == 67


def test_example1_default_budget_refuses_before_building(monkeypatch):
    # C(13, 6) + 1 = 1,717 candidates would take about 37 s and 0.7 GB to
    # build and validate; the default budget refuses before any subset
    def no_subsets(*args):
        raise AssertionError("built candidates before checking the budget")

    monkeypatch.setattr(instances, "combinations", no_subsets)
    with pytest.raises(BudgetExceeded, match="1717 candidates"):
        example1_instance(13, 6, 0.01)


def test_example1_candidate_pair_distances():
    inst = example1_instance(5, 2, 0.01)
    subset = [c for c in inst.candidates if c != "c"]
    for a, b in combinations(subset, 2):
        assert inst.distance(a, b) == 2.0
        assert inst.distance(a, "c") == pytest.approx(2.0 - 0.01)
