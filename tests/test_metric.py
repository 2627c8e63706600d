import json
import math

import numpy as np
import pytest

from delib.metric import (
    BiasDistribution,
    DegenerateOptimum,
    InvalidInstance,
    MetricInstance,
    ZeroCandidateDistance,
    bias_distribution,
    distortion_of,
    instance_from_json,
    instance_to_json,
    normalized_bias,
    signed_diffs,
    social_cost,
    social_optimum,
    validate,
)
from delib.models import ModelConfig, exact_pk
from delib.sampling import (
    MATCHING_GROUPS,
    RANKING_GROUPS,
    SampleRunConfig,
    simulate_estimated_pmatrix,
)

from conftest import random_euclidean_instance


def test_build_fills_symmetric_table(small_line_instance):
    inst = small_line_instance
    assert inst.distance("A", "C") == 4.0
    assert inst.distance("C", "A") == 4.0
    assert inst.distance("B", "B") == 0.0
    assert inst.m == 3
    assert validate(inst) == []


def test_build_rejects_missing_pair():
    with pytest.raises(InvalidInstance, match="missing distance"):
        MetricInstance.build(
            ["A", "B"], [("v", 1.0)], {("A", "B"): 1.0, ("A", "v"): 1.0}
        )


def test_build_rejects_triangle_violation():
    with pytest.raises(InvalidInstance, match="triangle"):
        MetricInstance.build(
            ["A", "B"], [("v", 1.0)],
            {("A", "B"): 10.0, ("A", "v"): 1.0, ("B", "v"): 1.0},
        )


def test_build_rejects_duplicates_and_bad_mass():
    with pytest.raises(InvalidInstance, match="duplicate candidate"):
        MetricInstance.build(["A", "A"], [("v", 1.0)], {("A", "v"): 1.0})
    with pytest.raises(InvalidInstance, match="sum"):
        MetricInstance.build(
            ["A", "B"], [("v", 0.4)],
            {("A", "B"): 1.0, ("A", "v"): 1.0, ("B", "v"): 1.0},
        )
    # json.loads accepts NaN and Infinity, so instance files can carry them
    with pytest.raises(InvalidInstance, match="non-finite location mass"):
        MetricInstance.build(
            ["A", "B"], [("v", math.nan)],
            {("A", "B"): 1.0, ("A", "v"): 1.0, ("B", "v"): 1.0},
        )
    with pytest.raises(InvalidInstance, match="non-finite distance"):
        MetricInstance.build(
            ["A", "B"], [("v", 1.0)],
            {("A", "B"): math.inf, ("A", "v"): math.inf, ("B", "v"): math.inf},
        )
    # NaN != NaN, but a NaN distance is non-finite, not asymmetric
    nan_pair = {("A", "B"): math.nan, ("A", "v"): 1.0, ("B", "v"): 1.0}
    with pytest.raises(InvalidInstance) as exc:
        MetricInstance.build(["A", "B"], [("v", 1.0)], nan_pair)
    assert exc.value.violations == ["non-finite distance"]
    # math.fsum raises on overflow and on infinities of both signs
    two = {("A", "B"): 1.0, ("A", "u"): 1.0, ("B", "u"): 1.0,
           ("A", "v"): 1.0, ("B", "v"): 1.0, ("u", "v"): 1.0}
    with pytest.raises(InvalidInstance, match="masses sum to inf, not 1"):
        MetricInstance.build(["A", "B"], [("u", 1e308), ("v", 1e308)], two)
    with pytest.raises(InvalidInstance, match="non-finite location mass"):
        MetricInstance.build(["A", "B"], [("u", math.inf), ("v", -math.inf)],
                             two)


def test_mass_renormalized_within_tolerance():
    inst = MetricInstance.build(
        ["A", "B"], [("u", 0.5 + 1e-10), ("v", 0.5)],
        {("A", "B"): 1.0, ("A", "u"): 0.5, ("B", "u"): 0.5,
         ("A", "v"): 0.5, ("B", "v"): 0.5, ("u", "v"): 1.0},
    )
    assert math.fsum(inst.masses.tolist()) == pytest.approx(1.0, abs=1e-15)


def test_candidate_can_host_mass():
    # location id equal to a candidate name shares the candidate's point
    inst = MetricInstance.build(
        ["A", "B"], [("A", 0.75), ("B", 0.25)], {("A", "B"): 2.0}
    )
    assert inst.points == ("A", "B")
    assert social_cost(inst, "A") == pytest.approx(0.25 * 2.0)
    assert social_cost(inst, "B") == pytest.approx(0.75 * 2.0)
    assert social_optimum(inst) == "A"


def test_normalized_bias_sign_and_clip(small_line_instance):
    inst = small_line_instance
    # voter u at 0.5: d(u,A)=0.5, d(u,B)=1.5, d(A,B)=2 -> bias -0.5
    assert normalized_bias(inst, "u", "A", "B") == pytest.approx(-0.5)
    assert normalized_bias(inst, "u", "B", "A") == pytest.approx(0.5)
    # voter v at 2.5 sits past B: (2.5 - 0.5) / 2 hits the +1 endpoint
    assert normalized_bias(inst, "v", "A", "B") == pytest.approx(1.0)
    assert normalized_bias(inst, "w", "A", "C") == pytest.approx(0.75)
    assert normalized_bias(inst, "u", "A", "C") == pytest.approx(-0.75)


def test_normalized_bias_in_unit_interval_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = random_euclidean_instance(rng, 3, 5)
        for v in inst.location_ids:
            for a in inst.candidates:
                for b in inst.candidates:
                    if a != b:
                        assert -1.0 <= normalized_bias(inst, v, a, b) <= 1.0


def test_zero_candidate_distance_raises():
    inst = MetricInstance.build(
        ["A", "B"], [("v", 1.0)],
        {("A", "B"): 0.0, ("A", "v"): 1.0, ("B", "v"): 1.0},
    )
    with pytest.raises(ZeroCandidateDistance):
        normalized_bias(inst, "v", "A", "B")
    with pytest.raises(ZeroCandidateDistance):
        bias_distribution(inst, "A", "B")
    with pytest.raises(ZeroCandidateDistance):
        exact_pk(inst, ModelConfig("averaging", 2), "A", "B")
    for model, mode in ((ModelConfig("averaging", 2), RANKING_GROUPS),
                        (ModelConfig("random-choice", 2), MATCHING_GROUPS)):
        cfg = SampleRunConfig(inst, model, groups=10, mode=mode)
        with pytest.raises(ZeroCandidateDistance):
            simulate_estimated_pmatrix(cfg)


def test_signed_diffs_match_bias_signs(small_line_instance):
    inst = small_line_instance
    diffs = signed_diffs(inst, "A", "B")
    for d, v in zip(diffs, inst.location_ids):
        assert math.copysign(1, d) == math.copysign(
            1, normalized_bias(inst, v, "A", "B")
        )


def test_bias_distribution_merges_and_weights(small_line_instance):
    dist = bias_distribution(small_line_instance, "A", "B")
    # u: -0.5 w.p. .5; v and w both land on +1, so their mass merges
    assert dist.values == (-0.5, 1.0)
    assert dist.probs == pytest.approx((0.5, 0.5))
    assert dist.mean() == pytest.approx(0.25)


def test_bias_distribution_atoms_validate():
    with pytest.raises(ValueError, match="out of"):
        BiasDistribution.from_atoms([(1.5, 1.0)])
    with pytest.raises(ValueError, match="negative"):
        BiasDistribution.from_atoms([(0.0, -0.2), (0.5, 1.2)])
    merged = BiasDistribution.from_atoms([(0.5, 0.25), (0.5, 0.25), (-1, 0.5)])
    assert merged.values == (-1.0, 0.5)
    assert merged.probs == pytest.approx((0.5, 0.5))


def test_social_cost_and_distortion(small_line_instance):
    inst = small_line_instance
    # costs: A = .5*.5+.3*2.5+.2*3.5 = 1.7; B = .5*1.5+.3*.5+.2*1.5 = 1.2;
    # C = .5*3.5+.3*1.5+.2*.5 = 2.3
    assert social_cost(inst, "A") == pytest.approx(1.7)
    assert social_cost(inst, "B") == pytest.approx(1.2)
    assert social_cost(inst, "C") == pytest.approx(2.3)
    assert social_optimum(inst) == "B"
    assert distortion_of(inst, "B") == pytest.approx(1.0)
    assert distortion_of(inst, "C") == pytest.approx(2.3 / 1.2)


def test_degenerate_optimum_raises():
    inst = MetricInstance.build(
        ["A", "B"], [("A", 1.0)], {("A", "B"): 1.0}
    )
    with pytest.raises(DegenerateOptimum):
        distortion_of(inst, "B")


def test_json_round_trip_is_canonical(small_line_instance):
    text = instance_to_json(small_line_instance)
    back = instance_from_json(text)
    assert instance_to_json(back) == text
    assert back.candidates == small_line_instance.candidates
    assert np.array_equal(back.masses, small_line_instance.masses)
    assert np.array_equal(back.dist, small_line_instance.dist)


def test_json_extra_keys_ignored(small_line_instance):
    doc = json.loads(instance_to_json(small_line_instance))
    doc["meta"] = {"version": "x"}
    back = instance_from_json(json.dumps(doc))
    assert back.candidates == small_line_instance.candidates


def test_json_rejects_conflicting_duplicate():
    doc = json.loads(instance_to_json(MetricInstance.build(
        ["A", "B"], [("v", 1.0)],
        {("A", "B"): 1.0, ("A", "v"): 1.0, ("B", "v"): 1.0},
    )))
    doc["distances"]["B|A"] = 3.0
    with pytest.raises(InvalidInstance):
        instance_from_json(json.dumps(doc))


def test_json_self_distance_must_be_zero():
    doc = json.loads(instance_to_json(MetricInstance.build(
        ["A", "B"], [("v", 1.0)],
        {("A", "B"): 1.0, ("A", "v"): 1.0, ("B", "v"): 1.0},
    )))
    doc["distances"]["A|A"] = 0.0
    assert instance_from_json(json.dumps(doc)).distance("A", "A") == 0.0
    doc["distances"]["A|A"] = 5.0
    with pytest.raises(InvalidInstance):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize("edit", [
    lambda doc: doc["locations"][0].update(mass=None),
    lambda doc: doc["locations"][0].update(mass="1.0"),
    lambda doc: doc["locations"][0].update(mass=True),
    lambda doc: doc["locations"][0].update(mass=10**400),
    lambda doc: doc["locations"][0].pop("id"),
    lambda doc: doc.update(candidates="AB"),
    lambda doc: doc.update(locations={"v": 1.0}),
    lambda doc: doc["locations"].append({}),
    lambda doc: doc.update(distances=[["A|B", 1.0]]),
    lambda doc: doc["distances"].update({"A|B": None}),
    lambda doc: doc["distances"].update({"A|B": "1.0"}),
    lambda doc: doc.pop("candidates"),
], ids=["null-mass", "string-mass", "bool-mass", "huge-mass", "no-id",
        "string-candidates", "locations-object", "empty-location",
        "distances-list",
        "null-distance", "string-distance", "no-candidates"])
def test_json_rejects_fields_of_the_wrong_type(edit):
    doc = json.loads(instance_to_json(MetricInstance.build(
        ["A", "B"], [("v", 1.0)],
        {("A", "B"): 1.0, ("A", "v"): 1.0, ("B", "v"): 1.0},
    )))
    edit(doc)
    with pytest.raises(InvalidInstance):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ["[1]", "null", '"A"', "3"])
def test_json_rejects_a_document_that_is_not_an_object(text):
    with pytest.raises(InvalidInstance):
        instance_from_json(text)
