import math

import numpy as np
import pytest

from delib.instances import copeland_k2_worst_case
from delib.metric import MetricInstance
from delib.models import SQRT, ModelConfig, exact_pk
from delib.tournament import (
    EXACT_DOMINANCE_TOL,
    MC_DOMINANCE_TOL,
    MonteCarlo,
    PMatrix,
    Tournament,
    build_pmatrix,
    build_tournament,
    copeland_scores,
    copeland_winner,
    default_tol,
    pipeline_distortion,
    uncovered_check,
)

from conftest import random_euclidean_instance


def _tournament_from_beats(beats):
    m = len(beats)
    B = np.array(beats, dtype=bool)
    return Tournament(tuple(f"c{i}" for i in range(m)), B, 0.0)


def test_build_pmatrix_exact_orientations():
    rng = np.random.default_rng(8)
    inst = random_euclidean_instance(rng, 3, 5)
    model = ModelConfig("averaging", k=2)
    pm = build_pmatrix(inst, model, "exact")
    assert pm.method == "Exact"
    for i in range(3):
        assert math.isnan(pm.p[i, i])
        for j in range(3):
            if i != j:
                # tie mass counts for the first-named side in both
                # orientations, so the two entries sum to at least 1
                assert pm.p[i, j] + pm.p[j, i] >= 1.0 - 1e-12


def _lattice_instance(rng, m, n):
    """Candidates and locations at integer points of a line, so distance
    differences are integers and group sums tie often."""
    pos = {f"c{i}": 2 * i * n // (m - 1) + 1 for i in range(m)}
    pos |= {f"v{i}": 2 * (i + 1) for i in range(n)}
    names = list(pos)
    w = rng.random(n) + 0.05
    return MetricInstance.build(
        names[:m], [(f"v{i}", x) for i, x in enumerate(w / w.sum())],
        {(a, b): float(abs(pos[a] - pos[b]))
         for i, a in enumerate(names) for b in names[i + 1:]},
    )


@pytest.mark.parametrize("model", [
    ModelConfig("averaging", k=3),
    ModelConfig("averaging", k=4, tie_to_first=False),
    ModelConfig("random-choice", k=3),
    ModelConfig("random-choice", k=4, all_zero_to_first=False),
    ModelConfig("random-choice", k=3, g=SQRT, beta=0.7),
    ModelConfig("random-choice", k=2, g=SQRT, beta=0.4,
                all_zero_to_first=False),
], ids=lambda m: f"{m.variant}-k{m.k}-{m.g.spec()}-b{m.beta}"
                 f"-{m.tie_to_first:d}{m.all_zero_to_first:d}")
def test_build_pmatrix_exact_equals_exact_pk_both_ways(model):
    # one enumeration per unordered pair gives each orientation bit for bit
    rng = np.random.default_rng(20)
    for inst in (_lattice_instance(rng, 4, 9), _lattice_instance(rng, 3, 7),
                 random_euclidean_instance(rng, 4, 6),
                 random_euclidean_instance(rng, 3, 8)):
        pm = build_pmatrix(inst, model, "exact")
        for i, ci in enumerate(inst.candidates):
            for j, cj in enumerate(inst.candidates):
                if i != j:
                    assert pm.p[i, j] == exact_pk(inst, model, ci, cj).value


def test_build_pmatrix_monte_carlo_mirrors():
    rng = np.random.default_rng(9)
    inst = random_euclidean_instance(rng, 3, 5)
    model = ModelConfig("random-choice", k=2)
    pm = build_pmatrix(inst, model, MonteCarlo(500, seed=4))
    assert pm.method == "MonteCarlo"
    assert pm.trials == 500 and pm.seed == 4
    for i in range(3):
        for j in range(i + 1, 3):
            assert pm.p[i, j] + pm.p[j, i] == pytest.approx(1.0, abs=0.0)
    again = build_pmatrix(inst, model, MonteCarlo(500, seed=4))
    assert np.array_equal(pm.p, again.p, equal_nan=True)


def test_build_pmatrix_monte_carlo_pair_seeds_differ():
    rng = np.random.default_rng(9)
    inst = random_euclidean_instance(rng, 3, 5)
    model = ModelConfig("random-choice", k=2)
    a = build_pmatrix(inst, model, MonteCarlo(500, seed=4))
    b = build_pmatrix(inst, model, MonteCarlo(500, seed=5))
    assert not np.array_equal(a.p, b.p, equal_nan=True)


def test_default_tol_by_method():
    pm_exact = PMatrix(("a", "b"), np.array([[np.nan, 1.0], [0.0, np.nan]]),
                       "Exact")
    pm_mc = PMatrix(("a", "b"), np.array([[np.nan, 1.0], [0.0, np.nan]]),
                    "MonteCarlo", trials=10, seed=0)
    assert default_tol(pm_exact) == EXACT_DOMINANCE_TOL
    assert default_tol(pm_mc) == MC_DOMINANCE_TOL


def test_build_tournament_beats_and_half_points():
    p = np.array([
        [np.nan, 0.7, 0.5],
        [0.3, np.nan, 0.6],
        [0.5, 0.4, np.nan],
    ])
    t = build_tournament(PMatrix(("a", "b", "c"), p, "Exact"), tol=0.0)
    assert t.beats[0, 1] and not t.beats[1, 0]
    # the (a, c) pair sits exactly at 1/2 in both directions: shared point
    assert t.beats[0, 2] and t.beats[2, 0]
    scores = copeland_scores(t)
    assert scores == pytest.approx([1.5, 1.0, 0.5])
    assert copeland_winner(t) == "a"


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12,
                                 -0.6])
def test_build_tournament_requires_a_finite_tol(tol):
    # with a NaN tol no pair would beat another, and every candidate tie; a
    # negative one drops the shared point of an exact p = 1/2 pair
    p = np.array([[np.nan, 0.7], [0.3, np.nan]])
    with pytest.raises(ValueError,
                       match="^tol must be non-negative and finite"):
        build_tournament(PMatrix(("a", "b"), p, "Exact"), tol=tol)


def test_copeland_splits_the_point_of_a_pair_neither_side_beats():
    # A and B at distance 2 with mass 0.3 near each and 0.4 midway. Random
    # choice with k = 1 and beta = 0 follows the lone member, who counts for
    # neither side when indifferent: p(A,B) = p(B,A) = 0.3
    pos = {"A": 0.0, "B": 2.0, "u": 0.5, "v": 1.0, "w": 1.5}
    names = list(pos)
    dists = {(a, b): abs(pos[a] - pos[b])
             for i, a in enumerate(names) for b in names[i + 1:]}
    inst = MetricInstance.build(
        ["A", "B"], [("u", 0.3), ("v", 0.4), ("w", 0.3)], dists
    )
    pm = build_pmatrix(inst, ModelConfig("random-choice", 1, beta=0.0))
    assert pm.p[0, 1] == pytest.approx(0.3) and pm.p[1, 0] == pytest.approx(0.3)
    t = build_tournament(pm)
    assert not t.beats.any()
    assert copeland_scores(t).tolist() == [0.5, 0.5]
    assert copeland_winner(t) == "A"


def test_copeland_winner_declaration_order_tiebreak():
    # three-cycle: every candidate scores 1
    t = _tournament_from_beats([
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 0],
    ])
    assert copeland_scores(t) == pytest.approx([1.0, 1.0, 1.0])
    assert copeland_winner(t) == "c0"


def test_uncovered_check_direct_and_two_step():
    # c0 -> c1 -> c2, c2 -> c0: winner reaches c2 through c1
    t = _tournament_from_beats([
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 0],
    ])
    assert uncovered_check(t, "c0")
    assert uncovered_check(t, "c1")
    assert uncovered_check(t, "c2")


def test_uncovered_check_fails_for_covered_loser():
    # c2 loses to both and beats nobody
    t = _tournament_from_beats([
        [0, 1, 1],
        [0, 0, 1],
        [0, 0, 0],
    ])
    assert uncovered_check(t, "c0")
    assert not uncovered_check(t, "c2")


def test_pipeline_distortion_worst_case_benign_winner():
    # the adversarial construction gives the intended bad candidate a
    # near-ceiling distortion, but exact deliberation ties hand the
    # tournament to the benign candidate
    inst = copeland_k2_worst_case(1e-3)
    winner, dist = pipeline_distortion(inst, ModelConfig("averaging", k=2))
    assert winner == "X"
    assert dist == pytest.approx(1.0)

