"""Sampled outputs pinned bit for bit to committed fixtures.

Monte Carlo estimates, Monte Carlo P-matrices and sampling reports are pure
functions of their seed, so any change to how members, coins or groups are
drawn shows here as a changed float, not only as a moved benchmark figure.
Floats are stored as float.hex. After a deliberate change to the draws,
rewrite the fixtures with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from delib.instances import lb1_instance
from delib.metric import instance_from_json, instance_to_json
from delib.models import BiasTransform, ModelConfig, monte_carlo_pk
from delib.sampling import (
    MATCHING_GROUPS,
    RANKING_GROUPS,
    SampleRunConfig,
    empirical_distortion_trials,
)
from delib.tournament import MonteCarlo, build_pmatrix

DATA = Path(__file__).resolve().parent / "data"
INSTANCE = DATA / "golden_instance.json"
GOLDEN = DATA / "golden_sampling.json"

MODELS = {
    "avg3": ModelConfig("averaging", 3),
    "avg4-ties-second": ModelConfig("averaging", 4, tie_to_first=False),
    "rc3": ModelConfig("random-choice", 3),
    "rc5-sqrt": ModelConfig("random-choice", 5, g=BiasTransform("sqrt"),
                            beta=0.7),
}
# (instance, model, pair, trials, seed); 70,000 trials span two blocks
PK_CASES = [
    (name, model, pair, 70_000, seed)
    for name, pair in (("planar", ("c0", "c1")), ("lb1-3", ("W", "X")))
    for model in MODELS
    for seed in (5, 11)
]
PMATRIX_CASES = [("planar", model, 20_000, seed)
                 for model in ("avg3", "rc3", "rc5-sqrt") for seed in (2, 9)]
SAMPLE_CASES = [
    ("planar", "avg3", RANKING_GROUPS, 400, 4, 7, 0.1),
    ("planar", "avg4-ties-second", RANKING_GROUPS, 300, 3, 8, None),
    ("planar", "rc3", MATCHING_GROUPS, 300, 4, 7, 0.1),
    ("planar", "rc5-sqrt", MATCHING_GROUPS, 200, 3, 8, None),
    ("lb1-3", "avg3", RANKING_GROUPS, 500, 3, 1, 0.05),
]


def _instances():
    return {"planar": instance_from_json(INSTANCE.read_text()),
            "lb1-3": lb1_instance(3)}


def _hex_matrix(p):
    return [[None if i == j else float(v).hex() for j, v in enumerate(row)]
            for i, row in enumerate(p)]


def _pk(insts, name, model, pair, trials, seed):
    res = monte_carlo_pk(insts[name], MODELS[model], *pair, trials, seed)
    return [res.value.hex(), res.stderr.hex()]


def _pmatrix(insts, name, model, trials, seed):
    pm = build_pmatrix(insts[name], MODELS[model], MonteCarlo(trials, seed))
    return _hex_matrix(pm.p)


def _sample(insts, name, model, mode, groups, trials, seed, epsilon):
    cfg = SampleRunConfig(insts[name], MODELS[model], groups=groups,
                          trials=trials, seed=seed, mode=mode, epsilon=epsilon)
    return json.loads(empirical_distortion_trials(cfg).to_json())


def _outputs() -> dict:
    insts = _instances()
    return {
        "monte_carlo_pk": [_pk(insts, *case) for case in PK_CASES],
        "pmatrix": [_pmatrix(insts, *case) for case in PMATRIX_CASES],
        "sample": [_sample(insts, *case) for case in SAMPLE_CASES],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def insts():
    return _instances()


@pytest.mark.parametrize("case", range(len(PK_CASES)))
def test_monte_carlo_pk_matches_golden(golden, insts, case):
    assert _pk(insts, *PK_CASES[case]) == golden["monte_carlo_pk"][case]


@pytest.mark.parametrize("case", range(len(PMATRIX_CASES)))
def test_mc_pmatrix_matches_golden(golden, insts, case):
    assert _pmatrix(insts, *PMATRIX_CASES[case]) == golden["pmatrix"][case]


@pytest.mark.parametrize("case", range(len(SAMPLE_CASES)))
def test_sample_report_matches_golden(golden, insts, case):
    assert _sample(insts, *SAMPLE_CASES[case]) == golden["sample"][case]


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import random_euclidean_instance

    DATA.mkdir(exist_ok=True)
    if not INSTANCE.exists():
        INSTANCE.write_text(instance_to_json(
            random_euclidean_instance(np.random.default_rng(14), 5, 8)) + "\n")
    GOLDEN.write_text(json.dumps(_outputs(), indent=1) + "\n")
