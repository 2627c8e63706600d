"""Exact P-matrices pinned bit for bit to a committed fixture.

build_pmatrix(..., "exact") enumerates multisets of bias atoms with
multinomial weights; any change to how it weighs, decides or sums them
shows here as a changed float. Lattice instances (a line and an L1 grid)
have integer distance differences, so their pairs merge locations into
different atom counts and their group sums tie; planar instances have one
atom per location. Floats are stored as float.hex. After a deliberate
change to exact enumeration, rewrite the fixture with

    PYTHONPATH=src python tests/test_golden_pmatrix.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from delib.models import BiasTransform, ModelConfig
from delib.tournament import build_pmatrix

from conftest import (
    instance_at, line_lattice_instance, random_euclidean_instance,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_pmatrix.json"


def grid_lattice_instance(m, n, seed):
    """m candidates and n locations at distinct random points of the 6 x 6
    integer grid, with L1 distances."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(36, m + n, replace=False)
    names = [f"c{i}" for i in range(m)] + [f"v{i}" for i in range(n)]
    pos = {p: divmod(int(c), 6) for p, c in zip(names, cells)}
    return instance_at(pos, m, n, seed,
                       lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]))


def _instances():
    return {
        "line4": line_lattice_instance(4, 7, 1),
        "line5": line_lattice_instance(5, 9, 2),
        "line6": line_lattice_instance(6, 6, 3),
        "grid5": grid_lattice_instance(5, 8, 4),
        "grid6": grid_lattice_instance(6, 6, 5),
        "planar4": random_euclidean_instance(np.random.default_rng(6), 4, 7),
        "planar6": random_euclidean_instance(np.random.default_rng(7), 6, 5),
        "planar5": random_euclidean_instance(np.random.default_rng(8), 5, 12),
    }


SQRT_07 = dict(g=BiasTransform("sqrt"), beta=0.7)
# (instance, model): k = 2..9 under both rules, both tie conventions and
# beta < 1, on lattice and planar instances
CASES = [
    ("line4", ModelConfig("averaging", 2)),
    ("line4", ModelConfig("random-choice", 3, all_zero_to_first=False,
                          **SQRT_07)),
    ("line5", ModelConfig("averaging", 3, tie_to_first=False)),
    ("line5", ModelConfig("random-choice", 4)),
    ("line6", ModelConfig("averaging", 6)),
    ("line6", ModelConfig("random-choice", 5, beta=0.7)),
    ("grid5", ModelConfig("averaging", 4)),
    ("grid5", ModelConfig("averaging", 7, tie_to_first=False)),
    ("grid5", ModelConfig("random-choice", 8, g=BiasTransform("pow", 0.5),
                          beta=0.7, all_zero_to_first=False)),
    ("grid6", ModelConfig("averaging", 9)),
    ("grid6", ModelConfig("random-choice", 2, all_zero_to_first=False)),
    ("planar4", ModelConfig("averaging", 5, tie_to_first=False)),
    ("planar4", ModelConfig("random-choice", 9, **SQRT_07)),
    ("planar6", ModelConfig("averaging", 8)),
    ("planar6", ModelConfig("random-choice", 6, beta=0.0)),
    ("planar5", ModelConfig("averaging", 6, tie_to_first=False)),
]


def _pmatrix(insts, name, model):
    p = build_pmatrix(insts[name], model, "exact").p
    return [[None if i == j else float(v).hex() for j, v in enumerate(row)]
            for i, row in enumerate(p)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def insts():
    return _instances()


@pytest.mark.parametrize("case", range(len(CASES)))
def test_exact_pmatrix_matches_golden(golden, insts, case):
    assert _pmatrix(insts, *CASES[case]) == golden[case]


if __name__ == "__main__":
    insts = _instances()
    GOLDEN.write_text(json.dumps(
        [_pmatrix(insts, *case) for case in CASES], indent=1) + "\n")
