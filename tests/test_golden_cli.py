"""CLI outputs pinned byte for byte to a committed fixture.

Each command runs through `cli.main` in-process, inside a temporary
directory with relative paths, so no absolute path reaches an output. Its
exit code, stdout, stderr and every file it writes or rewrites are
compared with `tests/data/golden_cli.json`. Commands run in order and
later ones read the instances earlier ones wrote. After a deliberate
change to an output, rewrite the fixture with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from delib.cli import main
from delib.models import BiasTransform, ModelConfig

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"

MODELS = {
    "avg2.json": ModelConfig("averaging", 2),
    "avg3.json": ModelConfig("averaging", 3),
    "rc3-sqrt.json": ModelConfig("random-choice", 3, g=BiasTransform("sqrt")),
}
COMMANDS = [
    "gen-instance --family lb1 --k 3 --out lb1.json",
    "gen-instance --family copeland-k2 --delta 1e-3 --out ck2.json",
    "validate --instance lb1.json",
    "validate --instance ck2.json --out validate.json",
    "pk --instance lb1.json --model avg3.json",
    "pk --instance lb1.json --model avg3.json --pair X,W",
    "pk --instance lb1.json --model avg3.json --trials 3000 --seed 4",
    "tournament --instance ck2.json --model avg2.json",
    "tournament --instance ck2.json --model avg2.json --trials 2000 --seed 3",
    "pipeline --instance ck2.json --model avg2.json",
    "pipeline --instance ck2.json --model avg2.json --trials 2000 --seed 3"
    " --out pipeline.json",
    "solve-avg --k 2",
    "solve-copeland-k2 --beta 3.4152",
    "solve-random --k 4",
    "solve-random --k 9 --g sqrt",
    "sweep-random --k-min 2 --k-max 8",
    "sweep-random --k-min 2 --k-max 8 --g sqrt --out sweep-sqrt.csv",
    "bounds --theta 0.2522 --samples 5,0.05,0.1",
    "sample-sim --instance lb1.json --model avg3.json --groups 40 --trials 3"
    " --seed 2 --out ranking.json",
    "sample-sim --instance ck2.json --model rc3-sqrt.json --groups 30"
    " --trials 2 --seed 5 --mode MatchingGroups --epsilon 0.1"
    " --out matching.json",
    "reproduce-tables --budget 5000 --out tables",
    "gen-instance --family theta2-extremal",
    "gen-instance --family example1 --n 4 --k 2 --delta 0.1",
    "gen-instance --family lb1",
    "gen-instance --family example1 --n 4",
    "gen-instance --family lb1 --k 3 --delta 0.5",
    "bounds --theta 0.25",
    "bounds --zeta 0.3 --samples 5,0.1,0.1",
    "bounds --samples 5,0.1,0.1",
    "bounds --samples 5",
]


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_text()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run_all() -> dict:
    """Each command's exit code, stdout, stderr and written files, run in
    order in a fresh directory holding only the model files."""
    outputs = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, model in MODELS.items():
            (root / name).write_text(model.to_json())
        os.chdir(root)
        try:
            for command in COMMANDS:
                before = _files(root)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(command.split())
                written = {name: text for name, text in _files(root).items()
                           if before.get(name) != text}
                outputs[command] = {"exit": code, "stdout": out.getvalue(),
                                    "stderr": err.getvalue(),
                                    "files": written}
        finally:
            os.chdir(cwd)
    return outputs


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def outputs():
    return _run_all()


def test_fixture_covers_every_command(golden):
    assert list(golden) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(golden, outputs, command):
    assert outputs[command] == golden[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_run_all(), indent=1) + "\n")
