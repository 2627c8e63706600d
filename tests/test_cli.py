"""Command-line interface: exit codes, payload shapes, determinism."""

import inspect
import json
import math

import pytest

from delib.bounds import copeland_distortion_from_theta
from delib.cli import build_parser, main
from delib.instances import FAMILIES
from delib.metric import instance_to_json, load_instance
from delib.models import ModelConfig


@pytest.fixture
def line_files(tmp_path, small_line_instance):
    inst = tmp_path / "inst.json"
    inst.write_text(instance_to_json(small_line_instance))
    model = tmp_path / "model.json"
    model.write_text(ModelConfig("averaging", 2).to_json())
    return str(inst), str(model)


def test_gen_instance_validate_round_trip(tmp_path, capsys):
    out = tmp_path / "lb1.json"
    assert main(["gen-instance", "--family", "lb1", "--k", "3",
                 "--out", str(out)]) == 0
    assert main(["validate", "--instance", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["command"] == "validate"


def test_gen_instance_meta_survives_load(tmp_path):
    out = tmp_path / "inst.json"
    main(["gen-instance", "--family", "copeland-k2", "--delta", "1e-3",
          "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["meta"]["config"] == {"family": "copeland-k2", "delta": 1e-3}
    inst = load_instance(str(out))      # extra keys are ignored on load
    assert "X" in inst.candidates


def test_gen_instance_missing_family_params_is_usage_error(capsys):
    assert main(["gen-instance", "--family", "lb1"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unused", [
    ("--family lb1 --k 3 --delta 0.5", "--delta"),
    ("--family theta2-extremal --k 4 --n 2", "--k, --n"),
])
def test_gen_instance_rejects_a_flag_its_family_does_not_take(
        tmp_path, capsys, argv, unused):
    # the flag used to vanish: exit 0, and no trace of it in meta.config
    out = tmp_path / "inst.json"
    assert main(["gen-instance", *argv.split(), "--out", str(out)]) == 2
    family = argv.split()[1]
    assert capsys.readouterr().err == (
        f"usage error: family {family} takes no {unused}\n")
    assert not out.exists()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_parameter_is_a_gen_instance_flag(family):
    # gen-instance passes each builder parameter from the flag of its name
    names = list(inspect.signature(FAMILIES[family]).parameters)
    argv = ["gen-instance", "--family", family]
    for name in names:
        argv += [f"--{name}", "1"]
    args = build_parser().parse_args(argv)
    assert all(getattr(args, name) == 1 for name in names)


def test_validate_rejects_bad_instance(tmp_path, capsys):
    doc = {
        "candidates": ["A", "B"],
        "locations": [{"id": "u", "mass": 1.0}],
        "distances": {"A|B": 10.0, "A|u": 1.0, "B|u": 2.0},
    }
    # d(A,B) = 10 > d(A,u) + d(u,B): triangle inequality fails
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--instance", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["violations"]


def test_validate_reports_a_nan_distance_as_non_finite_only(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"candidates": ["A", "B"], "locations": [{"id": "u", "mass": 1}], '
        '"distances": {"A|B": NaN, "A|u": 1, "B|u": 1}}')
    assert main(["validate", "--instance", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == ["non-finite distance"]


def test_gen_instance_rejects_an_example1_delta_past_one(capsys):
    assert main(["gen-instance", "--family", "example1", "--n", "3",
                 "--k", "2", "--delta", "1.5"]) == 1
    _assert_error(capsys, "delta must be in (0, 1]")


@pytest.mark.parametrize("masses", [("1e308", "1e308"),
                                    ("Infinity", "-Infinity")])
def test_validate_reports_unsummable_masses(tmp_path, capsys, masses):
    # json.loads reads 1e308 and Infinity; math.fsum raises on their sums
    u, v = masses
    path = tmp_path / "bad.json"
    path.write_text(
        '{"candidates": ["A", "B"], "locations": '
        f'[{{"id": "u", "mass": {u}}}, {{"id": "v", "mass": {v}}}], '
        '"distances": {"A|B": 1, "A|u": 1, "B|u": 1, "A|v": 1, "B|v": 1, '
        '"u|v": 1}}')
    assert main(["validate", "--instance", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["violations"]


def test_pk_exact_payload(line_files, capsys):
    inst, model = line_files
    assert main(["pk", "--instance", inst, "--model", model,
                 "--pair", "A,B"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "pk"
    assert payload["method"] == "Exact"
    assert 0.0 <= payload["value"] <= 1.0
    assert payload["stderr"] == 0.0


@pytest.mark.parametrize("field, value", [
    ("k", 3.7), ("k", True), ("tie_to_first", "false"), ("k", None),
    ("g", None),
])
def test_pk_rejects_malformed_model_file(tmp_path, capsys, field, value):
    inst = tmp_path / "lb1.json"
    assert main(["gen-instance", "--family", "lb1", "--k", "3",
                 "--out", str(inst)]) == 0
    doc = json.loads(ModelConfig("averaging", 3).to_json())
    doc[field] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert main(["pk", "--instance", str(inst), "--model", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _null_distance(doc):
    doc["distances"][next(iter(doc["distances"]))] = None
    return doc


@pytest.mark.parametrize("edit", [
    lambda doc: {**doc, "locations": [{**doc["locations"][0], "mass": None},
                                      *doc["locations"][1:]]},
    lambda doc: {**doc, "locations": [{**doc["locations"][0], "mass": "0.5"},
                                      *doc["locations"][1:]]},
    lambda doc: {**doc, "candidates": "".join(doc["candidates"])},
    _null_distance,
    lambda doc: [1],
], ids=["null-mass", "string-mass", "string-candidates", "null-distance",
        "not-an-object"])
def test_pk_rejects_malformed_instance_file(tmp_path, capsys, edit):
    inst = tmp_path / "lb1.json"
    assert main(["gen-instance", "--family", "lb1", "--k", "3",
                 "--out", str(inst)]) == 0
    inst.write_text(json.dumps(edit(json.loads(inst.read_text()))))
    model = tmp_path / "model.json"
    model.write_text(ModelConfig("averaging", 3).to_json())
    capsys.readouterr()
    assert main(["pk", "--instance", str(inst), "--model", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_pk_monte_carlo_reports_stderr(line_files, capsys):
    inst, model = line_files
    assert main(["pk", "--instance", inst, "--model", model,
                 "--trials", "500", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "MonteCarlo"
    assert payload["stderr"] > 0.0
    assert payload["seed"] == 5


def test_pipeline_payload(line_files, capsys):
    inst, model = line_files
    assert main(["pipeline", "--instance", inst, "--model", model]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winner"] in ("A", "B", "C")
    assert payload["distortion"] >= 1.0
    assert payload["social_optimum"] == "B"


def test_bounds_requires_some_input():
    assert main(["bounds"]) == 2


def test_bounds_rejects_theta_with_zeta(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--theta", "0.2", "--zeta", "0.3"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_bounds_has_no_k_flag(capsys):
    # no bound formula reads k: the flag was only echoed into the config
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--theta", "0.25", "--k", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k 3" in capsys.readouterr().err


def test_bounds_rejects_theta_out_of_range(capsys):
    assert main(["bounds", "--theta", "1.5"]) == 1
    assert "error" in capsys.readouterr().err


def test_bounds_payload(capsys):
    assert main(["bounds", "--theta", "0.25",
                 "--samples", "5,0.05,0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["copeland_upper"] == pytest.approx(25.0 / 9.0)
    assert payload["samples_averaging"] == 1060


@pytest.mark.parametrize("epsilon", ["1e-160", "1e-200"])
def test_bounds_rejects_an_epsilon_too_small_to_count(capsys, epsilon):
    assert main(["bounds", "--samples", f"5,{epsilon},0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_pk_rejects_a_group_too_large_for_exact_enumeration(tmp_path, capsys):
    inst = tmp_path / "lb1.json"
    assert main(["gen-instance", "--family", "lb1", "--k", "3",
                 "--out", str(inst)]) == 0
    model = tmp_path / "model.json"
    model.write_text(ModelConfig("averaging", 1030).to_json())
    capsys.readouterr()
    assert main(["pk", "--instance", str(inst), "--model", str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "1030" in captured.err
    assert "Traceback" not in captured.err


def test_missing_instance_file_is_runtime_error(capsys):
    assert main(["validate", "--instance", "/nonexistent/inst.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_solve_avg_k2_rejects_a_box_budget(capsys):
    # solve_theta2 takes no box budget: accepting --budget would report a
    # budget the solve never used
    assert main(["solve-avg", "--k", "2", "--budget", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --budget applies to --k 3 only\n"


@pytest.mark.parametrize("cmd", [["solve-avg", "--k", "3", "--budget", "-5"],
                                 ["solve-copeland-k2", "--beta", "3.4152",
                                  "--budget", "-1"]])
def test_solve_commands_reject_a_negative_budget(capsys, cmd):
    # a negative box budget reported a vacuous or partial bound with exit 0
    assert main(cmd) == 1
    _assert_error(capsys, f"max_boxes must be non-negative, got {cmd[-1]}")


def test_solve_random_names_an_unparseable_transform(capsys):
    assert main(["solve-random", "--k", "4", "--g", "pow:abc"]) == 1
    _assert_error(capsys, "cannot parse transform 'pow:abc'")


def test_solve_avg_reports_a_vacuous_theta3_bound(capsys):
    # at 100 boxes some case bound is still th's root edge 1: rigorous, but
    # outside the bound formulas' domain, so their fields are null
    assert main(["solve-avg", "--k", "3", "--budget", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 1.0
    for key in ("copeland_distortion_upper", "det_lb_at_bound",
                "rand_lb_at_bound"):
        assert payload[key] is None, key


def test_solve_random_payload(capsys):
    assert main(["solve-random", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "solve-random"
    assert payload["zeta"] == pytest.approx(1.0 - 2.0 ** -0.5, abs=1e-6)
    assert payload["distortion_upper"] == pytest.approx(3.3431457, abs=1e-4)
    assert payload["incumbent_exact_pk"] >= 0.5
    assert payload["incumbent_gap"] <= 1e-9


def _assert_error(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("cmd", [["solve-random", "--k", "3"],
                                 ["sweep-random", "--k-min", "2",
                                  "--k-max", "3"]])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_random_commands_reject_nonfinite_omega_tol(capsys, cmd, tol):
    assert main(cmd + ["--omega-tol", tol]) == 1
    _assert_error(capsys, f"omega_tol must be positive and finite, got {tol}")


@pytest.mark.parametrize("cmd", ["tournament", "pipeline"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-09", "-0.6"])
def test_tournament_commands_reject_a_nonfinite_tol(line_files, capsys, cmd,
                                                    tol):
    inst, model = line_files
    assert main([cmd, "--instance", inst, "--model", model,
                 f"--tol={tol}"]) == 1
    _assert_error(capsys, f"tol must be non-negative and finite, got {tol}")


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.1"])
def test_sample_sim_rejects_an_epsilon_not_non_negative_and_finite(
        line_files, capsys, epsilon):
    inst, model = line_files
    assert main(["sample-sim", "--instance", inst, "--model", model,
                 "--groups", "20", "--epsilon", epsilon]) == 1
    _assert_error(capsys,
                  f"epsilon must be non-negative and finite, got {epsilon}")


def test_solve_copeland_k2_rejects_a_nan_tol(capsys):
    # no gap is <= NaN, so each solve would run to its budget and exit 0
    assert main(["solve-copeland-k2", "--beta", "3.4152", "--tol", "nan",
                 "--budget", "10"]) == 1
    _assert_error(capsys, "tol must be non-negative and finite, got nan")


@pytest.mark.parametrize("beta", ["inf", "nan", "0.0"])
def test_solve_copeland_k2_rejects_a_nonfinite_beta(capsys, beta):
    assert main(["solve-copeland-k2", "--beta", beta, "--budget", "10"]) == 1
    _assert_error(capsys, f"beta must be positive and finite, got {beta}")


@pytest.mark.parametrize("beta", ["1e-310", "2e-308"])
def test_solve_copeland_k2_names_a_beta_too_small(capsys, beta):
    # 2 / beta overflowed in the enclosures, which blamed the variable bounds
    assert main(["solve-copeland-k2", "--beta", beta, "--budget", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: beta")
    assert "RuntimeWarning" not in captured.err


def test_pk_names_an_unknown_candidate(line_files, capsys):
    inst, model = line_files
    assert main(["pk", "--instance", inst, "--model", model,
                 "--pair", "A,Z"]) == 1
    _assert_error(capsys, "unknown candidate 'Z'")


@pytest.mark.parametrize("field", ["k", "variant"])
def test_pk_names_a_missing_model_field(line_files, tmp_path, capsys, field):
    inst, _ = line_files
    doc = json.loads(ModelConfig("averaging", 2).to_json())
    del doc[field]
    model = tmp_path / "partial.json"
    model.write_text(json.dumps(doc))
    assert main(["pk", "--instance", inst, "--model", str(model)]) == 1
    _assert_error(capsys, f"model field {field!r} is missing")


def test_solve_random_audits_groups_past_exact_enumeration(capsys):
    # past models._MAX_EXACT_K the binomials overflow a float, so the
    # two-atom witness is audited with log-space weights
    assert main(["solve-random", "--k", "1030"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert math.isfinite(payload["incumbent_exact_pk"])
    assert payload["incumbent_exact_pk"] >= 0.5 - 1e-9
    assert payload["incumbent_gap"] <= 1e-9


def test_sweep_csv_shape_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["sweep-random", "--k-min", "2", "--k-max", "4",
            "--alpha-step", "1e-2"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()     # byte-identical reruns
    lines = text.strip().split("\n")
    assert lines[0].startswith("# delib ")
    meta = json.loads(lines[0].removeprefix("# delib "))
    assert meta["command"] == "sweep-random"
    assert lines[1] == "k,zeta,alpha,omega,distortion_upper,det_lb,rand_lb"
    assert len(lines) == 5              # comment + header + k = 2,3,4
    assert [row.split(",")[0] for row in lines[2:]] == ["2", "3", "4"]


def test_sample_sim_writes_json_and_csv(tmp_path, line_files):
    inst, model = line_files
    out = tmp_path / "run.json"
    assert main(["sample-sim", "--instance", inst, "--model", model,
                 "--groups", "200", "--trials", "3", "--seed", "2",
                 "--epsilon", "0.1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 3
    assert len(payload["winners"]) == 3
    csv_path = tmp_path / "run.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("# delib ")
    assert lines[1] == "trial,winner,distortion,max_error"
    assert len(lines) == 5


def test_reproduce_tables_files_and_thread_invariance(tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert main(["reproduce-tables", "--out", str(out), "--budget",
                     "3000", "--threads", threads]) == 0
        outs.append(out)
    sweep_header = "k,zeta,alpha,omega,distortion_upper,det_lb,rand_lb"
    headers = {"table1.csv": "k,theta_lower,theta_upper,copeland_upper,det_lb",
               "table2.csv": sweep_header, "fig1.csv": sweep_header,
               "fig2.csv": sweep_header}
    for name, header in headers.items():
        text = (outs[0] / name).read_text()
        # --threads caps concurrent solves and never changes a number
        assert text == (outs[1] / name).read_text(), name
        meta, head, *rows = text.strip().split("\n")
        assert json.loads(meta.removeprefix("# delib "))["command"] == \
            "reproduce-tables"
        assert head == header
        assert rows
    rows = (outs[0] / "table1.csv").read_text().strip().split("\n")[2:]
    k3 = dict(zip(headers["table1.csv"].split(","), rows[1].split(",")))
    assert k3["k"] == "3"
    if float(k3["theta_upper"]) >= 1.0:
        # a vacuous bound of 1 is still written, with no distortion bound
        assert k3["copeland_upper"] == "nan"
    else:
        assert float(k3["copeland_upper"]) == copeland_distortion_from_theta(
            float(k3["theta_upper"]))


@pytest.mark.parametrize("flag, value, message", [
    ("--budget", "-1", "max_boxes must be non-negative, got -1"),
    ("--tol", "-1", "tol must be non-negative and finite, got -1.0"),
])
def test_reproduce_tables_rejects_a_bad_flag_without_a_directory(
        tmp_path, capsys, flag, value, message):
    # the directory was made before any solve checked its flags, so a
    # usage fault left an empty one behind
    out = tmp_path / "t"
    assert main(["reproduce-tables", "--out", str(out), flag, value]) == 1
    _assert_error(capsys, message)
    assert not out.exists()
