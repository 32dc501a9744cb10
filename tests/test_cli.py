"""End-to-end command-line checks against the shipped scenario files."""

import errno
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import tempdiag.cli
import tempdiag.report
from tempdiag import (
    ModeAssignment,
    StreamRevision,
    resolve_initial_distributions,
)
from tempdiag.cli import main
from tempdiag.modelio import load_model
from tempdiag.temporal import SpelledPaths, forward_paths

from conftest import SCENARIOS, WriteRecorder
from propsuites import random_assignment, random_model
from reference import (
    conditional_probability,
    edge_factors,
    model_to_dict,
    prior_probability,
    step_factors,
)

ROOT = SCENARIOS.parent
HYDRAULIC = str(SCENARIOS / "hydraulic_model.json")
HYDRAULIC_OBS = str(SCENARIOS / "hydraulic_obs.json")
OCCLUSION = str(SCENARIOS / "occlusion_onset_model.json")
OCCLUSION_OBS = str(SCENARIOS / "occlusion_onset_obs.json")
SUDDEN = str(SCENARIOS / "sudden_stop_model.json")
SUDDEN_OBS = str(SCENARIOS / "sudden_stop_obs.json")


def desk_cases():
    """The desk workload of bench/gen.py: each shipped scenario through all
    six subcommands, diagnose in four configurations. The goldens under
    bench/golden are their reports, captured from the CLI."""
    cases = []
    scenarios = ("hydraulic", "occlusion_onset", "sudden_stop")
    for k, criterion, mode, sigma, revise in [
            (0, "abductive", "global", 0.01, False),
            (1, "abductive", "global", 0.0, True),
            (2, "consistency", "per-component", 0.01, True),
            (3, "consistency", "global", 0.0, False)]:
        for s in scenarios:
            argv = ["diagnose", f"scenarios/{s}_model.json",
                    f"scenarios/{s}_obs.json", "--sigma", repr(sigma),
                    "--threshold-mode", mode, "--criterion", criterion]
            cases.append(pytest.param(
                f"{s}_diagnose{k}", argv + ["--revise"] * revise,
                id=f"{k}-{criterion}-{mode}-{sigma}-{revise}-{s}"))
    for s in scenarios:
        model, obs = f"scenarios/{s}_model.json", f"scenarios/{s}_obs.json"
        for name, argv in [
                ("validate", ["validate", model, obs]),
                ("classify", ["classify", model]),
                ("propagate", ["propagate", model, "--instants", "0,1,2"]),
                ("simulate", ["simulate", model, "--horizon", "4"]),
                ("rank", ["rank", model, f"bench/desk/{s}_trajectories.json"])]:
            cases.append(pytest.param(f"{s}_{name}", argv, id=f"{name}-{s}"))
    return cases


DESK_CASES = desk_cases()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, expect=0):
    code, out, err = run(capsys, *argv)
    assert code == expect, err
    return json.loads(out)


def child(*args, env=(), **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a child process that finds the package under
    ``src``, with the variables ``env`` added to its environment."""
    src = str(ROOT / "src")
    return subprocess.run([sys.executable, *args], env={
        **os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])), **dict(env)},
        **kwargs)


def run_process(argv, hash_seed):
    """The CLI in a child process under a string-hash seed: its exit code
    and stdout."""
    done = child("-m", "tempdiag.cli", *argv, capture_output=True,
                 env={"PYTHONHASHSEED": hash_seed})
    return done.returncode, done.stdout


class TestValidate:
    def test_model_only(self, capsys):
        report = run_json(capsys, "validate", HYDRAULIC)
        assert report["ok"] is True
        assert report["model"]["components"] == ["P", "C"]

    def test_model_and_stream(self, capsys):
        report = run_json(capsys, "validate", HYDRAULIC, HYDRAULIC_OBS)
        assert report["observations"]["instants"] == [0, 1]

    def test_bad_model_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"components": [{
            "id": "X", "modes": ["a", "b"], "correct_mode": "a",
            "matrix": [[0.5, 0.6], [0.5, 0.5]],
        }]}))
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "row_sum"
        assert error["file"] == str(bad)
        assert "row_sum" in err

    def test_nan_matrix_row_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"components": [{"id": "X", "modes": ["a", "b", "c"], '
                       '"correct_mode": "a", "matrix": [[1, 0, 0], '
                       '[NaN, NaN, NaN], [0, 0, 1]]}]}')
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "entry_out_of_range"
        assert error["element"] == ["b", "a"]

    def test_duplicate_mode_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps({"components": [{
            "id": "X", "modes": ["a", "a"], "correct_mode": "a",
            "matrix": [[0.5, 0.5], [0, 1]],
        }]}))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        error = json.loads(out)["error"]
        assert (error["code"], error["element"]) == ("invalid_input", "X")

    @pytest.mark.parametrize("command", ["validate", "diagnose"])
    def test_empty_stream_exits_1(self, capsys, tmp_path, command):
        """``validate`` and ``diagnose`` agree that a stream of no entries
        is invalid input, and both name its file."""
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        code, out, err = run(capsys, command, HYDRAULIC, str(empty))
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "empty_stream", "element": None, "file": str(empty),
            "message": "observation stream has no entries"}
        assert "empty_stream" in err

    def test_missing_file_exits_1(self, capsys):
        code, out, _ = run(capsys, "validate", "/no/such/file.json")
        assert code == 1
        assert json.loads(out)["error"]["code"] == "invalid_input"

    @pytest.mark.parametrize("bad, element", [
        ("observation", "zz_a"),
        ("exclusive", "qq_x"),
        ("rule_body", ["X", "m"]),
    ])
    def test_first_bad_atom_in_sorted_order(self, tmp_path, bad, element):
        """Of several bad atoms in one set, the error names the first in
        sorted order, whatever the string-hash seed."""
        model = json.loads(Path(HYDRAULIC).read_text())
        argv = ["validate", str(tmp_path / "model.json")]
        if bad == "observation":
            obs = tmp_path / "obs.json"
            obs.write_text(json.dumps([{"t": 0, "present": [
                "zz_a", "zz_b", "zz_c", "zz_d"]}]))
            argv.append(str(obs))
        elif bad == "exclusive":
            model["exclusive"].append(["qq_x", "qq_y"])
        else:
            model["rules"].append({"head": "dry", "body": [
                {"component": "Y", "mode": "m"},
                {"component": "X", "mode": "m"}]})
        (tmp_path / "model.json").write_text(json.dumps(model))
        outputs = {run_process(argv, seed) for seed in ("1", "3", "4")}
        assert len(outputs) == 1
        code, out = outputs.pop()
        assert code == 1
        assert json.loads(out)["error"]["element"] == element

    @pytest.mark.parametrize("argv", [
        ["validate", str(SCENARIOS)],
        ["diagnose", HYDRAULIC, str(SCENARIOS)],
        ["diagnose", HYDRAULIC, ""],
        ["validate", "./scenarios//"],
    ], ids=["model", "observations", "empty-observations", "unnormalized"])
    def test_directory_exits_1(self, capsys, monkeypatch, argv):
        monkeypatch.chdir(ROOT)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "invalid_input"
        # the path as given, not as pathlib would normalize it
        assert error["file"] == error["element"] == argv[-1]


class TestClassify:
    def test_hydraulic_fault_taxonomy(self, capsys):
        report = run_json(capsys, "classify", HYDRAULIC)
        faults_p = report["components"]["P"]["faults"]
        faults_c = report["components"]["C"]["faults"]
        for mode, table in (("broken", faults_p), ("occluded", faults_p),
                            ("punctured", faults_c)):
            assert table[mode]["permanent"] is True
            assert table[mode]["irreversible"] is True
        assert all(entry["irreversible"]
                   for entry in {**faults_p, **faults_c}.values())
        assert report["components"]["P"]["states"]["leaking"] == "transient"


class TestPropagate:
    def test_container_distribution_table(self, capsys):
        report = run_json(capsys, "propagate", HYDRAULIC, "--instants", "0,1")
        table = report["components"]["C"]["distributions"]
        assert table[0]["probabilities"] == [0.0, 0.0, 1.0]
        assert table[1]["probabilities"] == pytest.approx([0, 1 / 10, 9 / 10],
                                                          abs=1e-12)

    def test_bad_instants_exit_1(self, capsys):
        code, *_ = run(capsys, "propagate", HYDRAULIC, "--instants", "x,y")
        assert code == 1

    def test_negative_instant_named(self, capsys):
        # the first negative instant, as validate_stream names a time point
        report = run_json(capsys, "propagate", HYDRAULIC, "--instants",
                          "0,-3,-1", expect=1)
        assert report["error"] == {
            "code": "invalid_input", "element": -3, "file": None,
            "message": "time points must be nonnegative, got -3"}

    @pytest.mark.parametrize("instants", [",", "", "0,,2"])
    @pytest.mark.parametrize("command", [["propagate"],
                                         ["simulate", "--horizon", "3"]],
                             ids=["propagate", "simulate"])
    def test_blank_instants_exit_1(self, capsys, command, instants):
        report = run_json(capsys, command[0], HYDRAULIC, *command[1:],
                          "--instants", instants, expect=1)
        assert report["error"]["code"] == "invalid_input"


class TestDiagnose:
    def test_sudden_stop_single_diagnosis(self, capsys):
        report = run_json(capsys, "diagnose", SUDDEN, SUDDEN_OBS,
                          "--sigma", "0.01")
        assert len(report["diagnoses"]) == 1
        (diagnosis,) = report["diagnoses"]
        assert [s["assignment"] for s in diagnosis["trajectory"]] == [
            {"C": "correct", "P": "correct"},
            {"C": "correct", "P": "broken"},
        ]
        assert diagnosis["joint_probability"] == pytest.approx(9 / 500,
                                                               abs=1e-12)

    def test_occlusion_with_revision(self, capsys):
        report = run_json(capsys, "diagnose", OCCLUSION, OCCLUSION_OBS,
                          "--revise")
        top = report["diagnoses"][0]
        assert top["joint_probability"] == pytest.approx(3 / 10, abs=1e-12)
        assert top["trajectory"][0]["assignment"]["P"] == "occluded"

        revision = report["revision"][1]
        assert revision["normalization_factor"] == pytest.approx(50 / 21,
                                                                 abs=1e-12)
        revised = sorted(e["revised"] for e in revision["revised_conditionals"])
        assert revised == pytest.approx([0, 6 / 7, 15 / 7], abs=1e-12)
        assert revision["components"]["C"]["mass_factor"] == \
            pytest.approx(10 / 9, abs=1e-12)
        assert revision["components"]["P"]["mass_factor"] == \
            pytest.approx(15 / 7, abs=1e-12)

    def test_report_contains_trellis(self, capsys):
        report = run_json(capsys, "diagnose", SUDDEN, SUDDEN_OBS)
        (block,) = report["trellis"]
        assert block["from_t"] == 0 and block["to_t"] == 1
        conditionals = {e["target"]: e["conditional"] for e in block["edges"]}
        assert conditionals[1] == pytest.approx(9 / 500, abs=1e-12)

    def test_filtered_out_exits_2(self, capsys):
        code, out, _ = run(capsys, "diagnose", SUDDEN, SUDDEN_OBS,
                           "--sigma", "0.99")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "no_admissible_evolution"

    def test_unexplainable_observation_exits_2(self, capsys, tmp_path):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([
            {"t": 0, "present": ["flow_out(P)", "no_flow_out(P)"],
             "absent": []}]))
        code, out, _ = run(capsys, "diagnose", HYDRAULIC, str(obs))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "no_candidates_at_instant"
        assert error["element"] == 0

    def test_subnormal_joint_sum_exits_2(self, capsys, tmp_path):
        # a self-loop of 1e-160 makes the joint 1e-320 at t=2: subnormal,
        # so its reciprocal, the normalization factor, overflows
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "components": [{"id": "X", "modes": ["a", "b"],
                            "correct_mode": "a",
                            "matrix": [[1e-160, 1.0], [0.0, 1.0]],
                            "initial_distribution": [1.0, 0.0]}],
            "rules": [{"body": [{"component": "X", "mode": "a"}],
                       "head": "ok"}],
        }))
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([{"t": t, "present": ["ok"]}
                                   for t in range(3)]))
        report = run_json(capsys, "diagnose", str(model), str(obs))
        assert report["diagnoses"][0]["joint_probability"] == 1e-160 * 1e-160
        code, out, _ = run(capsys, "diagnose", str(model), str(obs),
                           "--revise")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "all_zero_joints"

    @pytest.mark.parametrize("p, last, code, message", [
        # the admitted mass is too little at t=56, the joints at t=57
        (3.1293310394578474e-06, 57, "zero_admitted_mass",
         "admitted modes ['a'] carry probability 5.562684646268003e-309, "
         "too little to renormalize"),
        # the joints at t=67, the admitted mass at t=68
        (2.507167502187581e-05, 68, "all_zero_joints",
         "joint probabilities sum to 5.562684646267994e-309, too little to "
         "renormalize; revision is undefined"),
        # both at t=56: the joints are checked first
        (3.1262017084183895e-06, 57, "all_zero_joints",
         "joint probabilities sum to 5.25958866486319e-309, too little to "
         "renormalize; revision is undefined"),
    ], ids=["mass-first", "joints-first", "same-instant"])
    def test_revision_errors_in_instant_order(self, capsys, tmp_path, p,
                                              last, code, message):
        """A one-component stream held in mode ``a`` from t=0: the joint
        is ``p`` multiplied left to right, the admitted mass ``P^t[a, a]``
        from squarings, so the two round differently and cross the
        overflow of their reciprocals at different instants. The first
        failure, instant by instant and the joints before the components,
        is the one reported."""
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "components": [{"id": "x", "modes": ["a", "b"],
                            "correct_mode": "a", "matrix": [[p, 1 - p],
                                                            [0, 1]],
                            "initial_distribution": [1, 0]}],
            "rules": [{"body": [{"component": "x", "mode": "a"}],
                       "head": "up"}]}))
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([{"t": t, "present": ["up"]}
                                   for t in range(last + 1)]))
        assert run(capsys, "diagnose", str(model), str(obs))[0] == 0
        exit_code, out, _ = run(capsys, "diagnose", str(model), str(obs),
                                "--revise")
        assert exit_code == 2
        assert json.loads(out) == {"error": {
            "code": code, "element": None, "file": None, "message": message}}

    def test_candidate_cap_exits_3(self, capsys):
        code, out, _ = run(capsys, "diagnose", HYDRAULIC, HYDRAULIC_OBS,
                           "--cap", "3")
        assert code == 3
        assert json.loads(out)["error"]["code"] == "search_space_too_large"

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_exits_1(self, capsys, cap):
        code, out, _ = run(capsys, "diagnose", HYDRAULIC, HYDRAULIC_OBS,
                           "--cap", cap)
        assert code == 1
        assert json.loads(out)["error"]["code"] == "invalid_input"

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run(capsys, "diagnose", OCCLUSION, OCCLUSION_OBS,
                          "--revise")
        _, second, _ = run(capsys, "diagnose", OCCLUSION, OCCLUSION_OBS,
                           "--revise")
        assert first == second

    def test_revised_report_independent_of_hash_seed(self):
        # per-component revision sums masses over sets of mode names, whose
        # iteration order follows the string-hash seed
        argv = ["diagnose", OCCLUSION, OCCLUSION_OBS, "--revise",
                "--criterion", "consistency", "--threshold-mode",
                "per-component", "--sigma", "0.01"]
        first, second = (run_process(argv, seed) for seed in ("0", "4"))
        assert first[0] == 0
        assert first == second

    def test_summary_on_stderr(self, capsys):
        _, _, err = run(capsys, "diagnose", SUDDEN, SUDDEN_OBS)
        assert "admissible evolution" in err

    def test_reversible_stream_matches_golden(self, capsys, monkeypatch):
        """30 instants of a reversible 3 x 4-mode model, gaps of 1 to 5,
        some instants with two candidates. Each revised distribution is
        pi0 . P^t; chaining the previous instant's through P^n changes its
        floats here, unlike on the shipped scenarios. Also a model with no
        components, through diagnose --revise and through rank with a
        trajectory, its prefix and a later start: every array has an empty
        last axis and the ranking key holds only instants. And a model whose
        matrices hold -0.0 for every zero, so that factors, conditionals,
        joints and revised scores print as -0.0."""
        monkeypatch.chdir(ROOT)
        data = "tests/data/"
        for golden, argv in [
                ("reversible_diagnose_revise",
                 ["diagnose", data + "reversible_model.json",
                  data + "reversible_obs.json", "--revise"]),
                ("zero_components_diagnose_revise",
                 ["diagnose", data + "zero_components_model.json",
                  data + "zero_components_obs.json", "--revise"]),
                ("zero_components_rank",
                 ["rank", data + "zero_components_model.json",
                  data + "zero_components_trajectories.json"]),
                ("negative_zero_diagnose_revise",
                 ["diagnose", data + "negative_zero_model.json",
                  "scenarios/sudden_stop_obs.json", "--criterion",
                  "consistency", "--revise"]),
                ("negative_zero_rank",
                 ["rank", data + "negative_zero_model.json",
                  data + "negative_zero_trajectories.json"])]:
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            assert out.encode() == (ROOT / data / golden).read_bytes()

    def test_one_revised_evolution_template_per_run(self, capsys,
                                                    monkeypatch):
        """The revised evolutions of all 30 instants share one row
        template: a template per instant would hold a placeholder per path
        cell, quadratic over a stream."""
        shapes, original = [], tempdiag.report.template

        def template(shape, nl):
            shapes.append(shape)
            return original(shape, nl)

        monkeypatch.setattr(tempdiag.report, "template", template)
        data = ROOT / "tests" / "data"
        code, _, err = run(capsys, "diagnose",
                           str(data / "reversible_model.json"),
                           str(data / "reversible_obs.json"), "--revise")
        assert code == 0, err
        assert sum("path" in shape for shape in shapes) == 1

    @pytest.mark.parametrize("revise", [[], ["--revise"]])
    def test_templates_built_once_per_run(self, capsys, monkeypatch,
                                          tmp_path, revise):
        """Cutting the 30-instant reversible stream to its first 10
        instants builds as many templates: none is built per instant."""
        calls, original = [], tempdiag.report.template

        def template(shape, nl):
            calls.append(shape)
            return original(shape, nl)

        monkeypatch.setattr(tempdiag.report, "template", template)
        data = ROOT / "tests" / "data"
        short = tmp_path / "obs.json"
        short.write_text(json.dumps(json.loads(
            (data / "reversible_obs.json").read_text())[:10]))
        counts = []
        for obs in (data / "reversible_obs.json", short):
            calls.clear()
            code, _, err = run(capsys, "diagnose",
                               str(data / "reversible_model.json"), str(obs),
                               *revise)
            assert code == 0, err
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("span", [1, 7, 64, 400])
    def test_reports_independent_of_span(self, capsys, monkeypatch, span):
        """A table item (a candidate set, trellis step, diagnosis, ranked
        trajectory or revised instant) with more cells than ``_SPAN``
        streams its rows; one with fewer is written as one text, and the
        numbers of consecutive ones are formatted together. At a span of 1
        everything with two cells or more streams; at 7 and 64 the two
        kinds mix. The revision's paths are spelled as the writer reads
        them: at 400 one read of the reversible stream's takes three
        layers or more of two paths or more each. Every diagnose and rank
        golden comes out the same, and a NaN in the last revised instant
        still raises before anything is written."""
        monkeypatch.chdir(ROOT)
        monkeypatch.setattr(tempdiag.report, "_SPAN", span)
        read, crossed = SpelledPaths.__getitem__, []

        def counted(spelled, cells):
            # the paths of each layer whose block the read takes cells of
            ends = np.array(spelled.cells)
            crossed.append((np.diff(ends) // np.arange(1, len(ends)))[
                (ends[:-1] < cells.stop) & (ends[1:] > cells.start)])
            return read(spelled, cells)

        monkeypatch.setattr(SpelledPaths, "__getitem__", counted)
        data = "tests/data/"
        goldens = [(ROOT / "bench" / "golden" / golden, argv)
                   for golden, argv in (case.values for case in DESK_CASES)
                   if argv[0] in ("diagnose", "rank")]
        for golden, argv in goldens + [
                (ROOT / data / "reversible_diagnose_revise",
                 ["diagnose", data + "reversible_model.json",
                  data + "reversible_obs.json", "--revise"]),
                (ROOT / data / "zero_components_diagnose_revise",
                 ["diagnose", data + "zero_components_model.json",
                  data + "zero_components_obs.json", "--revise"]),
                (ROOT / data / "negative_zero_diagnose_revise",
                 ["diagnose", data + "negative_zero_model.json",
                  "scenarios/sudden_stop_obs.json", "--criterion",
                  "consistency", "--revise"]),
                (ROOT / data / "negative_zero_rank",
                 ["rank", data + "negative_zero_model.json",
                  data + "negative_zero_trajectories.json"])]:
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            assert out.encode() == golden.read_bytes(), argv
        assert span != 400 or any(len(sizes) >= 3 and min(sizes) >= 2
                                  for sizes in crossed)

        revise = tempdiag.cli.revise_trellis

        def poisoned(trellis, model, table):
            revision = revise(trellis, model, table)
            joints = revision.revised_joints.copy()
            joints[-1] = float("nan")  # the last instant's last path
            return StreamRevision(**{**vars(revision),
                                     "revised_joints": joints})

        monkeypatch.setattr(tempdiag.cli, "revise_trellis", poisoned)
        with pytest.raises(ValueError):
            main(["diagnose", data + "reversible_model.json",
                  data + "reversible_obs.json", "--revise"])
        assert capsys.readouterr().out == ""

    def test_time_point_beyond_int64(self, capsys, tmp_path):
        """A time point no numpy integer holds is diagnosed and printed
        exactly. Revised, its joints underflow to 0, so revision is
        undefined."""
        big = 2 ** 70
        entries = json.loads(Path(HYDRAULIC_OBS).read_text())
        entries[1]["t"] = big
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps(entries))
        code, out, err = run(capsys, "diagnose", HYDRAULIC, str(obs))
        assert code == 0, err
        assert "1180591620717411303424" in out
        report = json.loads(out)
        assert report["instants"] == [0, big]
        assert [step["t"] for step in report["diagnoses"][0]["trajectory"]
                ] == [0, big]
        code, out, _ = run(capsys, "diagnose", HYDRAULIC, str(obs),
                           "--revise")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "all_zero_joints"

    @pytest.mark.parametrize("golden, argv", DESK_CASES)
    def test_desk_reports_match_goldens(self, capsys, monkeypatch, golden,
                                        argv):
        monkeypatch.chdir(ROOT)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out.encode() == (ROOT / "bench" / "golden" / golden).read_bytes()


@pytest.mark.parametrize("components", [
    [], [{"id": "x", "modes": ["ok"], "correct_mode": "ok",
          "matrix": [["1"]]}]], ids=["no-component", "one-mode"])
def test_degenerate_model_through_every_command(capsys, tmp_path,
                                                components):
    """A model with no component, or one component of a single mode, has
    one assignment: every instant has one candidate, whose rows are zero
    or one column wide, every step is certain and every joint 1."""
    model, obs, trajectories = (tmp_path / name for name in (
        "model.json", "obs.json", "trajectories.json"))
    model.write_text(json.dumps({"components": components, "rules": []}))
    obs.write_text(json.dumps([{"t": t} for t in (0, 2, 5)]))
    only = {c["id"]: "ok" for c in components}
    trajectories.write_text(json.dumps([[{"t": t, "assignment": only}
                                         for t in (0, 3)]]))

    report = run_json(capsys, "validate", str(model), str(obs))
    assert report["ok"] and report["model"]["components"] == list(only)
    report = run_json(capsys, "classify", str(model))
    assert {c: v["states"] for c, v in report["components"].items()} == {
        c: {"ok": "absorbing"} for c in only}
    report = run_json(capsys, "propagate", "--instants", "0,2", str(model))
    assert {c: [d["probabilities"] for d in v["distributions"]]
            for c, v in report["components"].items()} == {
        c: [[1.0], [1.0]] for c in only}

    report = run_json(capsys, "diagnose", str(model), str(obs), "--revise")
    assert report["candidates"] == [{"assignments": [only], "t": t}
                                    for t in (0, 2, 5)]
    assert report["priors"] == [1.0]
    assert [[(e["source"], e["target"], e["conditional"], e["factors"])
             for e in step["edges"]] for step in report["trellis"]] == [
        [(0, 0, 1.0, {c: 1.0 for c in only})]] * 2
    (diagnosis,) = report["diagnoses"]
    assert (diagnosis["joint_probability"], diagnosis["step_conditionals"],
            [w["assignment"] for w in diagnosis["trajectory"]]) == (
        1.0, [1.0, 1.0], [only] * 3)
    assert [(r["normalization_factor"], r["evolutions"],
             {c: (v["admitted"], v["mass_factor"])
              for c, v in r["components"].items()})
            for r in report["revision"]] == [
        (1.0, [{"joint": 1.0, "path": [0] * k, "revised_joint": 1.0}],
         {c: (["ok"], 1.0) for c in only}) for k in (1, 2, 3)]

    report = run_json(capsys, "simulate", "--horizon", "2", str(model))
    assert report["trajectory"]["modes"] == {c: ["ok"] * 3 for c in only}
    assert [(o["present"], o["absent"]) for o in report["observations"]] == [
        ([], [])] * 3
    (ranked,) = run_json(capsys, "rank", str(model),
                         str(trajectories))["trajectories"]
    assert (ranked["joint_probability"], ranked["prior"],
            ranked["step_conditionals"]) == (1.0, 1.0, [1.0])


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["diagnose", HYDRAULIC, HYDRAULIC_OBS, "--sigma", "abc"],
        ["diagnose", HYDRAULIC, HYDRAULIC_OBS, "--cap", "1.5"],
        ["diagnose", HYDRAULIC, HYDRAULIC_OBS, "--threshold-mode", "bogus"],
        ["simulate", HYDRAULIC, "--horizon", "x"],
        ["bogus", HYDRAULIC],
        [],
    ], ids=["sigma", "cap", "threshold-mode", "horizon", "unknown-command",
            "no-command"])
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert json.loads(out)["error"]["code"] == "invalid_input"
        assert err.startswith("error [invalid_input]: tempdiag")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out


#: A field of the hydraulic model, by its path, and a value of the wrong
#: JSON type for it.
MALFORMED_FIELDS = [
    (("components",), 5),
    (("rules",), 5),
    (("exclusive",), [5]),
    (("components", 0, "modes"), 5),
    (("components", 0, "modes"), [1, 2, 3, 4, 5]),
    (("rules", 0, "body"), 5),
    (("components", 0, "matrix", 0), 5),
    (("components", 0, "matrix", 0), ["1", "0", "0", "0"]),
    (("components", 0, "matrix", 0, 0), 10 ** 400),
    (("components", 0, "matrix", 0, 0), "1e999"),
    (("components", 0, "initial_distribution"), 5),
    (("rules", 0, "head"), ["x"]),
    (("rules", 0, "body", 0, "mode"), ["x"]),
    (("components", 0, "id"), ["x"]),
]


class TestMalformedInput:
    @pytest.mark.parametrize("t", ["x", 2.9, 2.0, True, None])
    def test_observation_time_must_be_integer(self, capsys, tmp_path, t):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([{"t": t, "present": [], "absent": []}]))
        code, out, _ = run(capsys, "diagnose", HYDRAULIC, str(obs))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "invalid_input"
        assert "'t' must be an integer" in error["message"]

    @pytest.mark.parametrize("t", ["0", 0.5, False])
    def test_trajectory_time_must_be_integer(self, capsys, tmp_path, t):
        path = tmp_path / "trajectories.json"
        path.write_text(json.dumps([
            [{"t": t, "assignment": {"P": "correct", "C": "correct"}}]]))
        code, out, _ = run(capsys, "rank", HYDRAULIC, str(path))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "invalid_input"
        assert "'t' must be an integer" in error["message"]

    @pytest.mark.parametrize("key, value", [
        ("present", "flow_out(P)"), ("absent", "flow_out(P)"),
        ("present", [1]), ("absent", [["flow_out(P)"]]),
        ("present", {"flow_out(P)": True}),
    ])
    def test_atoms_must_be_array_of_strings(self, capsys, tmp_path, key,
                                            value):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([{"t": 0, key: value}]))
        code, out, _ = run(capsys, "diagnose", HYDRAULIC, str(obs))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "invalid_input"
        assert error["element"] == key
        assert f"'{key}' must be an array of strings" in error["message"]

    # each entry is a string that contains the key being looked up
    @pytest.mark.parametrize("command, name, content", [
        ("diagnose", "obs.json", ["tx"]),
        ("rank", "trajectories.json", [["tx"]]),
        ("validate", "model.json", {"components": [], "rules": ["body"]}),
    ])
    def test_entries_must_be_objects(self, capsys, tmp_path, command, name,
                                     content):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        argv = ([command, str(path)] if command == "validate"
                else [command, HYDRAULIC, str(path)])
        code, out, _ = run(capsys, *argv)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "invalid_input"
        assert "expected an object" in error["message"]
        assert error["file"] == str(path)

    # without the check the last value would win: the trajectory would rank
    # as broken and the observation be diagnosed at t=3
    @pytest.mark.parametrize("command, name, text, key", [
        ("rank", "trajectories.json", '[[{"t": 0, "assignment": {"P": '
         '"correct", "C": "correct", "P": "broken"}}]]', "P"),
        ("diagnose", "obs.json",
         '[{"t": 0, "t": 3, "present": [], "absent": []}]', "t"),
        ("validate", "model.json",
         '{"rules": [], ' + Path(HYDRAULIC).read_text().lstrip()[1:], "rules"),
    ], ids=["trajectories", "observations", "model"])
    def test_repeated_key_exits_1(self, capsys, tmp_path, command, name,
                                  text, key):
        path = tmp_path / name
        path.write_text(text)
        argv = ([command, str(path)] if command == "validate"
                else [command, HYDRAULIC, str(path)])
        code, out, _ = run(capsys, *argv)
        assert code == 1
        error = json.loads(out)["error"]
        assert (error["code"], error["element"], error["file"]) == (
            "invalid_input", key, str(path))
        assert f"key {key!r} repeated" in error["message"]


    def test_huge_exponent_exits_1_at_once(self, capsys, tmp_path):
        """A matrix entry ``"1e999999999"`` is refused as infinite within a
        second (an exact fraction of it would take ``10**999999999``), and
        ``"1e-999999999"`` is read as 0."""
        model = json.loads(Path(HYDRAULIC).read_text())
        matrix = model["components"][1]["matrix"]
        path, reports = tmp_path / "model.json", []
        for entry, expect in (("1e999999999", 1), ("1e-999999999", 0)):
            matrix[0][1] = entry
            path.write_text(json.dumps(model))
            start = time.perf_counter()
            reports.append(run_json(capsys, "validate", str(path),
                                    expect=expect))
            assert time.perf_counter() - start < 1.0
        assert reports[0]["error"]["code"] == "invalid_input"
        assert reports[1]["ok"]

    @pytest.mark.parametrize("path, value", MALFORMED_FIELDS,
                             ids=[".".join(map(str, path)) + f"={value!r}"
                                  for path, value in MALFORMED_FIELDS])
    def test_model_fields_must_have_their_type(self, capsys, tmp_path, path,
                                               value):
        model = json.loads(Path(HYDRAULIC).read_text())
        target = model
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(model))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "invalid_input"
        assert error["file"] == str(bad)


    @pytest.mark.parametrize("shape", ["array", "object"])
    @pytest.mark.parametrize("command, name", [
        ("validate", "model.json"), ("diagnose", "obs.json"),
        ("rank", "trajectories.json")])
    def test_nesting_past_recursion_limit_exits_1(self, capsys, tmp_path,
                                                  command, name, shape):
        """A file nested 100,000 deep exceeds the JSON decoder's recursion
        limit: one ``invalid_input`` object naming the file, not a
        ``RecursionError``."""
        path = tmp_path / name
        path.write_text(("[" if shape == "array" else '{"a": ') * 100_000)
        argv = ([command, str(path)] if command == "validate"
                else [command, HYDRAULIC, str(path)])
        code, out, _ = run(capsys, *argv)
        assert code == 1
        error = json.loads(out)["error"]
        assert (error["code"], error["file"]) == ("invalid_input", str(path))
        assert "invalid JSON (maximum recursion depth" in error["message"]


class TestSimulate:
    def test_deterministic_for_seed(self, capsys):
        _, first, _ = run(capsys, "simulate", HYDRAULIC, "--horizon", "10",
                          "--seed", "42")
        _, second, _ = run(capsys, "simulate", HYDRAULIC, "--horizon", "10",
                           "--seed", "42")
        assert first == second
        report = json.loads(first)
        assert report["rng"] == "numpy-pcg64"
        assert len(report["trajectory"]["modes"]["P"]) == 11

    def test_stream_matches_requested_instants(self, capsys):
        report = run_json(capsys, "simulate", HYDRAULIC, "--horizon", "6",
                          "--seed", "3", "--instants", "0,3,6")
        assert [e["t"] for e in report["observations"]] == [0, 3, 6]

    def test_generated_stream_is_diagnosable(self, capsys, tmp_path):
        report = run_json(capsys, "simulate", HYDRAULIC, "--horizon", "4",
                          "--seed", "11", "--instants", "0,2,4")
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps(report["observations"]))
        diagnosis = run_json(capsys, "diagnose", HYDRAULIC, str(obs))
        truth = report["trajectory"]["modes"]
        candidates = {
            entry["t"]: entry["assignments"]
            for entry in diagnosis["candidates"]}
        for t in (0, 2, 4):
            assert {"P": truth["P"][t], "C": truth["C"][t]} in candidates[t]


    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_horizon_must_be_positive(self, capsys, horizon):
        code, out, _ = run(capsys, "simulate", HYDRAULIC, "--horizon",
                           horizon)
        assert code == 1
        assert json.loads(out)["error"]["code"] == "invalid_input"

    def test_horizon_above_limit_exits_3(self, capsys):
        code, out, _ = run(capsys, "simulate", HYDRAULIC, "--horizon",
                           "1000001")
        assert code == 3
        error = json.loads(out)["error"]
        assert (error["code"], error["element"]) == ("search_space_too_large",
                                                     1000001)

    @pytest.mark.parametrize("instants, element", [
        ("2,1", 1), ("1,1", 1), ("0,3,2", 2), (" 4 , 2 ", 2)])
    def test_instants_must_strictly_increase(self, capsys, instants,
                                             element):
        """Requested instants are a stream's: not sorted or deduplicated
        behind the user's back."""
        error = run_json(capsys, "simulate", HYDRAULIC, "--horizon", "4",
                         "--instants", instants, expect=1)["error"]
        assert (error["code"], error["element"]) == ("invalid_input", element)
        assert "time points must strictly increase" in error["message"]

    def test_seed_must_be_nonnegative(self, capsys):
        code, out, _ = run(capsys, "simulate", HYDRAULIC, "--horizon", "3",
                           "--seed", "-1")
        assert code == 1
        assert json.loads(out)["error"]["code"] == "invalid_input"

    @pytest.mark.parametrize("scenario",
                             ["hydraulic", "occlusion_onset", "sudden_stop"])
    @pytest.mark.parametrize("seed, tag", [
        (0, "0"), (2 ** 32, "2pow32"), (2 ** 64 + 1, "2pow64plus1"),
        (10 ** 40, "10pow40")])
    def test_reports_match_goldens(self, capsys, monkeypatch, scenario, seed,
                                   tag):
        """Reports captured while the sampler drew from
        ``numpy.random.default_rng(seed)``: the built-in generator replays
        that stream through the CLI, seeds of 2, 3 and 5 words included."""
        monkeypatch.chdir(ROOT)
        code, out, err = run(capsys, "simulate",
                             f"scenarios/{scenario}_model.json",
                             "--horizon", "12", "--seed", str(seed))
        assert code == 0, err
        golden = ROOT / "tests" / "data" / f"simulate_{scenario}_seed_{tag}"
        assert out.encode() == golden.read_bytes()


class TestRank:
    def test_exact_joint_with_declared_initials(self, capsys, tmp_path):
        path = tmp_path / "trajectories.json"
        path.write_text(json.dumps([
            [{"t": 0, "assignment": {"P": "correct", "C": "correct"}},
             {"t": 1, "assignment": {"P": "broken", "C": "correct"}}],
            [{"t": 0, "assignment": {"P": "correct", "C": "correct"}},
             {"t": 1, "assignment": {"P": "occluded", "C": "correct"}}],
        ]))
        report = run_json(capsys, "rank", HYDRAULIC, str(path))
        rows = report["trajectories"]
        assert rows[0]["joint_probability"] == pytest.approx(9 / 500,
                                                             abs=1e-12)
        assert rows[0]["trajectory"][1]["assignment"]["P"] == "broken"
        assert rows[1]["joint_probability"] == 0.0
        assert [r["rank"] for r in rows] == [1, 2]

    def test_uniform_fallback_initials(self, capsys, tmp_path):
        # occlusion model declares no initial distributions: uniform over
        # modes gives P entries 1/5 and C entries 1/3
        path = tmp_path / "trajectories.json"
        path.write_text(json.dumps([
            [{"t": 0, "assignment": {"P": "occluded", "C": "correct"}},
             {"t": 1, "assignment": {"P": "occluded", "C": "correct"}}],
        ]))
        report = run_json(capsys, "rank", OCCLUSION, str(path))
        (row,) = report["trajectories"]
        assert row["prior"] == pytest.approx(1 / 15, abs=1e-12)
        assert row["joint_probability"] == pytest.approx((1 / 15) * (9 / 10),
                                                         abs=1e-12)

    def test_no_trajectories(self, capsys, tmp_path):
        path = tmp_path / "trajectories.json"
        path.write_text("[]")
        report = run_json(capsys, "rank", HYDRAULIC, str(path))
        assert report["trajectories"] == []

    def test_missing_file_exits_1(self, capsys):
        code, out, _ = run(capsys, "rank", HYDRAULIC, "/no/file.json")
        assert code == 1
        assert json.loads(out)["error"]["file"] == "/no/file.json"

    @pytest.mark.parametrize("step, code, element", [
        ({"t": 0, "assignment": ["P"]}, "invalid_input", "assignment"),
        ({"t": 0, "assignment": {"P": "correct"}}, "invalid_input", "C"),
        ({"t": 0, "assignment": {"P": "correct", "C": "nope"}},
         "unknown_mode_atom", ["C", "nope"]),
        ({"t": -1, "assignment": {"P": "correct", "C": "correct"}},
         "invalid_input", -1),
        ({"t": 0, "assignment": {"P": "correct", "C": "correct", "Z": "x"}},
         "unknown_mode_atom", ["Z", "x"]),
        ({"t": 0, "assignment": {"P": float("nan"), "C": "correct"}},
         "invalid_input", "assignment"),
    ])
    def test_trajectory_checked_against_model(self, capsys, tmp_path, step,
                                              code, element):
        path = tmp_path / "trajectories.json"
        path.write_text(json.dumps([[step]]))
        exit_code, out, _ = run(capsys, "rank", HYDRAULIC, str(path))
        assert exit_code == 1
        error = json.loads(out)["error"]
        assert (error["code"], error["element"]) == (code, element)
        assert error["file"] == str(path)


    def test_equals_per_edge_definitions(self, capsys, tmp_path):
        """Prior, step conditionals and joint equal prior_probability,
        conditional_probability and their left-to-right product exactly,
        on random models and trajectories with gaps of 1 to 5."""
        rng = np.random.default_rng(77)
        gaps = set()
        for case in range(30):
            path = tmp_path / f"model{case}.json"
            path.write_text(json.dumps(model_to_dict(random_model(rng))))
            model = load_model(path)
            initials = resolve_initial_distributions(model)
            trajectories = []
            for _ in range(3):
                t, trajectory = int(rng.integers(0, 4)), []
                for _ in range(int(rng.integers(1, 7))):
                    trajectory.append(random_assignment(rng, model, t))
                    t += int(rng.integers(1, 6))
                trajectories.append(trajectory)
            traj_path = tmp_path / f"trajectories{case}.json"
            traj_path.write_text(json.dumps([
                [{"t": w.t, "assignment": w.as_dict()} for w in trajectory]
                for trajectory in trajectories]))
            rows = run_json(capsys, "rank", str(path),
                            str(traj_path))["trajectories"]

            for trajectory in trajectories:
                (row,) = [r for r in rows if r["trajectory"] == [
                    {"t": w.t, "assignment": w.as_dict()} for w in trajectory]]
                prior = prior_probability(trajectory[0], initials, model)
                steps = [conditional_probability(a, b, model)
                         for a, b in zip(trajectory, trajectory[1:])]
                joint = prior
                for p in steps:
                    joint *= p
                assert row["prior"] == prior
                assert row["step_conditionals"] == steps
                assert row["joint_probability"] == joint
                gaps.update(b.t - a.t for a, b in zip(trajectory,
                                                       trajectory[1:]))
        assert gaps == {1, 2, 3, 4, 5}

    def test_time_point_beyond_int64(self, capsys, tmp_path):
        path = tmp_path / "trajectories.json"
        path.write_text(json.dumps([[
            {"t": t, "assignment": {"P": "correct", "C": "correct"}}
            for t in (0, 2 ** 70)]]))
        (row,) = run_json(capsys, "rank", HYDRAULIC, str(path))["trajectories"]
        assert [step["t"] for step in row["trajectory"]] == [0, 2 ** 70]

    @pytest.mark.parametrize("times", [(0, 2, 2), (3, 1)])
    def test_non_increasing_instants_exit_1(self, capsys, tmp_path, times):
        path = tmp_path / "trajectories.json"
        path.write_text(json.dumps([[
            {"t": t, "assignment": {"P": "correct", "C": "correct"}}
            for t in times]]))
        code, out, _ = run(capsys, "rank", HYDRAULIC, str(path))
        assert code == 1
        error = json.loads(out)["error"]
        t = next(b for a, b in zip(times, times[1:]) if b <= a)
        assert (error["code"], error["element"], error["file"]) == (
            "non_increasing_instants", t, str(path))
        assert error["message"].startswith(f"trajectory #0 at t={t}:")


    def test_trellis_names_first_non_advancing_step(self, capsys, tmp_path,
                                                    monkeypatch):
        """Past the file checks, the trellis itself refuses a step that
        does not advance time, naming the first one."""
        monkeypatch.setattr(tempdiag.cli, "validate_trajectories",
                            lambda trajectories, model: trajectories)
        path = tmp_path / "trajectories.json"
        path.write_text(json.dumps([[
            {"t": t, "assignment": {"P": "correct", "C": "correct"}}
            for t in (0, 3, 3, 1)]]))
        code, out, _ = run(capsys, "rank", HYDRAULIC, str(path))
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "non_increasing_instants", "element": None, "file": None,
            "message": "step from t=3 to t=3 does not advance time"}


def canonical(out: str) -> str:
    """``out`` re-encoded by the stdlib. Floats round-trip through repr, so
    a canonical report equals it exactly."""
    return json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


#: Four two-mode components whose ids and mode names need JSON escaping or
#: hold a ``%``, declared in an order other than their sorted one.
ESCAPED_MODES = {"x\\y": ["ok", "f\"1"], "\u00e9": ["ok", "w\u00e9\\"],
                 "a\"b": ["ok", "%d"], "p%s": ["ok", "\u2028\U0001f600"]}


def escaped_model() -> dict:
    return {
        "components": [
            {"id": comp, "modes": modes, "correct_mode": "ok",
             "matrix": [[0.9, 0.1], [0.25, 0.75]]}
            for comp, modes in ESCAPED_MODES.items()],
        "rules": [{"body": [{"component": "x\\y", "mode": "f\"1"}],
                   "head": "alarm"}],
    }


class TestCanonicalWriter:
    """Reports rendered in bulk from the trellis arrays, the evolutions and
    the revisions equal the stdlib encoder's text, escape ids and mode
    names, and keep each value under its own key."""

    def test_escaped_ids_and_sorted_order(self, capsys, tmp_path):
        assert list(ESCAPED_MODES) != sorted(ESCAPED_MODES)
        model_path, obs_path = tmp_path / "model.json", tmp_path / "obs.json"
        model_path.write_text(json.dumps(escaped_model()))
        obs_path.write_text(json.dumps([{"t": 0}, {"t": 1, "absent": ["alarm"]},
                                        {"t": 3}]))
        code, out, err = run(capsys, "diagnose", str(model_path),
                             str(obs_path), "--criterion", "consistency",
                             "--sigma", "0.001", "--revise")
        assert code == 0, err
        assert out == canonical(out)
        report = json.loads(out)
        assert len(report["diagnoses"]) > 1
        assert any(len(r["evolutions"]) > 1 for r in report["revision"])

        model = load_model(model_path)
        candidates = [c["assignments"] for c in report["candidates"]]
        for k, step in enumerate(report["trellis"]):
            for edge in step["edges"]:
                a = ModeAssignment.from_mapping(
                    step["from_t"], candidates[k][edge["source"]])
                b = ModeAssignment.from_mapping(
                    step["to_t"], candidates[k + 1][edge["target"]])
                assert edge["factors"] == step_factors(a, b, model)
        for row in report["diagnoses"]:
            for k, w in enumerate(row["trajectory"]):
                assert w["assignment"] in candidates[k]

        trajectories = [[{"t": t, "assignment": candidates[k][i]}
                         for k, t in enumerate(report["instants"][:length])]
                        for length, i in ((1, 3), (3, 5), (2, 0))]
        trajectories_path = tmp_path / "trajectories.json"
        trajectories_path.write_text(json.dumps(trajectories))
        code, out, err = run(capsys, "rank", str(model_path),
                             str(trajectories_path))
        assert code == 0, err
        assert out == canonical(out)
        rows = json.loads(out)["trajectories"]
        assert sorted(len(r["trajectory"]) for r in rows) == [1, 2, 3]
        ranked = [json.dumps(r["trajectory"], sort_keys=True) for r in rows]
        given = [json.dumps(t, sort_keys=True) for t in trajectories]
        assert sorted(ranked) == sorted(given)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    @pytest.mark.parametrize("where", [
        "conditional", "factor", "last_conditional", "joint",
        "step_conditional", "last_row", "revision_joint",
        "revision_last_joint", "revision_conditional",
        "revision_last_revised", "distribution", "posterior",
        "mass_factor", "transition", "priors", "rank_prior"])
    def test_non_finite_raises_before_writing(self, capsys, monkeypatch,
                                              tmp_path, where, value):
        """A NaN or infinite number anywhere in a report raises ValueError,
        and nothing reaches stdout: in the first or the last trellis step,
        the first or the last diagnosis (the last number it prints), the
        first or the last joint of the last revised instant, its first raw
        or last revised conditional, the last component block's
        distribution, posterior, mass factor or revised transition score,
        the priors, or the prior of a ranked trajectory. The engine reads
        the clean trellis; the poisoned one is only printed, and trellis
        values go on an inadmissible edge (a factor on the table entry
        that edge's index picks). With a batch of one row, every
        section is written a row at a time."""
        build, enumerate_, revise, rank = (tempdiag.cli.build_trellis,
                                           tempdiag.cli.enumerate_evolutions,
                                           tempdiag.cli.revise_trellis,
                                           tempdiag.cli.rank_evolutions)
        clean = []

        def poisoned_trellis(problem):
            trellis = build(problem)
            clean.append(trellis)
            bounds = trellis.bounds
            k = len(bounds) - 2 if where == "last_conditional" else 0
            conditionals = trellis.conditionals.copy()
            powers = list(trellis.powers)
            priors = trellis.priors.copy()
            e = bounds[k] + np.flatnonzero(
                ~trellis.admissible[bounds[k]:bounds[k + 1]])[0]
            if where in ("conditional", "last_conditional"):
                conditionals[e] = value
            elif where == "factor":  # the edge's entry of the last table
                powers[-1] = powers[-1].copy()
                powers[-1][trellis.entries[-1][e]] = value
            elif where == "priors":
                priors[-1] = value
            return trellis._replace(powers=tuple(powers),
                                    conditionals=conditionals,
                                    priors=priors)

        def poisoned_evolutions(problem, trellis, table):
            evolutions = enumerate_(problem, clean[-1],
                                    forward_paths(clean[-1]))
            joints, steps = evolutions.joints.copy(), evolutions.steps.copy()
            if where == "joint":
                joints[0] = value
            elif where == "step_conditional":
                steps[0, 0] = value
            elif where == "last_row":
                steps[-1, evolutions.lengths[-1] - 2] = value
            return evolutions._replace(joints=joints, steps=steps)

        def poisoned_component(stream):
            # at the last instant, as are all the revision's poisons
            distributions = stream.distributions.copy()
            posteriors = stream.posteriors.copy()
            factors = stream.factors.copy()
            revised = stream.revised_entries.copy()
            last = len(factors) - 1
            if where == "distribution":
                distributions[last, 0] = value
            elif where == "posterior":
                posteriors[last, -1] = value
            elif where == "mass_factor":
                factors[last] = value
            elif where == "transition":  # the instant's first transition
                revised[np.searchsorted(stream.transitions[:, 0], last)] = (
                    value)
            return stream._replace(
                distributions=distributions, posteriors=posteriors,
                factors=factors, revised_entries=revised)

        def poisoned_revision(trellis, model, table):
            revision = revise(clean[-1], model, forward_paths(clean[-1]))
            joints, conditionals, revised = (
                revision.joints.copy(), revision.conditionals.copy(),
                revision.revised_conditionals.copy())
            # the last instant's first or last path or edge
            if where == "revision_joint":
                joints[revision.paths[-2]] = value
            elif where == "revision_last_joint":
                joints[-1] = value
            elif where == "revision_conditional":
                conditionals[revision.edges[-2]] = value
            elif where == "revision_last_revised":
                revised[-1] = value
            components = dict(revision.components)
            comp = max(components)  # its block is printed last
            components[comp] = poisoned_component(components[comp])
            return StreamRevision(**{
                **vars(revision), "joints": joints,
                "conditionals": conditionals,
                "revised_conditionals": revised, "components": components})

        def poisoned_rank(model, trajectories):
            ranked = rank(model, trajectories)
            priors = ranked.priors.copy()
            priors[-1] = value
            return ranked._replace(priors=priors)

        monkeypatch.setattr(tempdiag.cli, "build_trellis", poisoned_trellis)
        monkeypatch.setattr(tempdiag.cli, "enumerate_evolutions",
                            poisoned_evolutions)
        monkeypatch.setattr(tempdiag.cli, "revise_trellis", poisoned_revision)
        monkeypatch.setattr(tempdiag.cli, "rank_evolutions", poisoned_rank)
        # three instants: two trellis steps, each with inadmissible edges;
        # three diagnoses; three revised instants of three paths each
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps([{"t": t, "present": ["delivery_stopped"]}
                                   for t in (0, 2, 4)]))
        argv = ["diagnose", SUDDEN, str(obs), "--sigma", "0.01", "--revise"]
        if where == "rank_prior":
            argv = ["rank", SUDDEN, str(ROOT / "bench" / "desk" /
                                        "sudden_stop_trajectories.json")]
        for chunk in (tempdiag.report._CHUNK, 1):
            monkeypatch.setattr(tempdiag.report, "_CHUNK", chunk)
            with pytest.raises(ValueError):
                main(argv)
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["diagnose", OCCLUSION, OCCLUSION_OBS, "--revise"],
        ["diagnose", OCCLUSION, "missing.json"]], ids=["report", "error"])
    def test_failed_write_exits_1(self, capsys, monkeypatch, argv):
        """A write to stdout that fails partway through ends the run with
        exit 1 and one line on stderr; nothing more is written."""
        class Full(WriteRecorder):
            def write(self, text):
                if self.writes:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(text)

        monkeypatch.setattr(tempdiag.report, "_CHUNK", 16)
        stdout = Full()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 1
        assert len(stdout.writes) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "write_failed" in line] == [
            "error [write_failed]: No space left on device"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device whose writes fail")
    def test_full_device_exits_1_without_traceback(self):
        """Stdout on a full device: exit 1 and the one error line, and the
        flush at interpreter exit prints nothing more. Stdout is buffered,
        as by default, and the validate report is short enough to wait in
        the buffer until it is flushed."""
        src = str(ROOT / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)
        for argv in (["diagnose", OCCLUSION, OCCLUSION_OBS, "--revise"],
                     ["validate", HYDRAULIC]):
            with open("/dev/full", "w") as full:
                done = subprocess.run(
                    [sys.executable, "-m", "tempdiag.cli", *argv], env=env,
                    stdout=full, stderr=subprocess.PIPE, text=True)
            assert done.returncode == 1
            assert [line for line in done.stderr.splitlines()
                    if line.startswith("error")] == [
                "error [write_failed]: No space left on device"]
            assert "Exception" not in done.stderr
            assert "Traceback" not in done.stderr

    def test_writer_memory_bounded(self, monkeypatch, tmp_path):
        """A dense diagnose --revise (4 components x 3 modes, consistency,
        4 instants, 81 candidates per instant) writes a report of over
        8 MB while holding less than 2.5 MB more than it held before the
        writer started: each section's text lives only while it is
        written."""
        out = tmp_path / "dense"
        subprocess.run([sys.executable, "bench/gen.py", "--workload",
                        "dense", "--seed", "7", "--out", str(out)],
                       cwd=ROOT, check=True, capture_output=True)
        argv = json.loads((out / "cases.json").read_text())[0]["argv"]
        held, write = {}, tempdiag.cli.write_report

        def measured(report, stream):
            held["before"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write(report, stream)
            held["peak"] = tracemalloc.get_traced_memory()[1]

        class Count:
            """A stdout that keeps only the number of characters."""
            size = 0

            def write(self, text):
                self.size += len(text)
                return len(text)

            def flush(self):
                pass

        stdout = Count()
        monkeypatch.setattr(tempdiag.cli, "write_report", measured)
        monkeypatch.setattr(sys, "stdout", stdout)
        tracemalloc.start()
        try:
            assert main(argv) == 0
        finally:
            tracemalloc.stop()
        assert stdout.size >= 8_000_000
        assert held["peak"] - held["before"] < 2_500_000

    def test_bench_workload_shapes(self, capsys, monkeypatch, tmp_path):
        """The dense and long workloads of bench/gen.py at seed 7: a dense
        case (81 candidates per instant, ~20k edges, --revise) and the
        450-instant long diagnose --revise. Each report, of megabytes,
        reaches stdout in many writes of at most 1 MiB. The dense report
        prints the engine's factors, conditionals, joints and step
        conditionals bit for bit, the sign of zero included: a wrong gather
        index would still give canonical JSON."""
        engine = {}

        def keep(name, function):
            def kept(*args):
                engine[name] = function(*args)
                return engine[name]
            monkeypatch.setattr(tempdiag.cli, name, kept)

        keep("build_trellis", tempdiag.cli.build_trellis)
        keep("enumerate_evolutions", tempdiag.cli.enumerate_evolutions)
        argvs = []
        for workload in ("dense", "long"):
            out = tmp_path / workload
            subprocess.run([sys.executable, "bench/gen.py", "--workload",
                            workload, "--seed", "7", "--out", str(out)],
                           cwd=ROOT, check=True, capture_output=True)
            argvs.append([c["argv"] for c in json.loads(
                (out / "cases.json").read_text()) if c["kind"] == "diagnose"])
        dense, long = argvs
        (long450,) = [argv for argv in long if len(json.loads(
            Path(argv[2]).read_text())) == 450]
        # the 1300-instant joints underflow: the error object and nothing
        # else reaches stdout
        (long1300,) = [argv for argv in long if len(json.loads(
            Path(argv[2]).read_text())) == 1300]
        stdout = WriteRecorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(long1300) == 2
        assert stdout.getvalue() == json.dumps({"error": {
            "code": "all_zero_joints", "element": None, "file": None,
            "message": "joint probabilities sum to 2.10296769310086e-310, "
                       "too little to renormalize; revision is undefined"}},
            indent=2) + "\n"
        assert len(stdout.getvalue()) == 207
        for argv in long450, dense[0]:  # engine keeps the last run's
            assert "--revise" in argv
            stdout = WriteRecorder()
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(argv) == 0, capsys.readouterr().err
            out = stdout.getvalue()
            assert out == canonical(out)
            assert len(stdout.writes) > 1
            assert max(map(len, stdout.writes)) <= 1 << 20
        report = json.loads(out)

        def bits(values):
            return np.asarray(values, dtype=np.float64).view(np.int64)

        trellis, evolutions = (engine["build_trellis"],
                               engine["enumerate_evolutions"])
        ids = [c.id for c in load_model(dense[0][1]).components]
        bounds = trellis.bounds
        assert len(report["trellis"]) == len(bounds) - 1 > 1
        for k, step in enumerate(report["trellis"]):
            edges = step["edges"]
            n, m = np.diff(trellis.starts)[k:k + 2]
            flat = slice(bounds[k], bounds[k + 1])
            assert [(e["source"], e["target"]) for e in edges] == [
                (i, j) for i in range(n) for j in range(m)]
            assert np.array_equal(
                bits([[e["factors"][c] for c in ids] for e in edges]),
                bits(edge_factors(trellis)[flat]))
            assert np.array_equal(bits([e["conditional"] for e in edges]),
                                  bits(trellis.conditionals[flat]))
        rows = report["diagnoses"]
        assert np.array_equal(bits([r["joint_probability"] for r in rows]),
                              bits(evolutions.joints))
        for row, steps, n in zip(rows, evolutions.steps, evolutions.lengths):
            assert np.array_equal(bits(row["step_conditionals"]),
                                  bits(steps[:n - 1]))


def test_revised_report_leaves_numpy_ma_unloaded():
    """On numpy 2.x the first ``np.unique`` without ``return_inverse``
    imports ``numpy.ma`` (~15 ms). A diagnose --revise over multi-candidate
    layers formats arrays of 32 or more numbers, which ``report.texts``
    deduplicates with ``np.unique``; the report must not pay that import."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import os, sys\n"
        "import numpy as np\n"
        "from tempdiag.cli import main\n"
        "calls, unique = [], np.unique\n"
        "def counted(*args, **kwargs):\n"
        "    calls.append(args[0].size)\n"
        "    return unique(*args, **kwargs)\n"
        "np.unique = counted\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "code = main(sys.argv[1:])\n"
        "print(code, max(calls, default=0), 'numpy.ma' in sys.modules,\n"
        "      file=sys.stderr)\n")
    done = subprocess.run(
        [sys.executable, "-c", script, "diagnose", HYDRAULIC, HYDRAULIC_OBS,
         "--criterion", "consistency", "--revise"],
        env=env, capture_output=True, text=True, check=True)
    code, largest, loaded = done.stderr.split()[-3:]
    assert (code, loaded) == ("0", "False")
    assert int(largest) >= 32


def test_simulate_leaves_numpy_random_unloaded():
    """``simulate`` samples with the built-in generator: a run imports no
    ``numpy.random`` (19 modules and ~5.7 MB of peak RSS on numpy 2). numpy
    before 2.0 imports it with numpy itself; there the run must not be
    what loads it."""
    script = (
        "import os, sys\n"
        "from tempdiag.cli import main\n"
        "before = 'numpy.random' in sys.modules\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "code = main(sys.argv[1:])\n"
        "print(code, before, 'numpy.random' in sys.modules, file=sys.stderr)\n")
    done = child("-c", script, "simulate", HYDRAULIC, "--horizon", "20",
                 capture_output=True, text=True, check=True)
    code, before, after = done.stderr.split()[-3:]
    assert (code, after) == ("0", before)
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert after == "False"


def test_package_import_leaves_numpy_unloaded():
    """``import tempdiag`` imports no numpy: each public name is imported
    from its module when first read. Every name of ``__all__`` then
    resolves to the object its module defines, and a name the package
    does not have raises AttributeError."""
    script = (
        "import importlib, sys\n"
        "import tempdiag\n"
        "print('numpy' in sys.modules)\n"
        "for name in tempdiag.__all__:\n"
        "    module = importlib.import_module(\n"
        "        'tempdiag.' + tempdiag._MODULES[name])\n"
        "    assert getattr(tempdiag, name) is getattr(module, name), name\n"
        "    assert name in vars(tempdiag), name\n"
        "try:\n"
        "    tempdiag.missing\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    done = child("-c", script, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [
        "False", "module 'tempdiag' has no attribute 'missing'"]


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_cli_sets_openblas_threads_unless_given(given, expected):
    """Importing the command line sets ``OPENBLAS_NUM_THREADS`` to 1 before
    numpy loads, unless the environment already sets it."""
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    done = subprocess.run(
        [sys.executable, "-c", "import os, sys, tempdiag\n"
         "assert 'numpy' not in sys.modules\n"
         "import tempdiag.cli\n"
         "print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env={**env, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
        capture_output=True, text=True, check=True)
    assert done.stdout.strip() == expected


def test_import_leaves_networkx_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, tempdiag.cli; print('networkx' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_import_leaves_dataclasses_unloaded():
    """The records are NamedTuples: importing the package generates no
    methods through ``dataclasses``."""
    done = child("-c", "import sys, tempdiag.cli; "
                 "print('dataclasses' in sys.modules)",
                 capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_import_leaves_fractions_unloaded():
    """Probability strings parse without ``fractions``, which imports
    ``decimal``: importing the command line loads neither."""
    done = child("-c", "import sys, tempdiag.cli; print('fractions' in "
                 "sys.modules, 'decimal' in sys.modules)",
                 capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "False"]


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason="the bound is CPython 3.11's compile() memory")
def test_every_module_compiles_in_bounded_memory():
    """Each module of the package compiles with a tracemalloc peak under
    1.4 MiB (``cli.py``, the largest, peaks at about 1.25 MiB). Where no
    bytecode is cached every invocation compiles them, and the largest
    peak sets the import's RSS high-water mark, in steps of about 0.25 MB
    as a module grows past a few thousand tokens."""
    peaks = {}
    for path in sorted((ROOT / "src" / "tempdiag").glob("*.py")):
        text = path.read_text()
        tracemalloc.start()
        try:
            compile(text, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert {name: peak for name, peak in peaks.items()
            if peak >= 1.4 * 2 ** 20} == {}


#: Runs ending in each exit code, and the code.
EXITS = [
    (["diagnose", HYDRAULIC, HYDRAULIC_OBS], 0),
    (["diagnose", HYDRAULIC, "missing.json"], 1),
    (["diagnose", SUDDEN, SUDDEN_OBS, "--sigma", "0.99"], 2),
    (["diagnose", HYDRAULIC, HYDRAULIC_OBS, "--cap", "3"], 3),
]


@pytest.mark.parametrize("stderr", ["full", "closed"])
def test_refused_stderr_keeps_report_and_exit_code(stderr):
    """The summary on stderr is for a person to read: with stderr on a full
    device or closed, a run writes the report and exits as it does with a
    working stderr."""
    if stderr == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs a device whose writes fail")
    for argv, code in EXITS:
        normal = child("-m", "tempdiag.cli", *argv, capture_output=True)
        assert normal.returncode == code and normal.stderr
        if stderr == "full":
            with open("/dev/full", "w") as full:
                done = child("-m", "tempdiag.cli", *argv,
                             stdout=subprocess.PIPE, stderr=full)
        else:
            done = child("-m", "tempdiag.cli", *argv, stdout=subprocess.PIPE,
                         preexec_fn=partial(os.close, 2))
        assert (done.returncode, done.stdout) == (code, normal.stdout)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail")
@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_on_full_stdout_exit_1(flag):
    with open("/dev/full", "w") as full:
        done = child("-m", "tempdiag.cli", flag, stdout=full,
                     stderr=subprocess.PIPE, text=True)
    assert done.returncode == 1
    assert done.stderr == "error [write_failed]: No space left on device\n"


@pytest.mark.parametrize("argv", [
    ["diagnose", HYDRAULIC, HYDRAULIC_OBS], ["validate", HYDRAULIC],
    ["--version"], ["diagnose", HYDRAULIC, "missing.json"]],
    ids=["diagnose", "validate", "version", "error"])
def test_closed_stdout_is_a_failed_write(argv):
    """Started with descriptor 1 closed (``>&-``), Python has no
    ``sys.stdout``: the report, the error report and the version text are
    each a failed write, exit 1 with one ``write_failed`` line, where
    argparse would print the version on stderr and exit 0."""
    done = child("-m", "tempdiag.cli", *argv, stderr=subprocess.PIPE,
                 text=True, preexec_fn=partial(os.close, 1))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    failed = [line for line in done.stderr.splitlines()
              if line.startswith("error [write_failed]")]
    assert failed == ["error [write_failed]: Bad file descriptor"]


def test_main_in_process_never_freezes(capsys):
    before = gc.get_freeze_count()
    assert main(["validate", HYDRAULIC]) == 0
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", [
    ["--version"], ["diagnose", HYDRAULIC, HYDRAULIC_OBS, "--revise"]],
    ids=["version", "diagnose"])
def test_process_entry_freezes_before_exit(argv):
    """``python -m tempdiag.cli`` goes through the process entry, which
    freezes the heap before the interpreter's final collections."""
    script = ("import atexit, gc, runpy, sys\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count(),"
              " file=sys.stderr))\n"
              "sys.argv = ['tempdiag', *sys.argv[1:]]\n"
              "runpy.run_module('tempdiag.cli', run_name='__main__',"
              " alter_sys=True)\n")
    done = child("-c", script, *argv, capture_output=True, text=True)
    normal = child("-m", "tempdiag.cli", *argv, capture_output=True,
                   text=True)
    assert (done.returncode, done.stdout) == (0, normal.stdout)
    label, count = done.stderr.splitlines()[-1].split()
    assert label == "frozen" and int(count) > 0


def test_console_script_is_the_process_entry():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^tempdiag = "tempdiag\.cli:run"$', pyproject, re.M)


@pytest.fixture(scope="module")
def bench_cases(tmp_path_factory):
    """The directory holding the cases of the wide, dense and long
    workloads of bench/gen.py at seed 7, and their argvs by workload. The
    argvs name the files relative to that directory, as do the reports."""
    base = tmp_path_factory.mktemp("bench")
    cases = {}
    for workload in ("wide", "dense", "long"):
        child(str(ROOT / "bench" / "gen.py"), "--workload", workload,
              "--seed", "7", "--out", workload, cwd=base, check=True,
              capture_output=True)
        cases[workload] = [c["argv"] for c in json.loads(
            (base / workload / "cases.json").read_text())]
    return base, cases


#: Five seed-7 bench cases by id: workload, case, exit code, stdout sha256.
PINNED = {
    "dense0-revise": (
        "dense", 0, 0,
        "74d639f143c0c1281bde6047dfb7831e286f48007b3e939bfb6f0950c8b470c8"),
    "dense1-per-component-revise": (
        "dense", 1, 0,
        "4698e894d3eaf760da86eaeba16886af000ffaef2d5ed4c814cee02ef8994b90"),
    "wide0": (
        "wide", 0, 0,
        "2707082025649f532c71b70f6185ea16fa3f415b7b05adeb01b8ac5a417d74ad"),
    "long450-diagnose-revise": (
        "long", 2, 0,
        "297b89a74e356d9ac9b3cce6864e2627a795cffaabbac8b845d0f3bdaf86261d"),
    "long1300-rank": (
        "long", 5, 0,
        "ef05f4bebcc895875ab25d68d6712d1b83b2d8d274eeae56a6f1c1e06b46969e"),
}


@pytest.mark.parametrize("workload, case, code, digest", PINNED.values(),
                         ids=list(PINNED))
def test_bench_reports_are_pinned(capsys, monkeypatch, bench_cases,
                                  workload, case, code, digest):
    """The exit code and the stdout sha256 of five seed-7 bench cases: two
    dense diagnose --revise (case 1 under ``--threshold-mode
    per-component``), a wide diagnose, the 450-instant long
    diagnose --revise and the 1,300-instant long rank. Like the desk
    goldens, the digests pin every float bit for bit."""
    base, cases = bench_cases
    monkeypatch.chdir(base)
    argv = cases[workload][case]
    assert (argv[0], "--revise" in argv) == (
        ("rank", False) if case == 5 else ("diagnose", workload != "wide"))
    assert ("per-component" in argv) == ((workload, case) == ("dense", 1))
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("pinned", ["dense0-revise",
                                    "dense1-per-component-revise",
                                    "long450-diagnose-revise"])
def test_tracer_order_keeps_the_pinned_reports(capsys, monkeypatch,
                                               bench_cases, pinned):
    """The benchmark's tracer iterates each revision, reading every
    instant's ``path_indices``, before the report is written, so the
    writer's ``SpelledPaths`` reads start again from layer 0 after a full
    pass. The pinned revising cases keep their digests in that order."""
    workload, case, code, digest = PINNED[pinned]
    base, cases = bench_cases
    monkeypatch.chdir(base)
    counts, revise = [], tempdiag.cli.revise_trellis

    def iterated(*args):
        revision = revise(*args)
        counts.append(sum(len(r.path_indices) for r in revision))
        return revision

    monkeypatch.setattr(tempdiag.cli, "revise_trellis", iterated)
    assert main(cases[workload][case]) == code
    out = capsys.readouterr().out
    assert len(counts) == 1 and counts[0] > 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_revision_memory_linear_in_instants(capsys, monkeypatch, bench_cases):
    """The revision of a one-candidate stream holds arrays linear in its
    instants: it keeps its paths as the forward pass's back-pointers, and
    the writer spells them. The seed-7 long streams of 100 and 450
    instants revise into fewer than 5 times the bytes for 4.5 times the
    instants; every prefix spelled out took 9.3 times."""
    base, cases = bench_cases
    monkeypatch.chdir(base)
    revisions, revise = [], tempdiag.cli.revise_trellis

    def kept(*args):
        revisions.append(revise(*args))
        return revisions[-1]

    def size(value):
        if isinstance(value, SpelledPaths):
            value = value.parents, value.candidates
        if isinstance(value, dict):
            value = tuple(value.values())
        if isinstance(value, tuple):  # ComponentStream's too
            return sum(map(size, value))
        return value.nbytes if isinstance(value, np.ndarray) else 0

    monkeypatch.setattr(tempdiag.cli, "revise_trellis", kept)
    for case in (0, 2):
        assert main(cases["long"][case]) == 0
    capsys.readouterr()
    assert [len(revision) for revision in revisions] == [100, 450]
    short, long = (size(vars(revision)) for revision in revisions)
    assert long / short < 5


def test_tracer_path_count_is_the_joint_count(monkeypatch, tmp_path):
    """The benchmark's tracer counts ``revision.paths_expanded`` as the
    rows of every instant's ``path_indices``, iterating each revision. On
    every dense case of bench/gen.py at seed 1 that count is the
    revision's number of joints, and the whole workload reads 16,666, the
    count its traced run is checked against."""
    child(str(ROOT / "bench" / "gen.py"), "--workload", "dense", "--seed",
          "1", "--out", "dense", cwd=tmp_path, check=True,
          capture_output=True)
    monkeypatch.chdir(tmp_path)
    revisions, revise = [], tempdiag.cli.revise_trellis

    def kept(*args):
        revisions.append(revise(*args))
        return revisions[-1]

    monkeypatch.setattr(tempdiag.cli, "revise_trellis", kept)
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        for case in json.loads((tmp_path / "dense" / "cases.json"
                                ).read_text()):
            assert main(case["argv"]) == 0, case["argv"]
    counts = [sum(len(r.path_indices) for r in revision)
              for revision in revisions]
    assert counts == [len(revision.joints) for revision in revisions]
    assert sum(counts) == 16666
