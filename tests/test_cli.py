"""End-to-end tests of the command-line front end.

Commands run in-process through ``main`` so exit codes, reports, and CSV
artifacts are all observable without spawning subprocesses.
"""
import csv
import hashlib
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from lagrangeforge import cli
from lagrangeforge.cli import (
    EXIT_INAPPLICABLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    FAMILIES,
    classify_equation,
    main,
    normalize_spec,
    validate_spec,
)
from lagrangeforge.constructors import common
from lagrangeforge.expressions import parse_expression
from lagrangeforge.presets import PRESETS, preset_names


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(command, spec_path, out_dir, *extra):
    return main([command, "--spec", spec_path, "--out", str(out_dir), *extra])


def load_report(out_dir, name="report.json"):
    return json.loads((out_dir / name).read_text())


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


DAMPED = {
    "version": 1,
    "equation": {"family": "standard", "a": "0", "b": "0.2", "c": "1.0*x"},
}

FREE_RHS = {"version": 1, "equation": {"rhs": "0"}}

DOMAIN_KEYS = {"x", "v", "t", "grid", "n_random", "seed"}
ENVIRONMENT_KEYS = {"package_version", "python_version", "numpy_version"}


class TestSpecValidation:
    def test_unknown_top_level_key_is_rejected(self, tmp_path):
        spec = write_spec(tmp_path, {**DAMPED, "bogus": 1})
        assert run("build", spec, tmp_path / "out") == EXIT_INPUT_ERROR

    def test_unknown_equation_key_is_rejected(self, tmp_path):
        doc = {"version": 1,
               "equation": {"family": "standard", "a": "0", "b": "0",
                            "c": "0", "surprise": "x"}}
        spec = write_spec(tmp_path, doc)
        assert run("build", spec, tmp_path / "out") == EXIT_INPUT_ERROR

    def test_error_report_is_still_written(self, tmp_path):
        spec = write_spec(tmp_path, {**DAMPED, "bogus": 1})
        out = tmp_path / "out"
        run("build", spec, out)
        report = load_report(out)
        assert report["error"]["code"] == "input-error"
        assert report["exit_code"] == EXIT_INPUT_ERROR

    def test_missing_file(self, tmp_path):
        assert run("build", str(tmp_path / "nope.json"),
                   tmp_path / "out") == EXIT_INPUT_ERROR

    def test_a_directory_is_input_error(self, tmp_path):
        spec = tmp_path / "spec"
        spec.mkdir()
        out = tmp_path / "out"
        assert run("verify", str(spec), out) == EXIT_INPUT_ERROR
        assert load_report(out)["error"] == {
            "code": "input-error",
            "message": f"cannot read spec {spec}: Is a directory"}

    def test_a_spec_not_in_utf8_is_input_error(self, tmp_path):
        # UTF-16 with a byte-order mark, as some Windows editors save JSON
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(DAMPED).encode("utf-16-le"))
        out = tmp_path / "out"
        assert run("verify", str(path), out) == EXIT_INPUT_ERROR
        assert load_report(out)["error"] == {
            "code": "input-error",
            "message": "spec is not UTF-8 text: 'utf-8' codec can't decode "
                       "byte 0xff in position 0: invalid start byte"}

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("build", str(path), tmp_path / "out") == EXIT_INPUT_ERROR

    def test_wrong_version_is_rejected(self, tmp_path):
        spec = write_spec(tmp_path, {**DAMPED, "version": 2})
        assert run("build", spec, tmp_path / "out") == EXIT_INPUT_ERROR

    def test_missing_family_field_is_input_error(self, tmp_path):
        doc = {"version": 1, "equation": {"family": "standard", "a": "0"}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("build", spec, out) == EXIT_INPUT_ERROR
        assert "needs field" in load_report(out)["error"]["message"]

    def test_every_preset_validates(self):
        for name in preset_names():
            validate_spec(PRESETS[name])

    def test_normalize_fills_defaults(self):
        out = normalize_spec(dict(DAMPED))
        assert set(out["domain"]) == DOMAIN_KEYS
        assert out["options"]["verify_tol"] == 1e-8
        assert out["integrate"]["columns"] == ["t", "x", "v"]

    def test_tasks_gating(self, tmp_path):
        spec = write_spec(tmp_path, {**DAMPED, "tasks": ["classify"]})
        out = tmp_path / "out"
        assert run("build", spec, out) == EXIT_INPUT_ERROR
        assert "tasks" in load_report(out)["error"]["message"]

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize("interval, problem", [
        ([1.0, -1.0], "x interval is reversed"),
        ([-1e308, 1e308], "x interval is too wide for a float"),
    ])
    def test_bad_domain_is_input_error(self, tmp_path, command, interval,
                                       problem):
        doc = {"version": 1,
               "equation": {"rhs": "-x", "lagrangian": "0.5*v^2 - 0.5*x^2"},
               "domain": {"x": interval}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run(command, spec, out) == EXIT_INPUT_ERROR
        report = load_report(out)
        assert report["error"]["code"] == "input-error"
        assert problem in report["error"]["message"]
        assert report["exit_code"] == EXIT_INPUT_ERROR


class TestClassify:
    def classification(self, tmp_path, doc):
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("classify", spec, out) == EXIT_OK
        report = load_report(out)
        return {e["family"]: e for e in report["classification"]}, out

    def test_damped_oscillator_table(self, tmp_path):
        table, out = self.classification(tmp_path, DAMPED)
        assert table["standard"]["applicable"]
        assert table["reciprocal-linear"]["applicable"]
        # families needing an x-free or position-free rhs must say no
        assert not table["radical-linear"]["applicable"]
        assert not table["exponential"]["applicable"]
        assert not table["reciprocal-nu2"]["applicable"]
        header, rows = read_csv(out / "families.csv")
        assert header == ["family", "applicable", "residual", "reason"]
        assert {row[0] for row in rows} == set(table)

    def test_inadmissible_quadratic_drag_residual(self, tmp_path):
        doc = {"version": 1, "equation": {"rhs": "-1.0*x*t*v^2"},
               "tasks": ["classify"]}
        table, _ = self.classification(tmp_path, doc)
        entry = table["standard"]
        assert not entry["applicable"]
        assert entry["residual"] == pytest.approx(2.0)

    def test_linear_drag_has_wide_applicability(self, tmp_path):
        doc = {"version": 1, "equation": {"rhs": "-0.8*v"}}
        table, _ = self.classification(tmp_path, doc)
        for family in ("standard", "reciprocal-linear", "reciprocal-nu2",
                       "monomial", "generalized-kinetic", "radical-equal",
                       "radical-linear", "exponential"):
            assert table[family]["applicable"], family
        # nu = 1 is a hard exclusion for the pure-power recipe
        assert not table["power-damping"]["applicable"]
        # c = 0 violates the cubic-restoring constraint
        assert not table["reciprocal-autonomous"]["applicable"]

    def test_isochronous_case_detected(self, tmp_path):
        doc = {"version": 1,
               "equation": {"rhs": "-(1.0*x*v + (1.0/9.0)*x^3)"},
               "domain": {"x": [0.2, 1.2]}}
        table, _ = self.classification(tmp_path, doc)
        assert table["reciprocal-autonomous"]["applicable"]
        assert table["reciprocal-autonomous"]["residual"] <= 1e-8

    def test_constraint_undefined_on_part_of_domain(self, tmp_path):
        # c = ln(x + 0.5) is undefined on the x <= -0.5 part of the default
        # domain, where the cubic-restoring constraint is sampled
        doc = {"version": 1, "equation": {"rhs": "-(v + ln(x + 0.5))"}}
        table, out = self.classification(tmp_path, doc)
        probed = [name for name, family in FAMILIES.items()
                  if family.classify is not None]
        assert list(table) == probed
        entry = table["reciprocal-autonomous"]
        assert not entry["applicable"]
        assert entry["residual"] is None
        assert entry["reason"] == "expression undefined at x=-0.5"
        assert (out / "run_meta.json").exists()

    def test_classify_accepts_family_blocks_too(self, tmp_path):
        doc = {"version": 1,
               "equation": {"family": "reciprocal-nu2", "a": "0.4*x",
                            "b": "0.3"}}
        table, _ = self.classification(tmp_path, doc)
        assert table["reciprocal-nu2"]["applicable"]
        assert table["standard"]["applicable"]

    def test_classify_equation_direct(self):
        dom = {"x": [-1.0, 1.0], "v": [0.2, 2.0], "t": [0.0, 1.5]}
        quad = classify_equation(parse_expression("-0.3*v^2"), dom)
        table = {e["family"]: e for e in quad}
        assert table["monomial"]["applicable"]
        # quadratic drag measures nu = 2, which the pure-power recipe excludes
        assert not table["power-damping"]["applicable"]
        cubic = classify_equation(parse_expression("-0.3*v^3"), dom)
        table = {e["family"]: e for e in cubic}
        assert table["power-damping"]["applicable"]
        assert "nu = 3" in table["power-damping"]["reason"]


class TestBuild:
    def test_standard_build_report(self, tmp_path):
        spec = write_spec(tmp_path, DAMPED)
        out = tmp_path / "out"
        assert run("build", spec, out) == EXIT_OK
        report = load_report(out)
        assert report["family"] == "standard"
        assert "v^2" in report["lagrangian"]
        assert report["gauge"]
        assert "hamiltonian" in report
        assert report["error"] is None

    def test_build_requires_family(self, tmp_path):
        spec = write_spec(tmp_path, FREE_RHS)
        assert run("build", spec, tmp_path / "out") == EXIT_INAPPLICABLE

    def test_inadmissible_coefficients_exit_code(self, tmp_path):
        doc = {"version": 1,
               "equation": {"family": "standard", "a": "0", "b": "1.0*x*t",
                            "c": "0"}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("build", spec, out) == EXIT_INAPPLICABLE
        report = load_report(out)
        assert report["error"]["code"] == "inapplicable"
        assert report["exit_code"] == EXIT_INAPPLICABLE

    def test_discrepancy_notes_travel_with_family(self, tmp_path):
        doc = {"version": 1,
               "equation": {"family": "reciprocal-nu2", "a": "0.4*x",
                            "b": "0.3"}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("build", spec, out) == EXIT_OK
        notes = load_report(out)["discrepancy_notes"]
        assert any("separated-drag-exponents" in note for note in notes)

    def test_build_with_params_substitution(self, tmp_path):
        doc = {"version": 1,
               "equation": {"family": "standard", "a": "0", "b": "gamma",
                            "c": "omega^2*x",
                            "params": {"gamma": 0.1, "omega": 1.0}}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("build", spec, out) == EXIT_OK
        assert "0.1" in load_report(out)["lagrangian"]


class TestVerify:
    def test_pass_with_explicit_lagrangian(self, tmp_path):
        doc = {"version": 1,
               "equation": {"rhs": "-1.0*x",
                            "lagrangian": "0.5*v^2 - 0.5*x^2"}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("verify", spec, out) == EXIT_OK
        report = load_report(out)
        assert report["verification"]["user"]["passed"]
        assert report["verification"]["user"]["max_residual"] <= 1e-8

    def test_fail_with_wrong_sign(self, tmp_path):
        doc = {"version": 1,
               "equation": {"rhs": "-1.0*x",
                            "lagrangian": "0.5*v^2 + 0.5*x^2"}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("verify", spec, out) == EXIT_VERIFY_FAIL
        report = load_report(out)
        assert not report["verification"]["user"]["passed"]
        assert report["exit_code"] == EXIT_VERIFY_FAIL

    def test_residual_csv_field_sweep(self, tmp_path):
        spec = write_spec(tmp_path, DAMPED)
        out = tmp_path / "out"
        assert run("verify", spec, out) == EXIT_OK
        header, rows = read_csv(out / "residuals.csv")
        assert header == ["x", "v", "t", "member", "residual"]
        assert rows
        for row in rows:
            assert float(row[4]) <= 1e-8

    def test_residual_csv_blanks_are_the_report_skips(self, tmp_path):
        # ln(v) is undefined on the v <= 0 half of the box
        doc = {"version": 1,
               "equation": {"rhs": "-0.5*v",
                            "lagrangian": "v*ln(v) - v - 0.5*x"},
               "domain": {"x": [-1.0, 1.0], "v": [-1.0, 1.0], "t": [0.0, 1.0],
                          "grid": [3, 4, 3], "n_random": 0, "seed": 0}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("verify", spec, out) == EXIT_OK
        report = load_report(out)["verification"]["user"]
        _, rows = read_csv(out / "residuals.csv")
        assert len(rows) == report["samples_used"] + report["samples_skipped"]
        blank = [row[4] == "" for row in rows]
        assert blank == [float(row[1]) <= 0.0 for row in rows]
        assert sum(blank) == report["samples_skipped"] == 18
        assert max(float(row[4]) for row in rows if row[4]) == report["max_residual"]

    def test_an_integral_float_n_random_draws_like_the_int(self, tmp_path):
        # JSON Schema accepts 32.0 as an integer; the sampler counts it as 32
        runs = {}
        for n_random in (32, 32.0):
            doc = {"version": 1,
                   "equation": {"rhs": "-x", "lagrangian": "0.5*v^2 - 0.5*x^2"},
                   "domain": {"n_random": n_random}}
            out = tmp_path / repr(n_random)
            assert run("verify", write_spec(tmp_path, doc), out) == EXIT_OK
            runs[n_random] = (load_report(out)["verification"],
                              (out / "residuals.csv").read_bytes())
        assert runs[32.0] == runs[32]
        grid = normalize_spec(doc)["domain"]["grid"]
        assert runs[32][0]["user"]["samples_used"] == math.prod(grid) + 32

    def test_bare_rhs_without_lagrangian_is_inapplicable(self, tmp_path):
        spec = write_spec(tmp_path, FREE_RHS)
        assert run("verify", spec, tmp_path / "out") == EXIT_INAPPLICABLE

    def test_tol_override_recorded(self, tmp_path):
        spec = write_spec(tmp_path, DAMPED)
        out = tmp_path / "out"
        assert run("verify", spec, out, "--tol", "1e-6") == EXIT_OK
        report = load_report(out)
        assert report["normalized_spec"]["options"]["verify_tol"] == 1e-6
        assert report["verification"]["standard"]["tolerance"] == 1e-6


class TestIntegrate:
    def test_columns_and_energy_decay(self, tmp_path):
        doc = {**DAMPED,
               "integrate": {"x0": 1.0, "v0": 0.0, "t0": 0.0, "t1": 6.0,
                             "columns": ["t", "x", "v", "E", "p"]}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("integrate", spec, out) == EXIT_OK
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "x", "v", "E", "p"]
        energies = [float(row[3]) for row in rows]
        # linear drag strictly dissipates the conserved-form energy
        assert energies[-1] < energies[0]
        assert load_report(out)["integration"]["final_time"] == pytest.approx(6.0)

    def test_lagrangian_columns_need_a_lagrangian(self, tmp_path):
        doc = {**FREE_RHS,
               "integrate": {"x0": 0.0, "v0": 1.0, "t0": 0.0, "t1": 1.0,
                             "columns": ["t", "x", "v", "L", "E"]}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("integrate", spec, out) == EXIT_OK
        header, rows = read_csv(out / "trajectory.csv")
        # no family and no explicit L: energy columns are dropped
        assert header == ["t", "x", "v"]
        assert float(rows[-1][1]) == pytest.approx(1.0, rel=1e-8)

    def test_free_particle_energy_constant(self, tmp_path):
        doc = {"version": 1,
               "equation": {"rhs": "0", "lagrangian": "0.5*v^2"},
               "integrate": {"x0": 0.0, "v0": 1.5, "t0": 0.0, "t1": 2.0,
                             "columns": ["t", "E", "p"]}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("integrate", spec, out) == EXIT_OK
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "E", "p"]
        for row in rows:
            assert float(row[1]) == pytest.approx(0.5 * 1.5**2, rel=1e-9)
            assert float(row[2]) == pytest.approx(1.5, rel=1e-9)


    @pytest.mark.parametrize("rhs, x0, code, message", [
        ("ln(0)", 1.0, EXIT_INAPPLICABLE, "log of non-positive value 0.0"),
        ("-x", 1e308, EXIT_INAPPLICABLE, "state overflow"),
        ("-x + integral(s, 0, s)", 1.0, EXIT_INPUT_ERROR, "depends on ['s']"),
    ])
    def test_a_trajectory_that_cannot_run_still_gets_a_report(
            self, tmp_path, rhs, x0, code, message):
        doc = {"version": 1, "equation": {"rhs": rhs},
               "integrate": {"x0": x0, "v0": 0.0, "t0": 0.0, "t1": 1.0}}
        out = tmp_path / "out"
        assert run("integrate", write_spec(tmp_path, doc), out) == code

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads((out / "report.json").read_text(encoding="utf-8"),
                            parse_constant=refuse)
        assert report["exit_code"] == code
        assert message in report["error"]["message"]
        assert not (out / "trajectory.csv").exists()


class TestCompare:
    MEMBERS = {
        "version": 1,
        "equation": {"rhs": "-0.5*v^2"},
        "members": [
            {"family": "n-parameter", "n": 3.0, "k": 0.5, "name": "cubed"},
            {"family": "monomial", "a": "0.5", "b": "0", "c": "0",
             "mu": 2.0, "name": "squared"},
        ],
    }

    def test_equivalent_members(self, tmp_path):
        spec = write_spec(tmp_path, self.MEMBERS)
        out = tmp_path / "out"
        assert run("compare", spec, out) == EXIT_OK
        report = load_report(out)
        assert report["equivalent"]
        assert report["max_pairwise_gap"] <= 1e-8
        header, rows = read_csv(out / "matrix.csv")
        assert header == ["member", "cubed", "squared"]
        assert float(rows[0][2]) == float(rows[1][1])  # symmetric

    def test_mismatched_dynamics_rejected(self, tmp_path):
        doc = {
            "version": 1,
            "equation": {"rhs": "-0.5*v^2"},
            "members": [
                {"family": "n-parameter", "n": 2.0, "k": 0.5},
                {"family": "n-parameter", "n": 2.0, "k": 0.9},
            ],
        }
        spec = write_spec(tmp_path, doc)
        assert run("compare", spec, tmp_path / "out") == EXIT_INAPPLICABLE

    def test_multi_suite_control_separates(self, tmp_path):
        doc = {"version": 1,
               "equation": {"family": "multiL", "k": 0.5},
               "domain": {"t": [0.0, 2.0]}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("compare", spec, out) == EXIT_OK
        report = load_report(out)
        assert len(report["members"]) == 6
        assert report["max_pairwise_gap"] <= 1e-8
        assert report["control"]["separates"]

    def test_log_velocity_pair(self, tmp_path):
        doc = {"version": 1,
               "equation": {"family": "log-velocity", "k": 1.0}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "out"
        assert run("compare", spec, out) == EXIT_OK
        assert load_report(out)["equivalent"]

    def test_single_member_is_inapplicable(self, tmp_path):
        spec = write_spec(tmp_path, DAMPED)
        assert run("compare", spec, tmp_path / "out") == EXIT_INAPPLICABLE


class TestDeterminism:
    def test_reports_are_bit_identical(self, tmp_path):
        for command, doc, table in (
                ("verify", DAMPED, "residuals.csv"),
                ("compare", TestCompare.MEMBERS, "matrix.csv")):
            spec = write_spec(tmp_path, doc, f"{command}.json")
            out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
            assert run(command, spec, out1) == EXIT_OK
            assert run(command, spec, out2) == EXIT_OK
            for name in ("report.json", table):
                assert (out1 / name).read_bytes() == \
                    (out2 / name).read_bytes(), (command, name)

    def test_report_roundtrips_as_spec(self, tmp_path):
        spec = write_spec(tmp_path, DAMPED)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("verify", spec, out1) == EXIT_OK
        assert run("verify", str(out1 / "report.json"), out2) == EXIT_OK
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_timing_lives_outside_the_report(self, tmp_path):
        spec = write_spec(tmp_path, DAMPED)
        out = tmp_path / "out"
        run("build", spec, out)
        report = load_report(out)
        meta = load_report(out, "run_meta.json")
        [task] = meta["tasks"]
        assert (task["command"], task["report"]) == ("build", "report.json")
        assert "elapsed_seconds" in task
        assert set(meta["environment"]) == ENVIRONMENT_KEYS
        assert meta["environment"]["numpy_version"] == np.__version__
        text = json.dumps(report)
        for key in ("elapsed_seconds", "environment", *ENVIRONMENT_KEYS):
            assert key not in text

    def test_seed_override_changes_normalized_spec(self, tmp_path):
        spec = write_spec(tmp_path, DAMPED)
        out = tmp_path / "out"
        assert run("verify", spec, out, "--seed", "7") == EXIT_OK
        assert load_report(out)["normalized_spec"]["domain"]["seed"] == 7

    def test_thread_cap_does_not_change_results(self, tmp_path, monkeypatch):
        # LAGRANGEFORGE_THREADS once capped a compare thread pool; compare
        # now runs serially and must ignore the variable.
        spec = write_spec(tmp_path, TestCompare.MEMBERS)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.delenv("LAGRANGEFORGE_THREADS", raising=False)
        assert run("compare", spec, out1) == EXIT_OK
        monkeypatch.setenv("LAGRANGEFORGE_THREADS", "4")
        assert run("compare", spec, out2) == EXIT_OK
        assert (out1 / "matrix.csv").read_bytes() == \
            (out2 / "matrix.csv").read_bytes()



class TestDemo:
    def test_free_particle_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert main(["demo", "free-particle", "--out", str(out)]) == EXIT_OK
        for name in ("report_build.json", "report_verify.json",
                     "report_integrate.json", "residuals.csv",
                     "trajectory.csv"):
            assert (out / name).exists(), name
        build = load_report(out, "report_build.json")
        assert build["lagrangian"] == "0.5 * v^2"

    def test_damped_oscillator_runs_all_tasks(self, tmp_path):
        out = tmp_path / "out"
        assert main(["demo", "damped-oscillator", "--out", str(out)]) == EXIT_OK
        assert (out / "families.csv").exists()
        verify = load_report(out, "report_verify.json")
        assert verify["verification"]["standard"]["passed"]

    def test_run_meta_records_every_task(self, tmp_path):
        out = tmp_path / "out"
        assert main(["demo", "multiL", "--out", str(out)]) == EXIT_OK
        meta = load_report(out, "run_meta.json")
        tasks = PRESETS["multiL"]["tasks"]
        assert len(tasks) >= 2
        assert [(t["command"], t["report"]) for t in meta["tasks"]] == \
            [(task, f"report_{task}.json") for task in tasks]
        assert all(t["elapsed_seconds"] >= 0.0 for t in meta["tasks"])
        # the versions are recorded once per invocation, not per task
        assert set(meta) == {"environment", "tasks"}
        assert set(meta["environment"]) == ENVIRONMENT_KEYS

    def test_unknown_preset_lists_names(self, tmp_path, capsys):
        code = main(["demo", "not-a-preset", "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        for name in preset_names():
            assert name in err

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_succeeds(self, tmp_path, name):
        out = tmp_path / name
        assert main(["demo", name, "--out", str(out)]) == EXIT_OK


def count_builds(monkeypatch, family):
    """Wrap one family's build; the returned list gains an entry per call."""
    calls = []
    entry = FAMILIES[family]

    def counting(*args, **kwargs):
        calls.append(args)
        return entry.build(*args, **kwargs)

    monkeypatch.setitem(FAMILIES, family, entry._replace(build=counting))
    return calls


INADMISSIBLE = {"version": 1,
                "equation": {"family": "standard", "a": "0", "b": "1.0*x*t",
                             "c": "0"}}


class TestRunMemo:
    def test_a_run_builds_its_problem_once(self, tmp_path, monkeypatch):
        builds = count_builds(monkeypatch, "standard")
        assert len(PRESETS["free-particle"]["tasks"]) == 3
        assert main(["demo", "free-particle", "--out",
                     str(tmp_path / "a")]) == EXIT_OK
        assert len(builds) == 1

    def test_nothing_is_reused_across_runs(self, tmp_path, monkeypatch):
        builds = count_builds(monkeypatch, "standard")
        for out in ("a", "b"):
            assert main(["demo", "free-particle", "--out",
                         str(tmp_path / out)]) == EXIT_OK
        assert len(builds) == 2

    def test_a_failed_build_fails_every_task_alike(self, tmp_path,
                                                   monkeypatch):
        # each task run on its own builds for itself
        alone = {}
        for command in ("build", "verify"):
            out = tmp_path / command
            assert run(command, write_spec(tmp_path, INADMISSIBLE), out) == \
                EXIT_INAPPLICABLE
            alone[command] = load_report(out)
        builds = count_builds(monkeypatch, "standard")
        out = tmp_path / "run"
        code = cli.run_tasks(INADMISSIBLE, out, [
            ("build", "report_build.json"), ("verify", "report_verify.json")])
        assert code == EXIT_INAPPLICABLE
        assert len(builds) == 1
        for command in ("build", "verify"):
            report = load_report(out, f"report_{command}.json")
            assert report["error"] == alone[command]["error"]
            assert report["error"]["code"] == "inapplicable"
            assert report["exit_code"] == EXIT_INAPPLICABLE

    def test_classify_never_builds(self, tmp_path, monkeypatch):
        builds = count_builds(monkeypatch, "standard")
        out = tmp_path / "run"
        cli.run_tasks(INADMISSIBLE, out, [
            ("classify", "report_classify.json"),
            ("build", "report_build.json"),
            ("classify", "report_again.json")])
        assert len(builds) == 1
        for name in ("report_classify.json", "report_again.json"):
            report = load_report(out, name)
            assert report["exit_code"] == EXIT_OK
            assert report["error"] is None


class TestParserReuse:
    def test_no_argument_leaks_into_a_later_call(self, tmp_path):
        free = {"version": 1,
                "equation": {"rhs": "0", "lagrangian": "0.5*v^2"}}
        assert run("verify", write_spec(tmp_path, DAMPED, "damped.json"),
                   tmp_path / "a", "--tol", "1e-3", "--seed", "7") == EXIT_OK
        first = load_report(tmp_path / "a")["normalized_spec"]
        assert (first["options"]["verify_tol"], first["domain"]["seed"]) == \
            (1e-3, 7)
        assert run("verify", write_spec(tmp_path, free, "free.json"),
                   tmp_path / "b") == EXIT_OK
        assert load_report(tmp_path / "b")["normalized_spec"] == \
            normalize_spec(free)
        assert main(["demo", "free-particle", "--out",
                     str(tmp_path / "c")]) == EXIT_OK
        assert load_report(tmp_path / "c", "report_build.json")[
            "normalized_spec"] == normalize_spec(PRESETS["free-particle"])
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv", [
        ["verify", "--out", "o"],
        ["verify", "--spec", "s.json", "--tol", "tight"],
        ["demo", "--seed", "1.5"],
    ])
    def test_bad_arguments_still_exit_2(self, tmp_path, argv):
        # a call with every option set comes first, so a kept value would
        # stand in for a missing one
        spec = write_spec(tmp_path, DAMPED)
        assert run("build", spec, tmp_path / "a",
                   "--tol", "1e-3", "--seed", "7") == EXIT_OK
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


# one block per family; two families run on their preset's domain box
FAMILY_BLOCKS = {
    "standard": {"a": "0", "b": "0.2", "c": "1.0*x"},
    "reciprocal": {"F": "1.0 + 0.3*x^2", "G": "2.0 + 0.1*t + 0.2*x",
                   "nu": 2.0},
    "reciprocal-autonomous": {"a": "0", "b": "1.0*x", "lam": 0.9},
    "reciprocal-linear": {"b": "0", "c": "-1.0*t", "t_span": [0.1, 2.0]},
    "reciprocal-nu2": {"a": "0.4*x", "b": "0.3"},
    "monomial": {"a": "0.3*x", "b": "0.2", "c": "0.5*x", "mu": 3.0},
    "power-damping": {"a": "0.3*x", "c": "0.5", "nu": 0.1},
    "n-parameter": {"n": 3.0, "k": 1.0},
    "generalized-kinetic": {"f": "-0.4", "R": "(1 - v^2/9)^1.5",
                            "psi": "-9*(1 - v^2/9)^0.5"},
    "radical": {"A": "1.0 + 0.2*x^2", "B": "2.0 + 0.3*t + 0.1*x",
                "mu": 3.0, "nu": 2.0},
    "radical-equal": {"a": "0.3", "b": "0.2", "nu": 2.0},
    "radical-linear": {"a": "-0.3", "b": "0.4 + 0.1*t", "mu": 3.0},
    "exponential": {"a": "-0.3", "b": "0.4 + 0.1*t", "c0": 0.5},
    "composed": {"invariant": "v*exp(0.7*x)", "outer": "0.5*v^2",
                 "rhs": "-0.7*v^2"},
    "multiL": {"k": 0.5},
    "log-velocity": {"k": 1.0},
}

SPEC_EXTRAS = {
    "reciprocal-linear": {"domain": PRESETS["airy"]["domain"],
                          "options": {"verify_tol": 1e-5}},
    "reciprocal-autonomous": {"domain": PRESETS["lienard"]["domain"]},
}

MULTI_MEMBER = {"multiL", "log-velocity"}


def family_spec(family):
    return {"version": 1,
            "equation": {"family": family, **FAMILY_BLOCKS[family]},
            **SPEC_EXTRAS.get(family, {})}


class TestFamilyTable:
    def test_schema_enum_matches_table(self):
        schema = cli._schema()
        enum = schema["definitions"]["family_block"]["properties"]["family"]["enum"]
        assert set(enum) == set(FAMILIES)
        assert set(FAMILY_BLOCKS) == set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILY_BLOCKS))
    def test_commands_report_one_rhs(self, tmp_path, family):
        spec = write_spec(tmp_path, family_spec(family))
        rhs = set()
        for command in ("classify", "build", "verify"):
            out = tmp_path / command
            assert run(command, spec, out) == EXIT_OK, command
            rhs.add(load_report(out)["rhs"])
        assert len(rhs) == 1, rhs

    @pytest.mark.parametrize(
        "family", sorted(set(FAMILY_BLOCKS) - MULTI_MEMBER))
    def test_builder_certifies_reported_rhs(self, tmp_path, monkeypatch,
                                            family):
        verified = []
        original = common.verify_lagrangian

        def recording(L, ode, *args, **kwargs):
            verified.append(ode)
            return original(L, ode, *args, **kwargs)

        monkeypatch.setattr(common, "verify_lagrangian", recording)
        spec = write_spec(tmp_path, family_spec(family))
        out = tmp_path / "out"
        assert run("build", spec, out) == EXIT_OK
        reported = load_report(out)["rhs"]
        assert verified
        assert all(str(ode.rhs) == reported for ode in verified), \
            [str(ode.rhs) for ode in verified]


class TestOutDirectory:
    @pytest.mark.parametrize("command", ["demo", "build"])
    def test_an_unusable_out_is_an_input_error(self, tmp_path, capsys,
                                               command):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        argv = (["demo", "free-particle"] if command == "demo"
                else ["build", "--spec", write_spec(tmp_path, DAMPED)])
        for out in (taken, taken / "below"):
            assert main([*argv, "--out", str(out)]) == EXIT_INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.err.startswith(
                f"{command}: input-error (cannot use --out {out}: ")
            assert captured.out == ""
        assert taken.read_text() == "a file, not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(["taken"] + (["spec.json"] if command == "build" else []))


class TestAtomicWrite:
    def test_writes_the_text_with_owner_only_mode(self, tmp_path):
        path = tmp_path / "deep" / "report.json"
        cli._commit(path.parent, {path.name: "first\r\nsecond\n"})
        assert path.read_bytes() == b"first\r\nsecond\n"
        assert path.stat().st_mode & 0o777 == 0o600
        assert sorted(p.name for p in path.parent.iterdir()) == ["report.json"]

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_a_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, step):
        path = tmp_path / "report.json"
        path.write_text("old\n")

        def broken(*args):
            raise OSError(f"{step} failed")

        monkeypatch.setattr(cli.os, step, broken)
        with pytest.raises(OSError, match=f"{step} failed"):
            cli._commit(tmp_path, {path.name: "new\n"})
        monkeypatch.undo()
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class TestDurableRun:
    """A run fsyncs its output directory once, after its last rename, and
    fsyncs every file before it renames any."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """("replace", target name) and ("fsync", "file" or a directory's
        path), in the order the run made them."""
        seen = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                seen.append(("fsync", (info.st_dev, info.st_ino)))
            else:
                seen.append(("fsync", "file"))
            return real_fsync(fd)

        def replace(src, dst):
            seen.append(("replace", os.path.basename(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(cli.os, "fsync", fsync)
        monkeypatch.setattr(cli.os, "replace", replace)
        return seen

    @staticmethod
    def _directory(path):
        info = os.stat(path)
        return ("fsync", (info.st_dev, info.st_ino))

    def test_a_demo_syncs_its_directory_after_the_last_rename(self, tmp_path, steps):
        out = tmp_path / "out"
        assert main(["demo", "free-particle", "--out", str(out)]) == EXIT_OK
        renamed = [name for step, name in steps if step == "replace"]
        assert renamed[-1] == "run_meta.json"
        assert sorted(renamed) == sorted(p.name for p in out.iterdir())
        # every file is fsynced before its rename, the directory once, last
        assert steps.count(("fsync", "file")) == len(renamed)
        assert steps[-1] == self._directory(out)
        assert steps.count(self._directory(out)) == 1

    def test_a_task_syncs_its_directory_once(self, tmp_path, steps):
        spec = write_spec(tmp_path, PRESETS["free-particle"])
        out = tmp_path / "out"
        assert run("build", spec, out) == EXIT_OK
        assert [s for s in steps if s[0] == "replace"] == [
            ("replace", "report.json"), ("replace", "run_meta.json")]
        assert steps[-1] == self._directory(out)
        assert steps.count(self._directory(out)) == 1

    def test_an_unreadable_spec_report_is_synced(self, tmp_path, steps):
        out = tmp_path / "out"
        missing = str(tmp_path / "missing.json")
        assert run("verify", missing, out) == EXIT_INPUT_ERROR
        assert steps == [("fsync", "file"), ("replace", "report.json"),
                         self._directory(out)]

    def test_a_run_syncs_every_file_before_its_first_rename(self, tmp_path,
                                                            steps):
        out = tmp_path / "out"
        assert main(["demo", "damped-oscillator", "--out", str(out)]) == EXIT_OK
        produced = ["families.csv", "report_classify.json",
                    "report_build.json", "residuals.csv", "report_verify.json",
                    "trajectory.csv", "report_integrate.json", "run_meta.json"]
        assert steps == [("fsync", "file")] * len(produced) \
            + [("replace", name) for name in produced] + [self._directory(out)]

    def test_a_failed_fsync_keeps_every_old_file(self, tmp_path, monkeypatch,
                                                 capsys):
        out = tmp_path / "out"
        assert main(["demo", "free-particle", "--out", str(out)]) == EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        calls = []
        real_fsync = os.fsync

        def fsync(fd):
            if not stat.S_ISDIR(os.fstat(fd).st_mode):
                calls.append(fd)
                if len(calls) == 3:
                    raise OSError("fsync failed")
            return real_fsync(fd)

        monkeypatch.setattr(cli.os, "fsync", fsync)
        with pytest.raises(OSError, match="fsync failed"):
            main(["demo", "free-particle", "--seed", "7", "--out", str(out)])
        monkeypatch.undo()
        assert {path.name: path.read_bytes() for path in out.iterdir()} == \
            before
        # no status line claims artifacts that did not land
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("name", ["free-particle", "airy"])
    def test_without_posix_fadvise_the_artifacts_are_unchanged(
            self, tmp_path, monkeypatch, name):
        monkeypatch.delattr(os, "posix_fadvise", raising=False)
        golden = json.loads((Path(__file__).parent / "data"
                             / "demo_golden.json").read_text())[f"{name}/0"]
        out = tmp_path / "out"
        code = main(["demo", name, "--seed", "0", "--out", str(out)])
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in out.iterdir() if path.name != "run_meta.json"}
        assert {"exit_code": code, "files": digests} == golden

    def test_an_unclassified_error_keeps_what_earlier_tasks_rendered(
            self, tmp_path, monkeypatch, capsys):
        def broken(spec, *args):
            raise RuntimeError("verify broke")

        monkeypatch.setitem(cli._COMMANDS, "verify", broken)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="verify broke"):
            main(["demo", "free-particle", "--out", str(out)])
        assert sorted(path.name for path in out.iterdir()) == \
            ["report_build.json"]
        assert load_report(out, "report_build.json")["exit_code"] == EXIT_OK
        assert capsys.readouterr().out == f"build: ok (artifacts in {out})\n"
