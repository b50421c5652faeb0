"""Reports are strict JSON (RFC 8259): no bare ``NaN`` or ``Infinity`` tokens.

JSON has no non-finite numbers.  A report that holds one writes it as the
string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``, so that any strict
parser reads every report.
"""
import json
import math

from lagrangeforge import cli
from test_cli import run, write_spec
from test_lagrangian import NAN_HOLE


def strict_loads(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_non_finite_numbers_become_strings():
    payload = {"a": [1.5, math.nan, (math.inf, -math.inf)],
               "b": {"c": -0.0, "d": None, "e": True, "f": 3}, "g": "NaN"}
    assert cli._strict_json(payload) == {
        "a": [1.5, "NaN", ["Infinity", "-Infinity"]],
        "b": {"c": -0.0, "d": None, "e": True, "f": 3}, "g": "NaN"}


def test_a_finite_report_is_written_as_before(tmp_path):
    payload = {"z": [0.1, -0.0, 2], "a": {"b": (1e300, "x")}}
    cli._write_json(tmp_path / "r.json", payload)
    assert (tmp_path / "r.json").read_text() == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_a_nan_verdict_is_strict_json(tmp_path):
    # a Lagrangian whose residual is NaN at 46 of 96 points fails to verify
    spec = write_spec(tmp_path, {
        "version": 1,
        "equation": {"rhs": "0*x", "lagrangian": "0.5*v^2 + " + NAN_HOLE},
        "domain": {"x": [-1, 1], "v": [0.2, 2], "t": [0, 1], "grid": [4, 4, 4],
                   "n_random": 32, "seed": 1},
    })
    out = tmp_path / "out"
    assert run("verify", spec, out) == cli.EXIT_VERIFY_FAIL
    text = (out / "report.json").read_text()
    report = strict_loads(text)
    [verification] = report["verification"].values()
    assert verification["passed"] is False
    assert verification["max_residual"] == "NaN"
    assert verification["regularity_min"] == "NaN"
    strict_loads((out / "run_meta.json").read_text())
