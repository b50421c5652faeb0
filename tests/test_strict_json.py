"""Reports are strict JSON (RFC 8259): no bare ``NaN`` or ``Infinity`` tokens.

JSON has no non-finite numbers.  A report that holds one writes it as the
string ``"NaN"``, ``"Infinity"`` or ``"-Infinity"``, so that any strict
parser reads every report.

The CLI's one-pass writer is compared byte for byte with the standard
library's encoder, run on the non-finite-free copy that ``reference_strict``
makes: the reference is kept here, beside the writer it checks.
"""
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangeforge import cli
from lagrangeforge.presets import preset_names
from test_cli import run, write_spec
from test_lagrangian import NAN_HOLE


def strict_loads(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def reference_strict(value):
    """``value`` with each NaN or infinity as a string, tuples as lists."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0.0 else "-Infinity"
    if isinstance(value, dict):
        return {key: reference_strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_strict(item) for item in value]
    return value


def reference_text(value) -> str:
    return json.dumps(reference_strict(value), indent=2, sort_keys=True,
                      allow_nan=False)


def test_non_finite_numbers_become_strings(tmp_path):
    payload = {"a": [1.5, math.nan, (math.inf, -math.inf)],
               "b": {"c": -0.0, "d": None, "e": True, "f": 3}, "g": "NaN"}
    cli._write_json(tmp_path / "r.json", payload)
    assert strict_loads((tmp_path / "r.json").read_text()) == {
        "a": [1.5, "NaN", ["Infinity", "-Infinity"]],
        "b": {"c": -0.0, "d": None, "e": True, "f": 3}, "g": "NaN"}


def test_a_finite_report_is_written_as_before(tmp_path):
    payload = {"z": [0.1, -0.0, 2], "a": {"b": (1e300, "x")}}
    cli._write_json(tmp_path / "r.json", payload)
    assert (tmp_path / "r.json").read_text() == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"


NAN_BOX = {"x": [-1, 1], "v": [0.2, 2], "t": [0, 1], "grid": [4, 4, 4],
           "n_random": 32, "seed": 1}


def test_a_nan_verdict_is_strict_json(tmp_path):
    # a Lagrangian whose residual is NaN at 46 of 96 points fails to verify
    spec = write_spec(tmp_path, {
        "version": 1,
        "equation": {"rhs": "0*x", "lagrangian": "0.5*v^2 + " + NAN_HOLE},
        "domain": NAN_BOX,
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


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
    [[[1, [2.5, [None]]]], {"k": ({"m": math.inf},)}],
    {"naïve": "Lagrangian ∫ L dt = 𝓛", "ctrl": "tab\there\nquote\"\\",
     "esc": "\x00\x1f\x7f ", "lone": "\ud800"},
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "neg0": -0.0,
     "big": 1e308, "tiny": 5e-324, "int": -(2 ** 70), "bools": [True, False]},
    "just a string", 1.25, math.nan, -math.inf, 7, None, True,
    [np.float64(0.1), np.float64(math.nan)],
    {"b": 1, "a": 2, "B": 3, "": 4, "é": 5, "10": 6, "9": 7},
])
def test_the_writer_is_the_stdlib_encoder(value):
    assert cli._json_text(value) == reference_text(value)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_the_writer_is_the_stdlib_encoder_on_any_json_value(value):
    assert cli._json_text(value) == reference_text(value)


@pytest.mark.parametrize("value", [
    {1, 2}, object(), b"bytes", np.int64(3), np.bool_(True), [1, 2j],
    {"a": {"b": np.array([1.0])}},
])
def test_what_the_stdlib_refuses_raises_type_error(value):
    with pytest.raises(TypeError):
        reference_text(value)
    with pytest.raises(TypeError):
        cli._json_text(value)


def _recorded_writes(monkeypatch) -> list:
    """The (path, payload) of every report the CLI writes from now on."""
    writes = []
    real = cli._write_json

    def recording(path, payload):
        writes.append((path, payload))
        real(path, payload)

    monkeypatch.setattr(cli, "_write_json", recording)
    return writes


def _assert_written_as_the_stdlib_would(writes):
    assert writes
    for path, payload in writes:
        assert path.read_bytes() == \
            (reference_text(payload) + "\n").encode("ascii"), path.name


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_report_is_the_stdlib_encoding(name, tmp_path,
                                                    monkeypatch):
    writes = _recorded_writes(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["demo", name, "--out", str(tmp_path)]) == cli.EXIT_OK
    _assert_written_as_the_stdlib_would(writes)


@pytest.mark.parametrize("command, spec, code", [
    # a family block with a bad field: an input-error report
    ("build", {"equation": {"family": "standard", "a": "0", "b": "0",
                            "c": "x +"}}, cli.EXIT_INPUT_ERROR),
    # no family block to build: an inapplicable report
    ("build", {"equation": {"rhs": "-x"}}, cli.EXIT_INAPPLICABLE),
    # a builder that cannot certify: the error carries its verification
    ("build", {"equation": {"family": "standard", "a": "0", "b": "0.2",
                            "c": "1.0*x"}, "options": {"verify_tol": 1e-300}},
     cli.EXIT_VERIFY_FAIL),
    # a NaN residual: a failed verdict with NaN in the report
    ("verify", {"equation": {"rhs": "0*x",
                             "lagrangian": "0.5*v^2 + " + NAN_HOLE},
                "domain": NAN_BOX}, cli.EXIT_VERIFY_FAIL),
])
def test_error_reports_are_the_stdlib_encoding(command, spec, code, tmp_path,
                                                monkeypatch):
    path = write_spec(tmp_path, {"version": 1, **spec})
    writes = _recorded_writes(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(command, path, tmp_path / "out") == code
    _assert_written_as_the_stdlib_would(writes)
    report = strict_loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_code"] == code
    if command == "build":
        assert report["error"] is not None


def test_an_unreadable_spec_report_is_the_stdlib_encoding(tmp_path,
                                                          monkeypatch):
    writes = _recorded_writes(monkeypatch)
    with contextlib.redirect_stderr(io.StringIO()):
        assert run("build", str(tmp_path / "missing.json"),
                   tmp_path / "out") == cli.EXIT_INPUT_ERROR
    _assert_written_as_the_stdlib_would(writes)
