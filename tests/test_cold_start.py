"""The spec validator loads at the first validation, once per process.

``jsonschema`` costs a process about 75 ms and 3 MB to import, and ``demo``
never validates a spec.  The import checks run in a fresh interpreter,
because this test process has loaded ``jsonschema`` already.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import pytest

from lagrangeforge import cli
from lagrangeforge.presets import PRESETS

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code: str, *argv: str) -> str:
    """The last line ``code`` prints when run in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_importing_the_cli_leaves_jsonschema_unloaded():
    assert fresh("""
        import sys
        import lagrangeforge.cli
        print("jsonschema" in sys.modules)
    """) == "False"


def test_a_demo_leaves_jsonschema_unloaded(tmp_path):
    assert fresh("""
        import sys
        from lagrangeforge import cli
        code = cli.main(["demo", "free-particle", "--out", sys.argv[1]])
        print(code, "jsonschema" in sys.modules)
    """, str(tmp_path / "out")) == "0 False"


def test_validating_a_spec_loads_jsonschema():
    assert fresh("""
        import sys
        from lagrangeforge.cli import validate_spec
        from lagrangeforge.presets import PRESETS
        validate_spec(PRESETS["airy"])
        print("jsonschema" in sys.modules)
    """) == "True"


@pytest.mark.parametrize("change, message", [
    ({"version": 2}, "spec invalid at version: 1 was expected"),
    ({"bogus": 1}, "spec invalid at <root>: Additional properties are not "
                   "allowed ('bogus' was unexpected)"),
])
def test_a_first_validation_keeps_its_message(change, message):
    assert fresh("""
        import json
        import sys
        from lagrangeforge.cli import validate_spec
        from lagrangeforge.errors import SpecValidationError
        from lagrangeforge.presets import PRESETS
        try:
            validate_spec({**PRESETS["airy"], **json.loads(sys.argv[1])})
        except SpecValidationError as exc:
            print(exc)
    """, json.dumps(change)) == message


def test_three_validations_build_one_validator(monkeypatch):
    built = []
    real = jsonschema.Draft7Validator

    def spy(schema):
        built.append(schema)
        return real(schema)

    monkeypatch.setattr(jsonschema, "Draft7Validator", spy)
    cli._validator.cache_clear()
    try:
        for name in ("airy", "free-particle", "damped-oscillator"):
            cli.validate_spec(PRESETS[name])
    finally:
        cli._validator.cache_clear()
    assert len(built) == 1
