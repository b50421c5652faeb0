"""Pinned output of the structural classifier.

``data/classify_golden.json`` holds, for every rhs the CLI classify tests
use, for two rhs that are undefined at some probe points, and for the
target of every family block in ``test_cli.FAMILY_BLOCKS`` on its spec's
domain, the entries ``classify_equation`` reported before its probes moved
onto ``evaluate_field``.  Residuals are stored as ``repr`` strings, which is
how ``families.csv`` prints them, so a last-bit change or a numpy scalar in
place of a float fails the comparison.
"""
import json
from pathlib import Path

import pytest

from lagrangeforge import cli
from lagrangeforge.expressions import parse_expression

from test_cli import FAMILY_BLOCKS

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "classify_golden.json").read_text())


def _classify(spec: dict) -> tuple:
    normalized = cli.normalize_spec(spec)
    f = cli._target(normalized)
    return f, cli.classify_equation(f, normalized["domain"])


def test_fixture_covers_every_family_block():
    cases = {case["case"] for case in GOLDEN}
    assert {f"family:{name}" for name in FAMILY_BLOCKS} <= cases


@pytest.mark.parametrize("case", GOLDEN, ids=[c["case"] for c in GOLDEN])
def test_classification_matches_fixture(case):
    f, entries = _classify(case["spec"])
    assert str(f) == case["rhs"]
    got = [{"family": e["family"], "applicable": e["applicable"],
            "residual": None if e["residual"] is None else repr(e["residual"]),
            "reason": e["reason"]} for e in entries]
    assert got == case["classification"]


def test_entries_follow_the_family_table():
    dom = {"x": [-1.0, 1.0], "t": [0.0, 1.5]}
    entries = cli.classify_equation(parse_expression("-0.8*v"), dom)
    probed = [name for name, family in cli.FAMILIES.items()
              if family.classify is not None]
    assert [e["family"] for e in entries] == probed
    assert len(probed) == 10


@pytest.mark.parametrize("rhs, mu", [
    ("-(t*abs(x)*v^2 + x*abs(x)*v)", "2"),
    ("-(t*abs(x)*v^2 + 2*x*abs(x)*v)", "1.33333"),
])
def test_monomial_exponent_pairs_coefficients_at_one_point(rhs, mu):
    # b_x is undefined at x = 0, a_t is not; each ratio must pair the two
    # at the same point
    dom = {"x": [-1.0, 1.0], "t": [0.0, 1.5]}
    table = {e["family"]: e
             for e in cli.classify_equation(parse_expression(rhs), dom)}
    monomial = table["monomial"]
    assert monomial["applicable"]
    assert monomial["residual"] == 0.0
    assert monomial["reason"] == f"consistent exponent mu = {mu}"
