"""Pinned output of the symbolic layer, and builds that ignore their history.

``data/symbolic_golden.json`` holds, for two seeds of each criterion-01 draw
(``test_acceptance.BUILDER_DRAWS``), the sha256 of ``repr`` of the built
``L.expr``, of its three first derivatives and of its six second
derivatives, in the order x, v, t and xx, xv, xt, vv, vt, tt (a jet
carries only the xv, vv and vt ones; the rest stay pinned here).  ``repr`` spells out every node and
every constant bit for bit, so any change to what ``differentiate`` or
``simplify`` return fails the comparison.  The digests were taken before
``simplify`` learned to share unchanged subtrees and to mark its fixed
points.

Running this module as a script prints the digests of the current tree in
the fixture's format::

    PYTHONPATH=src python tests/test_symbolic_golden.py
"""
import hashlib
import json
import random
from pathlib import Path

import pytest

from lagrangeforge import BuilderOptions, ZeroCrossingError, differentiate
from lagrangeforge.constructors import common

from test_acceptance import BUILDER_DRAWS, MAX_REDRAWS

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "symbolic_golden.json").read_text())
SEEDS = (1, 2)
STATE = ("x", "v", "t")
# the upper triangle of the Hessian, as index pairs into STATE
HESSIAN_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _build(draw, seed: int, tol: float):
    rng = random.Random(seed)
    options = BuilderOptions(verify=True, verify_tol=tol)
    for _ in range(MAX_REDRAWS + 1):
        try:
            return draw(rng, options)
        except ZeroCrossingError:
            continue
    raise AssertionError(f"no draw within {MAX_REDRAWS} redraws")


def _jet_slots(expr) -> list:
    first = [differentiate(expr, q) for q in STATE]
    second = [differentiate(first[i], STATE[j]) for i, j in HESSIAN_PAIRS]
    return [expr, *first, *second]


def _digests(expr) -> list:
    return [hashlib.sha256(repr(e).encode()).hexdigest()
            for e in _jet_slots(expr)]


CASES = [(f"{name}/{seed}", draw, seed, tol)
         for name, draw, tol in BUILDER_DRAWS for seed in SEEDS]


def _current() -> dict:
    return {key: _digests(_build(draw, seed, tol).expr)
            for key, draw, seed, tol in CASES}


def test_fixture_covers_every_criterion_01_family_at_two_seeds():
    assert sorted(GOLDEN) == sorted(key for key, *_ in CASES)
    assert len(GOLDEN) == 12 * len(SEEDS)
    assert all(len(digests) == 10 for digests in GOLDEN.values())


@pytest.mark.parametrize("key,draw,seed,tol", CASES, ids=[c[0] for c in CASES])
def test_symbolic_results_match_fixture(key, draw, seed, tol):
    assert _digests(_build(draw, seed, tol).expr) == GOLDEN[key]


def test_builds_do_not_depend_on_earlier_builds(monkeypatch):
    # the symbolic caches (free_vars, _diff_cached) and the simplify marks
    # on cached derivatives carry over between builds; results must not
    reports = []
    verify = common.verify_lagrangian

    def record(L, ode, box, tol=1e-8):
        report = verify(L, ode, box, tol)
        reports.append((repr(report), repr(report.residuals)))
        return report

    monkeypatch.setattr(common, "verify_lagrangian", record)

    def one_pass(draws):
        out = {}
        for name, draw, tol in draws:
            reports.clear()
            L = _build(draw, SEEDS[0], tol)
            out[name] = (repr(L.expr), tuple(reports))
        return out

    first = one_pass(BUILDER_DRAWS)
    again = one_pass(BUILDER_DRAWS[::-1])
    assert all(reports for _, reports in first.values())
    assert again == first


if __name__ == "__main__":
    print(json.dumps(_current(), indent=1, sort_keys=True))
