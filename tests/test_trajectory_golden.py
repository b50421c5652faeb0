"""Pinned trajectories of the Dormand-Prince integrator, bit for bit.

``data/trajectory_golden.json`` holds, for each case below, the sha256 of
the ``float.hex`` spelling of every stored time, state and derivative, with
the step and rejection counts.  The cases are the integrations of
``test_dynamics.py``, a right-hand side that runs every function rule and a
shared subtree, one that carries an integral, and the auxiliary solutions
of two ``reciprocal-linear`` builds (one trajectory per build, over the
whole span).
A failing integration is pinned by its exception type and message.

Running this module as a script prints the digests of the current tree in
the fixture's format::

    PYTHONPATH=src python tests/test_trajectory_golden.py
"""
import hashlib
import json
from pathlib import Path

import pytest

from lagrangeforge import (
    Antideriv,
    Const,
    IntegratorConfig,
    LagrangeForgeError,
    OdeSpec,
    build_reciprocal_linear,
    integrate_ode,
    parse_expression,
)
from lagrangeforge import dynamics

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "trajectory_golden.json").read_text())


def _ode(text: str) -> OdeSpec:
    return OdeSpec(parse_expression(text))


# name -> (ode, x0, v0, t0, t1, config or None)
INTEGRATIONS = {
    "linear-drag": (_ode("-1.0*v"), 0.0, 1.0, 0.0, 1.0, None),
    "linear-drag-long": (_ode("-1.0*v"), 0.0, 1.0, 0.0, 2.0, None),
    "linear-drag-backward": (_ode("-1.0*v"), 0.6321205588285577,
                             0.36787944117144233, 1.0, 0.0, None),
    "linear-drag-zero-width": (_ode("-1.0*v"), 0.3, 0.7, 1.0, 1.0, None),
    "quadratic-drag": (_ode("-1.0*v^2"), 0.0, 1.0, 0.0, 1.0, None),
    "harmonic-period": (_ode("-1.0*x"), 0.0, 1.0, 0.0,
                        6.283185307179586, None),
    "harmonic-energy": (_ode("-1.0*x"), 0.3, 0.4, 0.0, 3.0, None),
    "harmonic-max-steps": (_ode("-1.0*x"), 0.0, 1.0, 0.0, 50.0,
                           IntegratorConfig(max_steps=3)),
    "drag-first-integral": (_ode("-0.7*v^2"), 0.0, 1.0, 0.0, 2.0, None),
    "blow-up-guard": (_ode("v^2"), 0.0, 1.0, 0.0, 1.5,
                      IntegratorConfig(overflow_guard=1e6)),
    "linear-guard": (_ode("x"), 5.0, 5.0, 0.0, 20.0,
                     IntegratorConfig(overflow_guard=10.0)),
    "log-domain": (_ode("ln(x)"), -1.0, 0.0, 0.0, 1.0, None),
    "every-rule": (_ode(
        "-sin(x) - 0.1*v*abs(v) + 0.2*cos(1.3*t)*exp(-x^2)"
        " + 0.05*sqrt(1 + v^2)*ln(2 + sin(x)) + (1 + x^2)^(-1.5)*(1 + x^2)"),
        0.2, 0.1, 0.0, 4.0, None),
    "integral": (OdeSpec(Const(-1.0) * parse_expression("x") + Antideriv(
        parse_expression("exp(-(t*t))*x"), "t", 0.0)),
        0.5, 0.0, 0.0, 1.0, None),
}

# name -> (b, c, t_span) of a reciprocal-linear build
FITS = {
    "fit-airy": ("0", "-1.0*t", (0.1, 2.0)),
    "fit-constant-damping": ("0.6", "0", (0.0, 2.0)),
}


def _hex_digest(values) -> str:
    text = " ".join(float(u).hex() for u in values)
    return hashlib.sha256(text.encode()).hexdigest()


def _flat(pairs) -> list:
    return [u for pair in pairs for u in pair]


def _digest(trajectories) -> dict:
    return {
        "segments": len(trajectories),
        "times": _hex_digest(u for tr in trajectories for u in tr.times),
        "states": _hex_digest(u for tr in trajectories
                              for u in _flat(tr.states)),
        "derivs": _hex_digest(u for tr in trajectories
                              for u in _flat(tr.derivs)),
        "n_steps": sum(tr.n_steps for tr in trajectories),
        "n_rejected": sum(tr.n_rejected for tr in trajectories),
    }


def _integration(name: str) -> dict:
    ode, x0, v0, t0, t1, config = INTEGRATIONS[name]
    args = (ode, x0, v0, t0, t1) + ((config,) if config else ())
    # a problem solved earlier in this process would be read from the cache
    dynamics._solve.cache_clear()
    try:
        return _digest([integrate_ode(*args)])
    except LagrangeForgeError as err:
        return {"raises": type(err).__name__, "message": str(err)}


def _fit(name: str, monkeypatch) -> dict:
    b, c, span = FITS[name]
    trajectories = []
    solve = dynamics._integrate_dp45

    def record(*args, **kwargs):
        trajectories.append(solve(*args, **kwargs))
        return trajectories[-1]

    # a solution solved earlier in this process would be read from the cache
    dynamics._solve.cache_clear()
    monkeypatch.setattr(dynamics, "_integrate_dp45", record)
    build_reciprocal_linear(parse_expression(b), parse_expression(c), span)
    return _digest(trajectories)


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted([*INTEGRATIONS, *FITS])


@pytest.mark.parametrize("name", sorted(INTEGRATIONS))
def test_integration_matches_fixture(name):
    assert _integration(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(FITS))
def test_auxiliary_fit_matches_fixture(name, monkeypatch):
    assert _fit(name, monkeypatch) == GOLDEN[name]


def _current() -> dict:
    out = {name: _integration(name) for name in INTEGRATIONS}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in FITS:
            out[name] = _fit(name, monkeypatch)
    return out


if __name__ == "__main__":
    print(json.dumps(_current(), indent=1, sort_keys=True))
