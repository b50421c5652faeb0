"""Workload inputs, operations and the hand-written verdict oracle.

Every workload is a sequence of *rounds*.  A round holds exactly one
operation of each kind the workload covers, in a fixed order, so a run made
of whole rounds always has the same mix of cheap and expensive operations
and its percentiles do not jump between kinds.  Round ``r`` of workload
seed ``s`` is drawn from ``random.Random(f"{s}:{r}")``: the same seed gives
the same inputs, however many rounds a run needs.

The coefficient recipes are copied from criterion 01 of the acceptance
suite (``tests/test_acceptance.py``), split into a draw, made while the
inputs are generated, and a build, which is the timed operation.  Keeping a
copy here means an edit to the tests cannot change the benchmark.

Library functions are looked up on their module at call time
(``lf.verify_lagrangian``, ``cli.main``), so that the tracer's patches on
those module attributes see the benchmark's own calls.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import lagrangeforge as lf
from lagrangeforge import cli, constructors
from lagrangeforge import Const, Exp, OdeSpec, Pow, Var, simplify
from lagrangeforge.presets import PRESETS, preset_names

X, V, T = Var("x"), Var("v"), Var("t")

PASS, FAIL, REDRAW = "pass", "fail", "redraw"


@dataclass
class Op:
    """One timed operation: ``run()`` is timed, ``judge`` is not.

    ``judge(result)`` turns what ``run`` returned into a verdict string,
    which the oracle compares with ``expect``.  ``build`` marks operations
    that are one builder call, which is what redraws are counted against.
    ``out_dir`` is where a CLI operation writes its artifacts.
    """

    kind: str
    expect: str
    run: Callable[[], object]
    judge: Callable[[object], str] = field(default=lambda result: PASS)
    build: bool = False
    out_dir: Path | None = None


def verdict_of(op: Op, scope=contextlib.nullcontext) -> tuple[str, float]:
    """Run ``op`` inside ``scope()`` and return ``(verdict, seconds)``.

    The seconds cover ``run`` only, not the judging of its result.

    A builder that cannot certify its result raises
    ``ConstructionVerificationError``, which is a ``fail`` verdict.  A
    ``ZeroCrossingError`` means the draw left the family's domain, which
    criterion 01 answers with a redraw.  Any other exception is reported as
    ``error: ...`` and never matches an expected verdict.
    """
    with scope():
        start = perf_counter()
        try:
            result = op.run()
        except lf.ConstructionVerificationError:
            return FAIL, perf_counter() - start
        except lf.ZeroCrossingError:
            return REDRAW, perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - every raise is a finding
            return f"error: {type(exc).__name__}: {exc}", perf_counter() - start
        elapsed = perf_counter() - start
    try:
        return op.judge(result), elapsed
    except Exception as exc:  # noqa: BLE001 - a broken artifact is a finding
        return f"error: judge raised {type(exc).__name__}: {exc}", elapsed


def is_failure(op: Op, verdict: str) -> bool:
    """The oracle: a redraw of a builder is expected, anything else must match."""
    if verdict == REDRAW and op.build:
        return False
    return verdict != op.expect


# --- criterion-01 coefficient recipes ------------------------------------------

def poly(rng: random.Random, var, scale: float, bias: float = 0.0,
         degree: int = 3):
    """Bounded random polynomial sum_i c_i var^i with |c_i| <= scale."""
    expr = Const(bias + rng.uniform(-scale, scale))
    for i in range(1, degree + 1):
        expr = expr + Const(rng.uniform(-scale, scale)) * Pow(var, Const(float(i)))
    return simplify(expr)


def _lin(rng, lo, hi, slo, shi, var=T):
    return simplify(Const(rng.uniform(lo, hi)) + Const(rng.uniform(slo, shi)) * var)


def _draw_standard(rng):
    a = poly(rng, X, 0.3)
    b = poly(rng, T, 0.4)
    c = simplify(poly(rng, X, 0.8) + Const(rng.uniform(-0.3, 0.3)) * T * X)
    return "build_standard", (lf.StandardCoeffs(a, b, c),), {}


def _draw_monomial(rng):
    mu = rng.choice([-2.0, -1.0, 0.5, 2.5, 3.0])
    return "build_monomial", (poly(rng, X, 0.3), poly(rng, T, 0.3),
                              poly(rng, X, 0.5), mu), {}


def _draw_power_damping(rng):
    nu = rng.choice([-1.0, -0.5, 0.5, 2.5, 3.0])
    return "build_power_damping", (poly(rng, X, 0.3), poly(rng, X, 0.5), nu), {}


def _draw_generalized_kinetic(rng):
    f = simplify(poly(rng, X, 0.8) + Const(rng.uniform(-0.3, 0.3)) * T)
    R = simplify(Const(rng.uniform(0.6, 1.6))
                 + Const(rng.uniform(0.2, 1.2)) * Pow(V, Const(2.0)))
    return "build_generalized_kinetic", (f, R), {}


def _draw_autonomous_completion(rng):
    a = poly(rng, X, 0.25)
    b = _lin(rng, 1.0, 2.0, -0.3, 0.3, X)
    c = lf.c_from_ab(a, b, lam=rng.uniform(0.0, 1.0))
    return "build_reciprocal_autonomous", (a, b, c), {}


def _draw_autonomous_from_bc(rng):
    b = _lin(rng, 1.0, 2.0, -0.3, 0.3, X)
    c = _lin(rng, 1.0, 2.0, 0.0, 0.5, X)
    return "build_reciprocal_autonomous", (lf.a_from_bc(b, c), b, c), {}


def _linear_tb(rng):
    b = _lin(rng, -0.5, 0.5, -0.3, 0.3)
    c = _lin(rng, -0.8, 0.4, -0.3, 0.3)
    return b, c


def _draw_reciprocal_linear(rng):
    b, c = _linear_tb(rng)
    return "build_reciprocal_linear", (b, c, (0.1, 2.0)), {}


def _draw_reciprocal_nu2(rng):
    return "build_reciprocal_nu2", (poly(rng, X, 0.3), poly(rng, T, 0.3)), {}


def _draw_radical_equal(rng):
    nu = rng.choice([0.5, 2.0, 3.0])
    a = _lin(rng, -0.2, 0.2, -0.1, 0.1)
    scale = 0.3 / nu
    b = _lin(rng, -scale, scale, -scale / 2, scale / 2)
    return "build_radical_equal", (a, b, nu), {"S0": 2.5 + rng.uniform(0.0, 1.0)}


def _draw_radical_linear(rng):
    mu = rng.choice([-2.0, 0.5, 2.0, 3.0])
    a = _lin(rng, -0.3, 0.3, -0.2, 0.2)
    b = _lin(rng, -0.3, 0.3, -0.2, 0.2)
    return "build_radical_linear", (a, b, mu), {"B0": 3.0}


def _draw_exponential(rng):
    a = _lin(rng, -0.4, 0.4, -0.2, 0.2)
    b = _lin(rng, -0.4, 0.4, -0.2, 0.2)
    outer = simplify(Const(0.5 * rng.uniform(0.5, 2.0)) * Pow(V, Const(2.0))
                     + Const(rng.uniform(-0.5, 0.5)) * V)
    return "build_exponential_family", (a, b), {"outer": outer,
                                                "c0": rng.uniform(-0.5, 0.5)}


def _draw_composed(rng):
    k = rng.uniform(0.3, 1.2)
    invariant = simplify(V * Exp(Const(k) * X))
    outer = simplify(Const(0.5 * rng.uniform(0.5, 2.0)) * Pow(V, Const(2.0))
                     + Const(rng.uniform(0.0, 0.5)) * V)
    ode = OdeSpec(simplify(Const(-k) * Pow(V, Const(2.0))))
    return "build_composed_invariant", (invariant, outer, ode), {}


# (name, recipe, verify_tol); numerically solved paths get the relaxed tolerance
ANTIDERIV_FAMILIES = [
    ("standard", _draw_standard, 1e-6),
    ("monomial", _draw_monomial, 1e-6),
    ("power-damping", _draw_power_damping, 1e-6),
    ("generalized-kinetic", _draw_generalized_kinetic, 1e-6),
    ("autonomous-completion", _draw_autonomous_completion, 1e-6),
    ("autonomous-from-bc", _draw_autonomous_from_bc, 1e-6),
    ("radical-equal", _draw_radical_equal, 1e-6),
    ("radical-linear", _draw_radical_linear, 1e-6),
    ("exponential", _draw_exponential, 1e-6),
]

CLOSED_FAMILIES = [
    ("reciprocal-linear", _draw_reciprocal_linear, 1e-5),
    ("reciprocal-nu2", _draw_reciprocal_nu2, 1e-6),
    ("composed", _draw_composed, 1e-6),
]


def _build_op(kind, recipe, tol, rng) -> Op:
    name, args, kwargs = recipe(rng)
    options = lf.BuilderOptions(verify=True, verify_tol=tol)

    def run():
        return getattr(lf, name)(*args, options=options, **kwargs)

    def judge(result):
        return PASS if isinstance(result, lf.Lagrangian) else f"error: got {result!r}"

    return Op(kind, PASS, run, judge, build=True)


# --- negative controls (criteria 04, 06 and 07, with drawn coefficients) -------

# the boxes of criteria 06 and 07
_RL_BOX = dict(x=(0.2, 1.2), v=(0.2, 2.0), t=(0.1, 2.0), grid=(4, 4, 6),
               n_random=20, seed=5)
_NU2_BOX = dict(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5), grid=(4, 4, 4),
                n_random=24, seed=7)
# the box of criterion 04
_MULTI_BOX = dict(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 2.0), grid=(4, 4, 4),
                  n_random=24, seed=17)
EQUIVALENCE_TOL = 1e-8
SEPARATION_GAP = 1e-2


def _verified(report) -> str:
    return PASS if report.passed else FAIL


def _rl_variant_op(rng) -> Op:
    b, c = _linear_tb(rng)
    ode = OdeSpec(simplify(-(b * V + c * X)))
    box = lf.DomainBox(**_RL_BOX)

    def run():
        variant = constructors.build_reciprocal_linear_variant(b, c, (0.1, 2.0))
        return lf.verify_lagrangian(variant, ode, box, tol=1e-5)

    return Op("reciprocal-linear-variant", FAIL, run, _verified)


def _nu2_variant_op(rng) -> Op:
    a, b = poly(rng, X, 0.3), poly(rng, T, 0.3)
    ode = OdeSpec(simplify(-(a * Pow(V, Const(2.0)) + b * V)))
    box = lf.DomainBox(**_NU2_BOX)

    def run():
        variant = constructors.build_reciprocal_nu2_variant(a, b)
        return lf.verify_lagrangian(variant, ode, box, tol=1e-8)

    return Op("reciprocal-nu2-variant", FAIL, run, _verified)


def _multi_equivalence_op(rng) -> Op:
    k = rng.uniform(0.2, 1.0)
    box = lf.DomainBox(**_MULTI_BOX)

    def run():
        suite = lf.multi_lagrangian_suite(k)
        return lf.pairwise_acceleration_gap(list(suite.members.values()), box)

    return Op("multiL-equivalence", PASS, run,
              lambda gap: PASS if gap <= EQUIVALENCE_TOL else FAIL)


def _multi_control_op(rng) -> Op:
    k = rng.uniform(0.2, 1.0)
    box = lf.DomainBox(**_MULTI_BOX)

    def run():
        suite = lf.multi_lagrangian_suite(k)
        first = next(iter(suite.members.values()))
        return lf.pairwise_acceleration_gap([suite.control, first], box)

    def judge(gap):
        if gap <= EQUIVALENCE_TOL:
            return PASS
        # a control must separate by a clear margin, not just miss the tolerance
        return FAIL if gap > SEPARATION_GAP else f"weak separation {gap:.3e}"

    return Op("multiL-control", FAIL, run, judge)


# --- the CLI demo ----------------------------------------------------------------

def _judge_demo(out_dir: Path, tasks: list):
    def judge(code) -> str:
        if code != 0:
            return f"exit code {code}"
        for task in tasks:
            report = json.loads((out_dir / f"report_{task}.json").read_text())
            if report.get("exit_code") != 0 or report.get("error") is not None:
                return f"{task}: exit {report.get('exit_code')} {report.get('error')}"
            for member, ver in report.get("verification", {}).items():
                if ver.get("passed") is not True:
                    return f"{task}: {member} did not pass"
            if "equivalent" in report and report["equivalent"] is not True:
                return f"{task}: members not equivalent"
            control = report.get("control")
            if control is not None and control.get("separates") is not True:
                return f"{task}: control does not separate"
        return PASS
    return judge


def demo_op(preset: str, seed: int, out_dir: Path) -> Op:
    argv = ["demo", preset, "--out", str(out_dir), "--seed", str(seed)]

    def run():
        # the CLI reports each task on stdout; keep it off the result stream
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    return Op(f"demo:{preset}", PASS, run,
              _judge_demo(out_dir, PRESETS[preset].get("tasks", ["build"])),
              out_dir=out_dir)


# --- workloads -------------------------------------------------------------------

# presets that cli-demo runs at a second seed in every round (see _demo_round)
SECOND_SEED_PRESETS = ("airy", "quadratic-drag", "relativistic")


class Workload:
    """Deterministic rounds of operations for one workload and seed."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self._rounds: list[list[Op]] = []
        self._draw = {
            "certify-antideriv": self._antideriv_round,
            "certify-closed": self._closed_round,
            "cli-demo": self._demo_round,
        }[name]
        if name == "cli-demo":
            # demo never validates its presets; validating them here loads
            # the schema once per set-up and proves the inputs are valid specs
            for preset in preset_names():
                cli.validate_spec(PRESETS[preset])

    def round(self, r: int) -> list[Op]:
        while len(self._rounds) <= r:
            rng = random.Random(f"{self.seed}:{len(self._rounds)}")
            self._rounds.append(self._draw(rng, len(self._rounds)))
        return self._rounds[r]

    def _antideriv_round(self, rng, r):
        return [_build_op(name, recipe, tol, rng)
                for name, recipe, tol in ANTIDERIV_FAMILIES]

    def _closed_round(self, rng, r):
        ops = [_build_op(name, recipe, tol, rng)
               for name, recipe, tol in CLOSED_FAMILIES]
        return ops + [_rl_variant_op(rng), _nu2_variant_op(rng),
                      _multi_equivalence_op(rng), _multi_control_op(rng)]

    def _demo_round(self, rng, r):
        # every preset at one seed, plus three at a second seed.  The costs
        # form bands, and a percentile on the edge of a band jumps between
        # runs, so the extras put p90 inside the band of airy (the one preset
        # that solves an auxiliary ODE, 60% of a round's time) and p50 inside
        # the band of quadratic-drag and relativistic
        seed, again = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
        ops = [demo_op(p, seed, self.scratch / f"r{r}-{p}") for p in preset_names()]
        return ops + [demo_op(p, again, self.scratch / f"r{r}-{p}-2")
                      for p in SECOND_SEED_PRESETS]
