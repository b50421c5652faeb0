"""Structural scans agree with a plain ``evaluate`` loop, bit for bit.

Each scan runs one ``evaluate_field`` walk over its points.  The references
below evaluate the same expression point by point with ``evaluate``, on the
same points in the same order, and reduce the same way.  Integrals on
both sides run from their bases, so neither depends on what ran before.
Where the loop raises ``EvalDomainError``, the scan must raise it too.
"""
import math

import pytest

from lagrangeforge import cli
from lagrangeforge.constructors import (
    StandardCoeffs,
    c_from_ab,
    constraint_defect,
    monomial_admissibility_defect,
)
from lagrangeforge.constructors.common import min_abs_in_time
from lagrangeforge.constructors.standard import admissibility_defect
from lagrangeforge.dynamics import integrate_ode, monitor_quantity
from lagrangeforge.errors import EvalDomainError
from lagrangeforge.evaluation import evaluate
from lagrangeforge.expressions import (
    Const,
    Div,
    Pow,
    Sub,
    antideriv_depth,
    differentiate,
    parse_expression,
    simplify,
    substitute,
)
from lagrangeforge.lagrangian import DomainBox, OdeSpec

P = parse_expression


def outcome(fn, *args):
    """``fn(*args)``, or EvalDomainError if it raised that."""
    try:
        return fn(*args)
    except EvalDomainError:
        return EvalDomainError


def max_abs_loop(expr, bindings) -> float:
    worst = 0.0
    for binding in bindings:
        worst = max(worst, abs(evaluate(expr, binding)))
    return worst


# --- references -------------------------------------------------------------

def constraint_loop(a, b, c, x_interval, n=41):
    defect = simplify(
        differentiate(c, "x")
        + (a - Div(differentiate(b, "x"), b)) * c
        - Const(2.0 / 9.0) * Pow(b, Const(2.0)))
    lo, hi = x_interval
    return max_abs_loop(defect, [{"x": lo + (hi - lo) * i / (n - 1)}
                                 for i in range(n)])


def admissibility_loop(coeffs, box):
    defect = simplify(Sub(differentiate(coeffs.b, "x"),
                          Const(2.0) * differentiate(coeffs.a, "t")))
    return max_abs_loop(defect, [{"x": x, "v": v, "t": t}
                                 for x, v, t in box.sample_points()])


def monomial_loop(a, b, mu, box):
    defect = simplify(Const(mu - 1.0) * differentiate(b, "x")
                      - Const(mu) * differentiate(a, "t"))
    return max_abs_loop(defect, [{"x": x, "v": v, "t": t}
                                 for x, v, t in box.sample_points()])


def monitor_loop(traj, quantity):
    return [evaluate(quantity, {"x": x, "v": v, "t": t})
            for t, (x, v) in zip(traj.times, traj.states)]


# --- cases --------------------------------------------------------------------

A_GEN, B_GEN = P("0.4*x"), P("2.0 + 0.5*x^2")
# the completion of (A_GEN, B_GEN) keeps an integral node: no closed form
C_GEN = c_from_ab(A_GEN, B_GEN, lam=0.3)
# off the constraint, so the defect is swept rather than cancelled
C_OFF = simplify(C_GEN + P("0.001*x^2"))


def test_completion_carries_an_integral():
    assert antideriv_depth(C_GEN) >= 1
    assert constraint_defect(A_GEN, B_GEN, C_OFF) > 0.0


@pytest.mark.parametrize("a, b, c, interval", [
    (A_GEN, B_GEN, C_OFF, (0.2, 1.2)),
    (A_GEN, B_GEN, C_OFF, (-1.0, 1.0)),
    (Const(0.0), P("1.0 + x^2"), P("sin(3*x)"), (-2.0, 2.0)),
    # the defect 1/(x - 0.2999) - 2/9 peaks steeply at the grid point 0.3,
    # so a last-bit change in the grid arithmetic changes the maximum
    (Const(0.0), Const(1.0), P("ln(x - 0.2999)"), (0.0, 4.0)),
    (Const(0.0), Const(1.0), P("ln(x)"), (-1.0, 1.0)),
    (Const(0.0), P("x"), P("x^3"), (-1.0, 1.0)),
], ids=["integral", "integral-wide", "closed", "steep", "ln-edge",
        "b-vanishes"])
def test_constraint_defect(a, b, c, interval):
    want = outcome(constraint_loop, a, b, c, interval)
    assert outcome(constraint_defect, a, b, c, interval) == want


@pytest.mark.parametrize("a, b", [
    (P("x*sin(t)"), P("x^2")),
    # the parameter k = 0.7 substituted, without simplifying
    (substitute(parse_expression("k*x*t", params=("k",)), "k", Const(0.7)),
     substitute(parse_expression("k*x^2*exp(t)", params=("k",)), "k",
                Const(0.7))),
    (Const(0.0), P("x*ln(x)")),
], ids=["closed", "param", "ln-edge"])
def test_admissibility_defect(a, b):
    coeffs = StandardCoeffs(a, b, Const(1.0))
    box = DomainBox(grid=(7, 1, 7), n_random=20)
    want = outcome(admissibility_loop, coeffs, box)
    assert outcome(admissibility_defect, coeffs, box) == want


@pytest.mark.parametrize("a, b, grid", [
    (P("x*sin(t)"), P("exp(0.3*x)*t"), (5, 3, 7)),
    (P("x*t"), P("x^2"), (1, 1, 1)),
    (Const(0.0), P("x*ln(x)"), (4, 4, 4)),
], ids=["closed", "min-grid", "ln-edge"])
def test_monomial_admissibility_defect(a, b, grid):
    box = DomainBox(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5), grid=grid)
    want = outcome(monomial_loop, a, b, 3.0, box)
    assert outcome(monomial_admissibility_defect, a, b, 3.0, box) == want


HARMONIC_TRAJ = integrate_ode(OdeSpec(P("-x")), 0.3, 0.4, 0.0, 3.0)


@pytest.mark.parametrize("quantity", [
    P("0.5*v^2 + 0.5*x^2 + exp(0.3*t)*sin(x)"),
    simplify(C_GEN * P("v")),
    P("ln(x)"),
], ids=["closed", "integral", "ln-edge"])
def test_monitor_quantity(quantity):
    want = outcome(monitor_loop, HARMONIC_TRAJ, quantity)
    assert outcome(monitor_quantity, HARMONIC_TRAJ, quantity) == want


# zero where exp(400 t)^2 is finite, NaN (inf - inf) from t = 0.887 on
E = "exp(400*t)"
NAN_TERM = P(f"abs({E})*{E} - {E}*{E}")


def test_a_nan_scan_is_nan():
    # the scans reduce with NaN as the extreme value, so no tolerance test
    # passes them; a Python max over the points would skip the NaNs
    half_x2 = P("0.5*x^2")
    coeffs = StandardCoeffs(Const(0.0), simplify(half_x2 * NAN_TERM),
                            Const(0.0))
    assert math.isnan(admissibility_defect(coeffs))
    assert math.isnan(monomial_admissibility_defect(
        Const(0.0), simplify(half_x2 * NAN_TERM), 3.0))
    x_nan = P("abs(exp(400*x))*exp(400*x) - exp(400*x)*exp(400*x)")
    assert math.isnan(constraint_defect(Const(0.0), Const(1.0),
                                        simplify(P("x") + x_nan), (0.2, 1.2)))
    assert math.isnan(min_abs_in_time(simplify(Const(1.0) + NAN_TERM),
                                      0.0, 1.0))
    probe = cli._Points(P("0*x"), {"x": (-1.0, 1.0), "t": (0.0, 1.0)}, (1.0,))
    assert math.isnan(probe.max_rel(NAN_TERM))


def test_edge_cases_do_raise():
    # the ln-edge cases above compare two raises, not two values
    assert outcome(constraint_defect, Const(0.0), Const(1.0), P("ln(x)"),
                   (-1.0, 1.0)) is EvalDomainError
    assert outcome(monitor_quantity, HARMONIC_TRAJ, P("ln(x)")) \
        is EvalDomainError
