"""Jet evaluation against central finite differences and closed forms."""

import math
import random

import numpy as np
import pytest

from lagrangeforge import (
    Abs,
    Antideriv,
    EvalDomainError,
    Jet2,
    Ln,
    Mul,
    NonDifferentiableError,
    Pow,
    Var,
    compile_callable,
    differentiate,
    eval_jet2,
    evaluate,
    jet_field,
    parse_expression,
)

STATE = ("x", "v", "t")


def fd_gradient(expr, point, h_scale=1e-6):
    """Independent central-difference gradient oracle."""
    grad = []
    for name in STATE:
        h = h_scale * (1.0 + abs(point[name]))
        hi = dict(point, **{name: point[name] + h})
        lo = dict(point, **{name: point[name] - h})
        grad.append((evaluate(expr, hi) - evaluate(expr, lo)) / (2.0 * h))
    return grad


def fd_hessian(expr, point, h_scale=1e-4):
    """Independent second-difference Hessian oracle."""
    hess = [[0.0] * 3 for _ in range(3)]
    for i, a in enumerate(STATE):
        for j, b in enumerate(STATE):
            if j < i:
                continue
            ha = h_scale * (1.0 + abs(point[a]))
            hb = h_scale * (1.0 + abs(point[b]))
            if i == j:
                hi = dict(point, **{a: point[a] + ha})
                lo = dict(point, **{a: point[a] - ha})
                val = (
                    evaluate(expr, hi) - 2.0 * evaluate(expr, point) + evaluate(expr, lo)
                ) / (ha * ha)
            else:
                pp = dict(point); pp[a] += ha; pp[b] += hb
                pm = dict(point); pm[a] += ha; pm[b] -= hb
                mp = dict(point); mp[a] -= ha; mp[b] += hb
                mm = dict(point); mm[a] -= ha; mm[b] -= hb
                val = (
                    evaluate(expr, pp) - evaluate(expr, pm)
                    - evaluate(expr, mp) + evaluate(expr, mm)
                ) / (4.0 * ha * hb)
            hess[i][j] = hess[j][i] = val
    return hess


SMOOTH_EXPRS = [
    "x^2*v + t",
    "exp(0.3*t)*v^2",
    "sin(x)*cos(t) + v^3",
    "x*v*t",
    "(x + 2)^2/(v + 3)",
    "sqrt(v + 2)*x",
    "ln(v + 3) + x^2",
    "exp(-(x^2))*t",
    "v^2/(1 + x^2)",
    "0.5*v^2 - 2.25*x^2",
]


class TestAgainstFiniteDifferences:
    @pytest.mark.parametrize("text", SMOOTH_EXPRS)
    def test_smooth_expressions(self, text):
        expr = parse_expression(text)
        rng = random.Random(hash(text) & 0xFFFF)
        for _ in range(5):
            point = {
                "x": rng.uniform(-1.5, 1.5),
                "v": rng.uniform(-1.5, 1.5),
                "t": rng.uniform(0.0, 2.0),
            }
            jet = eval_jet2(expr, point)
            assert jet.f == pytest.approx(evaluate(expr, point), rel=1e-12)
            for got, want in zip(jet.gradient, fd_gradient(expr, point)):
                assert got == pytest.approx(want, rel=2e-7, abs=2e-7)
            fd = fd_hessian(expr, point)
            # the second derivatives a jet carries, as (i, j) into STATE
            for got, (i, j) in ((jet.hxv, (0, 1)), (jet.hvv, (1, 1)),
                                (jet.hvt, (1, 2))):
                assert got == pytest.approx(fd[i][j], rel=5e-5, abs=5e-5)


class TestClosedForms:
    def test_v_ln_v(self):
        # value 0, dL/dv = 1, d2L/dv2 = 1 at v = 1
        expr = Mul(Var("v"), Ln(Var("v")))
        jet = eval_jet2(expr, {"x": 0.0, "v": 1.0, "t": 0.0})
        assert jet.f == pytest.approx(0.0, abs=1e-15)
        assert jet.gv == pytest.approx(1.0, rel=1e-14)
        assert jet.hvv == pytest.approx(1.0, rel=1e-14)

    def test_variable_exponent(self):
        # d/dv v^v at v=2 is 4(ln 2 + 1); d2/dv2 is 4((ln2+1)^2 + 1/2)
        expr = Pow(Var("v"), Var("v"))
        jet = eval_jet2(expr, {"x": 0.0, "v": 2.0, "t": 0.0})
        l2 = math.log(2.0)
        assert jet.gv == pytest.approx(4.0 * (l2 + 1.0), rel=1e-13)
        assert jet.hvv == pytest.approx(4.0 * ((l2 + 1.0) ** 2 + 0.5), rel=1e-13)

    def test_parameter_is_constant(self):
        expr = parse_expression("k*v^2", params=("k",))
        jet = eval_jet2(expr, {"x": 0.0, "v": 3.0, "t": 0.0, "k": 2.0})
        assert jet.f == 18.0
        assert jet.gv == 12.0
        assert jet.hvv == 4.0
        assert jet.gx == 0.0 and jet.gt == 0.0

    def test_integer_power_at_zero(self):
        jet = eval_jet2(parse_expression("v^2"), {"x": 0.0, "v": 0.0, "t": 0.0})
        assert jet.f == 0.0 and jet.gv == 0.0 and jet.hvv == 2.0

    def test_negative_base_integer_exponent(self):
        jet = eval_jet2(parse_expression("v^3"), {"x": 0.0, "v": -2.0, "t": 0.0})
        assert jet.f == -8.0
        assert jet.gv == 12.0
        assert jet.hvv == -12.0


class TestIntegralJets:
    def test_ftc_partials(self):
        # F(v) = int_0^v s^2 ds: F' = v^2, F'' = 2v
        node = Antideriv(Mul(Var("v"), Var("v")), "v", 0.0)
        jet = eval_jet2(node, {"x": 0.0, "v": 1.5, "t": 0.0})
        assert jet.f == pytest.approx(1.125, rel=1e-12)
        assert jet.gv == pytest.approx(2.25, rel=1e-12)
        assert jet.hvv == pytest.approx(3.0, rel=1e-12)

    def test_differentiation_under_integral(self):
        # G(x, t) = int_0^t exp(x*s) ds; dG/dx = int_0^t s exp(x*s) ds
        expr = Antideriv(parse_expression("exp(x*s)", params=("s",)), "s", 0.0)
        point = {"x": 0.7, "v": 0.0, "t": 0.0, "s": 1.3}
        jet = eval_jet2(expr, point)
        xv, up = 0.7, 1.3
        want_f = (math.exp(xv * up) - 1.0) / xv
        want_gx = (up * math.exp(xv * up)) / xv - (math.exp(xv * up) - 1.0) / (xv * xv)
        assert jet.f == pytest.approx(want_f, rel=1e-11)
        assert jet.gx == pytest.approx(want_gx, rel=1e-9)
        assert jet.gv == 0.0 and jet.gt == 0.0

    def test_mixed_partial_upper_limit_and_parameter(self):
        # H(v, t) = int_0^t v*s ds = v t^2/2: Hvt = t, Hvv = 0
        expr = Antideriv(Mul(Var("v"), Var("t")), "t", 0.0)
        jet = eval_jet2(expr, {"x": 0.0, "v": 2.0, "t": 3.0})
        assert jet.f == pytest.approx(9.0, rel=1e-12)
        assert jet.gv == pytest.approx(4.5, rel=1e-12)
        assert jet.gt == pytest.approx(6.0, rel=1e-12)
        assert jet.hvt == pytest.approx(3.0, rel=1e-12)
        assert jet.hvv == pytest.approx(0.0, abs=1e-12)

    def test_an_undefined_unread_derivative_leaves_the_point_in_domain(self):
        # d2/dt2 of int_0^x s t^1.5 ds integrates s * 0.75 t^-0.5, undefined at
        # t = 0; the Euler-Lagrange operator never reads L_tt, so the jet
        # neither computes it nor masks the point
        node = Antideriv(parse_expression("x*t^1.5"), "x", 0.0)
        expr = parse_expression("0.5*v^2") + node
        point = {"x": 0.7, "v": 1.0, "t": 0.0}
        with pytest.raises(EvalDomainError):
            evaluate(differentiate(differentiate(node, "t"), "t"), point)
        jet = eval_jet2(expr, point)
        assert jet.gx == 0.0 and jet.hvv == 1.0
        assert jet.hxv == 0.0 and jet.hvt == 0.0
        field, bad = jet_field(expr, {q: np.array([point[q]]) for q in STATE})
        assert not bad.any()
        assert [field.gx[0], field.hvv[0], field.hxv[0], field.hvt[0]] == \
            [0.0, 1.0, 0.0, 0.0]

    def test_against_finite_differences(self):
        expr = Antideriv(parse_expression("exp(-(x*s^2))", params=("s",)), "s", 0.0)
        point = {"x": 0.4, "v": 0.1, "t": 0.0, "s": 0.9}
        jet = eval_jet2(expr, point)
        for got, want in zip(jet.gradient, fd_gradient(expr, point)):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


# every entry point that reads the evaluation rule table, as f(expr, point)
ENTRY_POINTS = (
    evaluate,
    lambda expr, point: compile_callable(expr, STATE)(*(point[n] for n in STATE)),
    lambda expr, point: eval_jet2(expr, point).f,
)


def outcomes(text, x):
    """Per entry point: the value of ``text`` at x, or the domain error's class."""
    expr, out = parse_expression(text), []
    for entry in ENTRY_POINTS:
        try:
            out.append(entry(expr, {"x": x, "v": 0.0, "t": 0.0}))
        except EvalDomainError as exc:
            out.append(type(exc))
    return out


OUT_OF_DOMAIN = [EvalDomainError] * len(ENTRY_POINTS)


class TestDomainRules:
    """evaluate, compiled callables and jets share each node's domain rule."""

    def test_log_domain(self):
        assert outcomes("ln(x)", 0.0) == OUT_OF_DOMAIN
        assert outcomes("ln(x)", -1.0) == OUT_OF_DOMAIN

    def test_sqrt_of_negative(self):
        assert outcomes("sqrt(x)", -1.0) == OUT_OF_DOMAIN

    def test_division_by_zero(self):
        assert outcomes("1/x", 0.0) == OUT_OF_DOMAIN
        assert outcomes("x^-1", 0.0) == OUT_OF_DOMAIN

    def test_fractional_power_of_negative(self):
        assert outcomes("x^0.5", -1.0) == OUT_OF_DOMAIN

    def test_overflow(self):
        assert outcomes("exp(x)", 1000.0) == OUT_OF_DOMAIN
        assert outcomes("10^x", 400.0) == OUT_OF_DOMAIN

    def test_trig_of_infinity(self):
        assert outcomes("cos(1e300*x*x*1e300)", 1.0) == OUT_OF_DOMAIN
        assert outcomes("sin(1e300*x*1e300)", 1.0) == OUT_OF_DOMAIN

    def test_negative_base_with_infinite_exponent(self):
        assert outcomes("(0 - 2)^(1e300*x*1e300)", 1.0) == OUT_OF_DOMAIN

    # the rules that only jets need

    def test_underflowing_jet_denominators(self):
        # a jet divides by u^2 or u^3 (ln, 1/u) or sqrt(u)*u, which round to
        # zero while u itself does not
        for text, x in (("1/x", 1e-120), ("1/(x*1e-170)", 1.0),
                        ("ln(x)", 1e-170), ("sqrt(x)", 1e-300)):
            value = evaluate(parse_expression(text), {"x": x})
            assert outcomes(text, x) == [value, value, EvalDomainError]

    def test_sqrt_at_zero(self):
        assert outcomes("sqrt(x)", 0.0) == [0.0, 0.0, NonDifferentiableError]

    def test_abs_kink(self):
        assert outcomes("abs(x)", 0.0) == [0.0, 0.0, NonDifferentiableError]

    def test_variable_exponent_needs_positive_base(self):
        assert outcomes("x^x", -1.0) == [-1.0, -1.0, EvalDomainError]

    def test_abs_away_from_kink(self):
        jet = eval_jet2(Abs(Var("v")), {"x": 0.0, "v": -2.0, "t": 0.0})
        assert jet.f == 2.0 and jet.gv == -1.0 and jet.hvv == 0.0

    def test_unbound_variable(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse_expression("k*x", params=("k",)), {"x": 1.0})


def test_jet_slots_reject_new_attributes():
    jet = Jet2(1.0)
    with pytest.raises(AttributeError):
        jet.extra = 1.0
