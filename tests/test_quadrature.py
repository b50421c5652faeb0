"""Adaptive quadrature accuracy, failure modes and integral-node caching."""

import math

import pytest

from lagrangeforge import (
    Antideriv,
    Const,
    Mul,
    Pow,
    QuadratureDepthError,
    Var,
    clear_antideriv_cache,
    definite_integral,
    evaluate,
    integrate_adaptive,
    parse_expression,
)


class TestPanelAccuracy:
    def test_polynomials_exact(self):
        # Gauss-7/Kronrod-15 integrates these exactly; only roundoff remains
        for degree in range(11):
            exact = (3.0 ** (degree + 1) - (-2.0) ** (degree + 1)) / (degree + 1)
            got = integrate_adaptive(lambda s, d=degree: s ** d, -2.0, 3.0)
            assert got == pytest.approx(exact, abs=1e-12, rel=1e-12)

    def test_exponential(self):
        got = integrate_adaptive(math.exp, 0.0, 1.0)
        assert got == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_oscillatory(self):
        got = integrate_adaptive(lambda s: math.sin(10.0 * s), 0.0, math.pi)
        exact = (1.0 - math.cos(10.0 * math.pi)) / 10.0
        assert got == pytest.approx(exact, abs=1e-10)

    def test_orientation(self):
        fwd = integrate_adaptive(math.exp, 0.0, 1.0)
        rev = integrate_adaptive(math.exp, 1.0, 0.0)
        assert rev == pytest.approx(-fwd, rel=1e-14)

    def test_zero_width(self):
        assert integrate_adaptive(math.exp, 2.0, 2.0) == 0.0

    def test_sharp_peak_refined(self):
        # narrow Lorentzian: forces adaptive splitting
        got = integrate_adaptive(lambda s: 1e-4 / (s * s + 1e-8), -1.0, 1.0)
        exact = 2.0 * math.atan(1e4)
        assert got == pytest.approx(exact, rel=1e-9)


class TestFailureModes:
    def test_divergent_integrand_reports_interval(self):
        with pytest.raises(QuadratureDepthError) as err:
            integrate_adaptive(lambda s: 1.0 / s, 0.0, 1.0)
        lo, hi = err.value.worst_interval
        assert 0.0 <= lo < hi <= 1e-9
        assert err.value.error_estimate > 0.0


class TestIntegralNodes:
    def setup_method(self):
        clear_antideriv_cache()

    def test_exp_antiderivative(self):
        e = Antideriv(parse_expression("exp(s)", params=("s",)), "s", 0.0)
        assert evaluate(e, {"s": 1.0}) == pytest.approx(
            1.7182818284590452, rel=1e-12
        )

    def test_parameter_dependence(self):
        # int_0^x t_like * x_free: integrand x*s over s in [0, 2]
        e = Antideriv(Mul(Var("x"), Var("s")), "s", 0.0)
        assert evaluate(e, {"x": 3.0, "s": 2.0}) == pytest.approx(6.0, rel=1e-12)

    def test_upper_limit_below_base(self):
        # int_0^{-2} s ds = 2 (negative integrand, reversed orientation)
        e = Antideriv(Var("s"), "s", 0.0)
        assert evaluate(e, {"s": -2.0}) == pytest.approx(2.0, rel=1e-12)
        # int_0^{-2} 1 ds = -2 keeps the orientation sign
        one = Antideriv(Const(1.0), "s", 0.0)
        assert evaluate(one, {"s": -2.0}) == pytest.approx(-2.0, rel=1e-12)

    def test_nearby_upper_limits_stay_exact(self):
        # cache anchors must not quantize results: nearby points still agree
        # with the closed form to full precision
        e = Antideriv(parse_expression("exp(s)", params=("s",)), "s", 0.0)
        for k in range(30):
            u = 1.0 + k * 1e-8
            got = evaluate(e, {"s": u})
            assert got == pytest.approx(math.exp(u) - 1.0, rel=1e-11)

    def test_spread_upper_limits(self):
        e = Antideriv(parse_expression("cos(s)", params=("s",)), "s", 0.0)
        for u in [-3.0, -1.0, -0.5, 0.25, 1.0, 2.5, 6.0]:
            assert evaluate(e, {"s": u}) == pytest.approx(math.sin(u), abs=1e-11)

    def test_nested_integral(self):
        # sharing the dummy name chains the upper limits: the inner integral
        # runs to the outer integration point, so the outer integrand is
        # exp(r^2) and the whole node is int_0^1.2 exp(r^2) dr
        from lagrangeforge import Exp

        e = Antideriv(Exp(Antideriv(Mul(Const(2.0), Var("r")), "r", 0.0)), "r", 0.0)
        want = integrate_adaptive(lambda s: math.exp(s * s), 0.0, 1.2)
        got = evaluate(e, {"r": 1.2})
        assert got == pytest.approx(want, rel=1e-9)

    def test_definite_integral_helper(self):
        e = parse_expression("x*s^2", params=("s",))
        got = definite_integral(e, "s", 0.0, 2.0, {"x": 3.0})
        assert got == pytest.approx(8.0, rel=1e-12)

    def test_depth_error_propagates(self):
        e = Antideriv(Pow(Var("s"), Const(-1.0)), "s", 0.0)
        with pytest.raises(Exception) as err:
            evaluate(e, {"s": 1.0})
        assert isinstance(err.value, QuadratureDepthError) or "zero" in str(err.value)
