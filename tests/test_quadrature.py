"""Batched adaptive quadrature: accuracy, batches, failure modes and integral nodes."""

import math

import numpy as np
import pytest

from lagrangeforge import (
    Antideriv,
    Const,
    EvalDomainError,
    Mul,
    Pow,
    QuadratureDepthError,
    QuadratureError,
    Var,
    compile_callable,
    definite_integral,
    evaluate,
    evaluate_field,
    integrate_adaptive,
    parse_expression,
)


def recording(f):
    """``f`` with a log of the owners of every node it is handed, call by call."""
    calls = []

    def wrapped(z):
        calls.append(np.unique(z.owner).tolist())
        return f(z)

    return wrapped, calls


class TestPanelAccuracy:
    def test_polynomials_exact(self):
        # Gauss-7/Kronrod-15 integrates these exactly; only roundoff remains
        for degree in range(11):
            exact = (3.0 ** (degree + 1) - (-2.0) ** (degree + 1)) / (degree + 1)
            got = integrate_adaptive(lambda s, d=degree: s ** d, -2.0, 3.0)
            assert got == pytest.approx(exact, abs=1e-12, rel=1e-12)

    def test_exponential(self):
        got = integrate_adaptive(np.exp, 0.0, 1.0)
        assert isinstance(got, float)
        assert got == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_oscillatory(self):
        got = integrate_adaptive(lambda s: np.sin(10.0 * s), 0.0, math.pi)
        exact = (1.0 - math.cos(10.0 * math.pi)) / 10.0
        assert got == pytest.approx(exact, abs=1e-10)

    def test_orientation(self):
        fwd = integrate_adaptive(np.exp, 0.0, 1.0)
        rev = integrate_adaptive(np.exp, 1.0, 0.0)
        assert rev == pytest.approx(-fwd, rel=1e-14)

    def test_zero_width(self):
        assert integrate_adaptive(np.exp, 2.0, 2.0) == 0.0

    def test_sharp_peak_refined(self):
        # narrow Lorentzian: forces adaptive splitting
        got = integrate_adaptive(lambda s: 1e-4 / (s * s + 1e-8), -1.0, 1.0)
        exact = 2.0 * math.atan(1e4)
        assert got == pytest.approx(exact, rel=1e-9)

    def test_constant_integrand(self):
        assert integrate_adaptive(lambda s: 2.0, 1.0, 4.0) == pytest.approx(6.0, rel=1e-15)


def lorentzian(widths):
    """w/(s^2 + w^2), with each integral's own width w; its integral over
    [-1, 1] is 2 atan(1/w)."""
    widths = np.asarray(widths, dtype=float)

    def f(z):
        w = widths[z.owner]
        return w / (z * z + w * w)

    return f


class TestBatches:
    def test_mixed_orientation(self):
        hi = np.array([1.0, -1.0, 2.0, -0.5, 0.25])
        got = integrate_adaptive(np.exp, 0.0, hi)
        assert got.shape == hi.shape
        for u, value in zip(hi, got):
            assert value == pytest.approx(math.expm1(u), rel=1e-12)
            assert value.hex() == integrate_adaptive(np.exp, 0.0, u).hex()

    def test_array_lower_limits_broadcast(self):
        got = integrate_adaptive(np.exp, np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
        assert got.shape == (2, 2)
        want = [[math.e - 1.0, math.exp(2.0) - 1.0], [0.0, math.exp(2.0) - math.e]]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_zero_width_entries_get_no_panels(self):
        f, calls = recording(np.exp)
        got = integrate_adaptive(f, 1.0, np.array([1.0, 3.0, 1.0, 0.0]))
        assert got[0] == 0.0 and got[2] == 0.0
        assert got[1] == pytest.approx(math.exp(3.0) - math.e, rel=1e-12)
        assert got[3] == pytest.approx(1.0 - math.e, rel=1e-12)
        assert calls == [[1, 3]]

    def test_one_sharp_peak_among_smooth_points(self):
        # one panel meets the budget for w >= 3; w = 1e-4 bisects 15 times
        widths = [3.0, 5.0, 1e-4, 4.0]
        f, calls = recording(lorentzian(widths))
        got = integrate_adaptive(f, -1.0, np.ones(len(widths)))
        # only the sharp entry is bisected: every call after the first
        # holds its panels alone
        assert calls[0] == [0, 1, 2, 3] and len(calls) > 5
        assert all(owners == [2] for owners in calls[1:])
        for i, w in enumerate(widths):
            assert got[i] == pytest.approx(2.0 * math.atan(1.0 / w), rel=1e-9)
            alone = integrate_adaptive(lorentzian([w]), -1.0, np.ones(1))
            assert got[i].hex() == alone[0].hex()

    def test_nan_marks_an_undefined_entry(self):
        # undefined above s = 0.5: entries reaching past it are NaN, the
        # others integrate normally
        f = lambda s: np.where(s > 0.5, np.nan, 1.0)   # noqa: E731
        got = integrate_adaptive(f, 0.0, np.array([0.25, 1.0, -1.0]))
        assert got[0] == pytest.approx(0.25, rel=1e-15)
        assert math.isnan(got[1])
        assert got[2] == pytest.approx(-1.0, rel=1e-15)


class TestFailureModes:
    def test_divergent_integrand_reports_interval(self):
        with pytest.raises(QuadratureDepthError) as err:
            integrate_adaptive(lambda s: 1.0 / s, 0.0, 1.0)
        lo, hi = err.value.worst_interval
        assert 0.0 <= lo < hi <= 1e-9
        assert err.value.error_estimate > 0.0

    def test_infinite_integrand_raises(self):
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate_adaptive(lambda s: np.where(s > 0.0, np.inf, 1.0), -1.0, 1.0)

    def test_roundoff_bound_panel_is_not_bisected(self):
        # 1e5 sin(s) over [-1, 1]: the Kronrod and Gauss sums agree, so the
        # error estimate is the roundoff floor 50 eps * 1e5 * 0.92 ~ 1e-9,
        # above the 1e-10 budget; bisection would keep that ratio to depth 50
        f, calls = recording(lambda s: 1e5 * np.sin(s))
        with pytest.raises(QuadratureDepthError) as err:
            integrate_adaptive(f, -1.0, 1.0)
        assert err.value.worst_interval == (-1.0, 1.0)
        assert len(calls) == 1

    def test_huge_integral_has_a_finite_error_estimate(self):
        # the Gauss/Kronrod difference of the first panels is about 1e214;
        # (200 delta)^1.5 overflows, which must not abort the integral
        want = math.expm1(500.0) / 500.0    # 2.807e214
        got = integrate_adaptive(lambda s: np.exp(500.0 * s), 0.0, 1.0)
        assert got == pytest.approx(want, rel=1e-10)
        node = Antideriv(parse_expression("exp(500*x)"), "x", 0.0)
        assert evaluate(node, {"x": 1.0}) == pytest.approx(want, rel=1e-10)
        values, bad = evaluate_field(node, {"x": np.array([1.0, 0.5])})
        assert not bad.any()
        assert values[0] == pytest.approx(want, rel=1e-10)
        assert values[1] == pytest.approx(math.expm1(250.0) / 500.0, rel=1e-10)


class TestIntegralNodes:
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
        # nearby points agree with the closed form to full precision
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
        want = integrate_adaptive(lambda s: np.exp(s * s), 0.0, 1.2)
        got = evaluate(e, {"r": 1.2})
        assert got == pytest.approx(want, rel=1e-9)

    def test_undefined_integrand_is_a_domain_error(self):
        e = Antideriv(parse_expression("sqrt(s)", params=("s",)), "s", 0.0)
        assert evaluate(e, {"s": 4.0}) == pytest.approx(16.0 / 3.0, rel=1e-10)
        with pytest.raises(EvalDomainError):
            evaluate(e, {"s": -1.0})
        with pytest.raises(EvalDomainError, match="unbound variable 'x'"):
            evaluate(Antideriv(Mul(Var("x"), Var("s")), "s", 0.0), {"s": 1.0})
        # every one-point read raises the field rule's error, message and all
        xs = Antideriv(Mul(Var("x"), Var("s")), "s", 0.0)
        for read, message in [
                (lambda: evaluate(e, {"s": -1.0}),
                 "integrand undefined between 0.0 and -1.0"),
                (lambda: compile_callable(e, ("s",))(-1.0),
                 "integrand undefined between 0.0 and -1.0"),
                (lambda: evaluate(xs, {"x": 1.0}), "unbound variable 's'"),
                (lambda: evaluate(xs, {"s": 1.0}), "unbound variable 'x'")]:
            with pytest.raises(EvalDomainError) as info:
                read()
            assert str(info.value) == message

    def test_definite_integral_helper(self):
        e = parse_expression("x*s^2", params=("s",))
        got = definite_integral(e, "s", 0.0, 2.0, {"x": 3.0})
        assert got == pytest.approx(8.0, rel=1e-12)
        with pytest.raises(EvalDomainError, match="unbound variable 'x'"):
            definite_integral(e, "s", 0.0, 2.0)
        with pytest.raises(EvalDomainError):
            definite_integral(parse_expression("ln(x)"), "x", -1.0, 1.0)
        # inputs that an integral node refuses: an infinite lower limit, and
        # an integrand that nests two integrals (int_0^1 x 0.7^3 / 6 dx)
        with pytest.raises(EvalDomainError) as info:
            definite_integral(Var("x"), "x", math.inf, 2.0)
        assert str(info.value) == "integrand undefined between inf and 2.0"
        nested = parse_expression("integral(t, 0, integral(t, 0, t*x))")
        got = definite_integral(nested, "x", 0.0, 1.0, {"t": 0.7})
        assert got == pytest.approx(0.7 ** 3 / 12.0, rel=1e-9)

    def test_depth_error_propagates(self):
        e = Antideriv(Pow(Var("s"), Const(-1.0)), "s", 0.0)
        with pytest.raises(QuadratureDepthError):
            evaluate(e, {"s": 1.0})
        with pytest.raises(QuadratureDepthError):
            evaluate_field(e, {"s": np.array([0.5, 1.0])})
