"""Expanded-normal-form equivalence checks."""
import numpy as np
import pytest

from lagrangeforge import (
    Const,
    equivalent_expressions,
    normal_form,
    parse_expression,
)
from lagrangeforge.constructors import constraint_defect
from lagrangeforge.constructors.common import max_abs_defect


def eq(a, b, params=()):
    return equivalent_expressions(
        parse_expression(a, params), parse_expression(b, params)
    )


class TestEquivalent:
    def test_distribution(self):
        assert eq("0.5*exp(0.3*t)*(v^2 - 2.25*x^2)",
                  "0.5*exp(0.3*t)*v^2 - 1.125*exp(0.3*t)*x^2")

    def test_exponential_merging(self):
        assert eq("exp(x)*exp(t)", "exp(x + t)")
        assert eq("exp(2*x)*exp(t)*exp(-x)", "exp(x + t)")

    def test_exponential_constant_part(self):
        assert eq("exp(x + 1)", "2.718281828459045235*exp(x)")

    def test_binomial_expansion(self):
        assert eq("(x + v)^2", "x^2 + 2*x*v + v^2")
        assert eq("(x - t)^3", "x^3 - 3*x^2*t + 3*x*t^2 - t^3")

    def test_division_by_monomial(self):
        assert eq("(x^2*v + x*v^2)/x", "x*v + v^2")

    def test_power_of_exponential(self):
        assert eq("exp(0.3*t)^2", "exp(0.6*t)")

    def test_cancellation(self):
        assert eq("x + v - x", "v")
        assert eq("(x + 1)*(x - 1)", "x^2 - 1")

    def test_ulp_noise_in_coefficients(self):
        assert eq("0.1*v + 0.2*v", "0.30000000000000004*v")

    def test_parameters(self):
        assert eq("k*(x + v)", "k*x + k*v", params=("k",))

    def test_scaling_tolerance(self):
        assert eq("2*v^2", "2.0000000000000004*v^2")


class TestDistinct:
    def test_different_powers(self):
        assert not eq("v^2", "v^3")

    def test_different_coefficients(self):
        assert not eq("2*v", "3*v")

    def test_different_exponential_rates(self):
        assert not eq("exp(0.3*t)*v", "exp(0.4*t)*v")

    def test_plain_kinetic_vs_damped(self):
        assert not eq("0.5*v^2", "0.5*exp(0.5*t)*v^2")

    def test_extra_term(self):
        assert not eq("v^2 + x", "v^2")

    def test_opaque_atoms_compare_by_structure(self):
        assert eq("sin(x)*cos(x)", "cos(x)*sin(x)")
        assert not eq("sin(x)", "cos(x)")


class TestOpaqueFallback:
    def test_sqrt_as_half_power(self):
        assert eq("sqrt(x^2 + 1)*sqrt(x^2 + 1)", "x^2 + 1")

    def test_negative_power_of_sum(self):
        assert eq("1/(x + v)", "(x + v)^-1")

    def test_ln_atoms(self):
        assert eq("v*ln(v) - v*ln(v)", "0")
        assert eq("ln(v)*v", "v*ln(v)")


class TestOverflowIsRefused:
    """A form the floats cannot hold ends the expansion: None, the budget
    signal, never an exception and never a dropped term."""

    @pytest.mark.parametrize("text", [
        "2^1e308 * x",                  # a constant power overflows
        "(1e200*x + v)^2",              # a product of coefficients does
        "(1e300*x)*(1e300*v) + x",      # one that was dropped as noise
        "(1e110*x)^3",                  # a coefficient's power does
        "exp(1e308*x + 1e308 + 1e308)",
    ])
    def test_normal_form_returns_none(self, text):
        assert normal_form(parse_expression(text)) is None

    def test_equivalence_falls_back_to_structure(self):
        assert eq("(1e300*x)*(1e300*v)", "(1e300*x)*(1e300*v)")
        assert not eq("(1e300*x)*(1e300*v) + x", "x")

    def test_an_overflowing_defect_is_sampled(self):
        defect = parse_expression("(1e300*x)*(1e300*v)")
        columns = {"x": np.array([1.0, 2.0]), "v": np.array([1.0, 0.5])}
        assert max_abs_defect(defect, lambda: columns) == np.inf

    def test_a_huge_coefficient_constraint_is_measured(self):
        # b^3 = 1e330 x^3 overflowed the cleared form's normal form
        defect = constraint_defect(Const(0.0), parse_expression("1e110*x"),
                                   parse_expression("x"))
        assert defect > 1e200
