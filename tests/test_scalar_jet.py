"""The scalar jet, pinned: which error it raises, with which message, and
that its slots are plain Python numbers.

:func:`eval_jet2` is the jet at one point.  It must raise exactly where
the dense reference walk raises, with the same error class, and the
messages below are part of its behaviour.  Its slots are Python floats or
:data:`ZERO`, never numpy values, so that callers' arithmetic on them stays
Python arithmetic.
"""
import math

import pytest
from hypothesis import given, settings

from lagrangeforge import (
    Add,
    Const,
    EvalDomainError,
    Exp,
    Jet2,
    Ln,
    Mul,
    NonDifferentiableError,
    Pow,
    QuadratureDepthError,
    Var,
    ZERO,
    eval_jet2,
    parse_expression,
)
from test_structural_jets import binding_of, dense_jet2, point, trees


def raised(walk, expr, binding):
    """The class of the exception ``walk`` raises, or None."""
    try:
        walk(expr, binding)
    except Exception as exc:  # noqa: BLE001 - any class must match
        return type(exc)
    return None


def assert_plain(jet):
    for name in Jet2.__slots__:
        value = getattr(jet, name)
        assert value is ZERO or type(value) is float, (name, type(value))


@settings(max_examples=300, deadline=None)
@given(trees, point)
def test_eval_jet2_raises_what_the_dense_walk_raises(expr, pt):
    binding = binding_of(pt)
    want = raised(dense_jet2, expr, binding)
    assert raised(eval_jet2, expr, binding) is want
    if want is None:
        assert_plain(eval_jet2(expr, binding))


STATE = {"v": 0.0, "t": 0.0}


@pytest.mark.parametrize("text, x, error, message", [
    ("ln(x)", 0.0, EvalDomainError, "log of non-positive value 0.0"),
    ("ln(x)", -1.0, EvalDomainError, "log of non-positive value -1.0"),
    ("sqrt(x)", -1.0, EvalDomainError, "square root of negative value -1.0"),
    ("1/x", 0.0, EvalDomainError, "division by 0.0: its cube is zero"),
    ("x^-1", 0.0, EvalDomainError, "zero raised to a negative power"),
    ("x^0.5", -1.0, EvalDomainError, "negative base -1.0 with non-integer exponent 0.5"),
    ("exp(x)", 1000.0, EvalDomainError, "overflow computing exp(1000.0)"),
    ("10^x", 400.0, EvalDomainError, "overflow computing exp(921.0340371976183)"),
    ("cos(1e300*x*x*1e300)", 1.0, EvalDomainError, "sine of inf"),
    ("sin(1e300*x*1e300)", 1.0, EvalDomainError, "sine of inf"),
    ("(0 - 2)^(1e300*x*1e300)", 1.0, EvalDomainError,
     "non-positive base -2.0 with variable exponent"),
    ("1/x", 1e-120, EvalDomainError, "division by 1e-120: its cube is zero"),
    ("1/(x*1e-170)", 1.0, EvalDomainError, "division by 1e-170: its cube is zero"),
    ("ln(x)", 1e-170, EvalDomainError, "second derivative of log at 1e-170 overflows"),
    ("sqrt(x)", 1e-300, EvalDomainError, "second derivative of sqrt at 1e-300 overflows"),
    ("sqrt(x)", 0.0, NonDifferentiableError, "square root is not differentiable at zero"),
    ("abs(x)", 0.0, NonDifferentiableError, "absolute value is not differentiable at zero"),
    ("x^x", -1.0, EvalDomainError, "non-positive base -1.0 with variable exponent"),
    ("x^x", 0.0, EvalDomainError, "non-positive base 0.0 with variable exponent"),
    ("x^(v+1)", -2.0, EvalDomainError, "non-positive base -2.0 with variable exponent"),
])
def test_domain_messages(text, x, error, message):
    with pytest.raises(EvalDomainError) as info:
        eval_jet2(parse_expression(text), {"x": x, **STATE})
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("text, binding, error, message", [
    ("k*x", {"x": 1.0}, EvalDomainError, "unbound variable 'k'"),
    ("integral(t, 0, k*t)*x", {"x": 1.0, "t": 1.0}, EvalDomainError,
     "unbound variable 'k'"),
    ("integral(t, 0, x*t)", {"x": 1.0}, EvalDomainError, "unbound variable 't'"),
    ("integral(t, 0, 1/(t - 0.5))*x", {"x": 1.0, "v": 0.0, "t": 1.0}, EvalDomainError,
     "integrand undefined between 0.0 and 1.0"),
    ("integral(t, 0, 1/(t - x))", {"x": 1.0, "v": 0.0, "t": 1.0}, EvalDomainError,
     "integrand undefined between 0.0 and 1.0"),
    ("integral(t, 0, ln(x*t))", {"x": 1.0, "v": 0.0, "t": 1.0}, QuadratureDepthError,
     "quadrature depth limit exceeded on [0.0, 8.881784197001252e-16] "
     "(local error estimate 7.007e-23)"),
])
def test_binding_and_integral_messages(text, binding, error, message):
    with pytest.raises(Exception) as info:
        eval_jet2(parse_expression(text, params=("k",)), binding)
    assert type(info.value) is error and str(info.value) == message


def test_after_a_non_finite_number_the_dense_walk_names_the_error():
    # ln(1e-160) has the second derivative -inf.  Against the constant's ZERO
    # slots it is dropped, and the exponent looks constant; the dense walk
    # keeps a NaN there and takes the variable-exponent rule
    expr = Pow(Var("x"), Add(Mul(Const(0.0), Ln(Const(1e-160))), Const(0.5)))
    with pytest.raises(EvalDomainError) as info:
        eval_jet2(expr, {"x": -2.0, "v": 0.0, "t": 0.0})
    assert str(info.value) == "non-positive base -2.0 with variable exponent"


@pytest.mark.parametrize("expr, binding", [
    (parse_expression("0.5*exp(0.3*t)*(v^2 - 2.25*x^2)"), {"x": 0.3, "v": 1.2, "t": 0.4}),
    (parse_expression("k*x^2 + k^2*v", params=("k",)), {"x": 0.3, "v": 1.2, "t": 0.4, "k": 2.0}),
    (parse_expression("x^k*v^t", params=("k",)), {"x": 0.3, "v": 1.2, "t": 0.4, "k": 2.0}),
    (parse_expression("integral(t, 0, exp(-(t^2))*x)*v^2"), {"x": 0.3, "v": 1.2, "t": 0.4}),
    (parse_expression("integral(t, 0, k*cos(x*t))", params=("k",)),
     {"x": 0.3, "v": 1.2, "t": 0.4, "k": 2.0}),
    (parse_expression("abs(v)*x + sqrt(v)"), {"x": 0.3, "v": 1.2, "t": 0.4}),
    (Exp(Const(1.5)), {}),
    # a non-finite number meets a structural zero: the dense walk's result
    (parse_expression("t*(exp(700*t)*exp(700*t))"), {"x": 0.3, "v": 1.0, "t": 1.0}),
    (Mul(Var("x"), Ln(Const(1e-160))), {"x": 2.0, "v": 0.0, "t": 0.0}),
    (parse_expression("x*v*t"), {"x": math.inf, "v": 1.0, "t": 0.5}),
])
def test_slots_are_python_floats_or_zero(expr, binding):
    assert_plain(eval_jet2(expr, binding))
