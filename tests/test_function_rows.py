"""Each row of ``evaluation._FUNCTIONS`` at its edge operands, by hand.

The row's domain predicate decides where every walk raises or masks, so its
content is pinned here apart from the code that writes it once: each case
gives a node type's operands and either the value (compared bit for bit, so
the sign of a zero counts) or the message of the EvalDomainError.  Every
case runs through evaluate, a compiled callable and a one-point sweep, and
into the masks of evaluate_field and _integrand_field, which also take a
second operand as one number beside the first's column (so a power's
exponent is decided once).
"""
import math

import numpy as np
import pytest

from lagrangeforge import (
    Abs,
    Cos,
    Div,
    EvalDomainError,
    Exp,
    Ln,
    Pow,
    Sin,
    Sqrt,
    Var,
    compile_callable,
    evaluate,
    evaluate_field,
)
from lagrangeforge import evaluation

INF, NAN = math.inf, math.nan
TINY = -1e-300   # below zero by a hair


def undefined(message):
    return EvalDomainError, message


CASES = {
    Div: [
        ((1.0, 0.0), undefined("division by zero")),
        ((1.0, -0.0), undefined("division by zero")),
        ((0.0, 0.0), undefined("division by zero")),
        ((NAN, -0.0), undefined("division by zero")),
        ((1.0, INF), 0.0),
        ((1.0, -INF), -0.0),
        ((-0.0, 2.0), -0.0),
        ((-1.0, 2.0), -0.5),
        ((1.0, TINY), -9.999999999999999e+299),
        ((INF, INF), NAN),
        ((1.0, NAN), NAN),
    ],
    Pow: [
        ((-2.0, 3.0), -8.0),
        ((-2.0, -1.0), -0.5),
        ((-2.0, 0.5), undefined("negative base -2.0 with non-integer exponent 0.5")),
        ((-2.0, INF), undefined("negative base -2.0 with non-integer exponent inf")),
        ((-2.0, -INF), undefined("negative base -2.0 with non-integer exponent -inf")),
        ((-2.0, NAN), undefined("negative base -2.0 with non-integer exponent nan")),
        ((-2.0, 1e20), undefined("overflow computing -2.0 ** 1e+20")),
        ((0.0, 2.0), 0.0),
        ((0.0, 0.0), 1.0),
        ((0.0, -1.0), undefined("zero raised to a negative power")),
        ((0.0, -0.5), undefined("zero raised to a negative power")),
        ((0.0, -INF), undefined("zero raised to a negative power")),
        ((0.0, INF), 0.0),
        ((0.0, NAN), NAN),
        ((-0.0, 3.0), -0.0),
        ((-0.0, -2.0), undefined("zero raised to a negative power")),
        ((-0.0, 0.5), 0.0),
        ((0.5, 2.0), 0.25),
        ((0.5, -1.0), 2.0),
        ((0.5, 0.5), 0.7071067811865476),
        ((0.5, INF), 0.0),
        ((0.5, -INF), INF),
        ((0.5, NAN), NAN),
        ((-INF, 2.0), INF),
        ((-INF, 3.0), -INF),
        ((-INF, -1.0), -0.0),
        ((-INF, 0.5), undefined("negative base -inf with non-integer exponent 0.5")),
        ((-INF, INF), undefined("negative base -inf with non-integer exponent inf")),
        ((NAN, 0.0), 1.0),
        ((NAN, 2.0), NAN),
        ((TINY, 2.0), 0.0),
        ((TINY, 0.5), undefined("negative base -1e-300 with non-integer exponent 0.5")),
        ((10.0, 400.0), undefined("overflow computing 10.0 ** 400.0")),
    ],
    Exp: [
        ((0.0,), 1.0),
        ((-0.0,), 1.0),
        ((TINY,), 1.0),
        ((INF,), INF),
        ((-INF,), 0.0),
        ((NAN,), NAN),
        ((710.0,), undefined("overflow computing exp(710.0)")),
        ((1e300,), undefined("overflow computing exp(1e+300)")),
    ],
    Ln: [
        ((1.0,), 0.0),
        ((INF,), INF),
        ((NAN,), NAN),
        ((0.0,), undefined("log of non-positive value 0.0")),
        ((-0.0,), undefined("log of non-positive value -0.0")),
        ((TINY,), undefined("log of non-positive value -1e-300")),
        ((-INF,), undefined("log of non-positive value -inf")),
    ],
    Sqrt: [
        ((0.25,), 0.5),
        ((0.0,), 0.0),
        ((-0.0,), -0.0),
        ((INF,), INF),
        ((NAN,), NAN),
        ((TINY,), undefined("square root of negative value -1e-300")),
        ((-INF,), undefined("square root of negative value -inf")),
    ],
    Abs: [
        ((0.0,), 0.0),
        ((-0.0,), 0.0),
        ((TINY,), 1e-300),
        ((-INF,), INF),
        ((NAN,), NAN),
    ],
    Sin: [
        ((0.0,), 0.0),
        ((-0.0,), -0.0),
        ((TINY,), TINY),
        ((NAN,), NAN),
        ((INF,), undefined("sine of inf")),
        ((-INF,), undefined("sine of -inf")),
    ],
    Cos: [
        ((0.0,), 1.0),
        ((-0.0,), 1.0),
        ((TINY,), 1.0),
        ((NAN,), NAN),
        ((INF,), undefined("cosine of inf")),
        ((-INF,), undefined("cosine of -inf")),
    ],
}

NAMES = ("u", "w")


def names(kind) -> tuple:
    return NAMES[:len(kind.__match_args__)]


def outcome(call):
    """``call()``'s value as hex bits, or its EvalDomainError and message."""
    try:
        value = call()
    except EvalDomainError as exc:
        return EvalDomainError, str(exc)
    return float(value).hex()


def want(expected):
    return expected if isinstance(expected, tuple) else float(expected).hex()


def test_every_row_has_cases():
    assert set(CASES) == set(evaluation._FUNCTIONS)
    assert all(CASES.values())


@pytest.mark.parametrize("kind", list(CASES), ids=lambda kind: kind.__name__)
def test_every_entry_point_meets_the_row_at_its_edges(kind):
    expr = kind(*map(Var, names(kind)))
    compiled = compile_callable(expr, names(kind))
    for operands, expected in CASES[kind]:
        point = dict(zip(names(kind), operands))
        expected = want(expected)
        assert outcome(lambda: evaluate(expr, point)) == expected, operands
        assert outcome(lambda: compiled(*operands)) == expected, operands
        columns = {name: np.array([value]) for name, value in point.items()}
        sweep = evaluation._OnePoint(columns, evaluation.ZERO)
        with np.errstate(all="ignore"):
            assert outcome(lambda: evaluation._value_walk(expr, sweep)[0]) \
                == expected, operands

    # the field walks over all of the row's cases at once, and with the
    # second operand as one number beside the first operand's column
    cases = CASES[kind]
    raises = [isinstance(expected, tuple) for _, expected in cases]
    columns = {name: np.array(column)
               for name, column in zip(NAMES, zip(*(ops for ops, _ in cases)))}
    values, bad = evaluate_field(expr, columns)
    assert bad.tolist() == raises
    assert [float(v).hex() for v, b in zip(values, bad) if not b] == \
        [want(expected) for _, expected in cases if not isinstance(expected, tuple)]
    assert evaluation._integrand_field(expr, columns)[1].tolist() == raises
    for (operands, expected), raised in zip(cases, raises):
        if len(operands) == 2:
            one = {"u": np.array(operands[:1]), "w": operands[1]}
            for field in (evaluate_field, evaluation._integrand_field):
                assert field(expr, one)[1].tolist() == [raised], operands
