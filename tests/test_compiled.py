"""Generated callables against ``evaluate``, and ``OdeSpec`` as a plain value.

``compile_callable`` generates one straight-line function per tree, each
distinct subtree computed once.  A call must return ``evaluate``'s bits and
raise exactly where, and with the message with which, ``evaluate`` raises.
The integrator compiles a spec's right-hand side once per solve and keeps
nothing on the spec, so a spec equals, prints and pickles as its fields.
"""
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagrangeforge import (
    Abs,
    Add,
    Antideriv,
    Const,
    Div,
    EvalDomainError,
    Ln,
    Mul,
    OdeSpec,
    Pow,
    Sqrt,
    Sub,
    Var,
    compile_callable,
    definite_integral,
    evaluate,
    evaluate_field,
    integrate_ode,
    parse_expression,
    substitute,
)
from lagrangeforge import dynamics, expressions

from test_expressions import expressions as expression_trees

K = 0.7   # the value of the parameter k
STATE = ("x", "v", "t")

# wrappers that add the domain rules expressions() does not draw
WRAPS = [Ln, Sqrt, Abs, lambda e: Pow(e, Const(0.5)),
         lambda e: Pow(e, Var("k")), lambda e: Div(Const(1.0), e),
         lambda e: Pow(e, Const(-2.0)), lambda e: Mul(e, Var("k"))]
BINARY = [Add, Sub, Mul, Div, Pow]


def rebuilt(e):
    """An equal copy of ``e`` that shares no node with it."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Var):
        return Var(e.name)
    return expressions._rebuild(e, rebuilt)


@st.composite
def shared_trees(draw):
    """A drawn subtree at three places, the same object or an equal copy."""
    sub = draw(expression_trees())
    other = draw(expression_trees())
    again = sub if draw(st.booleans()) else rebuilt(sub)
    wrap, wrap2 = (draw(st.sampled_from(WRAPS)) for _ in range(2))
    outer, inner, last = (draw(st.sampled_from(BINARY)) for _ in range(3))
    return outer(inner(sub, wrap(other)), last(wrap2(again), sub))


coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-170, 1e300, 800.0, -800.0]),
    st.floats(-9.0, 9.0))
points = st.tuples(coords, coords, coords)


def outcome(fn):
    try:
        return fn().hex()
    except EvalDomainError as exc:
        return f"raises: {exc}"


@settings(max_examples=400, deadline=None)
@given(shared_trees(), st.lists(points, min_size=1, max_size=4))
def test_compiled_matches_evaluate(expr, pts):
    compiled = compile_callable(expr, STATE + ("k",))
    for x, v, t in pts:
        want = outcome(lambda: evaluate(expr, {"x": x, "v": v, "t": t, "k": K}))
        assert outcome(lambda: compiled(x, v, t, K)) == want


def test_shared_subtrees_are_computed_once():
    sub = parse_expression("exp(x*v) + sin(t)")
    expr = Add(Mul(sub, sub), Div(rebuilt(sub), Ln(sub)))
    code = compile_callable(expr, STATE).__code__
    # locals: Mul(x, v), exp, sin, +, the product, ln, /, and the sum
    assert code.co_nlocals == len(STATE) + 8


def test_generated_source_holds_no_user_text():
    expr = parse_expression(
        "integral(t, 0.25, t*gain) + 3.5*gain^x - exp(v)/t", params=("gain",))
    fn = compile_callable(expr, ("x", "v", "t", "gain"))
    code = fn.__code__
    assert set(code.co_consts) <= {None}
    assert all(re.fullmatch(r"[at]\d+", name) for name in code.co_varnames)
    assert all(re.fullmatch(r"k\d+|_[A-Z][a-z]+(_[a-z]+)?", name) for name in code.co_names)
    assert fn(0.5, 0.25, 2.0, 1.25).hex() == evaluate(
        expr, {"x": 0.5, "v": 0.25, "t": 2.0, "gain": 1.25}).hex()


@pytest.mark.parametrize("expr, check, kept", [
    (Pow(Var("x"), Const(3.0)), "_Pow_undefined", False),
    (Pow(Var("x"), Const(0.0)), "_Pow_undefined", False),
    (Div(Var("u"), Const(3.0)), "_Div_undefined", False),
    (Pow(Var("x"), Const(-1.0)), "_Pow_undefined", True),
    (Pow(Var("x"), Const(0.5)), "_Pow_undefined", True),
    (Div(Var("u"), parse_expression("1 + t")), "_Div_undefined", True),
])
def test_a_check_that_a_constant_decides_is_not_emitted(expr, check, kept):
    # an integral exponent >= 0 takes any base, and a nonzero divisor any
    # numerator; every other check stays, and so does the overflow path
    fn = compile_callable(expr, ("x", "u", "t"))
    assert (check in fn.__code__.co_names) is kept
    assert ("_Pow_overflow" in fn.__code__.co_names) is (type(expr) is Pow)
    for point in ((0.0, -0.0, 0.5), (-2.0, 1.5, -1.0), (1e200, 4.0, 0.0)):
        assert outcome(lambda: fn(*point)) == outcome(lambda: evaluate(
            expr, dict(zip(("x", "u", "t"), point))))


def test_integral_nodes_take_every_argument():
    node = Antideriv(parse_expression("exp(-(t*t))*x"), "t", 0.0)
    expr = Add(node, Mul(node, Var("v")))
    fn = compile_callable(expr, STATE)
    pts = ((0.3, 1.0, 0.5), (0.3, -2.0, 1.5), (-1.0, 0.0, 0.0))
    for x, v, t in pts:
        assert fn(x, v, t).hex() == evaluate(expr, {"x": x, "v": v, "t": t}).hex()
    # each one-point read of the node is the field rule's, bit for bit
    xs, vs, ts = (np.array(c) for c in zip(*pts))
    field, bad = evaluate_field(node, {"x": xs, "v": vs, "t": ts})
    assert not bad.any()
    read = compile_callable(node, STATE)
    for i, (x, v, t) in enumerate(pts):
        want = field[i].hex()
        assert evaluate(node, {"x": x, "v": v, "t": t}).hex() == want
        assert read(x, v, t).hex() == want
        assert definite_integral(node.integrand, "t", 0.0, t, {"x": x}).hex() == want


def test_unbound_and_unknown_nodes_rejected():
    with pytest.raises(EvalDomainError, match="unbound variable 'k'"):
        compile_callable(parse_expression("k*x", params=("k",)), STATE)
    leaf = compile_callable(Const(2.5), STATE)
    assert leaf(0.0, 0.0, 0.0) == 2.5
    assert compile_callable(Var("v"), STATE)(1.0, 2.0, 3.0) == 2.0


# --- an OdeSpec is its fields ------------------------------------------------

def test_spec_eq_repr_and_pickle_round_trip():
    ode = OdeSpec(substitute(parse_expression("-k*x - 0.1*v", params=("k",)),
                             "k", Const(2.0)))
    fresh = OdeSpec(ode.rhs)
    text = repr(ode)
    want = integrate_ode(ode, 1.0, 0.0, 0.0, 1.0)
    assert ode == fresh and hash(ode) == hash(fresh) and repr(ode) == text
    restored = pickle.loads(pickle.dumps(ode))
    assert restored == ode and repr(restored) == text
    assert restored.__dict__ == fresh.__dict__
    # solve again, not read the solve of ``ode`` that integrate_ode kept
    dynamics._solve.cache_clear()
    assert integrate_ode(restored, 1.0, 0.0, 0.0, 1.0) == want
    assert math.isfinite(want.final_state[0])
