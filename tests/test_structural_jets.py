"""Structural-zero jets against the dense formulas, bit for bit.

A jet slot that vanishes by the tree's structure is ``ZERO``, and the jet
arithmetic drops every term that has a ZERO factor.  ``DenseJet`` below is
the full formulas, every term computed, over leaves that hold a plain 0.0.
Wherever the walks do not raise, each slot of :func:`eval_jet2` and
:func:`jet_field` must equal the dense one in every bit, NaN and infinity
included; the only difference allowed is the sign of a zero slot.
"""
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagrangeforge import (
    Add,
    Antideriv,
    Const,
    Div,
    EvalDomainError,
    Exp,
    Jet2,
    Ln,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    ZERO,
    eval_jet2,
    evaluate,
    jet_field,
    parse_expression,
)
from lagrangeforge import evaluation
from test_expressions import expressions
from test_fields import exprs as field_exprs
from test_fields import fallbacks  # noqa: F401 - a fixture

SLOTS = Jet2.__slots__
DERIVATIVES = SLOTS[1:]


class _Point:
    """The rules' side of one point given as Python floats: raises where they fail."""

    bad = np.False_   # a failing rule raises, so no point is ever masked

    @staticmethod
    def value(kind, *operands):
        return evaluation._FUNCTIONS[kind].value(*operands)

    @staticmethod
    def fail(where, error, message, *args):
        if where:
            raise error(message.format(*args))


POINT = _Point()


class DenseJet:
    """The jet arithmetic with every term computed, in the full formulas' order."""

    __slots__ = SLOTS

    def __init__(self, f=0.0, gx=0.0, gv=0.0, gt=0.0,
                 hxv=0.0, hvv=0.0, hvt=0.0):
        self.f, self.gx, self.gv, self.gt = f, gx, gv, gt
        self.hxv, self.hvv, self.hvt = hxv, hvv, hvt

    def __add__(self, other):
        return DenseJet(*(getattr(self, s) + getattr(other, s) for s in SLOTS))

    def __sub__(self, other):
        return DenseJet(*(getattr(self, s) - getattr(other, s) for s in SLOTS))

    def __neg__(self):
        return DenseJet(*(-getattr(self, s) for s in SLOTS))

    def __mul__(self, other):
        u, w = self, other
        return DenseJet(
            u.f * w.f,
            u.gx * w.f + u.f * w.gx,
            u.gv * w.f + u.f * w.gv,
            u.gt * w.f + u.f * w.gt,
            u.hxv * w.f + u.gx * w.gv + u.gv * w.gx + u.f * w.hxv,
            u.hvv * w.f + 2.0 * u.gv * w.gv + u.f * w.hvv,
            u.hvt * w.f + u.gv * w.gt + u.gt * w.gv + u.f * w.hvt,
        )

    def chain(self, f0, f1, f2):
        u = self
        return DenseJet(
            f0,
            f1 * u.gx, f1 * u.gv, f1 * u.gt,
            f1 * u.hxv + f2 * u.gx * u.gv,
            f1 * u.hvv + f2 * u.gv * u.gv,
            f1 * u.hvt + f2 * u.gv * u.gt,
        )

    def __truediv__(self, other):
        return self * other.chain(*evaluation._recip_rule(other.f, POINT))


def dense_pow(base, exponent):
    if all(getattr(exponent, s) == 0.0 for s in DERIVATIVES):
        return base.chain(*evaluation._pow_rule(base.f, exponent.f, POINT))
    if base.f <= 0.0:
        raise EvalDomainError("non-positive base with variable exponent")
    arg = exponent * base.chain(*evaluation._ln_rule(base.f, POINT))
    return arg.chain(*evaluation._exp_rule(arg.f, POINT))


def dense_jet2(expr, binding):
    """The jet walk with dense leaves: the reference for eval_jet2."""
    kind = type(expr)
    if kind is Const:
        return DenseJet(expr.value)
    if kind in (Add, Sub, Mul, Div):
        left, right = dense_jet2(expr.left, binding), dense_jet2(expr.right, binding)
        return {Add: DenseJet.__add__, Sub: DenseJet.__sub__,
                Mul: DenseJet.__mul__, Div: DenseJet.__truediv__}[kind](left, right)
    if kind is Var:
        jet = DenseJet(evaluate(expr, binding))
        slot = {"x": "gx", "v": "gv", "t": "gt"}.get(expr.name)
        if slot is not None:
            setattr(jet, slot, 1.0)
        return jet
    if kind in evaluation._FUNCTIONS and kind is not Pow:
        u = dense_jet2(expr.operand, binding)
        return u.chain(*evaluation._FUNCTIONS[kind].derivative(u.f, POINT))
    if kind is Pow:
        return dense_pow(dense_jet2(expr.base, binding),
                         dense_jet2(expr.exponent, binding))
    if kind is Neg:
        return -dense_jet2(expr.operand, binding)
    assert kind is Antideriv
    return DenseJet(*(evaluate(d, binding) for d in evaluation._antideriv_slots(expr)))


def slots_of(jet, i=None):
    return [float(getattr(jet, s) if i is None else getattr(jet, s)[i]) for s in SLOTS]


def assert_dense_equal(got, want):
    """Bit for bit, NaN and infinities included, but for the sign of a zero."""
    for name, g, w in zip(SLOTS, got, want):
        if g == 0.0 and w == 0.0:
            continue
        assert g.hex() == w.hex(), (name, g, w)


def outcome(walk, expr, binding):
    try:
        return walk(expr, binding)
    except EvalDomainError:   # NonDifferentiableError included
        return None


# coordinates that overflow products and powers, or make derivatives of
# 1/u, ln u and sqrt u overflow, beside ordinary ones
EXTREME = [1e200, -1e155, 1e300, 1e-160, -1e-110, 700.0, 709.0, 0.0]
coordinate = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(EXTREME))
point = st.tuples(coordinate, coordinate, coordinate)
trees = st.one_of(expressions(), field_exprs)


def binding_of(pt):
    x, v, t = pt
    return {"x": x, "v": v, "t": t, "k": 0.7}


@settings(max_examples=300, deadline=None)
@given(trees, st.lists(point, min_size=1, max_size=5))
def test_structural_jets_are_the_dense_jets(expr, pts):
    cols = {name: np.array(c) for name, c in zip("xvt", zip(*pts))}
    jet, bad = jet_field(expr, {**cols, "k": 0.7})
    for i, pt in enumerate(pts):
        want = outcome(dense_jet2, expr, binding_of(pt))
        got = outcome(eval_jet2, expr, binding_of(pt))
        assert (got is None) == (want is None) == bool(bad[i])
        if want is not None:
            assert_dense_equal(slots_of(got), slots_of(want))
            assert_dense_equal(slots_of(jet, i), slots_of(want))


# --- structure -----------------------------------------------------------------

def test_a_constant_times_a_variable_leaves_its_other_slots_zero():
    xs = np.array([0.5, 1.5, -2.0])
    jet = Jet2(3.0) * Jet2(xs, gx=1.0)
    assert jet.gx == 3.0
    assert all(getattr(jet, s) is ZERO for s in DERIVATIVES if s != "gx")
    assert np.array_equal(jet.f, 3.0 * xs)


def test_a_computed_zero_is_not_structural():
    # x - x has a gradient of 1 - 1: a computed 0.0, not ZERO
    jet = eval_jet2(parse_expression("x*v - x*v"), {"x": 0.5, "v": 2.0, "t": 0.0})
    assert jet.gx == 0.0 and jet.gx is not ZERO
    assert jet.gt is ZERO and jet.hvt is ZERO
    # a function of a constant is a constant
    jet = eval_jet2(Exp(Const(1.5)), {})
    assert all(getattr(jet, s) is ZERO for s in DERIVATIVES)


def test_jet_fields_hold_only_float64_arrays():
    cols = {"x": np.array([0.5, 1.5, 2.0]), "v": np.array([1.0, -1.0, 0.3]),
            "t": np.array([0.0, 0.2, 0.9]), "k": 0.7}
    for text in ("3", "k", "x", "v^2*exp(0.5*t)", "1/(x*v + 2)", "x^t",
                 "integral(t, 0, cos(x*t))"):
        jet, bad = jet_field(parse_expression(text, params=("k",)), cols)
        for s in SLOTS:
            value = getattr(jet, s)
            assert type(value) is np.ndarray and value.dtype == np.float64, (text, s)


def test_zero_is_one_object():
    assert float(ZERO) == 0.0 and repr(ZERO) == "0.0"
    assert type(ZERO)() is ZERO
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(ZERO, protocol)) is ZERO
    assert copy.copy(ZERO) is ZERO and copy.deepcopy(ZERO) is ZERO
    jet = pickle.loads(pickle.dumps(Jet2(2.0, gx=1.0)))
    assert jet.gx == 1.0 and jet.gv is ZERO


def test_a_variable_exponent_keeps_its_zero_slots():
    # x^t depends on x and t only: its v slots are ZERO at every point
    sweep = evaluation._Sweep({"x": np.array([0.5, 2.0]), "t": np.array([0.1, 0.7])}, None)
    jet = evaluation._jet_walk(parse_expression("x^t"), sweep)
    assert [s for s in DERIVATIVES if getattr(jet, s) is ZERO] == ["gv", "hxv", "hvv", "hvt"]
    assert not sweep.redo


# --- where a non-finite number meets a ZERO --------------------------------------

@pytest.fixture
def redone(monkeypatch):
    """The jet fields that went through eval_jet2 point by point."""
    seen = []
    real = evaluation._jet_points

    def spy(expr, columns, bad):
        seen.append(expr)
        return real(expr, columns, bad)

    monkeypatch.setattr(evaluation, "_jet_points", spy)
    return seen


def test_an_overflowing_product_is_redone_densely(redone):
    # exp(700 t)^2 is infinite from t = 0.507 on; the dense gx of t times it
    # is 0 * inf + t * d/dx = NaN, which the structural product would drop
    expr = parse_expression("t*(exp(700*t)*exp(700*t))")
    ts = np.array([0.1, 0.5, 0.6, 0.9, 1.0])
    cols = {"x": np.full(5, 0.3), "v": np.full(5, 1.0), "t": ts}
    jet, bad = jet_field(expr, cols)
    assert redone == [expr] and not bad.any()
    for i, t in enumerate(ts.tolist()):
        binding = {"x": 0.3, "v": 1.0, "t": t}
        want = slots_of(dense_jet2(expr, binding))
        assert_dense_equal(slots_of(eval_jet2(expr, binding)), want)
        assert_dense_equal(slots_of(jet, i), want)
    assert math.isnan(jet.gx[-1])


def test_a_non_finite_derivative_of_a_constant_is_not_dropped(redone):
    # ln(1e-160) has the second derivative -1/1e-320 = -inf; the constant's
    # ZERO slots would drop it, the dense walk makes NaN of it
    expr = Mul(Var("x"), Ln(Const(1e-160)))
    binding = {"x": 2.0, "v": 0.0, "t": 0.0}
    want = slots_of(dense_jet2(expr, binding))
    assert any(math.isnan(w) for w in want)
    assert_dense_equal(slots_of(eval_jet2(expr, binding)), want)
    jet, bad = jet_field(expr, {"x": np.array([2.0])})
    assert redone == [expr]
    assert_dense_equal(slots_of(jet, 0), want)


@pytest.mark.parametrize("expr, k", [
    # a product of constants that overflows raises no error in Python floats
    (Mul(Var("t"), Mul(Const(1e200), Const(1e200))), 0.7),
    (Mul(Var("x"), Neg(Mul(Const(-1e300), Const(1e300)))), 0.7),
    # a non-finite parameter
    (Mul(Var("t"), Mul(Var("k"), Var("x"))), math.inf),
    (Add(Var("v"), Mul(Var("k"), Var("x"))), math.nan),
])
def test_non_finite_constants_and_parameters(expr, k, redone):
    cols = {"x": np.array([0.5, -2.0]), "v": np.array([1.0, 0.5]),
            "t": np.array([0.25, 1.0]), "k": k}
    jet, bad = jet_field(expr, cols)
    assert redone == [expr] and not bad.any()
    for i in range(2):
        binding = {name: (c[i].item() if isinstance(c, np.ndarray) else c)
                   for name, c in cols.items()}
        want = slots_of(dense_jet2(expr, binding))
        assert not all(map(math.isfinite, want))
        assert_dense_equal(slots_of(eval_jet2(expr, binding)), want)
        assert_dense_equal(slots_of(jet, i), want)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_columns(x, redone):
    expr = Mul(Var("t"), Mul(Var("x"), Var("v")))
    cols = {"x": np.array([x, 1.0]), "v": np.array([1.0, 2.0]), "t": np.array([0.5, 0.5])}
    jet, bad = jet_field(expr, cols)
    assert redone == [expr] and not bad.any()
    want = slots_of(dense_jet2(expr, {"x": x, "v": 1.0, "t": 0.5}))
    assert math.isnan(want[1])
    assert_dense_equal(slots_of(jet, 0), want)


def test_a_non_finite_variable_exponent_jet_is_redone(redone):
    # v^t runs point by point on Python floats, which raise no numpy flag;
    # at v = 1e307 its t-derivative v^t ln v overflows, and the product
    # with x drops it against x's ZERO v-slot where the dense walk has NaN
    expr = Mul(Pow(Var("v"), Var("t")), Var("x"))
    cols = {"x": np.array([2.0, 2.0]), "v": np.array([1e307, 2.0]), "t": np.array([1.0, 1.0])}
    jet, bad = jet_field(expr, cols)
    assert redone == [expr] and not bad.any()
    for i in range(2):
        binding = {q: cols[q][i].item() for q in "xvt"}
        want = slots_of(dense_jet2(expr, binding))
        assert_dense_equal(slots_of(jet, i), want)
    assert math.isinf(jet.gt[0]) and math.isnan(jet.hvt[0])


def test_points_whose_jets_differ_in_structure_are_redone(redone):
    # at x = 0.5 every derivative of the exponent is 0, so the scalar walk
    # takes the constant-exponent rule there and the t slots stay ZERO; at
    # the other points they hold numbers.  One array cannot be both, and a
    # plain 0.0 negates to -0.0 where ZERO stays 0.0
    expr = Neg(Pow(Var("x"), Mul(Pow(Sub(Var("x"), Const(0.5)), Const(3.0)), Var("t"))))
    cols = {"x": np.array([0.5, 0.7]), "t": np.array([0.3, 0.3])}
    jet, bad = jet_field(expr, cols)
    assert redone == [expr] and not bad.any()
    for i in range(2):
        want = eval_jet2(expr, {"x": cols["x"][i].item(), "t": 0.3})
        assert [g.hex() for g in slots_of(jet, i)] == [w.hex() for w in slots_of(want)]
    assert eval_jet2(expr, {"x": 0.5, "t": 0.3}).gt is ZERO


def test_ordinary_sweeps_are_not_redone(redone):
    cols = {"x": np.linspace(-1.0, 1.0, 7), "v": np.linspace(0.2, 2.0, 7),
            "t": np.linspace(0.0, 1.0, 7)}
    for text in ("0.5*exp(0.3*t)*(v^2 - 2.25*x^2)", "1/(x*v + 3)", "ln(v) + sqrt(v)*x",
                 "x^t*v", "integral(t, 0, exp(-(t^2))*x)*v^2"):
        jet_field(parse_expression(text), cols)
    assert redone == []


def test_masked_domain_edges_are_not_redone(redone):
    # numpy flags 1/0, sqrt of a negative and 1/x^2 at 0 where those points
    # are masked; flags raised at masked points alone do not count
    cols = {"x": np.array([-1.0, 0.0, 1.0, 2.0]), "v": np.array([1.0, -2.0, 3.0, 0.0]),
            "t": np.array([0.0, 0.5, 1.0, 0.25])}
    for text in ("v^2/x", "sqrt(v)*x", "ln(x)*v", "sqrt(x)*t + 1/(v*x)", "abs(v)*x"):
        expr = parse_expression(text)
        jet, bad = jet_field(expr, cols)
        for i in range(4):
            binding = {q: cols[q][i].item() for q in "xvt"}
            want = outcome(eval_jet2, expr, binding)
            assert bad[i] == (want is None)
            if want is not None:
                assert [g.hex() for g in slots_of(jet, i)] == \
                    [w.hex() for w in slots_of(want)]
    assert redone == []


@pytest.mark.parametrize("text, cols", [
    ("x^t", {"x": [-1.5, -0.5, 0.0, 0.4, 1.3, 1e300], "v": [1.0] * 6,
             "t": [0.0, 0.25, 0.5, 1.0, 1.5, 3.0]}),
    ("(v + 2)^(x*t)", {"x": [-1.5, 0.0, 0.4, 1.3, -2.0, 1e300],
                       "v": [-2.5, 0.3, 1.0, -1.0, 2.0, 1.0],
                       "t": [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]}),
    ("(x^2 + 0.5)^(sin(v)*t)", {"x": [-1.5, 0.0, 0.4, 1.3, -2.0, 1e5],
                                "v": [-2.5, 0.3, 1.0, -1.0, 2.0, 1.5],
                                "t": [0.0, 0.25, 0.5, 1.0, 1.5, 40.0]}),
])
def test_variable_exponents_run_as_arrays(text, cols, redone, fallbacks):
    # exp(w ln u) over the arrays: no point is redone, the only rules run
    # point by point are value rules where exp overflows
    expr = parse_expression(text)
    cols = {q: np.array(c) for q, c in cols.items()}
    jet, bad = jet_field(expr, cols)
    assert redone == []
    assert set(fallbacks) <= {row.value for row in evaluation._FUNCTIONS.values()}
    for i in range(len(bad)):
        want = outcome(dense_jet2, expr, {q: cols[q][i].item() for q in "xvt"})
        assert bool(bad[i]) == (want is None)
        if want is not None:
            assert_dense_equal(slots_of(jet, i), slots_of(want))
    assert 0 < bad.sum() < len(bad)
    assert fallbacks, "the last point's exp overflows"
