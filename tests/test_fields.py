"""Array sweeps against the scalar evaluators, point by point and bit for bit.

``evaluate_field`` and ``jet_field`` must mask exactly the points at which
``evaluate`` and ``eval_jet2`` raise, and agree with them to the last bit
everywhere else; the verifier built on them must report the residuals that
``euler_lagrange_residual`` computes one point at a time.
"""
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagrangeforge import (
    Abs,
    Add,
    Antideriv,
    BuilderOptions,
    Const,
    Cos,
    DegenerateLagrangianError,
    Div,
    DomainBox,
    EvalDomainError,
    Exp,
    Jet2,
    Lagrangian,
    Ln,
    Mul,
    Neg,
    OdeSpec,
    Pow,
    Sin,
    Sqrt,
    StandardCoeffs,
    Sub,
    Var,
    build_composed_invariant,
    build_reciprocal_linear,
    build_standard,
    clear_antideriv_cache,
    euler_lagrange_residual,
    eval_jet2,
    evaluate,
    evaluate_field,
    invariant_drift,
    jet_field,
    parse_expression,
    verify_lagrangian,
)
from lagrangeforge import evaluation
from lagrangeforge.constructors import common
from lagrangeforge.lagrangian import acceleration_field

K = 0.7   # the value of the parameter k

# a single integral leaf, so each anchor-cache key is asked by one node
INTEGRAL = Antideriv(parse_expression("cos(x)*exp(-(t^2))"), "t", 0.0)

EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-170, 1e-120, 1e300]

leaves = st.one_of(
    st.sampled_from([Var("x"), Var("v"), Var("t"), Var("k")]),
    st.sampled_from(EDGES).map(Const),
    st.floats(-3.0, 3.0).map(Const),
)


def _grow(children):
    binary = st.tuples(st.sampled_from([Add, Sub, Mul, Div, Pow]), children, children)
    unary = st.tuples(st.sampled_from([Neg, Exp, Ln, Sqrt, Abs, Sin, Cos]), children)
    return st.one_of(binary.map(lambda a: a[0](a[1], a[2])),
                     unary.map(lambda a: a[0](a[1])))


trees = st.recursive(leaves, _grow, max_leaves=10)
exprs = st.one_of(trees, trees.map(lambda e: Add(e, INTEGRAL)))
coords = st.one_of(st.sampled_from(EDGES), st.floats(-3.0, 3.0),
                   st.integers(-3 * 10**15, 3 * 10**15).map(lambda n: n / 1e15))
points = st.lists(st.tuples(coords, coords, st.floats(0.0, 2.0)),
                  min_size=1, max_size=6)


def columns(pts):
    xs, vs, ts = (np.array(c, dtype=float) for c in zip(*pts))
    return {"x": xs, "v": vs, "t": ts, "k": K}


def scalar(fn, expr, pts):
    """fn at each point, or None where it raises a domain error."""
    out = []
    for x, v, t in pts:
        try:
            out.append(fn(expr, {"x": x, "v": v, "t": t, "k": K}))
        except EvalDomainError:   # NonDifferentiableError included
            out.append(None)
    return out


def hexes(jet, i=None):
    slots = (getattr(jet, s) for s in Jet2.__slots__)
    return [float(s if i is None else s[i]).hex() for s in slots]


@settings(max_examples=300, deadline=None)
@given(exprs, points)
def test_fields_match_the_scalar_walks(expr, pts):
    clear_antideriv_cache()
    values, bad = evaluate_field(expr, columns(pts))
    clear_antideriv_cache()
    want = scalar(evaluate, expr, pts)
    assert bad.tolist() == [w is None for w in want]
    for i, w in enumerate(want):
        if w is not None:
            assert float(values[i]).hex() == w.hex()

    clear_antideriv_cache()
    jet, bad = jet_field(expr, columns(pts))
    clear_antideriv_cache()
    want = scalar(eval_jet2, expr, pts)
    assert bad.tolist() == [w is None for w in want]
    for i, w in enumerate(want):
        if w is not None:
            assert hexes(jet, i) == hexes(w)


@pytest.mark.parametrize("text", ["exp(x)", "ln(x)", "sin(x)", "cos(x)",
                                  "x^v", "x^2.5", "x^3", "sqrt(x)*v"])
def test_functions_match_libm_on_many_points(text):
    # numpy's exp, log, power, sin and cos differ from libm in the last bit
    # on a few percent of inputs; the fields must not use them
    rng = random.Random(text)
    pts = [(rng.uniform(0.01, 5.0), rng.uniform(-4.0, 4.0), 0.0) for _ in range(2000)]
    expr = parse_expression(text)
    values, bad = evaluate_field(expr, columns(pts))
    jet, jet_bad = jet_field(expr, columns(pts))
    assert not bad.any() and not jet_bad.any()
    for i, (x, v, t) in enumerate(pts):
        point = {"x": x, "v": v, "t": t}
        assert float(values[i]).hex() == evaluate(expr, point).hex()
        assert hexes(jet, i) == hexes(eval_jet2(expr, point))


def test_incoming_mask_is_kept_and_not_mutated():
    cols = columns([(1.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (2.0, 1.0, 0.0)])
    given_bad = np.array([False, False, True])
    values, bad = evaluate_field(parse_expression("ln(x)"), cols, given_bad)
    assert bad.tolist() == [False, True, True]
    assert given_bad.tolist() == [False, False, True]
    assert values[0] == 0.0


def test_integrals_see_the_scalar_requests_in_order(monkeypatch):
    # sqrt(t) is undefined for t < 0, so requests fail between good ones
    expr = Add(Mul(Var("v"), Var("v")), Antideriv(parse_expression("sqrt(t)*x"), "t", 0.0))
    pts = [(1.0, 0.5, 0.5), (1.0, 0.0, -0.3), (2.0, 0.4, 0.7), (1.0, 1.0, -0.1),
           (1.0, 1.5, 0.9), (2.0, 0.1, 0.7000001)]
    requests = []
    value = evaluation._antideriv_value

    def spy(node, binding):
        requests.append((node, tuple(sorted(binding.items()))))
        return value(node, binding)

    monkeypatch.setattr(evaluation, "_antideriv_value", spy)
    for field, walk in ((evaluate_field, evaluate), (jet_field, eval_jet2)):
        clear_antideriv_cache()
        field(expr, columns(pts))
        swept, requests[:] = list(requests), []
        clear_antideriv_cache()
        scalar(walk, expr, pts)
        assert requests == swept
        requests.clear()


def _recorded_verifications(monkeypatch, build):
    """The (L, ode, box, tol) of every sweep that ``build()`` asks for."""
    calls = []

    def record(L, ode, box, tol=1e-8):
        calls.append((L, ode, box, tol))
        return verify_lagrangian(L, ode, box, tol)

    monkeypatch.setattr(common, "verify_lagrangian", record)
    build()
    assert calls
    return calls


X = Var("x")
BUILDS = {
    "composed": lambda opts: build_composed_invariant(
        parse_expression("v*exp(0.7*x)"), parse_expression("0.6*v^2 + 0.2*v"),
        OdeSpec(parse_expression("-0.7*v^2")), opts),
    "standard": lambda opts: build_standard(
        StandardCoeffs(parse_expression("0.2*x"), Const(0.1), X), opts),
    "reciprocal-linear": lambda opts: build_reciprocal_linear(
        parse_expression("0.3 - 0.2*t"), parse_expression("-0.4 + 0.1*t"),
        (0.1, 2.0), opts),
}


@pytest.mark.parametrize("family", sorted(BUILDS))
def test_report_residuals_are_the_pointwise_residuals(monkeypatch, family):
    options = BuilderOptions(verify=True, verify_tol=1e-5)
    calls = _recorded_verifications(monkeypatch, lambda: BUILDS[family](options))
    for L, ode, box, tol in calls:
        # both sweeps start from an empty anchor cache, so integrals see the
        # same requests in the same order
        clear_antideriv_cache()
        report = verify_lagrangian(L, ode, box, tol)
        clear_antideriv_cache()
        assert len(report.residuals) == report.samples_used + report.samples_skipped
        for (x, v, t), residual in report.residuals:
            try:
                want = euler_lagrange_residual(L, ode, x, v, t)
            except (EvalDomainError, DegenerateLagrangianError):
                want = None
            assert (None if residual is None else residual.hex()) == (
                None if want is None else want.hex())


def test_no_numpy_warnings_across_domain_edges():
    L = Lagrangian(parse_expression("0.5*v^2 + ln(x) + sqrt(x) + 1/x + exp(1000*x)"))
    ode = OdeSpec(parse_expression("-x"))
    box = DomainBox(x=(-1.0, 1.0), grid=(5, 3, 3), n_random=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_lagrangian(L, ode, box)
        assert report.samples_skipped > 0 and report.samples_used > 0
        assert None in acceleration_field(L, box.sample_points())
        invariant_drift(L.expr, ode, box)
