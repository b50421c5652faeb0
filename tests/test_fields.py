"""Array sweeps against the scalar evaluators, point by point and bit for bit.

``evaluate_field`` and ``jet_field`` must mask exactly the points at which
``evaluate`` and ``eval_jet2`` raise, and agree with them to the last bit
everywhere else; the verifier built on them must report the residuals that
``euler_lagrange_residual`` computes one point at a time.
"""
import copy
import math
import random
import warnings
from collections import Counter

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
    compile_callable,
    differentiate,
    euler_lagrange_residual,
    eval_jet2,
    evaluate,
    evaluate_field,
    invariant_drift,
    jet_field,
    parse_expression,
    simplify,
    verify_lagrangian,
)
from lagrangeforge import evaluation, expressions
from lagrangeforge.constructors import common
from lagrangeforge.lagrangian import _usable_accelerations

K = 0.7   # the value of the parameter k

# a single integral leaf, added to the random trees
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


def assert_fields_match(expr, pts):
    """The field walks mask where the scalar walks raise and agree elsewhere."""
    values, bad = evaluate_field(expr, columns(pts))
    want = scalar(evaluate, expr, pts)
    assert bad.tolist() == [w is None for w in want]
    for i, w in enumerate(want):
        if w is not None:
            assert float(values[i]).hex() == w.hex()

    jet, bad = jet_field(expr, columns(pts))
    want = scalar(eval_jet2, expr, pts)
    assert bad.tolist() == [w is None for w in want]
    for i, w in enumerate(want):
        if w is not None:
            assert hexes(jet, i) == hexes(w)


@settings(max_examples=300, deadline=None)
@given(exprs, points)
def test_fields_match_the_scalar_walks(expr, pts):
    assert_fields_match(expr, pts)


# --- a sweep walks each distinct subtree once ---------------------------------
#
# The sweeps keep each distinct node's result, keyed by the node, and return
# it when the node comes again.  That is exact because equal nodes evaluate
# identically and the mask only grows: a masking sibling walked between two
# occurrences of a subtree masks points whose values are never read again.

MASKING = [Ln(Var("x")), Div(Const(1.0), Var("x")), Sqrt(Var("v")),
           Ln(Sub(Var("t"), Const(0.5)))]
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
    """One random subtree at two places, a masking sibling between them;
    the second place holds the same object or an equal rebuilt copy."""
    sub = draw(exprs)
    again = sub if draw(st.booleans()) else rebuilt(sub)
    assert again == sub
    outer, inner, last = (draw(st.sampled_from(BINARY)) for _ in range(3))
    return outer(inner(sub, draw(st.sampled_from(MASKING))),
                 last(again, draw(trees)))


def _frozen(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@settings(max_examples=200, deadline=None)
@given(shared_trees(), points)
def test_shared_subtrees_match_the_scalar_walks(expr, pts):
    assert_fields_match(expr, pts)

    # no sweep changes an array in place: not the columns passed in, and
    # not what an earlier sweep returned
    cols = columns(pts)
    given_cols = _frozen(cols[q] for q in "xvt")
    values, bad = evaluate_field(expr, cols)
    jet, jet_bad = jet_field(expr, cols)
    returned = [values, bad, jet_bad, *(getattr(jet, s) for s in Jet2.__slots__)]
    before = _frozen(returned)
    evaluate_field(expr, cols)
    jet_field(expr, cols, np.arange(len(pts)) % 2 == 1)
    assert _frozen(cols[q] for q in "xvt") == given_cols
    assert _frozen(returned) == before


def test_an_integral_base_of_minus_zero_is_normalised():
    minus = parse_expression("integral(t, -0, cos(x*t) + sqrt(t))")
    plus = Antideriv(minus.integrand, "t", 0.0)
    assert minus == plus and hash(minus) == hash(plus)
    assert math.copysign(1.0, minus.base) == 1.0
    # both spellings in one tree, around points at both signed zeros
    expr = Add(Mul(minus, Var("x")), Sub(Var("v"), plus))
    assert_fields_match(expr, [(1.0, 0.5, 0.0), (1.0, 0.5, -0.0), (0.5, 1.0, 0.7),
                               (-1.0, 2.0, -0.3), (2.0, 0.3, 1e-300)])


def _nodes(e):
    """Every node of ``e``, once per place it occurs."""
    yield e
    for child in expressions._children(e):
        yield from _nodes(child)


def _counting(monkeypatch, module, name):
    """Count the first argument of each call of ``module.name``."""
    seen = Counter()
    real = getattr(module, name)

    def counted(node, *args):
        seen[node] += 1
        return real(node, *args)

    monkeypatch.setattr(module, name, counted)
    return seen


def _horner_lagrangian() -> Lagrangian:
    """L = 1 / (w^3 v + (w^3)' x) for a Horner polynomial w in
    tau = (2t - 2.1) / 1.9."""
    tau = simplify(Div(Const(2.0) * Var("t") - Const(2.1), Const(1.9)))
    w = Const(0.05)
    for k in range(11):
        w = Const(1.0 if k == 10 else 0.05) + tau * w
    f = Pow(w, Const(3.0))
    return Lagrangian(simplify(Div(Const(1.0), f * Var("v")
                                   + differentiate(f, "t") * Var("x"))))


def test_each_distinct_subtree_is_walked_once(monkeypatch):
    # w is a Horner polynomial in tau, so L repeats the tau and Horner
    # chains many times over; a lost memo multiplies the work and fails here
    L = _horner_lagrangian()
    nodes = list(_nodes(L.expr))
    inner = {n for n in nodes if not isinstance(n, (Const, Var))}
    assert len(nodes) > 10 * len(inner)
    cols = columns([(0.5 + 0.1 * i, 0.2 + 0.3 * i, 0.1 + 0.2 * i) for i in range(8)])
    for walker, name in ((jet_field, "_jet_node"), (evaluate_field, "_value_node")):
        seen = _counting(monkeypatch, evaluation, name)
        walker(L.expr, cols)
        assert {n: c for n, c in seen.items()
                if not isinstance(n, (Const, Var))} == dict.fromkeys(inner, 1)

    # simplify works once per distinct input object.  The builder's L.expr
    # is already simplified and marked, so count on an unmarked copy that
    # keeps its sharing
    fresh = copy.deepcopy(L.expr)
    assert fresh == L.expr
    seen = _counting(monkeypatch, expressions, "_simplify_node")
    out = expressions.simplify(fresh)
    distinct = {id(n) for n in _nodes(fresh)}
    assert len(nodes) > 5 * len(distinct)
    assert sum(seen.values()) == len(distinct)
    # and never walks again what it has simplified
    seen.clear()
    expressions.simplify(out)
    assert sum(seen.values()) == 0


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


# --- the mapped C-library calls and their overflow fallback ---------------------
#
# The exact sweeps compute exp, log, sin, cos and powers by mapping the C
# library's function over the unmasked points.  Only exp and powers can
# raise there (OverflowError); then the node is redone point by point with
# the scalar rule, so the mask is the scalar raise set.

EXP_EDGE = 709.782712893384        # the largest x with a finite exp(x)
POW10_EDGE = 308.25471555991675    # log10 of the largest float, near it


def _neighbours(x, k=3):
    out = [x]
    for _ in range(k):
        out = [math.nextafter(out[0], -math.inf), *out,
               math.nextafter(out[-1], math.inf)]
    return out


def _matches_scalar(expr, cols):
    """Both field walks against the scalar walks, by float.hex; the masks."""
    n = len(next(c for c in cols.values() if isinstance(c, np.ndarray)))
    values, bad = evaluate_field(expr, cols)
    jet, jet_bad = jet_field(expr, cols)
    for i in range(n):
        point = {name: (c[i].item() if isinstance(c, np.ndarray) else c)
                 for name, c in cols.items()}
        for walk, mask, check in (
                (evaluate, bad, lambda w: float(values[i]).hex() == w.hex()),
                (eval_jet2, jet_bad, lambda w: hexes(jet, i) == hexes(w))):
            try:
                want = walk(expr, point)
            except EvalDomainError:
                assert mask[i]
            else:
                assert not mask[i] and check(want)
    return bad.tolist(), jet_bad.tolist()


@pytest.fixture
def fallbacks(monkeypatch):
    """The rules that _Sweep.per_point ran, one entry per call."""
    seen = []
    real = evaluation._Sweep.per_point

    def spy(self, rule, *operands):
        seen.append(rule)
        return real(self, rule, *operands)

    monkeypatch.setattr(evaluation._Sweep, "per_point", spy)
    return seen


def test_exp_overflow_edge_is_the_scalar_one(fallbacks):
    xs = _neighbours(EXP_EDGE)
    bad, jet_bad = _matches_scalar(Exp(Var("x")), {"x": np.array(xs)})
    assert bad == jet_bad == [x > EXP_EDGE for x in xs]
    assert fallbacks == [evaluation._FUNCTIONS[Exp].value] * 2


def test_power_of_ten_overflow_edge_is_the_scalar_one(fallbacks):
    xs = _neighbours(POW10_EDGE)
    bad, jet_bad = _matches_scalar(Pow(Const(10.0), Var("x")), {"x": np.array(xs)})
    assert bad == jet_bad
    assert 0 < sum(bad) < len(xs) and bad == sorted(bad)
    # the value walk falls back; so may the jet's exp(x*ln(10))
    assert evaluation._FUNCTIONS[Pow].value in fallbacks


def test_integral_exponent_overflow_of_a_negative_base(fallbacks):
    expr = Pow(Var("x"), Const(1e20))
    with pytest.raises(EvalDomainError, match="overflow"):
        evaluate(expr, {"x": -2.0})
    bad, jet_bad = _matches_scalar(expr, {"x": np.array([-2.0, 1.0, -1.0, 0.5])})
    assert bad == jet_bad == [True, False, False, False]
    assert set(fallbacks) == {evaluation._FUNCTIONS[Pow].value}


def test_only_the_overflowing_points_are_masked(fallbacks):
    xs = np.array([1.0, 710.0, -3.0, 800.0, 709.0, math.inf, -math.inf, math.nan])
    bad, jet_bad = _matches_scalar(Exp(Var("x")), {"x": xs})
    assert bad == jet_bad == [False, True, False, True, False, False, False, False]
    assert fallbacks == [evaluation._FUNCTIONS[Exp].value] * 2


def test_no_fallback_without_overflow(fallbacks):
    xs = np.array([0.5, 2.0, 709.0, -700.0])
    for text in ("exp(x)", "ln(x)", "sin(x)", "cos(x)", "x^2.5", "x^-3",
                 "sqrt(x)", "abs(x)"):
        _matches_scalar(parse_expression(text), {"x": xs})
    assert fallbacks == []


@pytest.mark.parametrize("k", [1.5, 710.0, -2.0, 0.0])
def test_constant_operands_are_python_floats(k, fallbacks):
    # k is a parameter: a Python float operand beside the x column
    cols = {"x": np.array([-2.0, 0.0, 0.5, 3.0]), "k": k}
    for text in ("exp(k)", "exp(k*x)", "x^k", "k^x", "ln(k)", "sin(k)",
                 "sqrt(k)", "k^1e20"):
        _matches_scalar(parse_expression(text, params=("k",)), cols)


def test_incoming_mask_is_kept_and_not_mutated():
    cols = columns([(1.0, 1.0, 0.0), (-1.0, 1.0, 0.0), (2.0, 1.0, 0.0)])
    given_bad = np.array([False, False, True])
    values, bad = evaluate_field(parse_expression("ln(x)"), cols, given_bad)
    assert bad.tolist() == [False, True, True]
    assert given_bad.tolist() == [False, False, True]
    assert values[0] == 0.0


def test_columns_without_an_array_need_a_mask():
    # no column says how many points there are
    k = parse_expression("k*2", params=("k",))
    for call in (lambda: evaluate_field(Const(1.0), {}),
                 lambda: jet_field(k, {"k": 1.0}),
                 lambda: evaluation.evaluate_points(k, {"k": 1.0})):
        with pytest.raises(ValueError, match="columns hold no array"):
            call()
    values, bad = evaluate_field(k, {"k": 1.0}, np.zeros(2, dtype=bool))
    assert values.tolist() == [2.0, 2.0] and not bad.any()
    # the scalar jet gives its own one-point mask
    assert eval_jet2(Exp(Const(1.5)), {}).f == math.exp(1.5)


# --- the value rules' shortcuts -----------------------------------------------

EXPONENTS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -3.0, -2.5, 0.5, 2.0,
             1e308]
BASES = np.array([-2.0, -0.5, -0.0, 0.0, 0.5, 3.0, math.nan])


@pytest.mark.parametrize("exponent", EXPONENTS)
def test_a_scalar_exponent_has_the_array_domain(exponent):
    want = evaluation._pow_domain(BASES, np.full(len(BASES), exponent))
    for e in (exponent, np.float64(exponent)):
        got = evaluation._pow_domain(BASES, e)
        assert np.broadcast_to(got, BASES.shape).tolist() == want.tolist()
        for base, out in zip(BASES.tolist(), want.tolist()):
            assert bool(evaluation._pow_domain(base, e)) == out


@settings(max_examples=200, deadline=None)
@given(exprs, points, st.lists(st.booleans(), min_size=6, max_size=6))
def test_a_given_mask_changes_nothing_elsewhere(expr, pts, flags):
    # the sweeps take an unmasked and a masked path through each value rule
    cols = columns(pts)
    given_bad = np.array(flags[:len(pts)])
    values, bad = evaluate_field(expr, cols)
    masked_values, masked_bad = evaluate_field(expr, cols, given_bad)
    assert masked_bad.tolist() == (bad | given_bad).tolist()
    keep = ~masked_bad
    assert [v.hex() for v in masked_values[keep].tolist()] == \
        [v.hex() for v in values[keep].tolist()]

    jet, bad = jet_field(expr, cols)
    masked_jet, masked_bad = jet_field(expr, cols, given_bad)
    assert masked_bad.tolist() == (bad | given_bad).tolist()
    for i in np.flatnonzero(~masked_bad).tolist():
        assert hexes(masked_jet, i) == hexes(jet, i)


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
        report = verify_lagrangian(L, ode, box, tol)
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
        _, usable = _usable_accelerations(L, box.sample_columns())
        assert not usable.all()
        invariant_drift(L.expr, ode, box)


# --- integrals depend on their own point only --------------------------------

# sqrt(t) is undefined for t < 0, so some points are masked between good ones
SINGLE = Add(Mul(Var("v"), Var("v")),
             Antideriv(parse_expression("sqrt(t)*x"), "t", 0.0))
# sharing the dummy name t chains the inner upper limit to the outer
# integration point
NESTED = Antideriv(
    Mul(Cos(Mul(Var("x"), Var("t"))),
        Antideriv(Mul(Var("v"), Exp(Neg(Mul(Var("t"), Var("t"))))), "t", 0.0)),
    "t", 0.0)
PTS = [(1.0, 0.5, 0.5), (1.0, 0.0, -0.3), (2.0, 0.4, 0.7), (1.0, 1.0, -0.1),
       (1.0, 1.5, 0.9), (2.0, 0.1, 0.7000001), (-0.5, 2.0, 1.3)]


def _report_facts(report):
    return repr(report), [None if r is None else r.hex() for _, r in report.residuals]


def _same_points(got, got_bad, want, want_bad, index):
    """``got`` at point i is ``want`` at point ``index[i]``, bit for bit."""
    assert got_bad.tolist() == want_bad[index].tolist()
    for i, j in enumerate(index):
        if not got_bad[i]:
            assert hexes(got, i) == hexes(want, j)


def test_integrals_depend_only_on_their_point(monkeypatch):
    # a compiled integral is evaluate's one-point call: the same bits on a
    # fresh callable and after calls at other points
    us = (0.1, 0.9, 1.7)
    want = [evaluate(INTEGRAL, {"x": 0.3, "t": u}).hex() for u in us]
    integral = compile_callable(INTEGRAL, ("x", "t"))
    assert [integral(0.3, u).hex() for u in us] == want
    for u in (0.05, 0.85, 0.9000001, 1.65, 2.5):
        integral(0.3, u)
    assert [integral(0.3, u).hex() for u in us] == want

    # a report is the same whether L is verified first or after an
    # unrelated integral-bearing build and compiled integral calls
    options = BuilderOptions(verify=True, verify_tol=1e-5)
    calls = list(_recorded_verifications(monkeypatch,
                                         lambda: BUILDS["standard"](options)))
    first = [_report_facts(verify_lagrangian(*call)) for call in calls]
    build_standard(StandardCoeffs(parse_expression("0.3*x"), Const(0.2),
                                  parse_expression("x + 0.1*x^2")), options)
    for u in us:
        integral(0.7, u)
    assert [_report_facts(verify_lagrangian(*call)) for call in calls] == first

    rng = random.Random(5)
    shuffled = list(range(len(PTS)))
    rng.shuffle(shuffled)
    for expr in (SINGLE, NESTED):
        jet, bad = jet_field(expr, columns(PTS))
        values, values_bad = evaluate_field(expr, columns(PTS))
        assert bad.any() == (expr is SINGLE)
        # reversed or permuted points give the permuted result
        for index in (list(range(len(PTS)))[::-1], shuffled):
            _same_points(*jet_field(expr, columns([PTS[j] for j in index])),
                         jet, bad, np.array(index))
        # and one point alone gives that point's result
        for j, pt in enumerate(PTS):
            _same_points(*jet_field(expr, columns([pt])), jet, bad, np.array([j]))
            one, one_bad = evaluate_field(expr, columns([pt]))
            assert one_bad[0] == values_bad[j]
            if not one_bad[0]:
                assert one[0].hex() == values[j].hex()


# --- the integrands' walk ----------------------------------------------------
#
# Integrands run through evaluation._integrand_field, which applies numpy's
# ufuncs where evaluate calls the C library.  Its mask must be evaluate's
# domain rules exactly.  Its values may differ in the last bits: glibc's exp,
# log, pow, sin and cos are within 1 ulp of the exact result and numpy's
# SIMD float64 versions within 4, so two of them differ by less than 8 ulp
# of the result.  bounded() carries that difference through the tree as an
# absolute bound (first-order, with a 1% margin), and a domain check whose
# operand lies within the bound of its edge is not judged.

EPS = 2.0 ** -52
TINY = 8 * 2.0 ** -1074     # a few subnormal ulps
HUGE = 1.7976931348623157e308
LOG_HUGE = math.log(HUGE)
FN_ULPS = 8 * EPS


class Unsure(Exception):
    """A domain check that the walks' last-bit differences could flip."""


def _unsure(u, du, *edges):
    if du == 0.0:
        return
    if not (math.isfinite(u) and math.isfinite(du)) or abs(u) + du >= HUGE:
        raise Unsure
    if any(abs(u - edge) <= du for edge in edges):
        raise Unsure


def _scaled(a, d):
    return 0.0 if d == 0.0 else abs(a) * d


def _rounded(value, spread):
    """A rounded result whose exact inputs differ by ``spread``."""
    if spread == 0.0:
        return 0.0
    if math.isnan(spread):
        return math.inf
    return spread + EPS * (2.0 * abs(value) + spread) + TINY


def _function(value, spread):
    """An elementary function: its inputs' spread plus the libraries' own."""
    if math.isnan(spread):
        return math.inf
    return 1.01 * spread + FN_ULPS * (abs(value) + spread) + TINY


def _expm1(a):
    return math.inf if a > 700.0 else math.expm1(a)


def bounded(expr, point):
    """``(evaluate(expr, point), d)``, where d bounds |integrand walk - evaluate|.

    Raises EvalDomainError where evaluate does, and Unsure where a domain
    check is within d of its edge.
    """
    kind = type(expr)
    if kind in (Const, Var, Antideriv):
        # an integral is the same batched quadrature in both walks
        return evaluate(expr, point), 0.0
    if kind in (Neg, Abs):
        u, du = bounded(expr.operand, point)
        return (-u if kind is Neg else abs(u)), du
    if kind in (Add, Sub, Mul, Div):
        left, dl = bounded(expr.left, point)
        right, dr = bounded(expr.right, point)
        if kind is Div:
            _unsure(right, dr, 0.0)
            value = evaluation._FUNCTIONS[Div].value(left, right)
            if dl == dr == 0.0:
                return value, 0.0
            spread = (dl + _scaled(value, dr) * (1 + 4 * EPS)) / (abs(right) - dr)
        elif kind is Mul:
            value = left * right
            spread = _scaled(left, dr) + _scaled(right, dl) + dl * dr
        else:
            value = left + right if kind is Add else left - right
            spread = dl + dr
        return value, _rounded(value, spread)
    if kind is Pow:
        base, db = bounded(expr.base, point)
        exponent, de = bounded(expr.exponent, point)
        _unsure(base, db, 0.0)
        _unsure(exponent, de)
        if base < 0.0 and de and abs(exponent - round(exponent)) <= de:
            raise Unsure
        if base == 0.0:
            _unsure(exponent, de, 0.0)
        spread_log = math.inf
        if base != 0.0 and math.isfinite(base) and math.isfinite(exponent):
            lam = -math.log1p(-db / abs(base)) if db else 0.0
            log_base = math.log(abs(base))
            spread_log = _scaled(exponent, lam) + _scaled(abs(log_base) + lam, de)
            log_value = exponent * log_base
            # whether the power overflows
            if abs(log_value - LOG_HUGE) <= 1.01 * spread_log + 1e-9 * max(1.0, abs(log_value)):
                raise Unsure
        value = evaluation._FUNCTIONS[Pow].value(base, exponent)
        if db == de == 0.0:
            return value, _function(value, 0.0)
        return value, _function(value, abs(value) * _expm1(1.01 * spread_log))
    u, du = bounded(expr.operand, point)
    if kind is Exp:
        _unsure(u, du, LOG_HUGE)
        value = evaluation._FUNCTIONS[Exp].value(u)
        return value, _function(value, _scaled(value, _expm1(du)))
    if kind is Ln:
        _unsure(u, du, 0.0)
        value = evaluation._FUNCTIONS[Ln].value(u)
        return value, _function(value, -math.log1p(-du / u) if du else 0.0)
    if kind is Sqrt:
        # correctly rounded in both walks
        _unsure(u, du, 0.0)
        value = evaluation._FUNCTIONS[Sqrt].value(u)
        return value, _rounded(value, du / math.sqrt(u) if du else 0.0)
    _unsure(u, du)
    value = evaluation._FUNCTIONS[kind].value(u)   # sin, cos
    return value, _function(value, min(du, 2.0))


@settings(max_examples=300, deadline=None)
@given(exprs, points)
def test_integrand_walk_masks_the_scalar_domain_errors(expr, pts):
    values, bad = evaluation._integrand_field(expr, columns(pts))
    for i, (x, v, t) in enumerate(pts):
        try:
            want, spread = bounded(expr, {"x": x, "v": v, "t": t, "k": K})
        except EvalDomainError:
            assert bad[i]
            continue
        except Unsure:
            continue
        assert not bad[i]
        got = float(values[i])
        if spread == 0.0:
            assert got.hex() == want.hex()
        elif math.isfinite(want) and math.isfinite(spread):
            assert abs(got - want) <= spread


@pytest.mark.parametrize("text, x_bad, x_good", [
    ("ln(x)", 0.0, 0.5), ("ln(x)", -1.0, 0.5), ("sqrt(x)", -1e-300, 0.0),
    ("1/(x - 1)", 1.0, 0.5), ("exp(x)", 710.0, 709.0), ("x^400", 10.0, 5.0),
    ("x^0.5", -2.0, 2.0), ("x^(-1)", 0.0, -2.0), ("x^1e20", -2.0, -0.5),
    ("sin(x*1e300*1e300)", 1.0, 0.0), ("cos(x*1e300*1e300)", -1.0, 0.0),
])
def test_integrand_walk_masks_each_domain_edge(text, x_bad, x_good):
    expr = parse_expression(text)
    with pytest.raises(EvalDomainError):
        evaluate(expr, {"x": x_bad})
    values, bad = evaluation._integrand_field(expr, {"x": np.array([x_bad, x_good])})
    assert bad.tolist() == [True, False]
    assert values[1] == pytest.approx(evaluate(expr, {"x": x_good}), rel=1e-15)
