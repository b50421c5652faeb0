"""The ODE-solution node: one trajectory per solution, read alike everywhere.

``OdeSolution(rhs, t0, t1, w0, dw0, order)`` is the solution w of
``w'' = rhs(w, w', t)`` with ``w(t0) = w0`` and ``w'(t0) = dw0`` on
``[t0, t1]`` (order 0), or its rate w' (order 1).  Every entry point reads
it from one kept trajectory through one dense-output formula, so their
values agree bit for bit; its t derivatives come from its equation, so the
reciprocal-linear Lagrangian built on it certifies to rounding.
"""
import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_acceptance as acceptance
from lagrangeforge import (
    BuilderOptions,
    Const,
    DomainBox,
    EvalDomainError,
    ExpressionError,
    ExprSyntaxError,
    IntegrationError,
    Lagrangian,
    Mul,
    Neg,
    OdeSolution,
    OdeSpec,
    Pow,
    SubstitutionError,
    Var,
    ZeroCrossingError,
    build_reciprocal_linear,
    canonical,
    compile_callable,
    differentiate,
    equivalent_expressions,
    eval_jet2,
    evaluate,
    evaluate_field,
    free_vars,
    integrate_ode,
    jet_field,
    normal_form,
    parse_expression,
    simplify,
    substitute,
    verify_lagrangian,
)
from lagrangeforge import dynamics, evaluation
from lagrangeforge.constructors import build_reciprocal_linear_variant
from lagrangeforge.constructors.common import min_abs_in_time

X, V, T = Var("x"), Var("v"), Var("t")
# the auxiliary solution of the Airy equation x'' = t x, and its rate
AIRY = OdeSolution(parse_expression("t*x"), 0.1, 2.0, 1.0, 0.0)
AIRY_RATE = OdeSolution(AIRY.rhs, 0.1, 2.0, 1.0, 0.0, 1)
# a damped oscillation whose equation reads both x and v
DAMPED = OdeSolution(parse_expression("-0.3*v - (2 + sin(t))*x"),
                     -0.5, 1.5, 0.25, -1.0)
NODES = [AIRY, AIRY_RATE, DAMPED, differentiate(DAMPED, "t")]
# criterion 06's box
AIRY_BOX = DomainBox(x=(0.2, 1.2), v=(0.2, 2.0), t=(0.1, 2.0),
                     grid=(4, 4, 6), n_random=20, seed=5)


def same(a, b) -> bool:
    """Equal bit for bit (so -0.0 and 0.0 differ)."""
    return float(a).hex() == float(b).hex()


def in_span(node):
    return st.floats(node.t0, node.t1, allow_nan=False)


# --- one formula, every entry point ------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_every_entry_point_reads_the_same_bits(data):
    for node in NODES:
        ts = data.draw(st.lists(in_span(node), min_size=1, max_size=6))
        column = np.array(ts)
        field, bad = evaluate_field(node, {"t": column})
        integrand, ibad = evaluation._integrand_field(node, {"t": column})
        jets, jbad = jet_field(node, {"t": column})
        compiled = compile_callable(node, ("t",))
        assert not (bad.any() or ibad.any() or jbad.any())
        for i, t in enumerate(ts):
            want = evaluate(node, {"t": t})
            jet = eval_jet2(node, {"t": t})
            for got in (field[i], integrand[i], jets.f[i], compiled(t), jet.f):
                assert same(got, want)
            # the jet's t slot is the derivative node's value, and the field
            # jet holds eval_jet2's bits
            assert same(jet.gt, evaluate(differentiate(node, "t"), {"t": t}))
            assert same(jets.gt[i], jet.gt)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(0.2, 1.2), st.floats(0.2, 2.0),
                          st.floats(0.1, 2.0)), min_size=1, max_size=5))
def test_a_lagrangian_over_the_node_agrees_with_its_pointwise_jet(points):
    L = build_reciprocal_linear(Const(0.0), parse_expression("-1.0*t"),
                                (0.1, 2.0)).expr
    xs, vs, ts = (np.array(c) for c in zip(*points))
    jets, bad = jet_field(L, {"x": xs, "v": vs, "t": ts})
    assert not bad.any()
    for i, (x, v, t) in enumerate(points):
        jet = eval_jet2(L, {"x": x, "v": v, "t": t})
        for slot in ("f", "gx", "gv", "gt", "hxv", "hvv", "hvt"):
            assert same(getattr(jets, slot)[i], getattr(jet, slot))


def test_the_dense_output_is_trajectory_sample():
    traj = integrate_ode(OdeSpec(AIRY.rhs), 1.0, 0.0, 0.1, 2.0,
                         dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13))
    for t in np.linspace(0.1, 2.0, 37).tolist():
        w, dw = traj.sample(t)
        assert same(evaluate(AIRY, {"t": t}), w)
        assert same(evaluate(AIRY_RATE, {"t": t}), dw)


# --- derivatives from the equation ------------------------------------------

def test_t_derivatives_follow_the_equation():
    assert differentiate(AIRY, "t") == AIRY_RATE
    # w'' = t w: the rate's derivative is the equation at (w, w', t)
    assert differentiate(AIRY_RATE, "t") == simplify(T * AIRY)
    for name in ("x", "v"):
        assert differentiate(AIRY, name) == Const(0.0)
        assert differentiate(AIRY_RATE, name) == Const(0.0)
    second = differentiate(differentiate(DAMPED, "t"), "t")
    rate = differentiate(DAMPED, "t")
    want = substitute(substitute(DAMPED.rhs, "x", DAMPED), "v", rate)
    assert second == simplify(want)


def test_the_rate_matches_a_finite_difference():
    h = 1e-4
    for t in np.linspace(0.2, 1.9, 35).tolist():
        slope = (evaluate(AIRY, {"t": t + h}) - evaluate(AIRY, {"t": t - h})) / (2 * h)
        assert abs(slope - evaluate(AIRY_RATE, {"t": t})) <= 5e-7


# --- the span -----------------------------------------------------------------

def test_reads_outside_the_span_are_masked():
    ts = np.array([0.0, 0.1, 1.0, 2.0, 2.5, math.nan])
    outside = [True, False, False, False, True, True]
    for node in (AIRY, AIRY_RATE):
        _, bad = evaluate_field(node, {"t": ts})
        assert bad.tolist() == outside
        _, bad = jet_field(node, {"t": ts})
        assert bad.tolist() == outside
        for t in (0.0, 2.5, 2.0 + 1e-9):
            with pytest.raises(EvalDomainError, match="outside the solution's span"):
                evaluate(node, {"t": t})
            compiled = compile_callable(node, ("t",))
            for read in (evaluate, eval_jet2, lambda n, b: compiled(b["t"])):
                with pytest.raises(EvalDomainError) as info:
                    read(node, {"t": t})
                assert str(info.value) == (
                    f"time {t!r} outside the solution's span [0.1, 2.0]")
            with pytest.raises(EvalDomainError):
                eval_jet2(node, {"t": t})
            with pytest.raises(EvalDomainError):
                compile_callable(node, ("t",))(t)
    with pytest.raises(EvalDomainError, match="unbound variable 't'"):
        evaluate(AIRY, {})


def test_a_grid_that_rounds_past_the_span_end_is_read():
    # lo + 5 * step rounds to 2.9600000000000004, one unit in the last place
    # past the end of the span
    node = OdeSolution(parse_expression("-x"), 0.31, 2.96, 1.0, 0.0)
    box = DomainBox(x=(0.0, 1.0), v=(0.0, 1.0), t=(0.31, 2.96),
                    grid=(1, 1, 6), n_random=40, seed=3)
    columns = box.sample_columns()
    assert columns["t"].max() == 2.9600000000000004
    for walk in (evaluate_field, jet_field):
        assert not walk(node, columns)[1].any()
    end = evaluate(node, {"t": 2.9600000000000004})
    # every entry point reads the grid end alike
    field, _ = evaluate_field(node, {"t": np.array([2.9600000000000004])})
    assert same(field[0], end)
    assert same(compile_callable(node, ("t",))(2.9600000000000004), end)
    assert abs(end - evaluate(node, {"t": 2.96})) <= 1e-15
    assert abs(end - math.cos(2.96 - 0.31)) <= 1e-9
    assert min_abs_in_time(node, 0.31, 2.96) >= 0.0   # 201 times, none raises


# --- a leaf for every walker ----------------------------------------------------

def test_the_node_is_an_atom_in_t():
    assert free_vars(AIRY) == {"t"} == free_vars(AIRY_RATE)
    assert simplify(AIRY) is AIRY
    assert substitute(AIRY, "x", Const(2.0)) is AIRY
    with pytest.raises(SubstitutionError):
        substitute(Mul(X, AIRY), "t", Const(1.0))
    assert normal_form(AIRY) != normal_form(AIRY_RATE)
    assert equivalent_expressions(Mul(AIRY, AIRY), Pow(AIRY, Const(2.0)))
    assert not equivalent_expressions(AIRY, AIRY_RATE)


def test_hash_equality_pickle_and_copy():
    twin = OdeSolution(parse_expression("t*x"), 0.1, 2.0, 1, 0)
    assert twin == AIRY and hash(twin) == hash(AIRY)
    assert AIRY != AIRY_RATE
    assert {AIRY: 1, AIRY_RATE: 2}[twin] == 1
    for made in (pickle.loads(pickle.dumps(AIRY)), copy.copy(AIRY),
                 copy.deepcopy(AIRY)):
        assert made == AIRY and hash(made) == hash(AIRY)
        assert same(evaluate(made, {"t": 0.7}), evaluate(AIRY, {"t": 0.7}))


def test_text_round_trips():
    variant = build_reciprocal_linear_variant(Const(0.2), parse_expression("-t"),
                                              (0.1, 2.0)).expr
    L = build_reciprocal_linear(Const(0.0), parse_expression("-1.0*t"),
                                (0.1, 2.0)).expr
    edge = OdeSolution(Neg(Const(2.0)) * X + Const(-0.0) * V, -0.0, 1e-3,
                       -2.5e-7, 1e20, 1)
    for e in (AIRY, AIRY_RATE, DAMPED, L, variant, edge, Mul(X, edge)):
        assert parse_expression(str(e)) == canonical(e)
    assert str(AIRY) == "ode_solution(t * x, 0.1, 2, 1, 0, 0)"
    # canonical folds the negated literal inside the equation
    assert canonical(edge).rhs == canonical(edge.rhs) != edge.rhs
    assert edge.t0 == 0.0 and math.copysign(1.0, edge.t0) == 1.0


@pytest.mark.parametrize("args", [
    (X, 1.0, 1.0, 1.0, 0.0), (X, 2.0, 1.0, 1.0, 0.0),
    (X, 0.0, math.inf, 1.0, 0.0), (X, 0.0, 1.0, math.nan, 0.0),
    (X, 0.0, 1.0, 1.0, 0.0, 2), (Var("k"), 0.0, 1.0, 1.0, 0.0)])
def test_malformed_nodes_are_refused(args):
    with pytest.raises(ExpressionError):
        OdeSolution(*args)


def test_the_name_is_reserved():
    with pytest.raises(ExprSyntaxError):
        parse_expression("ode_solution")
    for order in ("2", "0.5", "-1"):
        with pytest.raises(ExprSyntaxError):
            parse_expression(f"ode_solution(x, 0, 1, 1, 0, {order})")
    with pytest.raises(ExpressionError):
        Var("ode_solution")
    with pytest.raises(ValueError):
        parse_expression("x", params=("ode_solution",))


# --- one trajectory per solution --------------------------------------------------

def test_a_build_integrates_once_and_compiles_its_rhs_once(monkeypatch):
    # a solve made earlier in this process would be read from the cache
    dynamics._solve.cache_clear()
    solves, compiles = [], []
    real_solve, real_compile = dynamics._integrate_dp45, dynamics.compile_callable

    def solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    def compile_once(expr, *args, **kwargs):
        compiles.append(expr)
        return real_compile(expr, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate_dp45", solve)
    monkeypatch.setattr(dynamics, "compile_callable", compile_once)
    build_reciprocal_linear(Const(0.6), Const(0.0), (0.0, 2.0))
    assert len(solves) == 1 and len(compiles) == 1
    # a second build of the same problem reads the kept trajectory
    build_reciprocal_linear(Const(0.6), Const(0.0), (0.0, 2.0))
    assert len(solves) == 1 and len(compiles) == 1


def test_a_solve_that_fails_raises_its_integration_error():
    # w'' = w^2 from w = w' = 1 blows up near t = 1.6, past the guard
    node = OdeSolution(parse_expression("x^2"), 0.0, 3.0, 1.0, 1.0)
    with pytest.raises(IntegrationError):
        evaluate(node, {"t": 0.5})
    with pytest.raises(IntegrationError):
        evaluate_field(node, {"t": np.array([0.5])})


def test_the_solve_goes_through_the_traced_integrator():
    # the benchmark's tracer wraps integrate_ode in every module that binds it
    assert evaluation.integrate_ode is dynamics.integrate_ode


def test_the_trajectory_cache_is_bounded():
    size = dynamics._solve.cache_info().maxsize
    assert size == dynamics._TRAJECTORY_CACHE_SIZE and 0 < size <= 64
    for k in range(size + 4):
        evaluate(OdeSolution(parse_expression("-x"), 0.0, 1.0, 1.0 + k, 0.0),
                 {"t": 0.5})
    assert dynamics._solve.cache_info().currsize == size


# --- the builds it serves --------------------------------------------------------

def _criterion_01_reciprocal_linear(monkeypatch):
    """Build criterion 01's reciprocal-linear draws at 1e-8.

    Criterion 01 draws every family from one generator in turn, and only
    reciprocal-linear redraws, so replaying the earlier families' draws
    with their builders stubbed leaves the generator where criterion 01
    leaves it.
    """
    for name in ("build_standard", "build_monomial", "build_power_damping",
                 "build_generalized_kinetic", "build_reciprocal_autonomous",
                 "c_from_ab", "a_from_bc"):
        monkeypatch.setattr(acceptance, name, lambda *args, **kwargs: None)
    rng = random.Random(20260814)
    for name, draw, tol in acceptance.BUILDER_DRAWS:
        if name == "reciprocal-linear":
            break
        for _ in range(acceptance.N_DRAWS):
            draw(rng, BuilderOptions(verify=False))
    options = BuilderOptions(verify=True, verify_tol=1e-8)
    built = []
    while len(built) < acceptance.N_DRAWS:
        try:
            built.append(acceptance._draw_reciprocal_linear(rng, options))
        except ZeroCrossingError:
            continue
    return built


def test_every_criterion_01_draw_certifies_at_1e_8(monkeypatch):
    # the builder verifies at the requested tolerance and raises otherwise
    built = _criterion_01_reciprocal_linear(monkeypatch)
    assert len(built) == acceptance.N_DRAWS
    assert all(isinstance(L, Lagrangian) for L in built)


def test_airy_certifies_and_its_variant_still_fails():
    b, c = Const(0.0), simplify(Const(-1.0) * T)
    ode = OdeSpec(simplify(T * X))
    L = build_reciprocal_linear(b, c, (0.1, 2.0))
    report = verify_lagrangian(L, ode, AIRY_BOX, tol=1e-8)
    assert report.passed and report.max_residual <= 1e-8
    variant = build_reciprocal_linear_variant(b, c, (0.1, 2.0))
    bad = verify_lagrangian(variant, ode, AIRY_BOX, tol=1e-5)
    assert not bad.passed and bad.max_residual > 1e-2
