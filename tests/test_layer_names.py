"""Names that the benchmark's tracer (``bench/tracer.py``) wraps.

The tracer counts a layer's calls by replacing a function in every package
module that imported it under its own name.  If a module stops importing
one of these, or binds a different object to the name, the traced counts
go to zero without any error, so the bindings are pinned here.
"""
import lagrangeforge
from lagrangeforge import evaluation, lagrangian, quadrature


def test_the_jet_is_imported_where_lagrangians_evaluate_it():
    assert lagrangian.eval_jet2 is evaluation.eval_jet2


def test_the_integrator_is_imported_where_integrals_evaluate():
    assert evaluation.integrate_adaptive is quadrature.integrate_adaptive


def test_the_verifier_is_the_package_export():
    assert lagrangeforge.verify_lagrangian is lagrangian.verify_lagrangian


def test_the_benchmark_sees_integrand_calls(monkeypatch):
    # the benchmark counts quadrature work by handing integrate_adaptive a
    # one-argument wrapper of its integrand, where evaluation imported it
    # (bench/worker.py, install_layers); integral-bearing builds must call
    # the wrapper, closed-form ones must not
    from lagrangeforge import (
        BuilderOptions,
        Const,
        Lagrangian,
        StandardCoeffs,
        Var,
        build_reciprocal_linear,
        build_standard,
        parse_expression,
    )

    calls = []
    original = evaluation.integrate_adaptive

    def count_integrand(*args, **kwargs):
        integrand = args[0]

        def counted(z):
            calls.append(z.size)
            return integrand(z)

        return original(counted, *args[1:], **kwargs)

    monkeypatch.setattr(evaluation, "integrate_adaptive", count_integrand)
    options = BuilderOptions(verify=True, verify_tol=1e-5)
    L = build_standard(StandardCoeffs(parse_expression("0.2*x"), Const(0.1), Var("x")),
                       options)
    assert isinstance(L, Lagrangian)
    assert len(calls) >= 1
    calls.clear()
    build_reciprocal_linear(parse_expression("0.3 - 0.2*t"),
                            parse_expression("-0.4 + 0.1*t"), (0.1, 2.0), options)
    assert calls == []


def test_the_benchmark_reads_an_empty_antiderivative_cache():
    # bench/worker.py::_cache_sizes reads evaluation._ANTIDERIV_CACHE in a
    # traced run; compiled integrals no longer fill it, so it stays empty
    # even after an ODE whose right-hand side carries an integral
    from lagrangeforge import Add, Antideriv, OdeSpec, integrate_ode, parse_expression

    assert isinstance(evaluation._ANTIDERIV_CACHE, dict)
    rhs = Add(parse_expression("-x - 0.1*v"),
              Antideriv(parse_expression("exp(-(t^2))"), "t", 0.0))
    assert integrate_ode(OdeSpec(rhs), 1.0, 0.0, 0.0, 1.0).n_steps > 0
    assert evaluation._ANTIDERIV_CACHE == {}
