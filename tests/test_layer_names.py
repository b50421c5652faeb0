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
