"""Velocity-power Lagrangians L = F x'^mu - G and kinetic-potential splits.

* monomial: x'' + a x'^2 + b x' + c x'^(2-mu) = 0 admits L = F x'^mu - G
  with F = exp(mu int_x0^x a + (mu-1) int_t0^t b(x0, .)) and
  G = mu (mu-1) int_x0^x c F, provided (mu-1) b_x = mu a_t and mu is not
  0 or 1.
* power damping: x'' + a(x) x'^2 + c x'^nu = 0 is the monomial family at
  mu = 2 - nu with no linear drag.
* n-parameter: x'' + k x'^2 = 0 admits L = x'^n e^{n k x} for every
  n outside {0, 1}.
* generalized kinetic: x'' = f(x, t) R(x') admits L = Psi(x') + G(x, t)
  where Psi'' = 1/R and G = int_x0^x f.
"""
from __future__ import annotations

import numpy as np

from ..errors import BadExponentError, InadmissibleCoefficientsError
from ..evaluation import evaluate_points
from ..expressions import (
    Const,
    Div,
    Exp,
    Expr,
    Mul,
    Pow,
    Var,
    differentiate,
    simplify,
    substitute,
)
from ..lagrangian import DomainBox, Lagrangian, OdeSpec
from ._symbolic import antiderivative_in
from .common import (
    BuilderOptions,
    DEFAULT_OPTIONS,
    max_abs_defect,
    post_verify,
    relative_stratum,
    require_free_of,
)

__all__ = [
    "build_generalized_kinetic",
    "build_monomial",
    "build_power_damping",
    "closure_defect",
    "generalized_kinetic_rhs",
    "monomial_admissibility_defect",
    "monomial_rhs",
    "n_parameter_lagrangian",
    "power_damping_rhs",
]

_X, _V, _T = Var("x"), Var("v"), Var("t")

_DEFAULT_BOX = DomainBox(
    x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
    grid=(4, 4, 4), n_random=32, seed=37,
)


def closure_defect(a: Expr, b: Expr, mu: float) -> Expr:
    """(mu-1) b_x - mu a_t, which vanishes exactly when L = F x'^mu - G
    exists; at mu = 2 it is the quadratic family's b_x - 2 a_t."""
    return simplify(
        Const(mu - 1.0) * differentiate(b, "x")
        - Const(mu) * differentiate(a, "t")
    )


def monomial_admissibility_defect(a: Expr, b: Expr, mu: float,
                                  box: DomainBox = _DEFAULT_BOX) -> float:
    """Max |(mu-1) b_x - mu a_t| over the box's samples, 0.0 when structural."""
    return max_abs_defect(closure_defect(a, b, mu), box.sample_columns)


def monomial_rhs(a: Expr, b: Expr, c: Expr, mu: float) -> Expr:
    """Acceleration -(a v^2 + b v + c v^(2-mu)) of the monomial family."""
    return simplify(-(
        a * Pow(_V, Const(2.0))
        + b * _V
        + c * Pow(_V, Const(2.0 - float(mu)))
    ))


def power_damping_rhs(a: Expr, c: Expr, nu: float) -> Expr:
    """Acceleration -(a v^2 + c v^nu); nu is used as given, not
    recovered from the monomial exponent 2 - nu."""
    return simplify(-(a * Pow(_V, Const(2.0)) + c * Pow(_V, Const(float(nu)))))


def _monomial_lagrangian(a: Expr, b: Expr, c: Expr, mu: float,
                         options: BuilderOptions) -> Lagrangian:
    """Unverified L = F x'^mu - G; callers verify against their own rhs."""
    mu = float(mu)
    if mu in (0.0, 1.0):
        raise BadExponentError(f"exponent mu = {mu!r} degenerates the family")
    for name, expr in (("a", a), ("b", b), ("c", c)):
        require_free_of(expr, ("v",), f"coefficient {name}")
    defect = monomial_admissibility_defect(a, b, mu,
                                           options.verify_box or _DEFAULT_BOX)
    if not defect <= 1e-9:
        raise InadmissibleCoefficientsError(
            "coefficients violate (mu-1) db/dx = mu da/dt", defect
        )
    x0, t0 = options.x0, options.t0
    b_line = substitute(b, "x", Const(x0))
    exponent = simplify(
        Const(mu) * antiderivative_in(a, "x", x0)
        + Const(mu - 1.0) * antiderivative_in(b_line, "t", t0)
    )
    F = Exp(exponent)
    L: Expr = Mul(F, Pow(_V, Const(mu)))
    c = simplify(c)
    if c != Const(0.0):
        G = Const(mu * (mu - 1.0)) * antiderivative_in(
            simplify(Mul(c, F)), "x", x0
        )
        L = L - G
    return Lagrangian(simplify(L), family="monomial",
                      gauge=f"mu={mu}, anchors x0={x0}, t0={t0}")


def build_monomial(a: Expr, b: Expr, c: Expr, mu: float,
                   options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """L = F x'^mu - G for x'' + a x'^2 + b x' + c x'^(2-mu) = 0."""
    lagr = _monomial_lagrangian(a, b, c, mu, options)
    return post_verify(lagr, OdeSpec(monomial_rhs(a, b, c, mu)),
                       _DEFAULT_BOX, options)


def build_power_damping(a: Expr, c: Expr, nu: float,
                        options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """L for x'' + a x'^2 + c x'^nu = 0; the monomial family at mu = 2 - nu."""
    nu = float(nu)
    if nu in (1.0, 2.0):
        raise BadExponentError(
            f"damping exponent nu = {nu!r} degenerates the family"
        )
    lagr = _monomial_lagrangian(a, Const(0.0), c, 2.0 - nu, options)
    return post_verify(lagr, OdeSpec(power_damping_rhs(a, c, nu)),
                       _DEFAULT_BOX, options)


def n_parameter_lagrangian(n: float, k: float,
                           options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """L = x'^n e^{n k x} for x'' + k x'^2 = 0, one member per n."""
    return build_monomial(Const(float(k)), Const(0.0), Const(0.0), float(n),
                          options)


def generalized_kinetic_rhs(f: Expr, R: Expr) -> Expr:
    """Acceleration f(x, t) R(x') of the generalized kinetic family."""
    return simplify(Mul(f, R))


def build_generalized_kinetic(f: Expr, R: Expr,
                              psi: Expr | None = None,
                              options: BuilderOptions = DEFAULT_OPTIONS
                              ) -> Lagrangian:
    """L = Psi(x') + G(x, t) for x'' = f(x, t) R(x').

    Psi is a double antiderivative of 1/R in the velocity; a closed form is
    used when one is recognized, otherwise nested numeric antiderivatives
    anchored at v = 1.  Callers who know Psi in closed form may pass
    it in ``psi``; it is cross-checked against R before use.
    """
    require_free_of(f, ("v",), "force factor f")
    require_free_of(R, ("x", "t"), "velocity response R")
    if psi is not None:
        require_free_of(psi, ("x", "t"), "kinetic term psi")
        psi_vv = differentiate(differentiate(psi, "v"), "v")
        check = simplify(Mul(psi_vv, R))
        vs = (0.4, 0.9, 1.7)
        for vv, got in zip(vs, evaluate_points(check, {"v": np.array(vs)})):
            if not abs(got - 1.0) <= 1e-9:
                raise ValueError(
                    "psi'' R != 1 (got %.3e at v=%.1f)" % (got, vv)
                )
        Psi = psi
    else:
        slope = antiderivative_in(simplify(Div(Const(1.0), R)), "v", 1.0)
        Psi = antiderivative_in(simplify(slope), "v", 1.0)
    G = antiderivative_in(f, "x", options.x0)
    L = simplify(Psi + G)
    lagr = Lagrangian(L, family="kinetic-potential",
                      gauge=f"anchors v=1.0, x0={options.x0}")
    box = DomainBox(
        x=(-1.0, 1.0), v=(0.3, 2.2), t=(0.0, 1.5),
        grid=(4, 4, 4), n_random=32, seed=41,
        strata=(relative_stratum(R, 0.02),),
    )
    return post_verify(lagr, OdeSpec(generalized_kinetic_rhs(f, R)), box,
                       options)
