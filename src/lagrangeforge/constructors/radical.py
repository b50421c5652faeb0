"""Radical Lagrangians L = (A x'^nu + B)^(1/mu).

Three entry points:

* direct: caller supplies A, B and both exponents; the target dynamics
  comes from the family's forward map.
* equal exponents (mu = nu): x'' + a(t) x' + b(t) x'^(nu+1) = 0 admits
  L = (A x'^nu + B)^(1/nu) with
      S = S0 - nu int_t0 b e^{-nu int a},
      A = S^(1-nu),  B = S^(-nu) e^{-nu int a}.
* linear radicand (nu = 1): x'' = a(t) x' + b(t) admits
  L = (A x' + B)^(1/mu) with
      A = e^{(mu-1) int a},  B = e^{mu int a} (B0 - int_t0 b e^{-int a}).

The radicand must stay positive for fractional exponents; verification
boxes exclude a relative neighborhood of its zero set and out-of-domain
samples are skipped, so reports list how many points actually counted.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import BadExponentError, ZeroCrossingError
from ..evaluation import evaluate_points
from ..expressions import (
    Const,
    Div,
    Exp,
    Expr,
    Neg,
    Pow,
    Var,
    differentiate,
    simplify,
)
from ..lagrangian import DomainBox, Lagrangian, OdeSpec
from ._symbolic import antiderivative_in
from .common import (
    BuilderOptions,
    DEFAULT_OPTIONS,
    post_verify,
    relative_stratum,
    require_free_of,
)

__all__ = [
    "affine_rhs",
    "build_radical",
    "build_radical_equal",
    "build_radical_linear",
    "radical_equal_rhs",
    "radical_forward_rhs",
]

_X, _V, _T = Var("x"), Var("v"), Var("t")


def _check_exponents(mu: float, nu: float) -> tuple:
    mu, nu = float(mu), float(nu)
    if mu in (0.0, 1.0):
        raise BadExponentError(f"root exponent mu = {mu!r} degenerates the family")
    if nu == 0.0:
        raise BadExponentError("velocity exponent nu = 0 degenerates the family")
    return mu, nu


def radical_forward_rhs(A: Expr, B: Expr, mu: float, nu: float) -> Expr:
    """Acceleration implied by L = (A x'^nu + B)^(1/mu)."""
    mu, nu = _check_exponents(mu, nu)
    Ax, At = differentiate(A, "x"), differentiate(A, "t")
    Bx, Bt = differentiate(B, "x"), differentiate(B, "t")
    k = 1.0 - mu
    p = Const((mu - nu) / (nu * k)) * Ax
    q = Const(-1.0 / k) * At
    r = Const((mu - nu + nu * mu) / (nu * k)) * Bx \
        + Const(mu * (1.0 - nu) / (nu * k)) * Div(Ax * B, A)
    s = Neg(Bt) - Const(mu / k) * Div(At * B, A)
    w = Const(mu / (nu * k)) * Div(Bx * B, A)
    num = (
        p * Pow(_V, Const(2.0 * nu))
        + q * Pow(_V, Const(2.0 * nu - 1.0))
        + r * Pow(_V, Const(nu))
        + s * Pow(_V, Const(nu - 1.0))
        + w
    )
    g = Const((nu - mu) / k) * A
    h = Const(mu * (nu - 1.0) / k) * B
    den = g * Pow(_V, Const(2.0 * nu - 2.0)) + h * Pow(_V, Const(nu - 2.0))
    return simplify(Div(simplify(num), simplify(den)))


def build_radical(A: Expr, B: Expr, mu: float, nu: float,
                  ode: OdeSpec | None = None,
                  options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """L = (A x'^nu + B)^(1/mu) for the dynamics given by the forward map."""
    mu, nu = _check_exponents(mu, nu)
    radicand = simplify(A * Pow(_V, Const(nu)) + B)
    L = simplify(Pow(radicand, Const(1.0 / mu)))
    lagr = Lagrangian(L, family="radical", gauge=f"mu={mu}, nu={nu}")
    if ode is None:
        ode = OdeSpec(radical_forward_rhs(A, B, mu, nu))
    # |d2L/dv2| ~ radicand^(1/mu - 2) * ((nu - mu)/mu A v^nu + (nu - 1) B)
    regularity = simplify(
        Const((nu - mu) / mu) * A * Pow(_V, Const(nu))
        + Const(nu - 1.0) * B
    )
    box = DomainBox(
        x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
        grid=(4, 4, 4), n_random=32, seed=43,
        strata=(relative_stratum(radicand), relative_stratum(regularity)),
    )
    return post_verify(lagr, ode, box, options)


def radical_equal_rhs(a: Expr, b: Expr, nu: float) -> Expr:
    """Acceleration -(a x' + b x'^(nu+1)) of the equal-exponent family."""
    return simplify(-(a * _V + b * Pow(_V, Const(float(nu) + 1.0))))


def build_radical_equal(a: Expr, b: Expr, nu: float, S0: float = 1.0,
                        options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """L = (A x'^nu + B)^(1/nu) for x'' + a(t) x' + b(t) x'^(nu+1) = 0."""
    nu = float(nu)
    if nu in (0.0, 1.0):
        raise BadExponentError(f"exponent nu = {nu!r} degenerates the family")
    require_free_of(a, ("x", "v"), "coefficient a")
    require_free_of(b, ("x", "v"), "coefficient b")
    t0 = options.t0
    alpha = antiderivative_in(a, "t", t0)
    decay = Exp(simplify(Const(-nu) * alpha))
    S = simplify(
        Const(float(S0))
        - Const(nu) * antiderivative_in(simplify(b * decay), "t", t0)
    )
    box = options.verify_box or DomainBox(
        x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
        grid=(4, 4, 4), n_random=32, seed=47,
    )
    lo, hi = box.t
    ts = np.array([lo + (hi - lo) * i / 200.0 for i in range(201)])
    s_min = min(abs(s) for s in evaluate_points(S, {"t": ts}))
    if s_min < 1e-8:
        raise ZeroCrossingError(
            "scale function S vanishes inside the verification window; "
            "shift S0 or the time interval", s_min,
        )
    A = simplify(Pow(S, Const(1.0 - nu)))
    B = simplify(Pow(S, Const(-nu)) * decay)
    radicand = simplify(A * Pow(_V, Const(nu)) + B)
    L = simplify(Pow(radicand, Const(1.0 / nu)))
    lagr = Lagrangian(L, family="radical",
                      gauge=f"mu=nu={nu}, S0={S0}, anchor t0={t0}")
    box = replace(box, strata=box.strata + (relative_stratum(radicand),))
    return post_verify(lagr, OdeSpec(radical_equal_rhs(a, b, nu)), box,
                       replace(options, verify_box=box))


def affine_rhs(a: Expr, b: Expr) -> Expr:
    """Acceleration a(t) x' + b(t), shared by the radical-linear and
    exponential families."""
    return simplify(a * _V + b)


def build_radical_linear(a: Expr, b: Expr, mu: float, B0: float = 1.0,
                         options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """L = (A x' + B)^(1/mu) for x'' = a(t) x' + b(t)."""
    mu = float(mu)
    if mu in (0.0, 1.0):
        raise BadExponentError(f"exponent mu = {mu!r} degenerates the family")
    require_free_of(a, ("x", "v"), "coefficient a")
    require_free_of(b, ("x", "v"), "coefficient b")
    t0 = options.t0
    alpha = antiderivative_in(a, "t", t0)
    A = Exp(simplify(Const(mu - 1.0) * alpha))
    I = antiderivative_in(simplify(b * Exp(simplify(Neg(alpha)))), "t", t0)
    B = simplify(Exp(simplify(Const(mu) * alpha)) * (Const(float(B0)) - I))
    radicand = simplify(A * _V + B)
    L = simplify(Pow(radicand, Const(1.0 / mu)))
    lagr = Lagrangian(L, family="radical",
                      gauge=f"mu={mu}, nu=1, B0={B0}, anchor t0={t0}")
    box = DomainBox(
        x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
        grid=(4, 4, 4), n_random=32, seed=53,
        strata=(relative_stratum(radicand),),
    )
    return post_verify(lagr, OdeSpec(affine_rhs(a, b)), box, options)
