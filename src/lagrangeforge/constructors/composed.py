"""Lagrangians built from conserved quantities and outer compositions.

For x'' = a(t) x' + b(t) the quantity u = x' e^{-int a} - beta(t) is
conserved along every solution, and L = e^{int a} F(u) is a Lagrangian for
any outer profile F with nonvanishing second derivative.  More generally,
composing any sufficiently bent profile with a first integral u(x, v, t)
whose velocity slope is nonzero yields a Lagrangian for the dynamics that
conserves u.

Also provides the suite of structurally different Lagrangians for linear
drag x'' = -k x' used to demonstrate that all constructions agree on the
implied dynamics while disagreeing as functions.
"""
from __future__ import annotations

from typing import NamedTuple

from ..expressions import (
    Const,
    Exp,
    Expr,
    Ln,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    simplify,
    substitute,
)
from ..lagrangian import DomainBox, Lagrangian, OdeSpec, assert_invariant
from ._symbolic import antiderivative_in
from .common import BuilderOptions, DEFAULT_OPTIONS, post_verify, require_free_of
from .power import build_generalized_kinetic, build_monomial, monomial_rhs
from .radical import affine_rhs, build_radical_equal
from .reciprocal import build_reciprocal
from .standard import StandardCoeffs, build_standard

__all__ = [
    "MultiSuite",
    "build_composed_invariant",
    "build_exponential_family",
    "compose_invariant",
    "log_velocity_lagrangian",
    "multi_lagrangian_suite",
]

_X, _V, _T = Var("x"), Var("v"), Var("t")

_HALF_SQUARE = Mul(Const(0.5), Pow(_V, Const(2.0)))


def build_exponential_family(a: Expr, b: Expr,
                             outer: Expr = _HALF_SQUARE,
                             c0: float = 0.0,
                             options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """L = e^{int a} F(x' e^{-int a} - beta) for x'' = a(t) x' + b(t).

    ``outer`` is the profile F written as an expression in ``v``; any
    choice with F'' != 0 works, and different choices give genuinely
    different Lagrangians for the same dynamics.  ``beta`` is
    int_t0 b e^{-int a} - c0, so ``c0`` shifts which solution carries the
    conserved value zero.
    """
    require_free_of(a, ("x", "v"), "coefficient a")
    require_free_of(b, ("x", "v"), "coefficient b")
    require_free_of(outer, ("x", "t"), "outer profile")
    alpha = antiderivative_in(a, "t", options.t0)
    decay = Exp(simplify(Neg(alpha)))
    beta = simplify(
        antiderivative_in(simplify(b * decay), "t", options.t0)
        - Const(float(c0))
    )
    u = simplify(Sub(Mul(_V, decay), beta))
    L = simplify(Mul(Exp(alpha), substitute(outer, "v", u)))
    lagr = Lagrangian(L, family="exponential-profile",
                      gauge=f"c0={c0}, anchor t0={options.t0}")
    box = DomainBox(
        x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
        grid=(4, 4, 4), n_random=32, seed=59,
    )
    return post_verify(lagr, OdeSpec(affine_rhs(a, b)), box, options)


def build_composed_invariant(invariant: Expr, outer: Expr, ode: OdeSpec,
                             options: BuilderOptions = DEFAULT_OPTIONS
                             ) -> Lagrangian:
    """L = F(u) for a first integral u of the given dynamics.

    The conserved quantity is checked on the sweep box before composing;
    the outer profile (an expression in ``v``) needs nonzero bend for the
    result to be regular.
    """
    require_free_of(outer, ("x", "t"), "outer profile")
    box = options.verify_box or DomainBox(
        x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
        grid=(4, 4, 4), n_random=32, seed=61,
    )
    assert_invariant(invariant, ode, box)
    L = simplify(substitute(outer, "v", invariant))
    lagr = Lagrangian(L, family="composed-invariant")
    return post_verify(lagr, ode, box, options)


def compose_invariant(quantity, ode: OdeSpec, outer: Expr) -> Lagrangian:
    """Apply an outer profile to a conserved quantity of the dynamics.

    Same construction as :func:`build_composed_invariant`, with the default
    options, but accepting the quantity either as a bare expression or as a
    (possibly degenerate) Lagrangian whose value is the first integral.
    """
    inner = quantity.expr if isinstance(quantity, Lagrangian) else quantity
    return build_composed_invariant(inner, outer, ode)


def log_velocity_lagrangian(k: float,
                            options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """L = x' (1 - ln x') e^{k x} for x'' + k x'^2 = 0, valid for x' > 0.

    The boundary member of the velocity-power series in the exponent
    parameter; a genuinely different construction from every x'^n member.
    """
    k = float(k)
    L = simplify(
        Mul(Mul(_V, Sub(Const(1.0), Ln(_V))), Exp(Mul(Const(k), _X)))
    )
    rhs = monomial_rhs(Const(k), Const(0.0), Const(0.0), 2.0)
    lagr = Lagrangian(L, family="log-velocity", domain_note="x' > 0")
    box = DomainBox(
        x=(-1.0, 1.0), v=(0.2, 2.2), t=(0.0, 1.0),
        grid=(4, 4, 2), n_random=24, seed=67,
    )
    return post_verify(lagr, OdeSpec(rhs), box, options)


class MultiSuite(NamedTuple):
    """Alternative Lagrangians for linear drag x'' = -k x'."""

    ode: OdeSpec
    members: dict
    control: Lagrangian


def multi_lagrangian_suite(k: float = 0.5,
                           options: BuilderOptions = DEFAULT_OPTIONS) -> MultiSuite:
    """Six structurally different Lagrangians for x'' = -k x'.

    All six yield the same implied acceleration; the returned ``control``
    (the undamped kinetic term alone) intentionally does not and can be
    used to confirm that disagreement is detectable.
    """
    k = float(k)
    ode = StandardCoeffs(Const(0.0), Const(k), Const(0.0)).ode()
    two_kt = Exp(Mul(Const(2.0 * k), _T))
    one_kt = Exp(Mul(Const(k), _T))
    members = {
        "quadratic-kinetic": build_standard(
            StandardCoeffs(Const(0.0), Const(k), Const(0.0)), options=options
        ),
        "reciprocal": build_reciprocal(two_kt, one_kt, 1.0, ode=ode,
                                       options=options),
        "monomial-cubed": build_monomial(
            Const(0.0), Const(k), Const(0.0), 3.0, options=options
        ),
        "log-kinetic": build_generalized_kinetic(
            Const(-k), _V, options=options
        ),
        "radical": build_radical_equal(Const(k), Const(0.0), 2.0, S0=1.0,
                                       options=options),
        "exponential-profile": build_exponential_family(
            Const(-k), Const(0.0), c0=1.0, options=options
        ),
    }
    control = Lagrangian(_HALF_SQUARE, family="control",
                         domain_note="free particle; not a drag Lagrangian")
    return MultiSuite(ode, members, control)
