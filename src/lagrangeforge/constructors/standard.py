"""Quadratic-kinetic Lagrangians for x'' + a x'^2 + b x' + c = 0.

The construction takes L = P v^2 / 2 + R with
    P(x, t) = exp(2 * int_x0^x a(s, t) ds + int_t0^t b(x0, u) du)
and R fixed by the force term, R_x = -c P.  The time factor in P is the
completion that makes P_t / P reproduce b everywhere; this works exactly when
the coefficients satisfy the closure condition b_x = 2 a_t, which is also
necessary for this family.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import InadmissibleCoefficientsError
from ..expressions import (
    Const,
    Exp,
    Expr,
    Pow,
    Var,
    simplify,
    substitute,
)
from ..lagrangian import DomainBox, Lagrangian, OdeSpec
from ._symbolic import antiderivative_in
from .common import (
    BuilderOptions,
    DEFAULT_OPTIONS,
    post_verify,
    require_free_of,
)
from .power import monomial_admissibility_defect

__all__ = [
    "StandardCoeffs",
    "admissibility_defect",
    "build_standard",
    "standard_hamiltonian",
]

_V = Var("v")


@dataclass(frozen=True)
class StandardCoeffs:
    """Coefficients of x'' + a x'^2 + b x' + c = 0; functions of (x, t)."""

    a: Expr
    b: Expr
    c: Expr

    def __post_init__(self):
        for name in ("a", "b", "c"):
            expr = getattr(self, name)
            require_free_of(expr, ("v",), f"coefficient {name}")

    def rhs(self) -> Expr:
        """Acceleration -(a v^2 + b v + c)."""
        return simplify(
            -(self.a * Pow(_V, Const(2.0)) + self.b * _V + self.c)
        )

    def ode(self) -> OdeSpec:
        return OdeSpec(self.rhs())


def admissibility_defect(coeffs: StandardCoeffs,
                         box: DomainBox | None = None) -> float:
    """Max |b_x - 2 a_t| over the box's samples; the monomial closure scan
    at mu = 2."""
    return monomial_admissibility_defect(
        coeffs.a, coeffs.b, 2.0, box or DomainBox(grid=(7, 1, 7), n_random=20))


def _kinetic_factor(coeffs: StandardCoeffs, x0: float, t0: float) -> Expr:
    two_a = antiderivative_in(Const(2.0) * coeffs.a, "x", x0)
    b_line = antiderivative_in(
        substitute(coeffs.b, "x", Const(x0)), "t", t0
    )
    return Exp(simplify(two_a + b_line))


def build_standard(coeffs: StandardCoeffs,
                   options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """Construct L = P v^2 / 2 + R for admissible quadratic-drag dynamics."""
    defect = admissibility_defect(coeffs, options.verify_box)
    if not defect <= 1e-9:
        raise InadmissibleCoefficientsError(
            f"closure condition b_x = 2 a_t violated by {defect:.3e}", defect
        )
    P = _kinetic_factor(coeffs, options.x0, options.t0)
    R = simplify(-antiderivative_in(simplify(coeffs.c * P), "x", options.x0))
    L = simplify(Const(0.5) * P * Pow(_V, Const(2.0)) + R)
    lagr = Lagrangian(
        L, family="quadratic-kinetic",
        gauge=f"anchors x0={options.x0}, t0={options.t0}; no linear-in-v term",
    )
    default_box = DomainBox(x=(-1.0, 1.0), v=(-1.0, 1.0), t=(0.0, 1.5),
                            grid=(4, 4, 4), n_random=32, seed=11)
    return post_verify(lagr, coeffs.ode(), default_box, options)


def standard_hamiltonian(coeffs: StandardCoeffs,
                         options: BuilderOptions = DEFAULT_OPTIONS) -> Expr:
    """H(x, p, t) = p^2 / (2 P) - R matching :func:`build_standard`."""
    P = _kinetic_factor(coeffs, options.x0, options.t0)
    R = simplify(-antiderivative_in(simplify(coeffs.c * P), "x", options.x0))
    p = Var("p")
    return simplify(Pow(p, Const(2.0)) / (Const(2.0) * P) - R)
