"""Shared configuration, sampling strata and post-construction verification
for builders."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import ConstructionVerificationError
from ..expressions import Expr, as_expr, free_vars, parse_expression
from ..lagrangian import (
    DomainBox,
    Lagrangian,
    OdeSpec,
    SingularStratum,
    verify_lagrangian,
)

__all__ = [
    "BuilderOptions",
    "DEFAULT_OPTIONS",
    "coefficient",
    "post_verify",
    "relative_stratum",
    "require_free_of",
]


@dataclass(frozen=True)
class BuilderOptions:
    """Knobs common to every construction.

    ``x0``/``t0`` anchor the antiderivatives (a gauge choice).  When
    ``verify`` is set the builder immediately sweeps its result against the
    target dynamics and raises on disagreement; ``verify_box`` overrides the
    family's default sweep region.
    """

    x0: float = 0.0
    t0: float = 0.0
    verify: bool = True
    verify_tol: float = 1e-8
    verify_box: DomainBox | None = None


DEFAULT_OPTIONS = BuilderOptions()


def coefficient(value, params: Mapping[str, float] | None = None,
                extra_names: tuple = ()) -> Expr:
    """Coerce a coefficient given as number, text or expression."""
    if isinstance(value, str):
        names = tuple(dict(params or {})) + tuple(extra_names)
        return parse_expression(value, params=names)
    return as_expr(value)


def post_verify(L: Lagrangian, ode: OdeSpec, default_box: DomainBox,
                options: BuilderOptions, mandatory: bool = False) -> Lagrangian:
    """Run the residual sweep a builder promises, raising on failure."""
    if not options.verify and not mandatory:
        return L
    box = options.verify_box or default_box
    report = verify_lagrangian(L, ode, box, tol=options.verify_tol)
    if not report.passed:
        raise ConstructionVerificationError(
            f"construction failed its residual sweep: {report}", report
        )
    return L


def relative_stratum(expr: Expr, margin: float = 0.03) -> SingularStratum:
    """Exclude a relative neighborhood of ``expr = 0``: |e|/(|e|+1) <= margin.

    The same set is |e| <= margin/(1 - margin), which the sampler checks
    with one walk of ``expr`` per sample.
    """
    return SingularStratum(expr, margin / (1.0 - margin))


def require_free_of(expr: Expr, names: tuple, what: str) -> None:
    fv = free_vars(expr)
    bad = sorted(fv & set(names))
    if bad:
        raise ValueError(f"{what} must not depend on {bad}")
