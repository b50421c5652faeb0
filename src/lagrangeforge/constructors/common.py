"""Shared configuration, structural scans, sampling strata and
post-construction verification for builders."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..errors import ConstructionVerificationError
from ..evaluation import evaluate_points
from ..expressions import Expr, free_vars
from ..lagrangian import (
    DomainBox,
    Lagrangian,
    OdeSpec,
    SingularStratum,
    grid_points,
    verify_lagrangian,
)
from ..normal_form import normal_form

__all__ = [
    "BuilderOptions",
    "DEFAULT_OPTIONS",
    "max_abs_defect",
    "min_abs_in_time",
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


def max_abs_defect(defect: Expr, columns: Callable[[], Mapping],
                   zero_test: Expr | None = None) -> float:
    """Max |defect| over the points ``columns()`` builds, NaN if one is NaN.

    0.0 without sampling when the normal form of ``zero_test`` (by default
    the defect) is empty; raises :class:`EvalDomainError` where the defect
    is undefined.
    """
    if normal_form(defect if zero_test is None else zero_test) == ():
        return 0.0
    return np.max(np.abs(evaluate_points(defect, columns())),
                  initial=0.0).item()


def min_abs_in_time(expr: Expr, lo: float, hi: float) -> float:
    """Min |expr(t)| over 201 evenly spaced times in [lo, hi], NaN if one is."""
    ts = np.array(grid_points(lo, hi, 201))
    return np.min(np.abs(evaluate_points(expr, {"t": ts}))).item()


def post_verify(L: Lagrangian, ode: OdeSpec, default_box: DomainBox,
                options: BuilderOptions) -> Lagrangian:
    """Run the residual sweep a builder promises, raising on failure."""
    if not options.verify:
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
