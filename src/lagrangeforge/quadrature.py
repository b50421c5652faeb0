"""Adaptive Gauss-Kronrod quadrature on the 7-15 point pair.

The Kronrod extension reuses the 7 Gauss nodes, so one panel costs 15
integrand evaluations and yields both a high-order estimate and an error
estimate from the Gauss/Kronrod difference.  Panels whose error exceeds the
local budget are bisected recursively, halving the budget per side.

The error budget is fixed: the total error estimate of an integral ``I`` is
kept at or below ``max(1e-10, 1e-10 * |I|)``, and bisection stops with
:class:`QuadratureDepthError` at depth 50.
"""
from __future__ import annotations

import math
from typing import Callable

from .errors import QuadratureDepthError, QuadratureError

__all__ = ["integrate_adaptive"]

# Kronrod-15 abscissae (non-negative half) and weights; the odd indices and
# the centre are the embedded Gauss-7 nodes.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327

_EPS_FLOOR = 50.0 * 2.220446049250313e-16

_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_MAX_DEPTH = 50


def _gk15(f: Callable[[float], float], a: float, b: float):
    """One Gauss-Kronrod 7-15 panel: returns (integral, error, resabs)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)

    fc = f(center)
    integral_k = _WGK_CENTER * fc
    integral_g = _WG_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)

    for i in range(7):
        dx = half * _XGK[i]
        f_lo = f(center - dx)
        f_hi = f(center + dx)
        s = f_lo + f_hi
        integral_k += _WGK[i] * s
        resabs += _WGK[i] * (abs(f_lo) + abs(f_hi))
        if i % 2 == 1:
            integral_g += _WG[i // 2] * s

    integral_k *= half
    integral_g *= half
    resabs *= abs(half)

    if not math.isfinite(integral_k):
        raise QuadratureError(
            f"non-finite integrand values on [{a!r}, {b!r}]"
        )

    delta = abs(integral_k - integral_g)
    if delta == 0.0:
        err = 0.0
    else:
        err = min(delta, (200.0 * delta) ** 1.5)
    err = max(err, _EPS_FLOOR * resabs)
    return integral_k, err, resabs


def _adapt(f, a, b, tol, depth_left, integral, err):
    if err <= tol:
        return integral
    if depth_left <= 0:
        raise QuadratureDepthError(a, b, err)
    mid = 0.5 * (a + b)
    left, err_l, _ = _gk15(f, a, mid)
    right, err_r, _ = _gk15(f, mid, b)
    half_tol = 0.5 * tol
    return (_adapt(f, a, mid, half_tol, depth_left - 1, left, err_l)
            + _adapt(f, mid, b, half_tol, depth_left - 1, right, err_r))


def integrate_adaptive(
    f: Callable[[float], float],
    lo: float,
    hi: float,
) -> float:
    """Integrate ``f`` from ``lo`` to ``hi`` within the fixed error budget.

    The total error estimate is kept at or below
    ``max(1e-10, 1e-10 * |result|)``.  Raises
    :class:`QuadratureDepthError` when bisection reaches depth 50 while
    the local error still exceeds its budget (as happens on divergent
    integrands), reporting the offending subinterval.
    """
    if lo == hi:
        return 0.0
    sign = 1.0
    a, b = lo, hi
    if b < a:
        a, b = b, a
        sign = -1.0
    integral, err, _ = _gk15(f, a, b)
    tol = max(_ABS_TOL, _REL_TOL * abs(integral))
    return sign * _adapt(f, a, b, tol, _MAX_DEPTH, integral, err)
