"""Adaptive Gauss-Kronrod quadrature on the 7-15 point pair, many integrals at once.

The Kronrod extension reuses the 7 Gauss nodes, so one panel costs 15
integrand evaluations and yields both a high-order estimate and an error
estimate from the Gauss/Kronrod difference (Piessens et al., *QUADPACK*,
1983).

:func:`integrate_adaptive` computes one integral per entry of its limit
arrays.  It starts with one panel per entry, from its lower to its upper
limit, and then, one level at a time, bisects only the panels whose error
exceeds their local budget, halving the budget per side.  Each level is one
call of the integrand on the nodes of every panel still open, whichever
entry they belong to.  An entry's panels never mix with another's: its
value is summed over its own bisection tree, left before right, so it does
not depend on which other entries share the calls.

The error budget is fixed: the total error estimate of an integral ``I`` is
kept at or below ``max(1e-10, 1e-10 * |I|)``, and bisection stops with
:class:`QuadratureDepthError` at depth 50.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import QuadratureDepthError, QuadratureError

__all__ = ["Abscissae", "integrate_adaptive"]

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
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])[:, None]
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])[:, None]
_WG_CENTER = 0.417959183673469387755102040816327

_EPS_FLOOR = 50.0 * 2.220446049250313e-16

_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_MAX_DEPTH = 50

# the 15 nodes of a panel as offsets from its centre in units of its half
# width: the centre, then each Kronrod abscissa below and above it
_OFFSETS = np.array([0.0] + [d for x in _XGK for d in (-x, x)])[:, None]


class Abscissae(np.ndarray):
    """The nodes of a batch of panels, shape ``(15, m)``: one column per panel.

    ``owner`` has the same shape and holds, for each node, the index (into
    the flattened limits) of the integral its panel belongs to, so that an
    integrand whose other variables differ between integrals can look them
    up.  Integrands of one variable can ignore it.
    """

    def __array_finalize__(self, obj):
        self.owner = getattr(obj, "owner", None)


def _gk15(f, a, b, owner):
    """One Gauss-Kronrod 7-15 panel per entry of ``a``, ``b``.

    Returns ``(integral, error, roundoff, undefined)``: ``roundoff`` marks
    the panels whose error estimate is their roundoff floor, ``undefined``
    those at one of whose nodes the integrand returned NaN.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    z = (center + half * _OFFSETS).view(Abscissae)
    z.owner = owner[None, :].repeat(len(_OFFSETS), axis=0)
    fz = np.asarray(f(z), dtype=float)
    if fz.shape != z.shape:
        fz = np.broadcast_to(fz, z.shape)
    afz = np.abs(fz)

    # each Kronrod abscissa's two values, summed; the odd ones are Gauss
    # nodes.  Rows are added one at a time, not by np.sum or a matrix
    # product, whose order can depend on the shape, so a panel's sums do
    # not depend on how many panels share the call.
    pairs = _WGK * (fz[1::2] + fz[2::2])
    gauss = _WG * (fz[3::4] + fz[4::4])
    abs_pairs = _WGK * (afz[1::2] + afz[2::2])
    integral_k = _WGK_CENTER * fz[0]
    integral_g = _WG_CENTER * fz[0]
    resabs = _WGK_CENTER * afz[0]
    for i in range(7):
        integral_k = integral_k + pairs[i]
        resabs = resabs + abs_pairs[i]
    for i in range(3):
        integral_g = integral_g + gauss[i]
    integral_k = integral_k * half
    integral_g = integral_g * half
    resabs = resabs * np.abs(half)

    # QUADPACK's min(delta, (200 delta)^1.5), written so that a huge delta
    # overflows to inf inside the min instead of raising
    delta = np.abs(integral_k - integral_g)
    scaled = 200.0 * delta
    floor = _EPS_FLOOR * resabs
    err = np.minimum(delta, scaled * np.sqrt(scaled))
    return (integral_k, np.maximum(err, floor), err <= floor,
            np.isnan(fz).any(axis=0))


def integrate_adaptive(
    f: Callable[[Abscissae], np.ndarray],
    lo: float | np.ndarray,
    hi: float | np.ndarray,
) -> float | np.ndarray:
    """Integrate ``f`` from ``lo`` to ``hi``, one integral per entry.

    ``lo`` and ``hi`` are floats or arrays; they broadcast to the shape of
    the result, a float when both are floats.  ``f`` takes one argument, an
    :class:`Abscissae` array of nodes, and returns the integrand at each
    (anything that broadcasts to the nodes' shape).  A NaN there marks a
    node where the integrand is undefined: that entry's result is NaN and
    its panels are dropped.  Any other non-finite panel integral raises
    :class:`QuadratureError`.

    Each result keeps its total error estimate at or below
    ``max(1e-10, 1e-10 * |result|)``.  Raises :class:`QuadratureDepthError`,
    reporting a panel, when that cannot be done: when bisection reaches
    depth 50 while a panel's local error still exceeds its budget (as
    happens on divergent integrands), or when a panel's error is its
    roundoff floor and exceeds its budget.  Such a panel is not bisected,
    because its halves would keep at least half its floor against half its
    budget, all the way down to depth 50.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    out = np.zeros(lo.size)
    with np.errstate(all="ignore"):
        entries = np.flatnonzero(lo != hi)
        if entries.size:
            a = np.minimum(lo[entries], hi[entries])
            b = np.maximum(lo[entries], hi[entries])
            sign = np.where(hi[entries] < lo[entries], -1.0, 1.0)
            out[entries] = sign * _bisect(f, a, b, entries)
    return out.reshape(shape) if shape else float(out[0])


def _bisect(f, a, b, entries):
    """The integrals over ``[a, b]`` (``a < b``), NaN where undefined."""
    owner = entries
    levels = []   # per level: (panel integrals, panels bisected)
    stuck = []    # (owner, a, b, err) of the panels stopped at their floor
    tol = None
    for depth in range(_MAX_DEPTH + 1):
        integral, err, roundoff, undefined = _gk15(f, a, b, owner)
        # an entry undefined at any node is dropped with all its panels
        dropped = np.isin(owner, owner[undefined]) if undefined.any() else undefined
        integral[dropped] = np.nan
        finite = np.isfinite(integral)
        if not (finite | dropped).all():
            i = int(np.argmin(finite | dropped))
            raise QuadratureError(
                f"non-finite integrand values on [{a[i].item()!r}, {b[i].item()!r}]")
        if tol is None:
            tol = np.maximum(_ABS_TOL, _REL_TOL * np.abs(integral))
        split = (err > tol) & ~dropped
        stuck += zip(owner[split & roundoff], a[split & roundoff],
                     b[split & roundoff], err[split & roundoff])
        split &= ~roundoff
        levels.append((integral, split))
        if not split.any():
            break
        if depth == _MAX_DEPTH:
            i = int(np.argmax(split))
            raise QuadratureDepthError(a[i].item(), b[i].item(), err[i].item())
        a, b, tol, owner = a[split], b[split], tol[split], owner[split]
        mid = 0.5 * (a + b)
        # the left halves of all bisected panels, then the right halves
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
        tol = np.concatenate((tol, tol)) * 0.5
        owner = np.concatenate((owner, owner))

    # a bisected panel's value is its left half's plus its right half's,
    # summed from the deepest level up
    below = levels[-1][0]
    for integral, split in reversed(levels[:-1]):
        n = np.count_nonzero(split)
        integral[split] = below[:n] + below[n:]
        below = integral
    for entry, lo, hi, err in stuck:
        if not np.isnan(below[np.searchsorted(entries, entry)]):
            raise QuadratureDepthError(lo.item(), hi.item(), err.item())
    return below
