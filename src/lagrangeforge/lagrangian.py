"""Lagrangians, dynamics specifications, and the universal residual verifier.

A Lagrangian L(x, v, t) determines an acceleration through its second-order
Euler-Lagrange equation; :func:`implied_acceleration` extracts it from a
single jet evaluation.  Verification never trusts how a Lagrangian was
constructed: it compares the implied acceleration against the prescribed
right-hand side pointwise over a sampled box and reports the worst
normalized residual.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BracketError,
    DegenerateLagrangianError,
    EmptyDomainError,
    NonMonotoneError,
    NotInvariantError,
)
from .evaluation import eval_jet2, evaluate, evaluate_field, jet_field
from .expressions import Expr, Var, as_expr, differentiate, free_vars, parse_expression

__all__ = [
    "EPS_REG",
    "DomainBox",
    "Lagrangian",
    "OdeSpec",
    "SingularStratum",
    "VerificationReport",
    "acceleration_field",
    "energy_expression",
    "euler_lagrange_residual",
    "hamiltonian_value",
    "implied_acceleration",
    "invariant_drift",
    "invert_momentum",
    "legendre_momentum",
    "max_acceleration_gap",
    "pairwise_acceleration_gap",
    "total_derivative_gauge",
    "verify_lagrangian",
]

# minimum |d2L/dv2| for the implied acceleration to be well defined
EPS_REG = 1e-9


def _freeze_params(params) -> tuple:
    if params is None:
        return ()
    if isinstance(params, tuple) and all(
        isinstance(p, tuple) and len(p) == 2 for p in params
    ):
        return tuple((str(k), float(v)) for k, v in params)
    return tuple(sorted((str(k), float(v)) for k, v in dict(params).items()))


@dataclass(frozen=True)
class OdeSpec:
    """Second-order dynamics ``x'' = rhs(x, x', t)`` with frozen parameters."""

    rhs: Expr
    params: tuple = ()
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rhs", as_expr(self.rhs))
        object.__setattr__(self, "params", _freeze_params(self.params))

    @classmethod
    def from_text(cls, text: str, params: Mapping[str, float] | None = None,
                  description: str = "") -> "OdeSpec":
        params = dict(params or {})
        rhs = parse_expression(text, params=tuple(params))
        return cls(rhs, _freeze_params(params), description)

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def rhs_value(self, x: float, v: float, t: float) -> float:
        binding = self.param_dict
        binding.update({"x": x, "v": v, "t": t})
        return evaluate(self.rhs, binding)


@dataclass(frozen=True)
class Lagrangian:
    """A candidate Lagrangian plus a record of how it was built."""

    expr: Expr
    family: str = "custom"
    params: tuple = ()
    gauge: str = ""
    domain_note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "expr", as_expr(self.expr))
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def binding(self, x: float, v: float, t: float) -> dict:
        b = self.param_dict
        b.update({"x": x, "v": v, "t": t})
        return b

    def value(self, x: float, v: float, t: float) -> float:
        return evaluate(self.expr, self.binding(x, v, t))

    def jet(self, x: float, v: float, t: float):
        return eval_jet2(self.expr, self.binding(x, v, t))


@dataclass(frozen=True)
class SingularStratum:
    """Exclusion zone: points where |expr| <= radius are not sampled."""

    expr: Expr
    radius: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "expr", as_expr(self.expr))
        if self.radius < 0.0:
            raise ValueError("stratum radius must be non-negative")


def _axis_points(lo: float, hi: float, n: int) -> list:
    if n == 1:
        return [0.5 * (lo + hi)]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


@dataclass(frozen=True)
class DomainBox:
    """Sampling plan over a box in (x, v, t): tensor grid plus random fill.

    Samples are returned sorted by (t, x, v) so repeated antiderivative
    evaluations hit nearby cached anchors, and ties in residual maxima
    resolve deterministically.
    """

    x: tuple = (-1.0, 1.0)
    v: tuple = (-1.0, 1.0)
    t: tuple = (0.0, 1.0)
    grid: tuple = (7, 7, 7)
    n_random: int = 100
    seed: int = 0
    strata: tuple = ()

    def __post_init__(self):
        for name in ("x", "v", "t"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} interval must be finite")
            if lo > hi:
                raise ValueError(f"{name} interval is reversed")
            object.__setattr__(self, name, (float(lo), float(hi)))
        if len(self.grid) != 3 or any(int(n) < 1 for n in self.grid):
            raise ValueError("grid must have three positive counts")
        object.__setattr__(self, "grid", tuple(int(n) for n in self.grid))
        if self.n_random < 0:
            raise ValueError("n_random must be non-negative")
        object.__setattr__(self, "strata", tuple(self.strata))

    def sample_points(self, extra_binding: Mapping[str, float] | None = None) -> list:
        """Concrete (x, v, t) samples after stratum exclusion; never empty."""
        nx, nv, nt = self.grid
        pts = [
            (xv, vv, tv)
            for xv in _axis_points(*self.x, nx)
            for vv in _axis_points(*self.v, nv)
            for tv in _axis_points(*self.t, nt)
        ]
        rng = random.Random(self.seed)
        for _ in range(self.n_random):
            pts.append((
                rng.uniform(*self.x), rng.uniform(*self.v), rng.uniform(*self.t)
            ))
        if self.strata:
            # a point leaves at the first stratum that is undefined or small
            # there; later strata are not evaluated at it
            columns = {**(extra_binding or {}), **_state_columns(pts)}
            dropped = None
            for stratum in self.strata:
                size, dropped = evaluate_field(stratum.expr, columns, dropped)
                dropped |= np.abs(size) <= stratum.radius
            pts = [p for p, out in zip(pts, dropped.tolist()) if not out]
        if not pts:
            raise EmptyDomainError("no sample points survive the exclusions")
        pts.sort(key=lambda p: (p[2], p[0], p[1]))
        return pts


def _state_columns(points: Sequence[tuple]) -> dict:
    """The x, v and t arrays of ``points``, as field columns."""
    xs, vs, ts = np.array(points, dtype=float).reshape(-1, 3).T
    return {"x": xs, "v": vs, "t": ts}


def _acceleration_jet_field(L: Lagrangian, state: dict, bad=None) -> tuple:
    """The jet field of ``L``, its mask and its implied accelerations.

    The accelerations are (L_x - L_vx v - L_vt) / L_vv, computed as
    :func:`implied_acceleration` does; they mean nothing where the mask is
    set or |L_vv| < EPS_REG.
    """
    jet, bad = jet_field(L.expr, {**L.param_dict, **state}, bad)
    with np.errstate(all="ignore"):
        accels = (jet.gx - jet.hxv * state["v"] - jet.hvt) / jet.hvv
    return jet, bad, accels


def implied_acceleration(L: Lagrangian, x: float, v: float, t: float) -> float:
    """Acceleration forced by the Euler-Lagrange equation of ``L`` at a point.

    Solves d/dt(dL/dv) = dL/dx for x'': (L_x - L_vx v - L_vt) / L_vv.
    Raises :class:`DegenerateLagrangianError` when |L_vv| < EPS_REG.
    """
    jet = L.jet(x, v, t)
    lvv = jet.hvv
    if abs(lvv) < EPS_REG:
        raise DegenerateLagrangianError((x, v, t), lvv)
    return (jet.gx - jet.hxv * v - jet.hvt) / lvv


def euler_lagrange_residual(L: Lagrangian, ode: OdeSpec,
                            x: float, v: float, t: float) -> float:
    """Normalized pointwise residual |a_implied - f| / (1 + |f|)."""
    f = ode.rhs_value(x, v, t)
    a = implied_acceleration(L, x, v, t)
    return abs(a - f) / (1.0 + abs(f))


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    max_residual: float
    argmax: tuple
    samples_used: int
    samples_skipped: int
    regularity_min: float
    tolerance: float
    notes: tuple = ()
    # ((x, v, t), residual) per sample; residual None where skipped or degenerate
    residuals: tuple = field(default=(), repr=False)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max residual {self.max_residual:.3e} at "
            f"(x, v, t) = {self.argmax} over {self.samples_used} samples "
            f"(tol {self.tolerance:.1e}, min |L_vv| {self.regularity_min:.3e})"
        )


def verify_lagrangian(L: Lagrangian, ode: OdeSpec, box: DomainBox,
                      tol: float = 1e-8) -> VerificationReport:
    """Check ``L`` against ``ode`` over every sample in ``box``.

    Points where evaluation leaves the domain of definition are skipped and
    counted; degenerate points (|L_vv| < EPS_REG) fail the report outright.
    The residual at each usable point is |a_implied - f| / (1 + |f|); the
    report keeps every point's residual, None where skipped or degenerate.
    """
    binding_extra = dict(ode.params)
    binding_extra.update(L.param_dict)
    points = box.sample_points(binding_extra)
    # the rhs first, then the jet where the rhs is defined, in the order of
    # the scalar evaluations at one point
    state = _state_columns(points)
    rhs, bad = evaluate_field(ode.rhs, {**ode.param_dict, **state})
    jet, bad, accels = _acceleration_jet_field(L, state, bad)
    with np.errstate(all="ignore"):
        field_residuals = np.abs(accels - rhs) / (1.0 + np.abs(rhs))

    max_residual = -1.0
    argmax = None
    used = 0
    skipped = 0
    regularity_min = math.inf
    notes = []
    degenerate = False
    residuals = []

    for point, out, lvv, residual in zip(points, bad.tolist(), jet.hvv.tolist(),
                                         field_residuals.tolist()):
        if out:
            skipped += 1
            residuals.append((point, None))
            continue
        if abs(lvv) < regularity_min:
            regularity_min = abs(lvv)
        if abs(lvv) < EPS_REG:
            if not degenerate:
                notes.append(
                    f"degenerate at (x, v, t) = {point}: "
                    f"|L_vv| = {abs(lvv):.3e} < {EPS_REG:.1e}"
                )
            degenerate = True
            used += 1
            residuals.append((point, None))
            continue
        used += 1
        residuals.append((point, residual))
        if residual > max_residual:
            max_residual = residual
            argmax = point
    if used == 0:
        raise EmptyDomainError(
            "every sample point fell outside the domain of definition"
        )
    if skipped:
        notes.append(f"skipped {skipped} out-of-domain samples")
    passed = (not degenerate) and max_residual <= tol and argmax is not None
    if argmax is None:
        argmax = (math.nan, math.nan, math.nan)
        max_residual = math.inf
    return VerificationReport(
        passed=passed,
        max_residual=max_residual,
        argmax=argmax,
        samples_used=used,
        samples_skipped=skipped,
        regularity_min=regularity_min,
        tolerance=tol,
        notes=tuple(notes),
        residuals=tuple(residuals),
    )


def acceleration_field(L: Lagrangian, points: Sequence[tuple]) -> list:
    """Implied acceleration of ``L`` at each (x, v, t) point.

    The entry is None where ``L`` is out of domain, non-differentiable or
    degenerate there.
    """
    jet, bad, accels = _acceleration_jet_field(L, _state_columns(points))
    return [None if out or abs(lvv) < EPS_REG else a
            for out, lvv, a in zip(bad.tolist(), jet.hvv.tolist(), accels.tolist())]


def max_acceleration_gap(fields: Sequence[list]) -> float:
    """Largest normalized spread between acceleration fields on one point set.

    Skips points where some field is None; requires at least one point where
    every field is defined.
    """
    worst = -1.0
    usable = 0
    for accels in zip(*fields):
        if None in accels:
            continue
        usable += 1
        lo, hi = min(accels), max(accels)
        gap = (hi - lo) / (1.0 + max(abs(lo), abs(hi)))
        if gap > worst:
            worst = gap
    if usable == 0:
        raise EmptyDomainError("no common usable sample points")
    return worst


def pairwise_acceleration_gap(lagrangians: Sequence[Lagrangian],
                              box: DomainBox) -> float:
    """Largest normalized disagreement in implied acceleration over the box.

    Skips points outside some member's domain; requires at least one usable
    common point.
    """
    if len(lagrangians) < 2:
        return 0.0
    extra = {}
    for L in lagrangians:
        extra.update(L.param_dict)
    points = box.sample_points(extra)
    return max_acceleration_gap([acceleration_field(L, points) for L in lagrangians])


# --- Legendre structure ------------------------------------------------------

def legendre_momentum(L: Lagrangian, x: float, v: float, t: float) -> float:
    """Conjugate momentum p = dL/dv."""
    return L.jet(x, v, t).gv


def hamiltonian_value(L: Lagrangian, x: float, v: float, t: float) -> float:
    """Energy function h = v dL/dv - L evaluated at a velocity point."""
    jet = L.jet(x, v, t)
    return v * jet.gv - jet.f


def energy_expression(L) -> Expr:
    """The energy v dL/dv - L as an expression, for invariant monitoring.

    Accepts a Lagrangian or a bare expression.
    """
    expr = L.expr if isinstance(L, Lagrangian) else as_expr(L)
    return Var("v") * differentiate(expr, "v") - expr


def invert_momentum(L: Lagrangian, p: float, x: float, t: float,
                    bracket: tuple = (-10.0, 10.0),
                    tol: float = 1e-12) -> float:
    """Solve dL/dv(x, v, t) = p for v inside ``bracket``.

    The momentum must be strictly monotone in v across the bracket (checked
    through the sign of L_vv); a bracket that does not straddle the target
    raises :class:`BracketError`.  Uses Newton steps guarded by bisection.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError("empty bracket")

    def g(vv: float):
        jet = L.jet(x, vv, t)
        return jet.gv - p, jet.hvv

    g_lo, curv_lo = g(lo)
    g_hi, curv_hi = g(hi)
    if curv_lo * curv_hi <= 0.0:
        raise NonMonotoneError(
            "momentum is not strictly monotone across the bracket"
        )
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0.0:
        raise BracketError(
            f"momentum {p!r} not bracketed: dL/dv spans "
            f"[{g_lo + p!r}, {g_hi + p!r}]"
        )

    vv = 0.5 * (lo + hi)
    for _ in range(200):
        gv, curv = g(vv)
        if curv_lo * curv <= 0.0:
            raise NonMonotoneError(
                "momentum is not strictly monotone across the bracket"
            )
        if gv == 0.0:
            return vv
        if g_lo * gv < 0.0:
            hi = vv
        else:
            lo, g_lo = vv, gv
        step = gv / curv
        candidate = vv - step
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        if abs(candidate - vv) <= tol * (1.0 + abs(vv)):
            return candidate
        vv = candidate
    return vv


# --- invariants ---------------------------------------------------------------

def invariant_drift(quantity: Expr, ode: OdeSpec, box: DomainBox,
                    extra_params: Mapping[str, float] | None = None) -> float:
    """Max normalized |dI/dt| along the dynamics over the box.

    dI/dt = I_x v + I_v f + I_t with f the prescribed acceleration; the rate
    is normalized by 1 + |I|.
    """
    extra = dict(ode.params)
    if extra_params:
        extra.update(extra_params)
    state = _state_columns(box.sample_points(extra))
    columns = {**extra, **state}
    f, bad = evaluate_field(ode.rhs, columns)
    jet, bad = jet_field(quantity, columns, bad)
    with np.errstate(all="ignore"):
        rates = (np.abs(jet.gx * state["v"] + jet.gv * f + jet.gt)
                 / (1.0 + np.abs(jet.f)))
    worst = -1.0
    usable = 0
    for out, rate in zip(bad.tolist(), rates.tolist()):
        if out:
            continue
        usable += 1
        if rate > worst:
            worst = rate
    if usable == 0:
        raise EmptyDomainError("no usable sample points for the invariant")
    return worst


def assert_invariant(quantity: Expr, ode: OdeSpec, box: DomainBox,
                     tol: float = 1e-8,
                     extra_params: Mapping[str, float] | None = None) -> float:
    rate = invariant_drift(quantity, ode, box, extra_params)
    if rate > tol:
        raise NotInvariantError(
            f"quantity drifts at normalized rate {rate:.3e} > {tol:.1e}", rate
        )
    return rate


# --- gauge helpers ------------------------------------------------------------

def total_derivative_gauge(M: Expr) -> Expr:
    """The total time derivative dM/dt = M_x v + M_t of a function M(x, t).

    Adding this to any Lagrangian leaves the implied acceleration unchanged.
    """
    M = as_expr(M)
    if "v" in free_vars(M):
        raise ValueError("gauge function must not depend on v")
    return differentiate(M, "x") * Var("v") + differentiate(M, "t")
