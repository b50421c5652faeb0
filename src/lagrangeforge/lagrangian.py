"""Lagrangians, dynamics specifications, and the universal residual verifier.

A Lagrangian L(x, v, t) determines an acceleration through its second-order
Euler-Lagrange equation; :func:`implied_acceleration` extracts it from a
single jet evaluation.  Verification never trusts how a Lagrangian was
constructed: it compares the implied acceleration against the prescribed
right-hand side pointwise over a sampled box and reports the worst
normalized residual.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from itertools import repeat, starmap
from typing import Sequence

import numpy as np

from .errors import (
    BracketError,
    DegenerateLagrangianError,
    EmptyDomainError,
    NonMonotoneError,
    NotInvariantError,
)
from .evaluation import (
    _jets,
    _Sweep,
    _values,
    eval_jet2,
    evaluate,
)
from .expressions import Expr, Var, as_expr, differentiate, free_vars

__all__ = [
    "EPS_REG",
    "DomainBox",
    "Lagrangian",
    "OdeSpec",
    "SingularStratum",
    "VerificationReport",
    "energy_expression",
    "euler_lagrange_residual",
    "hamiltonian_value",
    "implied_acceleration",
    "invariant_drift",
    "invert_momentum",
    "largest",
    "legendre_momentum",
    "pairwise_acceleration_gap",
    "total_derivative_gauge",
    "verify_lagrangian",
]

# minimum |d2L/dv2| for the implied acceleration to be well defined
EPS_REG = 1e-9


def largest(values, keep=None) -> tuple | None:
    """The largest kept value and the first index holding it; None if none.

    ``keep`` is an optional boolean mask.  NaN counts as the largest value,
    so the first kept NaN is returned and fails any ``<= tol`` test.
    """
    index = np.arange(len(values)) if keep is None else np.flatnonzero(keep)
    if not index.size:
        return None
    kept = np.asarray(values, dtype=float)[index]
    i = int(np.argmax(kept))
    return kept[i].item(), int(index[i])


@dataclass(frozen=True)
class OdeSpec:
    """Second-order dynamics ``x'' = rhs(x, x', t)``.

    ``rhs`` is a function of x, v and t alone: a parameter gets its value
    by :func:`~lagrangeforge.expressions.substitute` before the spec is made.
    """

    rhs: Expr

    def __post_init__(self):
        object.__setattr__(self, "rhs", as_expr(self.rhs))

    def rhs_value(self, x: float, v: float, t: float) -> float:
        return evaluate(self.rhs, {"x": x, "v": v, "t": t})


@dataclass(frozen=True)
class Lagrangian:
    """A candidate Lagrangian L(x, v, t) plus a record of how it was built.

    ``expr`` is a function of x, v and t alone; parameters are substituted
    before it is made, as for :class:`OdeSpec`.
    """

    expr: Expr
    family: str = "custom"
    gauge: str = ""
    domain_note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "expr", as_expr(self.expr))

    def value(self, x: float, v: float, t: float) -> float:
        return evaluate(self.expr, {"x": x, "v": v, "t": t})

    def jet(self, x: float, v: float, t: float):
        return eval_jet2(self.expr, {"x": x, "v": v, "t": t})


@dataclass(frozen=True)
class SingularStratum:
    """Exclusion zone: points where |expr| <= radius are not sampled."""

    expr: Expr
    radius: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "expr", as_expr(self.expr))
        if not self.radius >= 0.0:
            # a NaN radius would exclude nothing
            raise ValueError("stratum radius must be non-negative, not NaN")


def grid_points(lo: float, hi: float, n: int) -> list:
    """``n`` >= 2 evenly spaced points from ``lo`` to ``hi``.

    Each point is ``lo + (hi - lo) * i / (n - 1)``, which the structural
    scans and probes share; :meth:`DomainBox.sample_columns` steps by
    ``(hi - lo) / (n - 1)`` instead, which rounds differently.
    """
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _axis_column(lo: float, hi: float, n: int) -> np.ndarray:
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    step = (hi - lo) / (n - 1)
    return lo + np.arange(n) * step


# the state variables, in the order of a sample point's coordinates
_STATE = ("x", "v", "t")


# Box geometries whose unstratified samples _geometry keeps.  An entry holds
# four float64 or int64 arrays of one element per sample point, 32 bytes a
# point: 14 KB for the default box's 443 points.
_GEOMETRY_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_GEOMETRY_CACHE_SIZE, typed=True)
def _geometry(bounds: tuple, grid: tuple, n_random: int, seed) -> tuple:
    """A box's x, v and t columns before any stratum, and their (t, x, v)
    order, as read-only arrays.

    ``bounds`` holds the ends of the x, v and t intervals as ``float.hex``
    strings, so that a -0.0 end and a 0.0 end, whose columns can differ in
    the sign of a zero, are different keys.  Seeds of different types are
    different keys too: ``random.Random`` seeds an int by its value and a
    float by its hash, so 2**70 and 2.0**70 draw differently.
    """
    ends = [float.fromhex(b) for b in bounds]
    intervals = (ends[0:2], ends[2:4], ends[4:6])
    nx, nv, nt = grid
    axes = (np.repeat(_axis_column(*intervals[0], nx), nv * nt),
            np.tile(np.repeat(_axis_column(*intervals[1], nv), nt), nx),
            np.tile(_axis_column(*intervals[2], nt), nx * nv))
    count = 3 * n_random
    draws = np.fromiter(starmap(random.Random(seed).random,
                                repeat((), count)), float, count)
    columns = [np.concatenate((axis, lo + (hi - lo) * draws[k::3]))
               for k, (axis, (lo, hi)) in enumerate(zip(axes, intervals))]
    xs, vs, ts = columns
    order = np.lexsort((vs, xs, ts))
    for array in (xs, vs, ts, order):
        array.setflags(write=False)
    return xs, vs, ts, order


@dataclass(frozen=True)
class DomainBox:
    """Sampling plan over a box in (x, v, t): tensor grid plus random fill.

    :meth:`sample_columns` gives the samples as three float64 columns, the
    form the field walks take; :meth:`sample_points` gives the same samples
    as (x, v, t) tuples.  Samples are sorted by (t, x, v), which fixes the
    row order of ``residuals.csv`` and how ties in residual maxima resolve.
    """

    x: tuple = (-1.0, 1.0)
    v: tuple = (-1.0, 1.0)
    t: tuple = (0.0, 1.0)
    grid: tuple = (7, 7, 7)
    n_random: int = 100
    seed: int = 0
    strata: tuple = ()

    def __post_init__(self):
        for name in _STATE:
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} interval must be finite")
            if lo > hi:
                raise ValueError(f"{name} interval is reversed")
            if not math.isfinite(hi - lo):
                # its grid step and random draws would be NaN or infinite
                raise ValueError(f"{name} interval is too wide for a float")
            object.__setattr__(self, name, (float(lo), float(hi)))
        # an integral float (32.0, which JSON Schema accepts as an integer)
        # counts like the int; any other float, NaN and infinities included,
        # leaves a nonzero (or NaN) remainder and is refused, not truncated
        if len(self.grid) != 3 or any(n % 1 or n < 1 for n in self.grid):
            raise ValueError("grid must have three positive integer counts")
        object.__setattr__(self, "grid", tuple(int(n) for n in self.grid))
        if self.n_random % 1 or self.n_random < 0:
            raise ValueError("n_random must be a non-negative integer")
        # np.fromiter takes only an int count
        object.__setattr__(self, "n_random", int(self.n_random))
        if self.seed is None:
            # random.Random(None) draws from the system's entropy, which
            # _geometry would then keep for later calls
            raise ValueError("seed must not be None")
        object.__setattr__(self, "strata", tuple(self.strata))

    def sample_columns(self) -> dict:
        """The samples after stratum exclusion as field columns; never empty.

        Maps ``x``, ``v`` and ``t`` to float64 arrays.  The grid comes first,
        in x-v-t order with t varying fastest, each axis ``lo + i * step``;
        then ``n_random`` points, each drawing its x, v and t in turn from
        ``random.Random(seed)`` as ``random.uniform`` does.  A point leaves
        at the first stratum that is undefined or small there; later strata
        are not evaluated at it.  The rest are put in (t, x, v) order by a
        stable sort.
        """
        return self._sample()[0]

    def _sample(self) -> tuple:
        """:meth:`sample_columns` and the integrals its strata computed.

        The columns before any stratum and their order come from
        :func:`_geometry`, kept per geometry; the strata run on every call.
        All strata run in one sweep, so an integral that several of them
        hold is integrated once.  Returns ``(columns, integrals)``:
        ``integrals`` maps each integral node of the strata to its values at
        the kept points, in their order.  No kept point was ever masked in
        that sweep, so every value there is exact, and a later sweep over
        the columns reads them instead of integrating again.
        """
        xs, vs, ts, order = _geometry(
            tuple(map(float.hex, self.x + self.v + self.t)),
            self.grid, self.n_random, self.seed)
        columns = {"x": xs, "v": vs, "t": ts}
        integrals = {}
        if self.strata:
            # one memo for all strata: the mask only grows between them, as
            # within one tree walk
            sweep = _Sweep(columns, None)
            for stratum in self.strata:
                size, _ = _values(stratum.expr, sweep)
                sweep.bad |= np.abs(size) <= stratum.radius
            order = order[~sweep.bad[order]]
            integrals = sweep.integrals_at(order)
        if not order.size:
            raise EmptyDomainError("no sample points survive the exclusions")
        return {name: column[order] for name, column in columns.items()}, integrals

    def sample_points(self) -> list:
        """The samples of :meth:`sample_columns` as (x, v, t) tuples."""
        return _points(self.sample_columns())


def _points(columns: dict) -> list:
    """The (x, v, t) tuples of field columns, as Python floats."""
    return list(zip(*(columns[name].tolist() for name in _STATE)))


# The Euler-Lagrange quantities, each written once: ``jet`` is a scalar jet
# with ``v`` a float, or a jet field with ``v`` its column.

def _acceleration(jet, v):
    """The implied acceleration (L_x - L_vx v - L_vt) / L_vv."""
    return (jet.gx - jet.hxv * v - jet.hvt) / jet.hvv


def _residual(a, f):
    """The normalized residual |a - f| / (1 + |f|)."""
    return abs(a - f) / (1.0 + abs(f))


def _energy(jet, v):
    """The energy function v L_v - L."""
    return v * jet.gv - jet.f


def _acceleration_jet_field(L: Lagrangian, state: dict, bad=None,
                            integrals=None) -> tuple:
    """The jet field of ``L``, its mask and its implied accelerations.

    The accelerations mean nothing where the mask is set or
    |L_vv| < EPS_REG.  ``integrals`` are known integral values over the
    points (see :meth:`DomainBox._sample`).
    """
    jet, bad = _jets(L.expr, _Sweep(state, bad, integrals=integrals))
    with np.errstate(all="ignore"):
        accels = _acceleration(jet, state["v"])
    return jet, bad, accels


def implied_acceleration(L: Lagrangian, x: float, v: float, t: float) -> float:
    """Acceleration forced by the Euler-Lagrange equation of ``L`` at a point.

    Solves d/dt(dL/dv) = dL/dx for x'': (L_x - L_vx v - L_vt) / L_vv.
    Raises :class:`DegenerateLagrangianError` when |L_vv| < EPS_REG.
    """
    jet = L.jet(x, v, t)
    if abs(jet.hvv) < EPS_REG:
        raise DegenerateLagrangianError((x, v, t), jet.hvv)
    return _acceleration(jet, v)


def euler_lagrange_residual(L: Lagrangian, ode: OdeSpec,
                            x: float, v: float, t: float) -> float:
    """Normalized pointwise residual |a_implied - f| / (1 + |f|)."""
    f = ode.rhs_value(x, v, t)
    a = implied_acceleration(L, x, v, t)
    return _residual(a, f)


@dataclass(frozen=True)
class VerificationReport:
    """What :func:`verify_lagrangian` measured; ``max_residual`` and
    ``regularity_min`` are NaN when some usable point's value is.

    The report also keeps the sweep itself: the sample ``columns``, the
    ``residual_field`` over them and the ``scored`` mask of the points it
    counts.  They stay out of ``repr`` and ``==``; :attr:`residuals` builds
    the per-point rows from them when it is read.
    """

    passed: bool
    max_residual: float
    argmax: tuple
    samples_used: int
    samples_skipped: int
    regularity_min: float
    tolerance: float
    notes: tuple = ()
    columns: dict | None = field(default=None, repr=False, compare=False)
    residual_field: np.ndarray | None = field(default=None, repr=False,
                                              compare=False)
    scored: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def residuals(self) -> tuple:
        """((x, v, t), residual) per sample; residual None where skipped or
        degenerate.  Built anew at each read."""
        if self.columns is None:
            return ()
        return tuple(zip(_points(self.columns),
                         np.where(self.scored, self.residual_field,
                                  None).tolist()))

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max residual {self.max_residual:.3e} at "
            f"(x, v, t) = {self.argmax} over {self.samples_used} samples "
            f"(tol {self.tolerance:.1e}, min |L_vv| {self.regularity_min:.3e})"
        )


def _point(columns: dict, i: int) -> tuple:
    """Sample ``i`` of field columns as an (x, v, t) tuple."""
    return tuple(columns[name][i].item() for name in _STATE)


def verify_lagrangian(L: Lagrangian, ode: OdeSpec, box: DomainBox,
                      tol: float = 1e-8) -> VerificationReport:
    """Check ``L`` against ``ode`` over every sample in ``box``.

    Points where evaluation leaves the domain of definition are skipped and
    counted; degenerate points (|L_vv| < EPS_REG) fail the report outright.
    The residual at each usable point is |a_implied - f| / (1 + |f|), and
    the report keeps every point's residual, None where skipped or
    degenerate.  A NaN residual is the largest: it fails the report and
    the first one in sample order is its argmax.
    """
    # the rhs first, then the jet where the rhs is defined, in the order of
    # the scalar evaluations at one point; both read the strata's integrals
    state, integrals = box._sample()
    rhs, bad = _values(ode.rhs, _Sweep(state, None, integrals=integrals))
    jet, bad, accels = _acceleration_jet_field(L, state, bad, integrals)
    with np.errstate(all="ignore"):
        field_residuals = _residual(accels, rhs)

    good = ~bad
    used = int(np.count_nonzero(good))
    if used == 0:
        raise EmptyDomainError(
            "every sample point fell outside the domain of definition"
        )
    skipped = len(bad) - used
    regularity = np.abs(jet.hvv)
    degenerate = good & (regularity < EPS_REG)
    scored = good & ~degenerate
    notes = []
    if degenerate.any():
        i = int(np.argmax(degenerate))
        notes.append(
            f"degenerate at (x, v, t) = {_point(state, i)}: "
            f"|L_vv| = {regularity[i].item():.3e} < {EPS_REG:.1e}"
        )
    if skipped:
        notes.append(f"skipped {skipped} out-of-domain samples")
    worst = largest(field_residuals, scored)
    if worst is None:
        max_residual, argmax = math.inf, (math.nan, math.nan, math.nan)
    else:
        max_residual, argmax = worst[0], _point(state, worst[1])
    return VerificationReport(
        passed=worst is not None and not degenerate.any()
        and max_residual <= tol,
        max_residual=max_residual,
        argmax=argmax,
        samples_used=used,
        samples_skipped=skipped,
        regularity_min=regularity[good].min().item(),
        tolerance=tol,
        notes=tuple(notes),
        columns=state,
        residual_field=field_residuals,
        scored=scored,
    )


def _usable_accelerations(L: Lagrangian, columns: dict) -> tuple:
    """The implied accelerations of ``L`` and the mask of usable points.

    A point is usable where ``L`` is in domain and |L_vv| is not below
    EPS_REG; a NaN |L_vv| is not below it, so its NaN acceleration is used.
    """
    jet, bad, accels = _acceleration_jet_field(L, columns)
    return accels, ~(bad | (np.abs(jet.hvv) < EPS_REG))


def _acceleration_gap(accels: Sequence, usable: Sequence) -> float:
    """Largest normalized spread between acceleration fields on one point set.

    ``accels`` holds one array per field and ``usable`` its mask.  Skips
    points where some field is unusable; requires at least one point where
    every field is usable.  A NaN at such a point makes the result NaN.
    """
    keep = np.logical_and.reduce(usable)
    accels = np.where(keep, accels, 0.0)
    lo, hi = accels.min(axis=0), accels.max(axis=0)
    worst = largest((hi - lo) / (1.0 + np.maximum(np.abs(lo), np.abs(hi))),
                    keep)
    if worst is None:
        raise EmptyDomainError("no common usable sample points")
    return worst[0]


def pairwise_acceleration_gap(lagrangians: Sequence[Lagrangian],
                              box: DomainBox) -> float:
    """Largest normalized disagreement in implied acceleration over the box.

    Skips points outside some member's domain or degenerate for it;
    requires at least one usable common point.  A NaN acceleration at a
    usable point makes the result NaN.
    """
    if len(lagrangians) < 2:
        return 0.0
    columns = box.sample_columns()
    accels, usable = zip(*(_usable_accelerations(L, columns) for L in lagrangians))
    return _acceleration_gap(accels, usable)


# --- Legendre structure ------------------------------------------------------

def legendre_momentum(L: Lagrangian, x: float, v: float, t: float) -> float:
    """Conjugate momentum p = dL/dv."""
    return L.jet(x, v, t).gv


def hamiltonian_value(L: Lagrangian, x: float, v: float, t: float) -> float:
    """Energy function h = v dL/dv - L evaluated at a velocity point."""
    return _energy(L.jet(x, v, t), v)


def energy_expression(L) -> Expr:
    """The energy v dL/dv - L as an expression, for invariant monitoring.

    Accepts a Lagrangian or a bare expression.
    """
    expr = L.expr if isinstance(L, Lagrangian) else as_expr(L)
    return Var("v") * differentiate(expr, "v") - expr


def invert_momentum(L: Lagrangian, p: float, x: float, t: float,
                    bracket: tuple = (-10.0, 10.0)) -> float:
    """Solve dL/dv(x, v, t) = p for v inside ``bracket``.

    The momentum must be strictly monotone in v across the bracket (checked
    through the sign of L_vv); a bracket that does not straddle the target
    raises :class:`BracketError`.  Uses Newton steps guarded by bisection,
    until a step moves v by at most 1e-12 (1 + |v|).
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
        if abs(candidate - vv) <= 1e-12 * (1.0 + abs(vv)):
            return candidate
        vv = candidate
    return vv


# --- invariants ---------------------------------------------------------------

def invariant_drift(quantity: Expr, ode: OdeSpec, box: DomainBox) -> float:
    """Max normalized |dI/dt| along the dynamics over the box.

    dI/dt = I_x v + I_v f + I_t with f the prescribed acceleration; the rate
    is normalized by 1 + |I|.  Points outside the domain are skipped; a NaN
    rate at a usable point makes the result NaN.
    """
    state, integrals = box._sample()
    f, bad = _values(ode.rhs, _Sweep(state, None, integrals=integrals))
    jet, bad = _jets(quantity, _Sweep(state, bad, integrals=integrals))
    with np.errstate(all="ignore"):
        rates = (np.abs(jet.gx * state["v"] + jet.gv * f + jet.gt)
                 / (1.0 + np.abs(jet.f)))
    worst = largest(rates, ~bad)
    if worst is None:
        raise EmptyDomainError("no usable sample points for the invariant")
    return worst[0]


def assert_invariant(quantity: Expr, ode: OdeSpec, box: DomainBox,
                     tol: float = 1e-8) -> float:
    rate = invariant_drift(quantity, ode, box)
    if not rate <= tol:
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
