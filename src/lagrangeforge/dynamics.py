"""Time integration of the second-order dynamics and trajectory queries.

One integrator covers the needs here: an adaptive Dormand-Prince 5(4) pair
with FSAL reuse, whose step size follows a mixed relative/absolute error
test.  Dense output between accepted nodes is cubic Hermite, which matches
the stored state and derivative at both ends.

:func:`integrate_ode` solves each problem once per process: it keeps the
last ``_TRAJECTORY_CACHE_SIZE`` trajectories it solved, keyed by the
right-hand side, the initial state and span bit for bit, and the
configuration, and a repeated problem returns the kept trajectory.  The
CLI's ``integrate`` task, the ODE-solution nodes of :mod:`evaluation` and
library callers all read this one cache.  A trajectory holds its nodes as
one read-only array, so a kept one costs 40 bytes a node.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvalDomainError,
    IntegrationError,
    OverflowGuardError,
    StepUnderflowError,
)
from . import evaluation
from .evaluation import compile_callable, evaluate_points, hermite
from .expressions import Expr, as_expr, free_vars
from .lagrangian import OdeSpec

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "integrate_ode",
    "monitor_quantity",
]


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    overflow_guard: float = 1e12
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and math.isfinite(self.abs_tol)):
            raise ValueError("tolerances must be finite")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not (math.isfinite(self.overflow_guard) and self.overflow_guard > 0):
            raise ValueError("overflow_guard must be finite and positive")
        # an integral float counts as the int; NaN, inf and fractions leave a remainder
        if self.max_steps % 1 or self.max_steps < 1:
            raise ValueError("max_steps must be a positive integer")
        object.__setattr__(self, "max_steps", int(self.max_steps))


DEFAULT_INTEGRATOR = IntegratorConfig()


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted integration nodes with derivatives for dense evaluation.

    ``table`` is one read-only float64 array with a column per accepted
    node and five rows: the times, the states (x, v) and the derivatives
    (x', v').  A derivative's x' is the integrator's last stage at the
    node, which can differ from the state's v in the sign of a zero, so
    both are kept.  :attr:`times`, :attr:`states` and :attr:`derivs` give
    the rows as tuples of Python floats.
    """

    table: np.ndarray
    n_steps: int
    n_rejected: int

    @property
    def times(self) -> tuple:
        return tuple(self.table[0].tolist())

    @property
    def states(self) -> tuple:
        """(x, v) per node."""
        return tuple(zip(*self.table[1:3].tolist()))

    @property
    def derivs(self) -> tuple:
        """(x', v') per node."""
        return tuple(zip(*self.table[3:5].tolist()))

    @property
    def final_time(self) -> float:
        return self.table[0, -1].item()

    @property
    def final_state(self) -> tuple:
        return tuple(self.table[1:3, -1].tolist())

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (self.n_steps == other.n_steps
                and self.n_rejected == other.n_rejected
                and np.array_equal(self.table, other.table))

    def sample(self, t: float) -> tuple:
        """(x, v) at time ``t`` by cubic Hermite between stored nodes."""
        times = self.table[0]
        first, last = times[0].item(), times[-1].item()
        ascending = last >= first
        lo_t, hi_t = (first, last) if ascending else (last, first)
        if not (lo_t <= t <= hi_t):
            raise ValueError(f"time {t!r} outside trajectory range")
        if len(times) == 1:
            # a zero-width trajectory: t is its one time
            return self.final_state
        if ascending:
            i = int(np.searchsorted(times, t, side="right")) - 1
        else:
            # decreasing times are increasing on the negated axis
            i = int(np.searchsorted(-times, -t, side="right")) - 1
        i = max(0, min(i, len(times) - 2))
        (t0, t1), (x0, x1), (v0, v1), (p0, p1), (a0, a1) = \
            self.table[:, i:i + 2].tolist()
        h = t1 - t0
        if h == 0.0:
            return x0, v0
        theta = (t - t0) / h
        return (hermite(theta, h, x0, p0, x1, p1),
                hermite(theta, h, v0, a0, v1, a1))


def _trajectory(nodes: list, n_steps: int, n_rejected: int) -> Trajectory:
    """A :class:`Trajectory` of ``nodes``, one (t, x, v, x', v') per node."""
    table = np.array(nodes, dtype=float).T.copy()
    table.setflags(write=False)
    return Trajectory(table, n_steps, n_rejected)


def _guard(x: float, v: float, t: float, limit: float) -> None:
    if not (math.isfinite(x) and math.isfinite(v)):
        raise OverflowGuardError(t, x if not math.isfinite(x) else v)
    if abs(x) > limit or abs(v) > limit:
        raise OverflowGuardError(t, x if abs(x) > abs(v) else v)


# Dormand-Prince 5(4) coefficients
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
          11.0 / 84.0, 0.0)
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)

# The same coefficients by name, for the unrolled step below
_, _C2, _C3, _C4, _C5, _C6, _C7 = _DP_C
(_A21,) = _DP_A[1]
_A31, _A32 = _DP_A[2]
_A41, _A42, _A43 = _DP_A[3]
_A51, _A52, _A53, _A54 = _DP_A[4]
_A61, _A62, _A63, _A64, _A65 = _DP_A[5]
_A71, _A72, _A73, _A74, _A75, _A76 = _DP_A[6]
_B51, _B52, _B53, _B54, _B55, _B56, _B57 = _DP_B5
_B41, _B42, _B43, _B44, _B45, _B46, _B47 = _DP_B4


def _integrate_dp45(f, x0, v0, t0, t1, cfg):
    max_steps, limit = cfg.max_steps, cfg.overflow_guard
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    a0 = f(x0, v0, t0)
    nodes = [(t0, x0, v0, v0, a0)]

    t, x, v = t0, x0, v0
    k1 = (v, a0)
    h = direction * (span / 10.0 if span > 0.0 else 1.0)
    if h == 0.0:
        h = direction * 1e-3
    steps = 0
    rejected = 0
    while direction * (t1 - t) > 0.0:
        if steps + rejected >= max_steps:
            raise IntegrationError(
                f"step limit {max_steps} reached at t = {t!r}"
            )
        if abs(h) > abs(t1 - t):
            h = t1 - t
        if abs(h) <= 1e-14 * (1.0 + abs(t)):
            raise StepUnderflowError(t)

        # Stage i's slope is (p_i, q_i) = (v_i, f(x_i, v_i, t_i)).  Each
        # weighted sum starts from 0.0 and adds its terms left to right,
        # zero coefficients included, as sum() over a table row does;
        # tests/data/trajectory_golden.json pins the resulting bits.
        p1, q1 = k1
        try:
            p2 = v + h * (0.0 + _A21 * q1)
            q2 = f(x + h * (0.0 + _A21 * p1), p2, t + _C2 * h)
            p3 = v + h * (0.0 + _A31 * q1 + _A32 * q2)
            q3 = f(x + h * (0.0 + _A31 * p1 + _A32 * p2), p3, t + _C3 * h)
            p4 = v + h * (0.0 + _A41 * q1 + _A42 * q2 + _A43 * q3)
            q4 = f(x + h * (0.0 + _A41 * p1 + _A42 * p2 + _A43 * p3), p4,
                   t + _C4 * h)
            p5 = v + h * (0.0 + _A51 * q1 + _A52 * q2 + _A53 * q3
                          + _A54 * q4)
            q5 = f(x + h * (0.0 + _A51 * p1 + _A52 * p2 + _A53 * p3
                            + _A54 * p4), p5, t + _C5 * h)
            p6 = v + h * (0.0 + _A61 * q1 + _A62 * q2 + _A63 * q3
                          + _A64 * q4 + _A65 * q5)
            q6 = f(x + h * (0.0 + _A61 * p1 + _A62 * p2 + _A63 * p3
                            + _A64 * p4 + _A65 * p5), p6, t + _C6 * h)
            p7 = v + h * (0.0 + _A71 * q1 + _A72 * q2 + _A73 * q3
                          + _A74 * q4 + _A75 * q5 + _A76 * q6)
            q7 = f(x + h * (0.0 + _A71 * p1 + _A72 * p2 + _A73 * p3
                            + _A74 * p4 + _A75 * p5 + _A76 * p6), p7,
                   t + _C7 * h)
        except EvalDomainError as err:
            raise IntegrationError(
                f"dynamics evaluation failed near t = {t!r}: {err}"
            ) from err

        x5 = x + h * (0.0 + _B51 * p1 + _B52 * p2 + _B53 * p3 + _B54 * p4
                      + _B55 * p5 + _B56 * p6 + _B57 * p7)
        v5 = v + h * (0.0 + _B51 * q1 + _B52 * q2 + _B53 * q3 + _B54 * q4
                      + _B55 * q5 + _B56 * q6 + _B57 * q7)
        x4 = x + h * (0.0 + _B41 * p1 + _B42 * p2 + _B43 * p3 + _B44 * p4
                      + _B45 * p5 + _B46 * p6 + _B47 * p7)
        v4 = v + h * (0.0 + _B41 * q1 + _B42 * q2 + _B43 * q3 + _B44 * q4
                      + _B45 * q5 + _B46 * q6 + _B47 * q7)

        if not (math.isfinite(x5) and math.isfinite(v5)):
            _guard(x5, v5, t + h, limit)
        # x5 and v5 are finite here, so a comparison picks max()'s operand
        ax, ax5, av, av5 = abs(x), abs(x5), abs(v), abs(v5)
        scale_x = abs_tol + rel_tol * (ax5 if ax5 > ax else ax)
        scale_v = abs_tol + rel_tol * (av5 if av5 > av else av)
        err = math.sqrt(0.5 * (
            ((x5 - x4) / scale_x) ** 2 + ((v5 - v4) / scale_v) ** 2
        ))

        if err <= 1.0:
            t = t + h
            x, v = x5, v5
            if not (ax5 <= limit and av5 <= limit):
                _guard(x, v, t, limit)
            k1 = (p7, q7)  # FSAL: last stage sits at (t + h, y5)
            nodes.append((t, x, v, p7, q7))
            steps += 1
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            rejected += 1
            factor = min(1.0, max(0.2, 0.9 * err ** -0.2))
        h = h * factor

    return _trajectory(nodes, steps, rejected)


def integrate_ode(ode: OdeSpec, x0: float, v0: float, t0: float, t1: float,
                  config: IntegratorConfig = DEFAULT_INTEGRATOR) -> Trajectory:
    """Integrate x'' = rhs(x, x', t) from (x0, v0) at t0 to t1.

    A problem solved before in this process, and still kept, returns the
    kept trajectory (see the module docstring), which equals a fresh solve
    bit for bit.  A solve that fails raises on every call.
    """
    return _solve(ode.rhs, *(float(u).hex() for u in (x0, v0, t0, t1)), config)


# How many trajectories _solve keeps.  An entry holds five float64 numbers a
# node: 15 KB for the 375 steps of the damped-oscillator preset's trajectory.
_TRAJECTORY_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_TRAJECTORY_CACHE_SIZE)
def _solve(rhs: Expr, x0: str, v0: str, t0: str, t1: str,
           config: IntegratorConfig) -> Trajectory:
    """:func:`integrate_ode`'s solve, kept per problem.

    The initial state and the span are ``float.hex`` strings, so that a
    -0.0 and a 0.0, which start trajectories that differ in the sign of a
    zero, are different keys.  A solve that raises is not kept.
    """
    f = compile_callable(rhs, ("x", "v", "t"))
    x0, v0, t0, t1 = map(float.fromhex, (x0, v0, t0, t1))
    if t0 == t1:
        try:
            a0 = f(x0, v0, t0)
        except EvalDomainError as err:
            raise IntegrationError(
                f"dynamics evaluation failed at t = {t0!r}: {err}"
            ) from err
        return _trajectory([(t0, x0, v0, v0, a0)], 0, 0)
    try:
        return _integrate_dp45(f, x0, v0, t0, t1, config)
    except EvalDomainError as err:
        raise IntegrationError(
            f"dynamics evaluation failed: {err}"
        ) from err


# ODE-solution nodes are solved by this integrator, at these tolerances;
# evaluation cannot import this module, which imports it (see evaluation's
# "ODE-solution nodes")
evaluation.integrate_ode = integrate_ode
evaluation._SPEC_TYPE = OdeSpec
evaluation._SOLUTION_CONFIG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)


def monitor_quantity(traj: Trajectory, quantity: Expr) -> list:
    """Evaluate ``quantity(x, v, t)`` at every trajectory node."""
    quantity = as_expr(quantity)
    missing = free_vars(quantity) - {"x", "v", "t"}
    if missing:
        raise EvalDomainError(f"unbound variables {sorted(missing)}")
    t, x, v = traj.table[:3]
    return evaluate_points(quantity, {"x": x, "v": v, "t": t})
