"""Time integration of the second-order dynamics and trajectory queries.

One integrator covers the needs here: an adaptive Dormand-Prince 5(4) pair
with FSAL reuse, whose step size follows a mixed relative/absolute error
test.  Dense output between accepted nodes is cubic Hermite, which matches
the stored state and derivative at both ends.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    EvalDomainError,
    IntegrationError,
    OverflowGuardError,
    StepUnderflowError,
)
from .evaluation import compile_callable, evaluate_points
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
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


DEFAULT_INTEGRATOR = IntegratorConfig()


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration nodes with derivatives for dense evaluation."""

    times: tuple
    states: tuple          # (x, v) per node
    derivs: tuple          # (v, a) per node
    n_steps: int
    n_rejected: int

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def final_state(self) -> tuple:
        return self.states[-1]

    def sample(self, t: float) -> tuple:
        """(x, v) at time ``t`` by cubic Hermite between stored nodes."""
        times = self.times
        ascending = times[-1] >= times[0]
        lo_t, hi_t = (times[0], times[-1]) if ascending else (times[-1], times[0])
        if not (lo_t <= t <= hi_t):
            raise ValueError(f"time {t!r} outside trajectory range")
        if ascending:
            i = bisect.bisect_right(times, t) - 1
        else:
            # decreasing times: search on the negated axis
            i = bisect.bisect_right([-u for u in times], -t) - 1
        i = max(0, min(i, len(times) - 2))
        t0, t1 = times[i], times[i + 1]
        h = t1 - t0
        if h == 0.0:
            return self.states[i]
        theta = (t - t0) / h
        th2 = theta * theta
        th3 = th2 * theta
        h00 = 2.0 * th3 - 3.0 * th2 + 1.0
        h10 = th3 - 2.0 * th2 + theta
        h01 = -2.0 * th3 + 3.0 * th2
        h11 = th3 - th2
        y0, y1 = self.states[i], self.states[i + 1]
        d0, d1 = self.derivs[i], self.derivs[i + 1]
        return tuple(
            h00 * y0[k] + h10 * h * d0[k] + h01 * y1[k] + h11 * h * d1[k]
            for k in range(2)
        )


def _rhs_callable(ode: OdeSpec) -> Callable:
    return compile_callable(ode.rhs, ("x", "v", "t"), dict(ode.params))


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


def _integrate_dp45(f, x0, v0, t0, t1, cfg):
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    times = [t0]
    states = [(x0, v0)]
    a0 = f(x0, v0, t0)
    derivs = [(v0, a0)]

    t, x, v = t0, x0, v0
    k1 = (v, a0)
    h = direction * (span / 10.0 if span > 0.0 else 1.0)
    if h == 0.0:
        h = direction * 1e-3
    steps = 0
    rejected = 0
    while direction * (t1 - t) > 0.0:
        if steps + rejected >= cfg.max_steps:
            raise IntegrationError(
                f"step limit {cfg.max_steps} reached at t = {t!r}"
            )
        if abs(h) > abs(t1 - t):
            h = t1 - t
        if abs(h) <= 1e-14 * (1.0 + abs(t)):
            raise StepUnderflowError(t)

        ks = [k1]
        try:
            for stage in range(1, 7):
                xs = x + h * sum(_DP_A[stage][j] * ks[j][0] for j in range(stage))
                vs = v + h * sum(_DP_A[stage][j] * ks[j][1] for j in range(stage))
                ts = t + _DP_C[stage] * h
                ks.append((vs, f(xs, vs, ts)))
        except EvalDomainError as err:
            raise IntegrationError(
                f"dynamics evaluation failed near t = {t!r}: {err}"
            ) from err

        x5 = x + h * sum(_DP_B5[j] * ks[j][0] for j in range(7))
        v5 = v + h * sum(_DP_B5[j] * ks[j][1] for j in range(7))
        x4 = x + h * sum(_DP_B4[j] * ks[j][0] for j in range(7))
        v4 = v + h * sum(_DP_B4[j] * ks[j][1] for j in range(7))

        if not (math.isfinite(x5) and math.isfinite(v5)):
            _guard(x5, v5, t + h, cfg.overflow_guard)
        scale_x = cfg.abs_tol + cfg.rel_tol * max(abs(x), abs(x5))
        scale_v = cfg.abs_tol + cfg.rel_tol * max(abs(v), abs(v5))
        err = math.sqrt(0.5 * (
            ((x5 - x4) / scale_x) ** 2 + ((v5 - v4) / scale_v) ** 2
        ))

        if err <= 1.0:
            t = t + h
            x, v = x5, v5
            _guard(x, v, t, cfg.overflow_guard)
            k1 = ks[6]  # FSAL: last stage sits at (t + h, y5)
            times.append(t)
            states.append((x, v))
            derivs.append(k1)
            steps += 1
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            rejected += 1
            factor = min(1.0, max(0.2, 0.9 * err ** -0.2))
        h = h * factor

    return Trajectory(
        times=tuple(times), states=tuple(states), derivs=tuple(derivs),
        n_steps=steps, n_rejected=rejected,
    )


def integrate_ode(ode: OdeSpec, x0: float, v0: float, t0: float, t1: float,
                  config: IntegratorConfig = DEFAULT_INTEGRATOR) -> Trajectory:
    """Integrate x'' = rhs(x, x', t) from (x0, v0) at t0 to t1."""
    f = _rhs_callable(ode)
    x0, v0, t0, t1 = float(x0), float(v0), float(t0), float(t1)
    if t0 == t1:
        try:
            a0 = f(x0, v0, t0)
        except EvalDomainError as err:
            raise IntegrationError(
                f"dynamics evaluation failed at t = {t0!r}: {err}"
            ) from err
        return Trajectory(
            times=(t0,), states=((x0, v0),), derivs=(((v0, a0)),),
            n_steps=0, n_rejected=0,
        )
    try:
        return _integrate_dp45(f, x0, v0, t0, t1, config)
    except EvalDomainError as err:
        raise IntegrationError(
            f"dynamics evaluation failed: {err}"
        ) from err


def monitor_quantity(traj: Trajectory, quantity: Expr,
                     params: Mapping[str, float] | None = None) -> list:
    """Evaluate ``quantity(x, v, t)`` at every trajectory node."""
    quantity = as_expr(quantity)
    base = dict(params or {})
    missing = free_vars(quantity) - {"x", "v", "t"} - set(base)
    if missing:
        raise EvalDomainError(f"unbound variables {sorted(missing)}")
    xs, vs = zip(*traj.states)
    return evaluate_points(quantity, {**base, "x": np.array(xs),
                                      "v": np.array(vs),
                                      "t": np.array(traj.times)})
