"""Trajectory integration: endpoint accuracy, dense output, failure modes."""
import math

import pytest

from lagrangeforge import (
    IntegrationError,
    IntegratorConfig,
    OdeSpec,
    OverflowGuardError,
    integrate_ode,
    monitor_quantity,
    parse_expression,
)

LINEAR_DRAG = OdeSpec(parse_expression("-1.0*v"))          # v' = -v
QUADRATIC_DRAG = OdeSpec(parse_expression("-1.0*v^2"))     # v' = -v^2
HARMONIC = OdeSpec(parse_expression("-1.0*x"))


class TestEndpointOracles:
    def test_linear_drag_closed_form(self):
        # x(t) = 1 - e^{-t}, v(t) = e^{-t} from (0, 1)
        traj = integrate_ode(LINEAR_DRAG, 0.0, 1.0, 0.0, 1.0)
        x1, v1 = traj.final_state
        assert x1 == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)
        assert v1 == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_quadratic_drag_closed_form(self):
        # v(t) = 1/(1+t), x(t) = ln(1+t) from (0, 1)
        traj = integrate_ode(QUADRATIC_DRAG, 0.0, 1.0, 0.0, 1.0)
        x1, v1 = traj.final_state
        assert v1 == pytest.approx(0.5, abs=1e-10)
        assert x1 == pytest.approx(math.log(2.0), abs=1e-10)

    def test_harmonic_full_period(self):
        traj = integrate_ode(HARMONIC, 0.0, 1.0, 0.0, 2.0 * math.pi)
        x1, v1 = traj.final_state
        assert abs(x1) <= 1e-8
        assert v1 == pytest.approx(1.0, abs=1e-8)

    def test_backward_integration_recovers_start(self):
        fwd = integrate_ode(LINEAR_DRAG, 0.0, 1.0, 0.0, 1.0)
        x1, v1 = fwd.final_state
        back = integrate_ode(LINEAR_DRAG, x1, v1, 1.0, 0.0)
        x0, v0 = back.final_state
        assert x0 == pytest.approx(0.0, abs=1e-9)
        assert v0 == pytest.approx(1.0, abs=1e-9)

    def test_zero_width_interval(self):
        traj = integrate_ode(LINEAR_DRAG, 0.3, 0.7, 1.0, 1.0)
        assert traj.times == (1.0,)
        assert traj.final_state == (0.3, 0.7)


class TestDenseOutput:
    def test_nodes_are_exact(self):
        traj = integrate_ode(LINEAR_DRAG, 0.0, 1.0, 0.0, 1.0)
        for i, tv in enumerate(traj.times):
            x, v = traj.sample(tv)
            assert x == pytest.approx(traj.states[i][0], rel=1e-14, abs=1e-14)
            assert v == pytest.approx(traj.states[i][1], rel=1e-14, abs=1e-14)

    def test_mid_step_against_closed_form(self):
        traj = integrate_ode(LINEAR_DRAG, 0.0, 1.0, 0.0, 2.0)
        for i in range(50):
            tv = 2.0 * (i + 0.5) / 50.5
            x, v = traj.sample(tv)
            assert x == pytest.approx(1.0 - math.exp(-tv), abs=1e-7)
            assert v == pytest.approx(math.exp(-tv), abs=1e-7)

    def test_sample_outside_range_rejected(self):
        traj = integrate_ode(LINEAR_DRAG, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            traj.sample(1.5)


class TestFailureModes:
    def test_overflow_guard(self):
        # v' = v^2 blows up at t = 1 from v(0) = 1
        ode = OdeSpec(parse_expression("v^2"))
        cfg = IntegratorConfig(overflow_guard=1e6)
        with pytest.raises(IntegrationError):
            integrate_ode(ode, 0.0, 1.0, 0.0, 1.5, cfg)

    def test_overflow_guard_type(self):
        ode = OdeSpec(parse_expression("x"))
        cfg = IntegratorConfig(overflow_guard=10.0)
        with pytest.raises(OverflowGuardError):
            integrate_ode(ode, 5.0, 5.0, 0.0, 20.0, cfg)

    def test_max_steps_exhausted(self):
        cfg = IntegratorConfig(max_steps=3)
        with pytest.raises(IntegrationError):
            integrate_ode(HARMONIC, 0.0, 1.0, 0.0, 50.0, cfg)

    def test_domain_error_surfaces_as_integration_error(self):
        ode = OdeSpec(parse_expression("ln(x)"))
        with pytest.raises(IntegrationError):
            integrate_ode(ode, -1.0, 0.0, 0.0, 1.0)


class TestMonitor:
    def test_energy_constant_for_harmonic(self):
        traj = integrate_ode(HARMONIC, 0.3, 0.4, 0.0, 3.0)
        energy = parse_expression("0.5*v^2 + 0.5*x^2")
        values = monitor_quantity(traj, energy)
        want = 0.5 * 0.4**2 + 0.5 * 0.3**2
        assert max(abs(u - want) for u in values) <= 1e-9

    def test_lagrangian_value_constant_along_quadratic_drag(self):
        # L = v^n e^{n k x} is itself a first integral of x'' = -k x'^2
        k, n = 0.7, 3.0
        ode = OdeSpec(parse_expression("-0.7*v^2"))
        traj = integrate_ode(ode, 0.0, 1.0, 0.0, 2.0)
        L = parse_expression("v^3*exp(2.1*x)")
        values = monitor_quantity(traj, L)
        assert max(abs(u - values[0]) for u in values) <= 1e-8 * (
            1.0 + abs(values[0])
        )

    def test_unbound_name_rejected(self):
        traj = integrate_ode(HARMONIC, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(Exception):
            monitor_quantity(traj, parse_expression("g*v", params=("g",)))
