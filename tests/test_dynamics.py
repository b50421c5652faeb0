"""Trajectory integration: endpoint accuracy, dense output, failure modes,
and the cache that solves each problem once per process."""
import math

import pytest

from lagrangeforge import (
    IntegrationError,
    IntegratorConfig,
    OdeSolution,
    OdeSpec,
    OverflowGuardError,
    evaluate,
    integrate_ode,
    monitor_quantity,
    parse_expression,
)
from lagrangeforge import dynamics, evaluation

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

    def test_zero_width_interval_samples_its_one_state(self):
        traj = integrate_ode(HARMONIC, 0.3, 0.7, 1.0, 1.0)
        assert traj.sample(1.0) == (0.3, 0.7)
        with pytest.raises(ValueError, match="outside trajectory range"):
            traj.sample(1.5)


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

    def test_backward_samples(self):
        # from the closed-form state at t = 2 back to t = 0
        x2, v2 = 1.0 - math.exp(-2.0), math.exp(-2.0)
        traj = integrate_ode(LINEAR_DRAG, x2, v2, 2.0, 0.0)
        assert traj.times[-1] < traj.times[0]
        for i, tv in enumerate(traj.times):
            assert traj.sample(tv) == traj.states[i]
        for i in range(50):
            tv = 2.0 * (i + 0.5) / 50.5
            x, v = traj.sample(tv)
            assert x == pytest.approx(1.0 - math.exp(-tv), abs=1e-7)
            assert v == pytest.approx(math.exp(-tv), abs=1e-7)
        with pytest.raises(ValueError):
            traj.sample(-0.5)


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


class TestConfig:
    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_tolerance_must_be_finite(self, field, value):
        # abs_tol=inf would pass every step (x'' = -x over [0, 1] in 3
        # steps); rel_tol=nan would fail only later, as a step underflow
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_the_overflow_guard_must_be_finite_and_positive(self, value):
        # nan would switch the guard off: no comparison with it is true
        with pytest.raises(ValueError, match="overflow_guard"):
            IntegratorConfig(overflow_guard=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 0, -3])
    def test_max_steps_must_be_a_positive_integer(self, value):
        # nan would switch the step limit off: no comparison with it is true
        with pytest.raises(ValueError, match="max_steps"):
            IntegratorConfig(max_steps=value)

    def test_an_integral_float_max_steps_counts_as_the_int(self):
        cfg = IntegratorConfig(max_steps=3.0)
        assert cfg.max_steps == 3 and type(cfg.max_steps) is int
        with pytest.raises(IntegrationError, match="step limit 3 reached"):
            integrate_ode(HARMONIC, 0.0, 1.0, 0.0, 50.0, cfg)

    def test_the_defaults_are_accepted(self):
        IntegratorConfig()
        IntegratorConfig(rel_tol=1e-6, abs_tol=1e-300, overflow_guard=1e300)


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


def hexes(traj) -> tuple:
    """Every stored number of ``traj`` as ``float.hex``, with its counts."""
    def flat(rows):
        return [float(u).hex() for row in rows for u in row]
    return (flat([traj.times]), flat(traj.states), flat(traj.derivs),
            traj.n_steps, traj.n_rejected)


@pytest.fixture
def solves(monkeypatch):
    """The integrations run from here on; the kept ones are dropped first."""
    dynamics._solve.cache_clear()
    made = []
    solve = dynamics._integrate_dp45

    def counted(*args):
        made.append(args[1:])
        return solve(*args)

    monkeypatch.setattr(dynamics, "_integrate_dp45", counted)
    return made


class TestCache:
    def test_a_hit_equals_a_fresh_solve_bit_for_bit(self, solves):
        args = (QUADRATIC_DRAG, 0.0, 1.0, 0.0, 2.0)
        kept = integrate_ode(*args)
        hit = integrate_ode(*args)
        assert len(solves) == 1
        dynamics._solve.cache_clear()
        fresh = integrate_ode(*args)
        assert len(solves) == 2 and fresh is not hit
        assert hexes(hit) == hexes(fresh) == hexes(kept)
        assert hit == fresh and hit.n_steps > 0
        assert not hit.table.flags.writeable

    def test_the_sign_of_a_zero_is_part_of_the_key(self, solves):
        plus = integrate_ode(HARMONIC, 0.0, 1.0, 0.0, 1.0)
        minus = integrate_ode(HARMONIC, -0.0, 1.0, 0.0, 1.0)
        assert len(solves) == 2
        assert dynamics._solve.cache_info().currsize == 2
        assert math.copysign(1.0, plus.states[0][0]) == 1.0
        assert math.copysign(1.0, minus.states[0][0]) == -1.0

    def test_a_failing_problem_raises_on_every_call(self, solves):
        ode = OdeSpec(parse_expression("ln(x)"))
        for _ in range(3):
            with pytest.raises(IntegrationError, match="log of non-positive"):
                integrate_ode(ode, -1.0, 0.0, 0.0, 1.0)
        assert len(solves) == 3
        assert dynamics._solve.cache_info().currsize == 0

    def test_the_cache_is_bounded(self, solves):
        size = dynamics._solve.cache_info().maxsize
        assert size == dynamics._TRAJECTORY_CACHE_SIZE and 0 < size <= 64
        for k in range(size + 4):
            integrate_ode(HARMONIC, 0.0, 1.0 + k, 0.0, 1.0)
        assert dynamics._solve.cache_info().currsize == size
        # the oldest problems went first
        integrate_ode(HARMONIC, 0.0, 1.0 + size + 3, 0.0, 1.0)
        assert len(solves) == size + 4
        integrate_ode(HARMONIC, 0.0, 1.0, 0.0, 1.0)
        assert len(solves) == size + 5

    def test_a_solution_node_and_integrate_ode_share_one_solve(self, solves):
        node = OdeSolution(parse_expression("-0.3*v - x"), 0.0, 1.5, 1.0, 0.0)
        value = evaluate(node, {"t": 0.75})
        traj = integrate_ode(OdeSpec(node.rhs), 1.0, 0.0, 0.0, 1.5,
                             evaluation._SOLUTION_CONFIG)
        assert len(solves) == 1
        assert traj.sample(0.75)[0].hex() == value.hex()
        # another configuration is another problem
        integrate_ode(OdeSpec(node.rhs), 1.0, 0.0, 0.0, 1.5)
        assert len(solves) == 2
