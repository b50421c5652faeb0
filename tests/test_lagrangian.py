"""Implied acceleration, verification reports, Legendre structure, gauges."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagrangeforge import (
    DegenerateLagrangianError,
    DomainBox,
    EmptyDomainError,
    EPS_REG,
    BracketError,
    Lagrangian,
    NonMonotoneError,
    NotInvariantError,
    OdeSpec,
    SingularStratum,
    assert_invariant,
    energy_expression,
    euler_lagrange_residual,
    hamiltonian_value,
    implied_acceleration,
    invariant_drift,
    invert_momentum,
    legendre_momentum,
    pairwise_acceleration_gap,
    parse_expression,
    total_derivative_gauge,
    verify_lagrangian,
)
from lagrangeforge.constructors.common import relative_stratum
from lagrangeforge.expressions import Add, Const, simplify, substitute
from lagrangeforge.lagrangian import (
    _acceleration_gap,
    _usable_accelerations,
    largest,
)

POINTS = [(-0.7, 0.4, 0.0), (0.3, -1.1, 0.8), (1.2, 0.9, 1.5), (0.0, 2.0, 0.3)]

# A term that is 0 where exp(700 t)^2 is finite and NaN (inf - inf) from
# t = 0.507 on, plus x * 2 max(t - 0.6, 0), whose x-derivative is a true
# acceleration for t > 0.6 that the NaN hides.  Summed into L or into a
# conserved quantity, it must fail the check rather than be skipped.
E, F = "exp(700*t)", "exp(700*t + 1e-300)"
NAN_HOLE = f"(x*({E}*{E}) - x*({E}*{F})) + x*((t - 0.6) + abs(t - 0.6))"
NAN_BOX = DomainBox(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.0),
                    grid=(4, 4, 4), n_random=32, seed=1)


def with_values(expr, **values):
    """``expr`` with each named parameter replaced by its value, unsimplified."""
    for name, value in values.items():
        expr = substitute(expr, name, Const(value))
    return expr


def damped_oscillator(gamma=0.3, omega_sq=2.25):
    L = parse_expression(
        "0.5*exp(g*t)*(v^2 - w2*x^2)", params=("g", "w2")
    )
    return Lagrangian(with_values(L, g=gamma, w2=omega_sq))


class TestImpliedAcceleration:
    def test_harmonic(self):
        L = Lagrangian(parse_expression("0.5*v^2 - 2*x^2"))
        for x, v, t in POINTS:
            assert implied_acceleration(L, x, v, t) == pytest.approx(-4.0 * x)

    def test_damped_oscillator(self):
        L = damped_oscillator()
        for x, v, t in POINTS:
            want = -0.3 * v - 2.25 * x
            assert implied_acceleration(L, x, v, t) == pytest.approx(
                want, rel=1e-12, abs=1e-12
            )

    def test_cubic_velocity_member(self):
        # L = v^3 e^{2kt} gives linear drag -k v
        L = Lagrangian(parse_expression("v^3*exp(1.0*t)"))
        for x, v, t in POINTS:
            if v == 0.0:
                continue
            assert implied_acceleration(L, x, v, t) == pytest.approx(
                -0.5 * v, rel=1e-12
            )

    def test_linear_lagrangian_is_degenerate(self):
        L = Lagrangian(parse_expression("v + x"))
        with pytest.raises(DegenerateLagrangianError) as exc:
            implied_acceleration(L, 0.1, 0.2, 0.3)
        assert abs(exc.value.l_vv) < EPS_REG

    def test_residual_normalization(self):
        # free particle L against linear drag: |0 - (-k v)| / (1 + k|v|)
        L = Lagrangian(parse_expression("0.5*v^2"))
        ode = OdeSpec(parse_expression("-2.0*v"))
        r = euler_lagrange_residual(L, ode, 0.0, 1.0, 0.0)
        assert r == pytest.approx(2.0 / 3.0, rel=1e-14)


class TestVerifyLagrangian:
    def test_pass_report(self):
        L = damped_oscillator()
        ode = OdeSpec(with_values(
            parse_expression("-(g*v + w2*x)", params=("g", "w2")),
            g=0.3, w2=2.25))
        box = DomainBox(grid=(5, 5, 5), n_random=20, seed=2)
        report = verify_lagrangian(L, ode, box, tol=1e-10)
        assert report.passed
        assert report.max_residual <= 1e-10
        assert report.samples_used == 145
        assert report.samples_skipped == 0
        assert report.regularity_min >= 1.0  # e^{gt} >= 1 on t >= 0
        assert str(report).startswith("PASS")

    def test_fail_report_with_argmax(self):
        L = Lagrangian(parse_expression("0.5*v^2"))
        ode = OdeSpec(parse_expression("-0.5*v"))
        box = DomainBox(grid=(3, 3, 3), n_random=5, seed=4)
        report = verify_lagrangian(L, ode, box, tol=1e-8)
        assert not report.passed
        assert report.max_residual > 0.1
        x, v, t = report.argmax
        assert report.max_residual == pytest.approx(
            euler_lagrange_residual(L, ode, x, v, t)
        )
        assert str(report).startswith("FAIL")

    def test_out_of_domain_points_are_skipped(self):
        # ln(v) member only defined for v > 0; box straddles zero
        L = Lagrangian(parse_expression("v*ln(v) - v - 0.5*x"))
        ode = OdeSpec(parse_expression("0.5*v"))
        box = DomainBox(v=(-1.0, 1.0), grid=(3, 4, 3), n_random=0)
        report = verify_lagrangian(L, ode, box, tol=1e-8)
        assert report.samples_skipped > 0
        assert report.samples_used + report.samples_skipped == 36
        assert any("skipped" in note for note in report.notes)
        # the report keeps the residual field it was computed from
        assert [p for p, _ in report.residuals] == box.sample_points()
        values = [r for _, r in report.residuals]
        assert values.count(None) == report.samples_skipped
        assert max(r for r in values if r is not None) == report.max_residual

    def test_all_points_out_of_domain(self):
        L = Lagrangian(parse_expression("v*ln(v)"))
        ode = OdeSpec(parse_expression("0.0*v"))
        box = DomainBox(v=(-2.0, -1.0), grid=(2, 2, 2), n_random=0)
        with pytest.raises(EmptyDomainError):
            verify_lagrangian(L, ode, box)

    def test_underflowing_jet_denominator_is_skipped(self):
        # L_x divides by (x*1e-170)^2, which is zero for |x| <= 1
        L = Lagrangian(parse_expression("0.5*v^2 + 1/(x*1e-170)"))
        ode = OdeSpec(parse_expression("0*x"))
        with pytest.raises(EmptyDomainError):
            verify_lagrangian(L, ode, DomainBox())
        box = DomainBox(x=(-1.0, 1e110), grid=(3, 3, 3), n_random=0)
        report = verify_lagrangian(L, ode, box)
        assert (report.samples_used, report.samples_skipped) == (18, 9)
        assert {p[0] for p, r in report.residuals if r is None} == {-1.0}

    def test_cosine_of_infinity_is_skipped(self):
        # the argument is finite only on the grid plane x = 0
        L = Lagrangian(parse_expression("0.5*v^2 + cos(1e300*x*x*1e300)"))
        ode = OdeSpec(parse_expression("0*x"))
        report = verify_lagrangian(L, ode, DomainBox())
        assert report.passed and report.samples_used == 49
        assert {p[0] for p, r in report.residuals if r is not None} == {0.0}

    def test_degenerate_region_fails_with_note(self):
        # L_vv = 2 v vanishes inside the box
        L = Lagrangian(parse_expression("v^3/3"))
        ode = OdeSpec(parse_expression("0.0*x"))
        box = DomainBox(v=(-1.0, 1.0), grid=(1, 5, 1), n_random=0)
        report = verify_lagrangian(L, ode, box)
        assert not report.passed
        assert any("degenerate" in note for note in report.notes)

    def test_stratum_excludes_singular_shell(self):
        L = Lagrangian(parse_expression("1/(exp(1.0*t)*v + exp(0.5*t))"))
        ode = OdeSpec(parse_expression("-0.5*v"))
        denom = parse_expression("exp(1.0*t)*v + exp(0.5*t)")
        box = DomainBox(v=(-2.0, 2.0), grid=(3, 9, 5), n_random=40, seed=9,
                        strata=(SingularStratum(denom, 0.05),))
        report = verify_lagrangian(L, ode, box, tol=1e-7)
        assert report.passed

    def test_relative_stratum_keeps_points_outside_the_margin(self):
        # the grid puts a column of points on x = 0.3, inside the margin
        box = DomainBox(x=(-0.7, 1.3), grid=(5, 5, 3), n_random=60, seed=3)
        stratum = relative_stratum(parse_expression("x - 0.3"), 0.03)
        everything = box.sample_points()
        kept = [p for p in everything
                if abs(p[0] - 0.3) / (abs(p[0] - 0.3) + 1.0) > 0.03]
        assert 0 < len(kept) < len(everything)
        assert replace(box, strata=(stratum,)).sample_points() == kept

    def test_a_nan_residual_fails_at_the_first_nan(self):
        L = Lagrangian(parse_expression("0.5*v^2 + " + NAN_HOLE))
        report = verify_lagrangian(L, OdeSpec(parse_expression("0*x")),
                                   NAN_BOX)
        assert not report.passed
        assert math.isnan(report.max_residual)
        nans = [p for p, r in report.residuals
                if r is not None and math.isnan(r)]
        assert len(nans) == 46
        assert report.argmax == nans[0]
        assert report.samples_used == 96 and report.samples_skipped == 0
        assert math.isnan(report.regularity_min)

    def test_everything_excluded_raises(self):
        box = DomainBox(grid=(2, 2, 2), n_random=4,
                        strata=(SingularStratum(Const(0.0), 1.0),))
        with pytest.raises(EmptyDomainError):
            box.sample_points()


class TestGaugeInvariance:
    def test_total_derivative_shift(self):
        L = damped_oscillator()
        M = parse_expression("x^2*t + 0.3*x")
        shifted = Lagrangian(simplify(Add(L.expr, total_derivative_gauge(M))))
        for x, v, t in POINTS:
            assert implied_acceleration(shifted, x, v, t) == pytest.approx(
                implied_acceleration(L, x, v, t), rel=1e-10, abs=1e-10
            )

    def test_scaling_invariance(self):
        L = damped_oscillator()
        scaled = Lagrangian(simplify(Const(7.5) * L.expr))
        for x, v, t in POINTS:
            assert implied_acceleration(scaled, x, v, t) == pytest.approx(
                implied_acceleration(L, x, v, t), rel=1e-12
            )

    def test_gauge_function_must_not_depend_on_velocity(self):
        with pytest.raises(ValueError):
            total_derivative_gauge(parse_expression("x*v"))

    @settings(max_examples=40, deadline=None)
    @given(
        c1=st.floats(-2.0, 2.0),
        c2=st.floats(-2.0, 2.0),
        c3=st.floats(-2.0, 2.0),
    )
    def test_random_polynomial_gauges_never_change_dynamics(self, c1, c2, c3):
        L = Lagrangian(parse_expression("0.5*v^2 - 0.5*x^2"))
        M = simplify(
            Const(c1) * parse_expression("x^2")
            + Const(c2) * parse_expression("x*t")
            + Const(c3) * parse_expression("t^3")
        )
        shifted = Lagrangian(simplify(Add(L.expr, total_derivative_gauge(M))))
        for x, v, t in POINTS[:2]:
            assert implied_acceleration(shifted, x, v, t) == pytest.approx(
                -x, rel=1e-9, abs=1e-9
            )


class TestLegendre:
    def test_momentum_of_quadratic_kinetic(self):
        L = damped_oscillator()
        for x, v, t in POINTS:
            p = legendre_momentum(L, x, v, t)
            assert p == pytest.approx(math.exp(0.3 * t) * v, rel=1e-12)

    def test_invert_affine_momentum(self):
        # p = 2 v + 1, so p = 5 inverts to v = 2
        L = Lagrangian(parse_expression("v^2 + v"))
        assert invert_momentum(L, 5.0, 0.0, 0.0) == pytest.approx(2.0, abs=1e-11)

    def test_invert_logarithmic_momentum(self):
        # L = v ln(v) - v has p = ln(v); v = e^p
        L = Lagrangian(parse_expression("v*ln(v) - v"))
        for p in (-0.5, 0.0, 1.0):
            v = invert_momentum(L, p, 0.0, 0.0, bracket=(1e-3, 10.0))
            assert v == pytest.approx(math.exp(p), rel=1e-10)

    def test_round_trip_on_dense_grid(self):
        L = damped_oscillator()
        count = 0
        for i in range(200):
            x = -1.0 + 2.0 * (i % 10) / 9.0
            v = -1.8 + 3.6 * (i % 20) / 19.0
            t = 1.5 * (i % 7) / 6.0
            p = legendre_momentum(L, x, v, t)
            back = invert_momentum(L, p, x, t, bracket=(-5.0, 5.0))
            assert abs(back - v) <= 1e-10 * (1.0 + abs(v))
            count += 1
        assert count == 200

    def test_unbracketed_momentum(self):
        L = Lagrangian(parse_expression("0.5*v^2"))
        with pytest.raises(BracketError):
            invert_momentum(L, 50.0, 0.0, 0.0, bracket=(-1.0, 1.0))

    def test_nonmonotone_momentum(self):
        L = Lagrangian(parse_expression("v^3/3"))
        with pytest.raises(NonMonotoneError):
            invert_momentum(L, 0.2, 0.0, 0.0, bracket=(-1.0, 1.0))

    def test_hamiltonian_value_matches_energy_expression(self):
        L = damped_oscillator()
        h_expr = energy_expression(L.expr)
        from lagrangeforge import evaluate

        for x, v, t in POINTS:
            assert hamiltonian_value(L, x, v, t) == pytest.approx(
                evaluate(h_expr, {"x": x, "v": v, "t": t}), rel=1e-12
            )


class TestInvariants:
    def test_energy_conserved_without_damping(self):
        L = Lagrangian(parse_expression("0.5*v^2 - 1.125*x^2"))
        ode = OdeSpec(parse_expression("-2.25*x"))
        drift = invariant_drift(energy_expression(L.expr), ode,
                                DomainBox(grid=(5, 5, 3), n_random=10))
        assert drift <= 1e-12

    def test_energy_drifts_with_damping(self):
        L = Lagrangian(parse_expression("0.5*v^2 - 1.125*x^2"))
        ode = OdeSpec(parse_expression("-2.25*x - 0.4*v"))
        with pytest.raises(NotInvariantError):
            assert_invariant(energy_expression(L.expr), ode,
                             DomainBox(grid=(5, 5, 3), n_random=10), tol=1e-8)

    def test_drag_invariant(self):
        # u = v e^{kx} is constant along x'' = -k v^2
        u = parse_expression("v*exp(0.7*x)")
        ode = OdeSpec(parse_expression("-0.7*v^2"))
        rate = assert_invariant(u, ode, DomainBox(grid=(4, 4, 2), n_random=16),
                                tol=1e-10)
        assert rate <= 1e-10

    def test_a_nan_drift_is_not_invariant(self):
        u = parse_expression("v*exp(0.5*x) + " + NAN_HOLE)
        ode = OdeSpec(parse_expression("-0.5*v^2"))
        assert math.isnan(invariant_drift(u, ode, NAN_BOX))
        with pytest.raises(NotInvariantError):
            assert_invariant(u, ode, NAN_BOX)


class TestPairwiseGap:
    def test_identical_members_agree(self):
        L = damped_oscillator()
        other = Lagrangian(simplify(Const(3.0) * L.expr))
        box = DomainBox(grid=(4, 4, 4), n_random=10)
        assert pairwise_acceleration_gap([L, other], box) <= 1e-13

    def test_conflicting_members_disagree(self):
        a = Lagrangian(parse_expression("0.5*v^2"))
        b = Lagrangian(parse_expression("0.5*exp(0.8*t)*v^2"))
        box = DomainBox(v=(0.5, 1.5), grid=(3, 3, 3), n_random=5)
        assert pairwise_acceleration_gap([a, b], box) > 0.1

    def test_single_member_is_trivially_consistent(self):
        box = DomainBox(grid=(2, 2, 2), n_random=0)
        assert pairwise_acceleration_gap(
            [Lagrangian(parse_expression("0.5*v^2"))], box
        ) == 0.0


    def test_a_nan_regularity_gives_a_nan_gap(self):
        # |L_vv| is NaN wherever the hole is: abs(nan) < EPS_REG is False,
        # so those points are usable, and their acceleration is NaN
        L = Lagrangian(parse_expression("0.5*v^2 + " + NAN_HOLE))
        points = NAN_BOX.sample_points()
        accels, usable = _usable_accelerations(L, NAN_BOX.sample_columns())
        assert usable.all()
        nans = [p for p, a in zip(points, accels.tolist()) if math.isnan(a)]
        assert len(nans) == 46
        assert all(math.isnan(L.jet(*p).hvv) for p in nans)
        other = Lagrangian(parse_expression("0.5*v^2"))
        assert math.isnan(pairwise_acceleration_gap([L, other], NAN_BOX))
        assert math.isnan(pairwise_acceleration_gap([other, L], NAN_BOX))

    # (accelerations, usable masks), one row per field; an unusable point's
    # acceleration is NaN, as _usable_accelerations gives it out of domain
    @pytest.mark.parametrize("fields", [
        ([[1.0, 2.0, math.nan], [1.0, 2.5, 1.0]], [[1, 1, 1], [1, 1, 1]]),
        ([[1.0, math.nan, 2.0], [1.0, 1.0, 2.5]], [[1, 1, 1], [1, 1, 1]]),
        ([[math.nan, math.nan, 2.0], [1.0, 1.0, math.nan]],
         [[0, 1, 1], [1, 1, 0]]),
    ])
    def test_a_nan_gap_is_nan(self, fields):
        accels, usable = fields
        assert math.isnan(_acceleration_gap(accels, np.array(usable, bool)))

    def test_points_where_a_field_is_undefined_are_skipped(self):
        usable = np.array([[0, 1, 1], [1, 1, 1]], bool)
        assert _acceleration_gap([[math.nan, 1.0, 3.0], [0.0, 1.0, 1.0]],
                                 usable) == 0.5
        with pytest.raises(EmptyDomainError):
            _acceleration_gap([[math.nan, 1.0], [1.0, math.nan]],
                              np.array([[0, 1], [1, 0]], bool))


class TestLargest:
    def test_ties_give_the_first_index(self):
        assert largest([1.0, 3.0, 2.0, 3.0]) == (3.0, 1)

    def test_the_first_nan_wins(self):
        assert repr(largest([1.0, math.nan, 5.0, math.nan])) == "(nan, 1)"
        assert repr(largest([math.inf, 2.0, math.nan])) == "(nan, 2)"

    def test_the_mask_keeps_indices_of_the_whole_array(self):
        values = [9.0, math.nan, 2.0, 4.0, 4.0]
        keep = [False, False, True, True, True]
        assert largest(values, keep) == (4.0, 3)

    def test_nothing_kept_gives_none(self):
        assert largest([]) is None
        assert largest([1.0, 2.0], [False, False]) is None

    def test_the_value_is_a_python_float(self):
        value, index = largest([0.5, 0.25])
        assert type(value) is float and type(index) is int

