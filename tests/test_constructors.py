"""Family builders: closed forms, admissibility, controls, cross-checks."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from lagrangeforge import (
    BadExponentError,
    BuilderOptions,
    ConstructionVerificationError,
    DomainBox,
    InadmissibleCoefficientsError,
    Lagrangian,
    NotInvariantError,
    OdeSpec,
    StandardCoeffs,
    ZeroCrossingError,
    a_from_bc,
    build_composed_invariant,
    build_exponential_family,
    build_generalized_kinetic,
    build_monomial,
    build_power_damping,
    build_radical,
    build_radical_equal,
    build_radical_linear,
    build_reciprocal,
    build_reciprocal_autonomous,
    build_reciprocal_linear,
    build_reciprocal_nu2,
    build_standard,
    c_from_ab,
    equivalent_expressions,
    euler_lagrange_residual,
    evaluate,
    implied_acceleration,
    integrate_ode,
    invariant_drift,
    log_velocity_lagrangian,
    monitor_quantity,
    multi_lagrangian_suite,
    n_parameter_lagrangian,
    pairwise_acceleration_gap,
    parse_expression,
    standard_hamiltonian,
    verify_lagrangian,
)
from lagrangeforge.constructors import (
    build_reciprocal_linear_variant,
    build_reciprocal_nu2_variant,
    constraint_defect,
    monomial_admissibility_defect,
    radical_forward_rhs,
    reciprocal_forward_rhs,
)
from lagrangeforge.expressions import Const, Exp, Mul, Pow, Var, simplify

NO_VERIFY = BuilderOptions(verify=False)
POINTS = [(0.4, 0.6, 0.2), (-0.5, 1.3, 0.9), (0.8, 0.3, 1.4)]
# a, b and c whose closure condition fails only on a narrow bump in x
BUMP = (parse_expression("0.5*t"),
        parse_expression("x + exp(-((x - 0.123)/0.02)^2)"), Var("x"))


class TestStandardFamily:
    def test_damped_oscillator_exact_form(self):
        coeffs = StandardCoeffs(Const(0.0), Const(0.3),
                                parse_expression("2.25*x"))
        L = build_standard(coeffs)
        want = parse_expression("0.5*exp(0.3*t)*(v^2 - 2.25*x^2)")
        assert equivalent_expressions(L.expr, want)

    def test_inadmissible_coefficients(self):
        # b_x = t but a_t = 0
        coeffs = StandardCoeffs(Const(0.0), parse_expression("x*t"),
                                Const(0.0))
        with pytest.raises(InadmissibleCoefficientsError):
            build_standard(coeffs)
        # b_x = 1 + a narrow bump at x = 0.123 against a_t = 0.5: the bump's
        # own terms must not be dropped as noise beside the larger ones
        with pytest.raises(InadmissibleCoefficientsError):
            build_standard(StandardCoeffs(*BUMP))

    def test_anchor_shift_is_a_gauge(self):
        coeffs = StandardCoeffs(parse_expression("0.2*x"), Const(0.1),
                                parse_expression("x^2"))
        base = build_standard(coeffs)
        shifted = build_standard(coeffs, BuilderOptions(x0=0.4, t0=0.5))
        assert base.expr != shifted.expr
        for x, v, t in POINTS:
            assert implied_acceleration(base, x, v, t) == pytest.approx(
                implied_acceleration(shifted, x, v, t), rel=1e-9, abs=1e-9
            )

    def test_hamiltonian_matches_energy(self):
        coeffs = StandardCoeffs(Const(0.0), Const(0.3),
                                parse_expression("2.25*x"))
        L = build_standard(coeffs)
        H = standard_hamiltonian(coeffs)
        from lagrangeforge import hamiltonian_value, legendre_momentum

        for x, v, t in POINTS:
            p = legendre_momentum(L, x, v, t)
            want = hamiltonian_value(L, x, v, t)
            got = evaluate(H, {"x": x, "p": p, "t": t})
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


class TestAutonomousReciprocal:
    def test_force_completion_closed_form(self):
        # b = k x with a = 0 forces c = k^2 x^3 / 9 + (2/9) k lam x
        k, lam = 1.3, 0.9
        c = c_from_ab(Const(0.0), parse_expression("1.3*x"), lam=lam)
        for i in range(50):
            xv = -1.0 + 2.0 * i / 49.0
            want = k * k * xv**3 / 9.0 + (2.0 / 9.0) * k * lam * xv
            assert evaluate(c, {"x": xv}) == pytest.approx(want, rel=1e-12,
                                                           abs=1e-14)

    def test_polynomial_completion_is_structurally_admissible(self):
        # with a = 0 every term stays polynomial, so the defect cancels
        # symbolically rather than just numerically
        b = parse_expression("2.0 + 0.5*x^2")
        c = c_from_ab(Const(0.0), b, lam=0.3)
        assert constraint_defect(Const(0.0), b, c) == 0.0

    def test_generic_completion_defect_is_negligible(self):
        a = parse_expression("0.4*x")
        b = parse_expression("2.0 + 0.5*x^2")
        c = c_from_ab(a, b, lam=0.3)
        assert constraint_defect(a, b, c) <= 1e-12

    def test_drag_completion_recovers_zero(self):
        # the triple built from a = 0 must hand back a = 0
        b = parse_expression("1.3*x")
        c = c_from_ab(Const(0.0), b, lam=0.9)
        a = a_from_bc(b, c)
        for xv in (0.3, 0.7, 1.1):
            assert evaluate(a, {"x": xv}) == pytest.approx(0.0, abs=1e-10)

    def test_completed_triples_build(self):
        a = parse_expression("0.2*x")
        b = parse_expression("1.5 + 0.3*x")
        c = c_from_ab(a, b, lam=0.5)
        L = build_reciprocal_autonomous(a, b, c)
        assert L.family == "reciprocal"

    def test_arbitrary_triple_rejected(self):
        with pytest.raises(InadmissibleCoefficientsError):
            build_reciprocal_autonomous(Const(0.0), parse_expression("1.0*x"),
                                        parse_expression("1.0*x"))


class TestDirectReciprocal:
    F = parse_expression("1.0 + 0.3*x^2")
    G = parse_expression("2.0 + 0.1*t + 0.2*x")

    @pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 0.5, -2.0])
    def test_forward_map_is_consistent(self, nu):
        L = build_reciprocal(self.F, self.G, nu, options=NO_VERIFY)
        ode = OdeSpec(reciprocal_forward_rhs(self.F, self.G, nu))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-10

    @pytest.mark.parametrize("nu", [0.0, -1.0])
    def test_degenerate_exponents_rejected(self, nu):
        with pytest.raises(BadExponentError):
            build_reciprocal(self.F, self.G, nu)


class TestTimeDependentLinear:
    def test_constant_damping(self):
        L = build_reciprocal_linear(Const(0.6), Const(0.0), (0.0, 2.0))
        ode = OdeSpec(parse_expression("-0.6*v"))
        for x, v, t in [(0.8, 0.5, 0.3), (1.2, 1.1, 1.7)]:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-5

    def test_growing_stiffness(self):
        b = Const(0.0)
        c = parse_expression("-1.0*t")
        L = build_reciprocal_linear(b, c, (0.1, 2.0))
        ode = OdeSpec(parse_expression("1.0*t*x"))
        worst = 0.0
        for i in range(10):
            tv = 0.1 + 1.9 * i / 9.0
            worst = max(worst, euler_lagrange_residual(L, ode, 0.9, 0.7, tv))
        assert worst <= 1e-5

    def test_degenerate_start_raises(self):
        with pytest.raises(ZeroCrossingError):
            build_reciprocal_linear(Const(0.0), Const(1.0), (0.0, 1.0),
                                    w_init=(0.0, 1.0))

    def test_a_fast_oscillating_spec_builds_and_verifies(self):
        # a polynomial fit of w could not follow these coefficients over
        # [0, 3], and the build failed its residual sweep; w's derivatives
        # now come from its equation, so the build verifies at 1e-8
        b = parse_expression("0.3*sin(9*t)")
        c = parse_expression("4 + 2*cos(7*t)")
        L = build_reciprocal_linear(b, c, (0.0, 3.0))
        ode = OdeSpec(parse_expression(
            "-(0.3*sin(9*t)*v + (4 + 2*cos(7*t))*x)"))
        for x, v, t in [(0.8, 0.5, 0.3), (1.2, 1.1, 2.7)]:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-8

    def test_variant_construction_fails_verification(self):
        Lp = build_reciprocal_linear_variant(Const(0.0),
                                             parse_expression("-1.0*t"),
                                             (0.1, 2.0))
        ode = OdeSpec(parse_expression("1.0*t*x"))
        box = DomainBox(x=(0.5, 1.5), v=(0.2, 2.0), t=(0.1, 2.0),
                        grid=(4, 4, 6), n_random=20, seed=5)
        report = verify_lagrangian(Lp, ode, box, tol=1e-2)
        assert not report.passed
        assert report.max_residual > 1e-2


class TestSeparatedQuadraticDrag:
    a = parse_expression("0.4*x")
    b = parse_expression("0.3 + 0.2*t")

    def test_builds_and_verifies(self):
        L = build_reciprocal_nu2(self.a, self.b)
        ode = OdeSpec(parse_expression("-(0.4*x*v^2 + (0.3 + 0.2*t)*v)"))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-10

    def test_variable_split_enforced(self):
        with pytest.raises(ValueError):
            build_reciprocal_nu2(parse_expression("0.4*t"), self.b)
        with pytest.raises(ValueError):
            build_reciprocal_nu2(self.a, parse_expression("0.3*x"))

    def test_sign_flipped_variant_fails(self):
        Lp = build_reciprocal_nu2_variant(self.a, self.b)
        ode = OdeSpec(parse_expression("-(0.4*x*v^2 + (0.3 + 0.2*t)*v)"))
        box = DomainBox(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
                        grid=(4, 4, 4), n_random=16, seed=7)
        report = verify_lagrangian(Lp, ode, box, tol=1e-2)
        assert not report.passed


class TestMonomialFamily:
    def test_pure_time_member_form(self):
        L = build_monomial(Const(0.0), Const(0.5), Const(0.0), 3.0)
        assert equivalent_expressions(L.expr, parse_expression("v^3*exp(1.0*t)"))

    def test_admissibility(self):
        assert monomial_admissibility_defect(
            parse_expression("0.2*x"), Const(0.3), 3.0
        ) == 0.0
        with pytest.raises(InadmissibleCoefficientsError):
            build_monomial(parse_expression("0.2*t"), Const(0.3), Const(0.0), 3.0)
        # at mu = 2 the closure scan over the box's samples sees the bump
        assert monomial_admissibility_defect(*BUMP[:2], 2.0) > 0.0
        with pytest.raises(InadmissibleCoefficientsError):
            build_monomial(*BUMP, 2.0)

    def test_admissible_time_dependence(self):
        # a = s t matches b = 3 s x / 2 at mu = 3: (mu-1) b_x = 3 s = mu a_t
        a = parse_expression("0.2*t")
        b = parse_expression("0.3*x")
        L = build_monomial(a, b, Const(0.0), 3.0)
        ode = OdeSpec(parse_expression("-(0.2*t*v^2 + 0.3*x*v)"))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-9

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_degenerate_exponents(self, mu):
        with pytest.raises(BadExponentError):
            build_monomial(Const(0.0), Const(0.5), Const(0.0), mu)


class TestPowerDamping:
    def test_cubic_drag_closed_form(self):
        # x'' = -0.4 v^3 admits L = 1/v - 0.8 x
        L = build_power_damping(Const(0.0), Const(0.4), 3.0)
        assert equivalent_expressions(L.expr, parse_expression("v^-1 - 0.8*x"))

    def test_fractional_drag(self):
        L = build_power_damping(Const(0.0), Const(0.3), 0.5)
        ode = OdeSpec(parse_expression("-0.3*v^0.5"))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-10

    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_excluded_exponents(self, nu):
        with pytest.raises(BadExponentError):
            build_power_damping(Const(0.0), Const(0.4), nu)


class TestVelocityPowerSeries:
    @pytest.mark.parametrize("n", [-1.0, 2.0, 3.0, 5.0])
    def test_members_verify(self, n):
        L = n_parameter_lagrangian(n, 0.7)
        ode = OdeSpec(parse_expression("-0.7*v^2"))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-10

    @pytest.mark.parametrize("n", [0.0, 1.0])
    def test_degenerate_members_rejected(self, n):
        with pytest.raises(BadExponentError):
            n_parameter_lagrangian(n, 0.7)

    def test_member_value_is_conserved_along_motion(self):
        L = n_parameter_lagrangian(3.0, 0.7)
        ode = OdeSpec(parse_expression("-0.7*v^2"))
        traj = integrate_ode(ode, 0.0, 1.0, 0.0, 2.0)
        values = monitor_quantity(traj, L.expr)
        spread = max(values) - min(values)
        assert spread <= 1e-8 * (1.0 + abs(values[0]))

    def test_log_velocity_member(self):
        L = log_velocity_lagrangian(0.7)
        ode = OdeSpec(parse_expression("-0.7*v^2"))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-10


class TestGeneralizedKinetic:
    def test_linear_response(self):
        L = build_generalized_kinetic(Const(-0.5), Var("v"))
        want = parse_expression("v*ln(abs(v)) - v + 1 - 0.5*x")
        assert equivalent_expressions(L.expr, want)

    def test_quadratic_response(self):
        L = build_generalized_kinetic(Const(-1.0), parse_expression("v^2"))
        ode = OdeSpec(parse_expression("-v^2"))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-10

    def test_position_dependent_force(self):
        L = build_generalized_kinetic(parse_expression("-(x + 0.2*x^3)"),
                                      parse_expression("2.0 + v^2"))
        ode = OdeSpec(parse_expression("-(x + 0.2*x^3)*(2.0 + v^2)"))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-9

    def test_supplied_kinetic_profile(self):
        # relativistic response with the matching square-root kinetic term
        R = parse_expression("(1 - v^2/9)^1.5")
        psi = parse_expression("-9*(1 - v^2/9)^0.5")
        L = build_generalized_kinetic(Const(-0.4), R, psi=psi)
        ode = OdeSpec(parse_expression("-0.4*(1 - v^2/9)^1.5"))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-9

    def test_wrong_kinetic_profile_rejected(self):
        R = parse_expression("(1 - v^2/9)^1.5")
        with pytest.raises(ValueError):
            build_generalized_kinetic(Const(-0.4), R,
                                      psi=parse_expression("0.5*v^2"))

    def test_numeric_fallback(self):
        # 1/R = e^{v^2} has no elementary antiderivative
        L = build_generalized_kinetic(Const(-0.2),
                                      parse_expression("exp(-(v^2))"))
        ode = OdeSpec(parse_expression("-0.2*exp(-(v^2))"))
        for x, v, t in [(0.4, 0.6, 0.2), (0.8, 1.4, 1.0)]:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-7


class TestRadicalFamily:
    def test_equal_exponent_closed_form(self):
        # a = 0, b = 1, nu = 2 from S0 = 0: radicand -v^2/(2t) + 1/(4t^2)
        box = DomainBox(x=(-1, 1), v=(0.2, 2.0), t=(0.2, 1.5),
                        grid=(4, 4, 4), n_random=16, seed=3)
        L = build_radical_equal(Const(0.0), Const(1.0), 2.0, S0=0.0,
                                options=BuilderOptions(verify_tol=1e-6,
                                                       verify_box=box))
        radicand = simplify(Pow(L.expr, Const(2.0)))
        want = parse_expression("-0.5*v^2/t + 0.25*t^-2")
        assert equivalent_expressions(radicand, want)

    def test_scale_zero_crossing(self):
        with pytest.raises(ZeroCrossingError):
            build_radical_equal(Const(0.0), Const(1.0), 2.0, S0=0.0)

    def test_pure_linear_drag_member(self):
        a = parse_expression("0.4 + 0.1*t")
        L = build_radical_equal(a, Const(0.0), 2.0, S0=1.0)
        ode = OdeSpec(parse_expression("-(0.4 + 0.1*t)*v"))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-8

    @pytest.mark.parametrize("mu", [3.0, 0.5, -2.0])
    def test_linear_radicand(self, mu):
        a = Const(-0.3)
        b = parse_expression("0.2 + 0.1*t")
        L = build_radical_linear(a, b, mu)
        ode = OdeSpec(parse_expression("-0.3*v + 0.2 + 0.1*t"))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-9

    def test_offset_shift_is_a_gauge(self):
        a, b = Const(-0.2), Const(0.1)
        L1 = build_radical_linear(a, b, 3.0, B0=1.0)
        L2 = build_radical_linear(a, b, 3.0, B0=2.0)
        assert L1.expr != L2.expr
        for x, v, t in POINTS:
            assert implied_acceleration(L1, x, v, t) == pytest.approx(
                implied_acceleration(L2, x, v, t), rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("mu,nu", [(3.0, 2.0), (0.5, 3.0), (2.5, 1.5),
                                       (-2.0, 3.0), (2.0, 2.0), (3.0, 1.0)])
    def test_forward_map(self, mu, nu):
        A = parse_expression("1.0 + 0.2*x^2")
        B = parse_expression("2.0 + 0.3*t + 0.1*x")
        L = build_radical(A, B, mu, nu, options=NO_VERIFY)
        ode = OdeSpec(radical_forward_rhs(A, B, mu, nu))
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-9

    @pytest.mark.parametrize("mu,nu", [(0.0, 2.0), (1.0, 2.0), (2.0, 0.0)])
    def test_bad_exponents(self, mu, nu):
        with pytest.raises(BadExponentError):
            build_radical(Const(1.0), Const(1.0), mu, nu)


class TestExponentialProfile:
    def test_default_profile(self):
        L = build_exponential_family(Const(-0.5), Const(0.0), c0=1.0)
        want = parse_expression("exp(-0.5*t)*0.5*(v*exp(0.5*t) + 1)^2")
        assert equivalent_expressions(L.expr, want)

    def test_any_bent_profile_works(self):
        a = parse_expression("-0.3")
        b = parse_expression("0.4 + 0.1*t")
        profiles = [
            parse_expression("0.5*v^2"),
            parse_expression("0.5*v^2 + 0.1*v^4"),
            parse_expression("exp(v)"),
        ]
        members = [
            build_exponential_family(a, b, outer=p, c0=0.5) for p in profiles
        ]
        box = DomainBox(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
                        grid=(4, 4, 4), n_random=16, seed=13)
        assert pairwise_acceleration_gap(members, box) <= 1e-8

    def test_flat_profile_is_degenerate(self):
        with pytest.raises(ConstructionVerificationError) as exc:
            build_exponential_family(Const(-0.3), Const(0.0),
                                     outer=parse_expression("2.0*v + 1"))
        assert exc.value.report is not None

    def test_offset_changes_expression_not_dynamics(self):
        a, b = Const(-0.4), Const(0.2)
        L1 = build_exponential_family(a, b, c0=0.0)
        L2 = build_exponential_family(a, b, c0=1.0)
        assert L1.expr != L2.expr
        for x, v, t in POINTS:
            assert implied_acceleration(L1, x, v, t) == pytest.approx(
                implied_acceleration(L2, x, v, t), rel=1e-10, abs=1e-10
            )


class TestComposedInvariant:
    def _tanh_profile(self):
        e2u = Exp(Mul(Const(2.0), Var("v")))
        return simplify((e2u - Const(1.0)) / (e2u + Const(1.0)))

    def test_bounded_composition(self):
        u = parse_expression("v*exp(0.7*x)")
        ode = OdeSpec(parse_expression("-0.7*v^2"))
        L = build_composed_invariant(u, self._tanh_profile(), ode)
        for x, v, t in POINTS:
            assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-9

    def test_non_invariant_rejected(self):
        u = parse_expression("v*exp(0.9*x)")  # wrong rate for this drag
        ode = OdeSpec(parse_expression("-0.7*v^2"))
        with pytest.raises(NotInvariantError):
            build_composed_invariant(u, self._tanh_profile(), ode)


class TestMultiSuite:
    def test_members_agree_control_does_not(self):
        suite = multi_lagrangian_suite(0.5)
        assert len(suite.members) == 6
        box = DomainBox(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 2.0),
                        grid=(4, 4, 4), n_random=24, seed=17)
        assert pairwise_acceleration_gap(list(suite.members.values()),
                                         box) <= 1e-8
        report = verify_lagrangian(suite.control, suite.ode, box, tol=1e-8)
        assert not report.passed

    def test_member_expressions_differ(self):
        suite = multi_lagrangian_suite(0.5)
        exprs = [m.expr for m in suite.members.values()]
        for i in range(len(exprs)):
            for j in range(i + 1, len(exprs)):
                assert not equivalent_expressions(exprs[i], exprs[j])


class TestBuilderOptions:
    def test_verification_can_be_disabled(self):
        # wrong target dynamics, but no sweep is run
        F = parse_expression("exp(1.0*t)")
        G = parse_expression("exp(0.5*t)")
        wrong = OdeSpec(parse_expression("3.0*x"))
        L = build_reciprocal(F, G, 1.0, ode=wrong, options=NO_VERIFY)
        assert isinstance(L, Lagrangian)

    def test_failure_carries_report(self):
        F = parse_expression("exp(1.0*t)")
        G = parse_expression("exp(0.5*t)")
        wrong = OdeSpec(parse_expression("3.0*x"))
        with pytest.raises(ConstructionVerificationError) as exc:
            build_reciprocal(F, G, 1.0, ode=wrong)
        assert exc.value.report is not None
        assert not exc.value.report.passed


@settings(max_examples=15, deadline=None)
@given(
    a1=st.floats(-0.4, 0.4),
    b0=st.floats(-0.5, 0.5),
    c1=st.floats(-1.0, 1.0),
    c3=st.floats(-0.5, 0.5),
)
def test_random_quadratic_kinetic_draws(a1, b0, c1, c3):
    """Admissible random coefficients always yield a verified construction."""
    coeffs = StandardCoeffs(
        simplify(Const(a1) * Var("x")),
        Const(b0),
        simplify(Const(c1) * Var("x") + Const(c3) * Pow(Var("x"), Const(3.0))),
    )
    L = build_standard(coeffs)
    ode = coeffs.ode()
    for x, v, t in POINTS[:2]:
        assert euler_lagrange_residual(L, ode, x, v, t) <= 1e-8
