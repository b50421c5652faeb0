"""Acceptance suite: ten release gates, each at its stated tolerance.

Every test prints a single ``ACCEPTANCE n: PASS`` line with the measured
figure of merit, so ``pytest -v -s tests/test_acceptance.py`` reads as a
checklist.  Tolerances are asserted, not just reported.
"""
import math
import random
import time

import pytest

from lagrangeforge import (
    BadExponentError,
    BuilderOptions,
    Const,
    DomainBox,
    Exp,
    Lagrangian,
    LagrangeForgeError,
    OdeSpec,
    Pow,
    Var,
    build_composed_invariant,
    build_exponential_family,
    build_generalized_kinetic,
    build_monomial,
    build_power_damping,
    build_radical_equal,
    build_radical_linear,
    build_reciprocal_autonomous,
    build_reciprocal_linear,
    build_reciprocal_nu2,
    build_standard,
    a_from_bc,
    c_from_ab,
    compose_invariant,
    differentiate,
    equivalent_expressions,
    euler_lagrange_residual,
    eval_jet2,
    evaluate,
    integrate_ode,
    invert_momentum,
    legendre_momentum,
    monitor_quantity,
    multi_lagrangian_suite,
    n_parameter_lagrangian,
    pairwise_acceleration_gap,
    parse_expression,
    simplify,
    verify_lagrangian,
    StandardCoeffs,
    ZeroCrossingError,
)
from lagrangeforge.constructors import (
    build_reciprocal_linear_variant,
    build_reciprocal_nu2_variant,
    constraint_defect,
)

X, V, T = Var("x"), Var("v"), Var("t")


def report_pass(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n:02d}: PASS - {detail}")


def poly(rng: random.Random, var, scale: float, bias: float = 0.0,
         degree: int = 3):
    """Bounded random polynomial sum_i c_i var^i with |c_i| <= scale."""
    expr = Const(bias + rng.uniform(-scale, scale))
    for i in range(1, degree + 1):
        expr = expr + Const(rng.uniform(-scale, scale)) * Pow(var, Const(float(i)))
    return simplify(expr)


# --- 1. builder -> verifier round trip -------------------------------------

def _draw_standard(rng, options):
    a = poly(rng, X, 0.3)
    b = poly(rng, T, 0.4)
    c = simplify(poly(rng, X, 0.8) + Const(rng.uniform(-0.3, 0.3)) * T * X)
    return build_standard(StandardCoeffs(a, b, c), options)


def _draw_monomial(rng, options):
    mu = rng.choice([-2.0, -1.0, 0.5, 2.5, 3.0])
    return build_monomial(poly(rng, X, 0.3), poly(rng, T, 0.3),
                          poly(rng, X, 0.5), mu, options)


def _draw_power_damping(rng, options):
    nu = rng.choice([-1.0, -0.5, 0.5, 2.5, 3.0])
    return build_power_damping(poly(rng, X, 0.3), poly(rng, X, 0.5), nu,
                               options)


def _draw_generalized_kinetic(rng, options):
    f = simplify(poly(rng, X, 0.8) + Const(rng.uniform(-0.3, 0.3)) * T)
    R = simplify(Const(rng.uniform(0.6, 1.6))
                 + Const(rng.uniform(0.2, 1.2)) * Pow(V, Const(2.0)))
    return build_generalized_kinetic(f, R, options=options)


def _draw_autonomous_completion(rng, options):
    a = poly(rng, X, 0.25)
    b = simplify(Const(rng.uniform(1.0, 2.0))
                 + Const(rng.uniform(-0.3, 0.3)) * X)
    c = c_from_ab(a, b, lam=rng.uniform(0.0, 1.0))
    return build_reciprocal_autonomous(a, b, c, options)


def _draw_autonomous_from_bc(rng, options):
    b = simplify(Const(rng.uniform(1.0, 2.0))
                 + Const(rng.uniform(-0.3, 0.3)) * X)
    c = simplify(Const(rng.uniform(1.0, 2.0))
                 + Const(rng.uniform(0.0, 0.5)) * X)
    return build_reciprocal_autonomous(a_from_bc(b, c), b, c, options)


def _draw_reciprocal_linear(rng, options):
    b = simplify(Const(rng.uniform(-0.5, 0.5))
                 + Const(rng.uniform(-0.3, 0.3)) * T)
    c = simplify(Const(rng.uniform(-0.8, 0.4))
                 + Const(rng.uniform(-0.3, 0.3)) * T)
    return build_reciprocal_linear(b, c, (0.1, 2.0), options)


def _draw_reciprocal_nu2(rng, options):
    return build_reciprocal_nu2(poly(rng, X, 0.3), poly(rng, T, 0.3), options)


def _draw_radical_equal(rng, options):
    nu = rng.choice([0.5, 2.0, 3.0])
    a = simplify(Const(rng.uniform(-0.2, 0.2))
                 + Const(rng.uniform(-0.1, 0.1)) * T)
    scale = 0.3 / nu
    b = simplify(Const(rng.uniform(-scale, scale))
                 + Const(rng.uniform(-scale / 2, scale / 2)) * T)
    return build_radical_equal(a, b, nu, S0=2.5 + rng.uniform(0.0, 1.0),
                               options=options)


def _draw_radical_linear(rng, options):
    mu = rng.choice([-2.0, 0.5, 2.0, 3.0])
    a = simplify(Const(rng.uniform(-0.3, 0.3))
                 + Const(rng.uniform(-0.2, 0.2)) * T)
    b = simplify(Const(rng.uniform(-0.3, 0.3))
                 + Const(rng.uniform(-0.2, 0.2)) * T)
    return build_radical_linear(a, b, mu, B0=3.0, options=options)


def _draw_exponential(rng, options):
    a = simplify(Const(rng.uniform(-0.4, 0.4))
                 + Const(rng.uniform(-0.2, 0.2)) * T)
    b = simplify(Const(rng.uniform(-0.4, 0.4))
                 + Const(rng.uniform(-0.2, 0.2)) * T)
    outer = simplify(Const(0.5 * rng.uniform(0.5, 2.0)) * Pow(V, Const(2.0))
                     + Const(rng.uniform(-0.5, 0.5)) * V)
    return build_exponential_family(a, b, outer=outer,
                                    c0=rng.uniform(-0.5, 0.5),
                                    options=options)


def _draw_composed(rng, options):
    k = rng.uniform(0.3, 1.2)
    invariant = simplify(V * Exp(Const(k) * X))
    outer = simplify(Const(0.5 * rng.uniform(0.5, 2.0)) * Pow(V, Const(2.0))
                     + Const(rng.uniform(0.0, 0.5)) * V)
    ode = OdeSpec(simplify(Const(-k) * Pow(V, Const(2.0))))
    return build_composed_invariant(invariant, outer, ode, options)


# numerically solved paths get the relaxed tolerance
BUILDER_DRAWS = [
    ("standard", _draw_standard, 1e-6),
    ("monomial", _draw_monomial, 1e-6),
    ("power-damping", _draw_power_damping, 1e-6),
    ("generalized-kinetic", _draw_generalized_kinetic, 1e-6),
    ("autonomous-completion", _draw_autonomous_completion, 1e-6),
    ("autonomous-from-bc", _draw_autonomous_from_bc, 1e-6),
    ("reciprocal-linear", _draw_reciprocal_linear, 1e-5),
    ("reciprocal-nu2", _draw_reciprocal_nu2, 1e-6),
    ("radical-equal", _draw_radical_equal, 1e-6),
    ("radical-linear", _draw_radical_linear, 1e-6),
    ("exponential", _draw_exponential, 1e-6),
    ("composed", _draw_composed, 1e-6),
]

N_DRAWS = 20
MAX_REDRAWS = 8


def test_criterion_01_builder_verifier_round_trip():
    started = time.perf_counter()
    rng = random.Random(20260814)
    for name, draw, tol in BUILDER_DRAWS:
        options = BuilderOptions(verify=True, verify_tol=tol)
        built = 0
        redraws = 0
        while built < N_DRAWS:
            try:
                L = draw(rng, options)
            except ZeroCrossingError:
                # the draw left the family's domain of definition; redraw
                redraws += 1
                assert redraws <= MAX_REDRAWS, f"{name}: too many redraws"
                continue
            assert isinstance(L, Lagrangian), name
            built += 1
        assert built == N_DRAWS, name
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"round trip took {elapsed:.1f} s"
    report_pass(1, f"12 builders x {N_DRAWS} verified draws in {elapsed:.1f} s")


# --- 2. damped harmonic oscillator ------------------------------------------

def test_criterion_02_damped_oscillator_closed_form():
    gamma, omega0 = 0.1, 1.0
    coeffs = StandardCoeffs(Const(0.0), Const(gamma),
                            simplify(Const(omega0**2) * X))
    L = build_standard(coeffs)
    want = parse_expression("0.5*exp(0.1*t)*(v^2 - 1.0*x^2)")
    assert equivalent_expressions(L.expr, want)
    box = DomainBox(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 2.0),
                    grid=(5, 5, 5), n_random=40, seed=11)
    rep = verify_lagrangian(L, coeffs.ode(), box, tol=1e-10)
    assert rep.passed
    assert rep.max_residual < 1e-10
    report_pass(2, f"exact closed form, max residual {rep.max_residual:.2e}")


# --- 3. isochronous-oscillation constraint ----------------------------------

def test_criterion_03_cubic_completion_and_constraint():
    worst_rel = 0.0
    for k, lam in ((1.0, 0.5), (1.3, 0.9), (0.7, 0.2)):
        c = c_from_ab(Const(0.0), simplify(Const(k) * X), lam=lam)
        lam1 = (2.0 / 9.0) * k * lam
        for i in range(50):
            x = 0.3 + 1.5 * i / 49.0
            want = k * k * x**3 / 9.0 + lam1 * x
            got = evaluate(c, {"x": x})
            worst_rel = max(worst_rel, abs(got - want) / abs(want))
    assert worst_rel <= 1e-12

    rng = random.Random(3)
    worst_defect = 0.0
    for _ in range(20):
        a = poly(rng, X, 0.25)
        b = simplify(Const(rng.uniform(1.0, 2.0))
                     + Const(rng.uniform(-0.3, 0.3)) * X)
        c = c_from_ab(a, b, lam=rng.uniform(-1.0, 1.0))
        worst_defect = max(worst_defect, constraint_defect(a, b, c))
    assert worst_defect <= 1e-9
    report_pass(3, f"completion rel err {worst_rel:.2e}, "
                   f"constraint defect {worst_defect:.2e} over 20 pairs")


# --- 4. six equivalent constructions for linear drag -------------------------

def test_criterion_04_multi_lagrangian_equivalence():
    suite = multi_lagrangian_suite(0.5)
    box = DomainBox(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 2.0),
                    grid=(4, 4, 4), n_random=24, seed=17)
    members = list(suite.members.values())
    assert len(members) == 6
    gap = pairwise_acceleration_gap(members, box)
    assert gap <= 1e-8
    control_gap = pairwise_acceleration_gap([suite.control, members[0]], box)
    assert control_gap > 1e-2
    report_pass(4, f"6-way gap {gap:.2e}, control separates at {control_gap:.2e}")


# --- 5. velocity-power series for quadratic drag ------------------------------

def test_criterion_05_n_parameter_family():
    k = 1.0
    ode = OdeSpec(simplify(Const(-k) * Pow(V, Const(2.0))))
    box = DomainBox(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
                    grid=(4, 4, 4), n_random=16, seed=5)
    worst_drift = 0.0
    for n in (-1.0, 2.0, 3.0, 5.0):
        L = n_parameter_lagrangian(n, k)
        rep = verify_lagrangian(L, ode, box, tol=1e-8)
        assert rep.passed, f"n = {n}"
        traj = integrate_ode(ode, 0.0, 1.0, 0.0, 5.0)
        values = monitor_quantity(traj, L.expr)
        worst_drift = max(worst_drift, max(values) - min(values))
    assert worst_drift <= 1e-6
    for n in (0.0, 1.0):
        with pytest.raises(BadExponentError):
            n_parameter_lagrangian(n, k)
    e2u = Exp(simplify(Const(2.0) * V))
    tanh_profile = simplify((e2u - Const(1.0)) / (e2u + Const(1.0)))
    L_tanh = compose_invariant(simplify(V * Exp(Const(k) * X)), ode,
                               tanh_profile)
    rep = verify_lagrangian(L_tanh, ode, box, tol=1e-8)
    assert rep.passed
    report_pass(5, f"n in (-1,2,3,5) verified, drift {worst_drift:.2e}, "
                   "(0,1) rejected, tanh composition verified")


# --- 6. numerically solved linear family on the Airy equation ----------------

def test_criterion_06_airy_equation():
    b, c = Const(0.0), simplify(Const(-1.0) * T)  # x'' = t x
    L = build_reciprocal_linear(b, c, (0.1, 2.0))
    ode = OdeSpec(simplify(T * X))
    box = DomainBox(x=(0.2, 1.2), v=(0.2, 2.0), t=(0.1, 2.0),
                    grid=(4, 4, 6), n_random=20, seed=5)
    rep = verify_lagrangian(L, ode, box, tol=1e-5)
    assert rep.passed
    variant = build_reciprocal_linear_variant(b, c, (0.1, 2.0))
    bad = verify_lagrangian(variant, ode, box, tol=1e-5)
    assert not bad.passed
    assert bad.max_residual > 1e-2
    report_pass(6, f"residual {rep.max_residual:.2e} <= 1e-5, "
                   f"variant control fails at {bad.max_residual:.2e}")


# --- 7. separated quadratic-drag reciprocal form ------------------------------

def test_criterion_07_separated_reciprocal_closed_form():
    k = 1.0
    L = build_reciprocal_nu2(Const(0.0), Const(k))
    want = parse_expression("(exp(3.0*t)*v^2 + exp(1.0*t))^-1")
    assert equivalent_expressions(L.expr, want)
    ode = OdeSpec(simplify(Const(-k) * V))
    box = DomainBox(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
                    grid=(4, 4, 4), n_random=24, seed=7)
    rep = verify_lagrangian(L, ode, box, tol=1e-8)
    assert rep.passed
    variant = build_reciprocal_nu2_variant(Const(0.0), Const(k))
    bad = verify_lagrangian(variant, ode, box, tol=1e-8)
    assert not bad.passed
    # the mirrored construction answers for +k v, so the raw gap is 2|k||v|
    for v in (0.4, 1.0, 1.6):
        res = euler_lagrange_residual(variant, ode, 0.3, v, 0.5)
        want_res = 2.0 * abs(k) * v / (1.0 + abs(k) * v)
        assert res == pytest.approx(want_res, rel=1e-6)
    report_pass(7, f"closed form matches, residual {rep.max_residual:.2e}, "
                   "variant fails at the 2|k||v| scale")


# --- 8. equal-exponent drag ladder --------------------------------------------

def test_criterion_08_radical_equal_exponent():
    box = DomainBox(x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.2, 1.5),
                    grid=(4, 4, 4), n_random=16, seed=3)
    L = build_radical_equal(Const(0.0), Const(1.0), 2.0, S0=0.0,
                            options=BuilderOptions(verify_tol=1e-6,
                                                   verify_box=box))
    ode = OdeSpec(simplify(Const(-1.0) * Pow(V, Const(3.0))))
    rep = verify_lagrangian(L, ode, box, tol=1e-6)
    assert rep.passed

    # implied acceleration must carry no linear-drag component at all
    Lv = differentiate(L.expr, "v")
    a_impl = (differentiate(L.expr, "x")
              - differentiate(Lv, "x") * V
              - differentiate(Lv, "t")) / differentiate(Lv, "v")
    linear_coeff = differentiate(a_impl, "v")
    worst = max(abs(evaluate(linear_coeff, {"x": 0.5, "v": 0.0, "t": t}))
                for t in (0.2, 0.5, 0.9, 1.2, 1.5))
    assert worst <= 1e-8
    report_pass(8, f"residual {rep.max_residual:.2e} <= 1e-6, "
                   f"linear coefficient {worst:.2e} <= 1e-8")


# --- 9. derivative engine integrity -------------------------------------------

def _random_expr(rng: random.Random, depth: int):
    leaves = [X, V, T, Const(rng.uniform(0.3, 1.5))]
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "exp", "ln",
                       "sin", "cos", "sqrt"])
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        return a / (b * b + Const(0.5))
    if kind == "pow":
        return Pow(a * a + Const(0.5), Const(rng.choice([2.0, 3.0, 0.5, -1.0])))
    if kind == "exp":
        return Exp(Const(rng.uniform(-0.8, 0.8)) * a)
    if kind == "ln":
        from lagrangeforge import Ln
        return Ln(a * a + Const(0.5))
    if kind == "sin":
        from lagrangeforge import Sin
        return Sin(a)
    from lagrangeforge import Cos
    return Cos(a)


def _fd_jet(expr, point, h1=1e-5, h2=1e-4):
    names = ("x", "v", "t")

    def f(**shift):
        env = dict(point)
        for name, d in shift.items():
            env[name] += d
        return evaluate(expr, env)

    grad = {}
    for n in names:
        grad[n] = (f(**{n: h1}) - f(**{n: -h1})) / (2 * h1)
    hess = {}
    for i, n in enumerate(names):
        hess[n + n] = (f(**{n: h2}) - 2 * f() + f(**{n: -h2})) / (h2 * h2)
        for m in names[i + 1:]:
            hess[n + m] = (f(**{n: h2, m: h2}) - f(**{n: h2, m: -h2})
                           - f(**{n: -h2, m: h2})
                           + f(**{n: -h2, m: -h2})) / (4 * h2 * h2)
    return grad, hess


def test_criterion_09_jets_and_legendre():
    rng = random.Random(99)
    checked = 0
    worst = 0.0
    while checked < 1000:
        expr = _random_expr(rng, rng.choice([1, 2, 3]))
        point = {"x": rng.uniform(0.4, 1.6), "v": rng.uniform(0.4, 1.6),
                 "t": rng.uniform(0.4, 1.6)}
        try:
            jet = eval_jet2(expr, point)
            values = [jet.f, jet.gx, jet.gv, jet.gt, jet.hxv, jet.hvv, jet.hvt]
            if any(not math.isfinite(z) or abs(z) > 1e3 for z in values):
                continue
            grad, hess = _fd_jet(expr, point)
        except (LagrangeForgeError, ArithmeticError, ValueError):
            continue
        pairs = [
            (jet.gx, grad["x"]), (jet.gv, grad["v"]), (jet.gt, grad["t"]),
            (jet.hvv, hess["vv"]), (jet.hxv, hess["xv"]), (jet.hvt, hess["vt"]),
        ]
        for exact, approx in pairs:
            rel = abs(exact - approx) / (1.0 + abs(exact))
            worst = max(worst, rel)
            assert rel <= 1e-6, f"{expr} at {point}: {exact} vs {approx}"
        checked += 1

    rng = random.Random(7)
    L_list = [
        build_standard(StandardCoeffs(Const(0.0), Const(0.1), X)),
        n_parameter_lagrangian(3.0, 0.4),
    ]
    worst_rt = 0.0
    for i in range(200):
        L = L_list[i % 2]
        x = rng.uniform(-0.8, 0.8)
        v = rng.uniform(0.2, 2.2)
        t = rng.uniform(0.0, 2.0)
        p = legendre_momentum(L, x, v, t)
        v_back = invert_momentum(L, p, x, t, bracket=(0.05, 5.0))
        worst_rt = max(worst_rt, abs(v_back - v))
    assert worst_rt <= 1e-10
    report_pass(9, f"1000 jet checks worst rel {worst:.2e}, "
                   f"Legendre round trip worst {worst_rt:.2e} on 200 points")


# --- 10. closed-form trajectory oracles ---------------------------------------

def test_criterion_10_trajectory_oracles():
    k, v0 = 1.0, 1.0

    started = time.perf_counter()
    traj = integrate_ode(OdeSpec(simplify(Const(-k) * V)), 0.0, v0, 0.0, 1.0)
    t_lin = time.perf_counter() - started
    x_end, v_end = traj.final_state
    x_want = (1.0 - math.exp(-k * 1.0)) / k * v0
    err_lin = max(abs(x_end - x_want), abs(v_end - v0 * math.exp(-k)))
    assert err_lin <= 1e-8
    assert t_lin <= 1.0

    started = time.perf_counter()
    traj = integrate_ode(OdeSpec(simplify(Const(-k) * Pow(V, Const(2.0)))),
                         0.0, v0, 0.0, 1.0)
    t_quad = time.perf_counter() - started
    x_end, v_end = traj.final_state
    v_want = v0 / (1.0 + k * v0 * 1.0)
    x_want = math.log(1.0 + k * v0 * 1.0) / k
    err_quad = max(abs(x_end - x_want), abs(v_end - v_want))
    assert err_quad <= 1e-8
    assert t_quad <= 1.0

    report_pass(10, f"linear drag err {err_lin:.2e} in {t_lin * 1e3:.0f} ms, "
                    f"quadratic drag err {err_quad:.2e} in {t_quad * 1e3:.0f} ms")
