"""Reciprocal-family Lagrangians L = (F x' + G)^(-nu).

Specializations built here:

* direct: caller supplies F, G, nu; the matching dynamics comes from the
  family's forward map.
* autonomous: x'' + a(x) x'^2 + b(x) x' + c(x) = 0 with nu = 1, where the
  coefficients must satisfy c' + (a - b'/b) c = (2/9) b^2; then F = e^{int a}
  and G = 3 c F / b.  Helpers generate compatible coefficient triples from
  two of the three functions.
* time-dependent linear: x'' + b(t) x' + c(t) x = 0 via F = f(t), G = g(t) x
  with f = w^3 for an auxiliary oscillation w; solved numerically and
  represented as a fitted polynomial, then verified.
* quadratic drag with separated damping: x'' + a(x) x'^2 + b(t) x' = 0 via
  nu = 2 with F = exp(2 int a + 3 int b), G = exp(int b).

The *_variant builders construct deliberately different candidates that do
not satisfy the dynamics; they exist as negative controls for the verifier
and are never verified at build time.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from ..errors import (
    BadExponentError,
    InadmissibleCoefficientsError,
    ZeroCrossingError,
)
from ..evaluation import evaluate_points
from ..expressions import (
    Const,
    Div,
    Exp,
    Expr,
    Neg,
    Pow,
    Var,
    differentiate,
    simplify,
)
from ..dynamics import IntegratorConfig, integrate_ode
from ..lagrangian import DomainBox, Lagrangian, OdeSpec, SingularStratum
from ..normal_form import normal_form
from ._symbolic import antiderivative_in
from .common import (
    BuilderOptions,
    DEFAULT_OPTIONS,
    post_verify,
    relative_stratum,
    require_free_of,
)
from .standard import StandardCoeffs

__all__ = [
    "a_from_bc",
    "build_reciprocal",
    "build_reciprocal_autonomous",
    "build_reciprocal_linear",
    "build_reciprocal_linear_variant",
    "build_reciprocal_nu2",
    "build_reciprocal_nu2_variant",
    "c_from_ab",
    "constraint_defect",
    "reciprocal_forward_rhs",
    "reciprocal_linear_rhs",
]

_X, _V, _T = Var("x"), Var("v"), Var("t")


def reciprocal_forward_rhs(F: Expr, G: Expr, nu: float = 1.0) -> Expr:
    """Acceleration implied by L = 1 / (F x'^nu + G)."""
    nu = float(nu)
    if nu in (0.0, -1.0):
        raise BadExponentError(f"exponent nu = {nu!r} degenerates the family")
    Fx, Ft = differentiate(F, "x"), differentiate(F, "t")
    Gx, Gt = differentiate(G, "x"), differentiate(G, "t")
    p = Const(1.0 + nu) * F * Fx
    q = Const(nu) * F * Ft
    r = Const(1.0 + 2.0 * nu) * F * Gx + Const(1.0 - nu) * Fx * G
    s = Const(2.0 * nu) * Gt * F - Const(nu) * G * Ft
    w = G * Gx
    num = (
        p * Pow(_V, Const(2.0 * nu))
        + q * Pow(_V, Const(2.0 * nu - 1.0))
        + r * Pow(_V, Const(nu))
        + s * Pow(_V, Const(nu - 1.0))
        + w
    )
    g = Const(nu * (nu - 1.0)) * F * G
    h = Const(nu * (nu + 1.0)) * Pow(F, Const(2.0))
    den = g * Pow(_V, Const(nu - 2.0)) - h * Pow(_V, Const(2.0 * nu - 2.0))
    return simplify(Div(simplify(num), simplify(den)))


def build_reciprocal(F: Expr, G: Expr, nu: float = 1.0,
                     ode: OdeSpec | None = None,
                     options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """L = 1 / (F x'^nu + G) for the dynamics given by the forward map.

    For fractional or negative nu the verification box keeps v > 0.
    """
    nu = float(nu)
    if nu in (0.0, -1.0):
        raise BadExponentError(f"exponent nu = {nu!r} degenerates the family")
    denom = simplify(F * Pow(_V, Const(nu)) + G)
    L = simplify(Pow(denom, Const(-1.0)))
    lagr = Lagrangian(L, family="reciprocal", gauge=f"nu={nu}")
    if ode is None:
        ode = OdeSpec(reciprocal_forward_rhs(F, G, nu))
    # |d2L/dv2| vanishes where (nu+1) F v^nu = (nu-1) G; exclude both strata
    regularity = simplify(
        Const(nu + 1.0) * F * Pow(_V, Const(nu)) - Const(nu - 1.0) * G
    )
    box = DomainBox(
        x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
        grid=(4, 4, 4), n_random=32, seed=13,
        strata=(relative_stratum(denom), relative_stratum(regularity)),
    )
    return post_verify(lagr, ode, box, options)


# --- autonomous coefficients -------------------------------------------------

def constraint_defect(a: Expr, b: Expr, c: Expr,
                      x_interval: tuple = (0.2, 1.2),
                      n: int = 41) -> float:
    """Max |c' + (a - b'/b) c - (2/9) b^2| over an x grid.

    Returns 0.0 immediately when the defect vanishes structurally.
    """
    defect = simplify(
        differentiate(c, "x")
        + (a - Div(differentiate(b, "x"), b)) * c
        - Const(2.0 / 9.0) * Pow(b, Const(2.0))
    )
    # clearing the 1/b factor keeps the cancellation inside polynomial
    # reach; b * defect == 0 forces defect == 0 wherever b != 0
    cleared = simplify(
        b * differentiate(c, "x")
        + (a * b - differentiate(b, "x")) * c
        - Const(2.0 / 9.0) * Pow(b, Const(3.0))
    )
    if normal_form(cleared) == ():
        return 0.0
    lo, hi = x_interval
    xs = np.array([lo + (hi - lo) * i / (n - 1) for i in range(n)])
    return max([0.0] + [abs(z) for z in evaluate_points(defect, {"x": xs})])


def c_from_ab(a: Expr, b: Expr, lam: float = 0.0, x0: float = 0.0) -> Expr:
    """Force coefficient completing (a, b) to an admissible autonomous triple.

    c = (2/9) b e^{-A} (lam + int_x0^x b e^{A}),  A = int_x0^x a.
    """
    require_free_of(a, ("v", "t"), "coefficient a")
    require_free_of(b, ("v", "t"), "coefficient b")
    A = antiderivative_in(a, "x", x0)
    inner = antiderivative_in(simplify(b * Exp(A)), "x", x0)
    return simplify(
        Const(2.0 / 9.0) * b * Exp(simplify(Neg(A))) * (Const(float(lam)) + inner)
    )


def a_from_bc(b: Expr, c: Expr) -> Expr:
    """Drag coefficient completing (b, c): a = b'/b - c'/c + 2 b^2 / (9 c)."""
    require_free_of(b, ("v", "t"), "coefficient b")
    require_free_of(c, ("v", "t"), "coefficient c")
    return simplify(
        Div(differentiate(b, "x"), b)
        - Div(differentiate(c, "x"), c)
        + Div(Const(2.0 / 9.0) * Pow(b, Const(2.0)), c)
    )


def build_reciprocal_autonomous(a: Expr, b: Expr, c: Expr,
                                options: BuilderOptions = DEFAULT_OPTIONS,
                                constraint_tol: float = 1e-8) -> Lagrangian:
    """L = 1 / (F x' + G) for x'' + a x'^2 + b x' + c = 0, x-only coefficients."""
    for name, expr in (("a", a), ("b", b), ("c", c)):
        require_free_of(expr, ("v", "t"), f"coefficient {name}")
    x_lo, x_hi = (0.2, 1.2)
    if options.verify_box is not None:
        x_lo, x_hi = options.verify_box.x
    defect = constraint_defect(a, b, c, (x_lo, x_hi))
    if defect > constraint_tol:
        raise InadmissibleCoefficientsError(
            f"coefficient constraint violated by {defect:.3e}", defect
        )
    F = Exp(antiderivative_in(a, "x", options.x0))
    G = simplify(Div(Const(3.0) * c * F, b))
    denom = F * _V + G
    L = simplify(Div(Const(1.0), denom))
    lagr = Lagrangian(L, family="reciprocal",
                      gauge=f"nu=1, anchor x0={options.x0}")
    box = DomainBox(
        x=(x_lo, x_hi), v=(0.2, 2.0), t=(0.0, 1.0),
        grid=(5, 5, 2), n_random=24, seed=17,
        strata=(relative_stratum(simplify(denom)),
                SingularStratum(b, 1e-6)),
    )
    return post_verify(lagr, StandardCoeffs(a, b, c).ode(), box, options)


# --- time-dependent linear dynamics -------------------------------------------

def _cheb_nodes(n: int, lo: float, hi: float) -> np.ndarray:
    tau = npcheb.chebpts2(n)
    return 0.5 * (hi - lo) * (tau + 1.0) + lo


def _poly_expr_in_time(coeffs: np.ndarray, lo: float, hi: float) -> Expr:
    """Horner form of a tau-polynomial, tau = (2t - lo - hi)/(hi - lo)."""
    tau = simplify(
        Div(Const(2.0) * _T - Const(lo + hi), Const(hi - lo))
    )
    acc: Expr = Const(float(coeffs[-1]))
    for ck in coeffs[-2::-1]:
        acc = Const(float(ck)) + tau * acc
    return acc


def _fit_time_function(samples_fn, lo: float, hi: float,
                       ladder=(12, 16, 20, 24, 28, 32),
                       fit_tol: float = 5e-8):
    """Fit a smooth scalar function of t on [lo, hi] by one polynomial.

    ``samples_fn(ts)`` must return function values at the sorted points
    ``ts``.  Returns (expr, worst_check_error).
    """
    best = None
    for n in ladder:
        nodes = _cheb_nodes(n, lo, hi)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        ts = np.sort(np.concatenate([nodes, mids]))
        values = dict(zip(ts.tolist(), samples_fn(ts.tolist())))
        node_vals = np.array([values[t] for t in nodes.tolist()])
        tau = npcheb.chebpts2(n)
        series = npcheb.chebfit(tau, node_vals, n - 1)
        poly = npcheb.cheb2poly(series)
        scale = max(1.0, float(np.max(np.abs(node_vals))))
        # check against held-out midpoints
        tau_mid = (2.0 * mids - lo - hi) / (hi - lo)
        fit_mid = np.polynomial.polynomial.polyval(tau_mid, poly)
        err = float(np.max(np.abs(
            fit_mid - np.array([values[t] for t in mids.tolist()])
        ))) / scale
        if best is None or err < best[1]:
            best = (_poly_expr_in_time(poly, lo, hi), err)
        if err <= fit_tol:
            break
    return best


def _ode_time_samples(rhs: Expr, lo: float, init: tuple):
    """Sampler solving w'' = rhs(w, w', t) cumulatively to requested times."""
    ode = OdeSpec(rhs)
    config = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13)

    state = {"t": lo, "w": init[0], "dw": init[1]}

    def samples(ts):
        out = []
        for t_target in ts:
            if t_target < state["t"] - 1e-12:
                raise ValueError("time samples must be non-decreasing")
            if t_target > state["t"]:
                traj = integrate_ode(ode, state["w"], state["dw"],
                                     state["t"], t_target, config)
                state["w"], state["dw"] = traj.final_state
                state["t"] = t_target
            out.append(state["w"])
        return out

    return samples


def reciprocal_linear_rhs(b: Expr, c: Expr) -> Expr:
    """Acceleration -(b(t) x' + c(t) x) of the time-dependent linear family."""
    return simplify(-(b * _V + c * _X))


def build_reciprocal_linear(b: Expr, c: Expr, t_span: tuple,
                            options: BuilderOptions = DEFAULT_OPTIONS,
                            w_init: tuple = (1.0, 0.0)) -> Lagrangian:
    """L = 1 / (f(t) x' + g(t) x) for x'' + b(t) x' + c(t) x = 0.

    Uses f = w^3 where w solves the auxiliary equation
        w'' = (b/3) w' + ((2/3) b' + (2/9) b^2 - c) w
    and g = (2 f b - f') / 3, which reproduces the damping exactly and the
    stiffness to the accuracy of the numerically represented w.  Always
    verifies the result; raises on residuals above the tolerance.
    """
    require_free_of(b, ("x", "v"), "coefficient b")
    require_free_of(c, ("x", "v"), "coefficient c")
    lo, hi = float(t_span[0]), float(t_span[1])
    if not lo < hi:
        raise ValueError("t_span must be a non-empty interval")

    aux_rhs = simplify(
        Div(b, Const(3.0)) * _V
        + (
            Const(2.0 / 3.0) * differentiate(b, "t")
            + Const(2.0 / 9.0) * Pow(b, Const(2.0))
            - c
        ) * _X
    )
    W, fit_err = _fit_time_function(_ode_time_samples(aux_rhs, lo, w_init),
                                    lo, hi)

    ts = np.array([lo + (hi - lo) * i / 200.0 for i in range(201)])
    w_min = min(abs(w) for w in evaluate_points(W, {"t": ts}))
    if w_min < 1e-8:
        raise ZeroCrossingError(
            "auxiliary oscillation crosses zero inside the interval; "
            "choose different initial data or a shorter interval",
            w_min,
        )

    f = Pow(W, Const(3.0))
    g = simplify(Div(Const(2.0) * f * b - differentiate(f, "t"), Const(3.0)))
    denom = f * _V + g * _X
    L = simplify(Div(Const(1.0), denom))
    lagr = Lagrangian(
        L, family="reciprocal-linear",
        gauge=f"w({lo}) = {w_init[0]}, w'({lo}) = {w_init[1]}; "
              f"polynomial fit error {fit_err:.1e}",
        domain_note=f"t in [{lo}, {hi}]",
    )
    box = options.verify_box or DomainBox(
        x=(0.5, 1.5), v=(0.2, 2.0), t=(lo, hi),
        grid=(4, 4, 6), n_random=40, seed=23,
        strata=(relative_stratum(simplify(denom)),),
    )
    opts = replace(options, verify=True,
                   verify_tol=max(options.verify_tol, 1e-5), verify_box=box)
    return post_verify(lagr, OdeSpec(reciprocal_linear_rhs(b, c)), box, opts,
                       mandatory=True)


def build_reciprocal_linear_variant(b: Expr, c: Expr, t_span: tuple,
                                    options: BuilderOptions = DEFAULT_OPTIONS
                                    ) -> Lagrangian:
    """Variant construction for x'' + b x' + c x = 0 that skips the
    auxiliary oscillation: f = exp(int phi) with
    phi(z) = e^{-B(z)} int_0^z (2 b' - c) e^{B}, B = int b, and g = 2 f b - f'.

    Kept as a negative control: its damping coefficient disagrees with the
    target dynamics, so verification is intentionally not run here.
    """
    require_free_of(b, ("x", "v"), "coefficient b")
    require_free_of(c, ("x", "v"), "coefficient c")
    lo, hi = float(t_span[0]), float(t_span[1])

    # Phi' = phi with phi(z) = e^{-B} int_lo^z (2 b' - c) e^{B}; eliminating
    # the inner integral gives the second-order problem
    #     Phi'' = (2 b' - c) - b Phi',  Phi(lo) = Phi'(lo) = 0.
    aux_rhs = simplify(
        Const(2.0) * differentiate(b, "t") - c - b * _V
    )
    Phi_expr, _ = _fit_time_function(
        _ode_time_samples(aux_rhs, lo, (0.0, 0.0)), lo, hi
    )
    f = Exp(Phi_expr)
    g = simplify(Const(2.0) * f * b - differentiate(f, "t"))
    denom = f * _V + g * _X
    L = simplify(Div(Const(1.0), denom))
    return Lagrangian(L, family="reciprocal-linear-variant",
                      domain_note=f"t in [{lo}, {hi}]")


# --- separated quadratic drag via nu = 2 --------------------------------------

def build_reciprocal_nu2(a: Expr, b: Expr,
                         options: BuilderOptions = DEFAULT_OPTIONS) -> Lagrangian:
    """L = 1 / (F x'^2 + G) for x'' + a(x) x'^2 + b(t) x' = 0.

    F = exp(2 int_x0 a + 3 int_t0 b) and G = exp(int_t0 b); this is the
    nu = 2 member of the direct reciprocal family, and the forward map then
    reproduces both coefficients exactly.
    """
    require_free_of(a, ("v", "t"), "coefficient a")
    require_free_of(b, ("v", "x"), "coefficient b")
    Ia = antiderivative_in(a, "x", options.x0)
    Ib = antiderivative_in(b, "t", options.t0)
    F = Exp(simplify(Const(2.0) * Ia + Const(3.0) * Ib))
    G = Exp(simplify(Ib))
    denom = simplify(F * Pow(_V, Const(2.0)) + G)
    L = simplify(Pow(denom, Const(-1.0)))
    lagr = Lagrangian(L, family="reciprocal",
                      gauge=f"nu=2, anchors x0={options.x0}, t0={options.t0}")
    # curvature in v vanishes on the shell 3 F v^2 = G; exclude it as well
    regularity = simplify(Const(3.0) * F * Pow(_V, Const(2.0)) - G)
    box = DomainBox(
        x=(-1.0, 1.0), v=(0.2, 2.0), t=(0.0, 1.5),
        grid=(4, 4, 4), n_random=32, seed=29,
        strata=(relative_stratum(denom), relative_stratum(regularity)),
    )
    return post_verify(lagr, StandardCoeffs(a, b, Const(0.0)).ode(), box,
                       options)


def build_reciprocal_nu2_variant(a: Expr, b: Expr,
                                 options: BuilderOptions = DEFAULT_OPTIONS
                                 ) -> Lagrangian:
    """Sign-flipped variant of :func:`build_reciprocal_nu2` with
    F = exp(-(2 int a + 3 int b)), G = exp(-int b).

    Negative control: it reproduces x'' = +a x'^2 + b x', the mirror of the
    intended dynamics, so it must fail verification; none is run here.
    """
    require_free_of(a, ("v", "t"), "coefficient a")
    require_free_of(b, ("v", "x"), "coefficient b")
    Ia = antiderivative_in(a, "x", options.x0)
    Ib = antiderivative_in(b, "t", options.t0)
    F = Exp(simplify(Neg(Const(2.0) * Ia + Const(3.0) * Ib)))
    G = Exp(simplify(Neg(Ib)))
    L = simplify(Pow(F * Pow(_V, Const(2.0)) + G, Const(-1.0)))
    return Lagrangian(L, family="reciprocal-variant",
                      gauge=f"nu=2, anchors x0={options.x0}, t0={options.t0}")
