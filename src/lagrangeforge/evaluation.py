"""Numeric evaluation of expressions: plain values and second-order jets.

The rules for each node type are written once, in tables keyed by node type:

* A *value rule* maps operand values to the node's value and owns the node's
  domain check (``_div_value``, ``_pow_value``, ``_exp_value``, ``_ln_value``,
  ``_sqrt_value``, ``_sin_value``, ``_cos_value``; negation and ``abs`` are
  defined everywhere).
* A *derivative rule* maps a function node's operand value to
  ``(f, f', f'')``, built on the node's value rule; a jet applies it through
  :meth:`Jet2.chain`.  Jets add only the checks that values do not need:
  ``sqrt`` and ``abs`` are not differentiable at zero, a variable exponent
  needs a positive base, and a derivative whose denominator rounds to zero
  (``1/u`` divides by ``u**3``, ``ln`` by ``u**2``) is out of domain.

Five entry points read the tables:

* :func:`evaluate` walks the tree and returns a float.
* :func:`compile_callable` builds nested closures once, for ODE right-hand
  sides that are called thousands of times.
* :func:`eval_jet2` returns a :class:`Jet2` carrying the value together with
  the gradient and Hessian with respect to the state variables ``x, v, t``.
  Derivatives are propagated structurally (no finite differences), so they
  are exact up to roundoff.
* :func:`evaluate_field` and :func:`jet_field` do what :func:`evaluate` and
  :func:`eval_jet2` do at every sample point in one tree walk, over float64
  arrays, and return a mask of the points where the scalar walk would
  raise.  Elsewhere their results equal the scalar ones bit for bit.
  :func:`evaluate_points` is :func:`evaluate_field` for scans that need
  every point: it raises where the mask is set.
  ``+ - * /`` and negation run in numpy, which rounds them exactly as
  Python floats do.  Every other rule (``exp``, ``ln``, powers, ``sin``,
  ``cos``, ``sqrt``, ``abs``) runs point by point on Python floats:
  numpy's ``exp``, ``log``, ``power``, ``sin`` and ``cos`` differ from the
  C library's in the last bit on a few percent of inputs, and the scalar
  walks remain the reference.

Integral nodes evaluate by adaptive Gauss-Kronrod quadrature
(:func:`~lagrangeforge.quadrature.integrate_adaptive`), one call per
integral node per walk: every unmasked point gets its own panels, from the
node's base to that point's upper limit.  Each level of bisection
evaluates the integrand once at the nodes of all open panels, with numpy
ufuncs (``_integrand_field``); their domain rules are the scalar ones,
written as masks, and a masked node makes its point's integral undefined.
A point's value never depends on the other points, so the scalar
:func:`evaluate` of an integral, the same call over one point, agrees with
the fields bit for bit.  The jet of an integral node evaluates
its cached symbolic derivatives from
:func:`~lagrangeforge.expressions.differentiate`, which applies the
fundamental theorem of calculus in the integration variable and
differentiates under the integral sign in the others.  Compiled callables
are called one point at a time by the ODE integrator; their integrals start
from the nearest anchor in a per-node cache.
"""
from __future__ import annotations

import bisect
import math
import operator
import threading
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import EvalDomainError, NonDifferentiableError
from .expressions import (
    Abs,
    Add,
    Antideriv,
    Const,
    Cos,
    Div,
    Exp,
    Expr,
    Ln,
    Mul,
    Neg,
    Pow,
    Sin,
    Sqrt,
    Sub,
    Var,
    differentiate,
    free_vars,
)
from .quadrature import integrate_adaptive

__all__ = [
    "Binding",
    "Jet2",
    "compile_callable",
    "definite_integral",
    "evaluate",
    "evaluate_field",
    "evaluate_points",
    "eval_jet2",
    "jet_field",
    "clear_antideriv_cache",
]

Binding = Mapping[str, float]


# --- value rules: one per node type, each owning its domain check ------------

def _div_value(num: float, den: float) -> float:
    if den == 0.0:
        raise EvalDomainError("division by zero")
    return num / den


def _pow_value(base: float, exponent: float) -> float:
    """Real power with explicit domain rules.

    Integer exponents admit negative bases; fractional exponents require a
    positive base; zero cannot be raised to a negative power.
    """
    if base < 0.0 and not (math.isfinite(exponent)
                           and exponent == math.floor(exponent)):
        raise EvalDomainError(
            f"negative base {base!r} with non-integer exponent {exponent!r}"
        )
    if base == 0.0 and exponent < 0.0:
        raise EvalDomainError("zero raised to a negative power")
    try:
        return base ** exponent
    except OverflowError:
        raise EvalDomainError(
            f"overflow computing {base!r} ** {exponent!r}"
        ) from None


def _exp_value(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        raise EvalDomainError(f"overflow computing exp({u!r})") from None


def _ln_value(u: float) -> float:
    if u <= 0.0:
        raise EvalDomainError(f"log of non-positive value {u!r}")
    return math.log(u)


def _sqrt_value(u: float) -> float:
    if u < 0.0:
        raise EvalDomainError(f"square root of negative value {u!r}")
    return math.sqrt(u)


def _sin_value(u: float) -> float:
    try:
        return math.sin(u)
    except ValueError:
        raise EvalDomainError(f"sine of {u!r}") from None


def _cos_value(u: float) -> float:
    try:
        return math.cos(u)
    except ValueError:
        raise EvalDomainError(f"cosine of {u!r}") from None


# The value rule of each node type that has one.  Binary arithmetic nodes hold
# their operands as left/right; Pow holds base/exponent and has its own rule.
_BINARY_VALUE = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
                 Div: _div_value}
_UNARY_VALUE = {Neg: operator.neg, Exp: _exp_value, Ln: _ln_value,
                Sqrt: _sqrt_value, Abs: abs, Sin: _sin_value, Cos: _cos_value}


def evaluate(expr: Expr, binding: Binding) -> float:
    """Evaluate ``expr`` at ``binding``; unbound names and domain violations raise."""
    # constants and binary arithmetic are tested first: they are most of a tree
    kind = type(expr)
    if kind is Const:
        return expr.value
    rule = _BINARY_VALUE.get(kind)
    if rule is not None:
        return rule(evaluate(expr.left, binding), evaluate(expr.right, binding))
    if kind is Var:
        try:
            return float(binding[expr.name])
        except KeyError:
            raise EvalDomainError(f"unbound variable {expr.name!r}") from None
    rule = _UNARY_VALUE.get(kind)
    if rule is not None:
        return rule(evaluate(expr.operand, binding))
    if kind is Pow:
        return _pow_value(evaluate(expr.base, binding),
                          evaluate(expr.exponent, binding))
    if kind is Antideriv:
        return _antideriv_point(expr, binding)
    raise TypeError(f"cannot evaluate node of type {type(expr).__name__}")


# --- closure compilation ----------------------------------------------------
#
# The ODE integrator calls its right-hand side thousands of times; walking the
# tree with a dict binding per call is needlessly slow.  compile_callable
# builds nested closures over positional arguments once, then each call is
# plain float arithmetic.

def compile_callable(
    expr: Expr,
    varnames: Sequence[str],
    env: Mapping[str, float] | None = None,
) -> Callable[..., float]:
    """Compile ``expr`` to a positional-argument callable.

    Its integrals start from the nearest anchor that earlier calls left in
    the antiderivative cache, so each call integrates only over a short gap.

    ``varnames`` become positional parameters; every other free variable must
    appear in ``env`` and is frozen as a constant.
    """
    frozen = dict(env) if env else {}
    names = tuple(varnames)
    for name in sorted(free_vars(expr)):
        if name not in names and name not in frozen:
            raise EvalDomainError(f"unbound variable {name!r}")
    return _compile(expr, names, frozen)


def _compile(expr, names, env):
    kind = type(expr)
    if kind is Const:
        c = expr.value
        return lambda *a: c
    if kind is Var:
        if expr.name in names:
            i = names.index(expr.name)
            return lambda *a: a[i]
        c = float(env[expr.name])
        return lambda *a: c
    if kind is Antideriv:
        def _anti(*a):
            binding = dict(env)
            for i, n in enumerate(names):
                binding[n] = a[i]
            return _antideriv_value(expr, binding)

        return _anti
    # Negation and +, -, * have no domain rule and stay inline: a call
    # through their operator rule costs the integrator at every stage.
    rule = _UNARY_VALUE.get(kind)
    if rule is not None:
        fo = _compile(expr.operand, names, env)
        if kind is Neg:
            return lambda *a: -fo(*a)
        return lambda *a: rule(fo(*a))
    if kind is Pow:
        rule, left, right = _pow_value, expr.base, expr.exponent
    else:
        rule = _BINARY_VALUE.get(kind)
        if rule is None:
            raise TypeError(f"cannot compile node of type {type(expr).__name__}")
        left, right = expr.left, expr.right
    fl = _compile(left, names, env)
    fr = _compile(right, names, env)
    if kind is Add:
        return lambda *a: fl(*a) + fr(*a)
    if kind is Sub:
        return lambda *a: fl(*a) - fr(*a)
    if kind is Mul:
        return lambda *a: fl(*a) * fr(*a)
    return lambda *a: rule(fl(*a), fr(*a))


# --- antiderivative nodes ---------------------------------------------------

def _integrate(integrand: Expr, var: str, lo, hi: np.ndarray,
               env: Mapping) -> np.ndarray:
    """``integrand`` over ``var`` from ``lo`` to each entry of ``hi``.

    ``env`` maps the integrand's other free variables to arrays over the
    entries of ``hi``.  One :func:`integrate_adaptive` call; NaN where the
    integrand is undefined at a node of that entry's panels.
    """
    def at_nodes(z):
        owner = z.owner.ravel()
        columns = {name: column[owner] for name, column in env.items()}
        columns[var] = np.asarray(z).ravel()
        values, bad = _integrand_field(integrand, columns)
        return np.where(bad, math.nan, values).reshape(z.shape)

    return integrate_adaptive(at_nodes, lo, hi)


def _antideriv_field(node: Antideriv, sweep) -> np.ndarray:
    """An integral node at every unmasked point of ``sweep``, in one call."""
    n = len(sweep.bad)
    names = sorted(free_vars(node.integrand) - {node.var})
    if any(name not in sweep.columns for name in (node.var, *names)):
        sweep.bad[:] = True
        return math.nan
    good = np.flatnonzero(~sweep.bad)
    out = np.full(n, math.nan)
    if good.size:
        env = {name: _full(sweep.columns[name], n)[good] for name in names}
        values = _integrate(node.integrand, node.var, node.base,
                            _full(sweep.columns[node.var], n)[good], env)
        sweep.bad[good] |= np.isnan(values)
        out[good] = values
    return out


def _point_env(integrand: Expr, var: str, binding: Binding) -> dict:
    """The integrand's other free variables at ``binding``, in name order."""
    env = {}
    for name in sorted(free_vars(integrand)):
        if name != var:
            if name not in binding:
                raise EvalDomainError(f"unbound variable {name!r}")
            env[name] = float(binding[name])
    return env


def _integral_at(integrand: Expr, var: str, lo: float, hi: float,
                 env: Mapping) -> float:
    """One integral through the batched path; raises where it is undefined."""
    value = _integrate(integrand, var, lo, np.array([hi]),
                       {name: np.array([v]) for name, v in env.items()})[0]
    if math.isnan(value):
        raise EvalDomainError(f"integrand undefined between {lo!r} and {hi!r}")
    return float(value)


def _antideriv_point(node: Antideriv, binding: Binding) -> float:
    """:func:`evaluate` of an integral node: the field rule's call, one point."""
    if node.var not in binding:
        raise EvalDomainError(f"unbound variable {node.var!r}")
    return _integral_at(node.integrand, node.var, node.base,
                        float(binding[node.var]),
                        _point_env(node.integrand, node.var, binding))


_CACHE_LOCK = threading.Lock()
# key -> (sorted upper limits, values at those limits); the base anchor with
# value 0 is always present.  Only compiled callables (compile_callable, the
# ODE right-hand side) use it: they ask for one point per call, so a short gap
# from an anchor is cheaper than a panel from the base.  Every other path
# integrates from the base, so its values do not depend on earlier requests.
# The benchmark reports the cache's size (bench/worker.py), so the cache
# stays until that report goes.
_ANTIDERIV_CACHE: dict = {}
# a new upper limit becomes an anchor only if no anchor lies this close; the
# values returned are exact quadratures either way
_ANCHOR_SPACING = 1e-6


def clear_antideriv_cache() -> None:
    with _CACHE_LOCK:
        _ANTIDERIV_CACHE.clear()


def _antideriv_value(node: Antideriv, binding: Binding) -> float:
    """A compiled callable's integral: from the nearest cached anchor."""
    if node.var not in binding:
        raise EvalDomainError(f"unbound variable {node.var!r}")
    upper = float(binding[node.var])
    env = _point_env(node.integrand, node.var, binding)
    key = (node, tuple(env.items()))

    with _CACHE_LOCK:
        entry = _ANTIDERIV_CACHE.get(key)
        if entry is None:
            entry = ([node.base], [0.0])
            _ANTIDERIV_CACHE[key] = entry
        xs, vals = entry
        i = bisect.bisect_left(xs, upper)
        candidates = [j for j in (i - 1, i) if 0 <= j < len(xs)]
        j = min(candidates, key=lambda j: abs(xs[j] - upper))
        x0, v0 = xs[j], vals[j]

    if upper == x0:
        return v0
    value = v0 + _integral_at(node.integrand, node.var, x0, upper, env)

    with _CACHE_LOCK:
        xs, vals = _ANTIDERIV_CACHE[key]
        i = bisect.bisect_left(xs, upper)
        near = [j for j in (i - 1, i) if 0 <= j < len(xs)]
        if all(abs(xs[j] - upper) > _ANCHOR_SPACING for j in near):
            xs.insert(i, upper)
            vals.insert(i, value)
    return value


def definite_integral(
    expr: Expr,
    var: str,
    lo: float,
    hi: float,
    binding: Binding | None = None,
) -> float:
    """Integrate ``expr`` in ``var`` over [lo, hi], other variables frozen."""
    env = _point_env(expr, var, binding or {})
    return _integral_at(expr, var, float(lo), float(hi), env)


# --- second-order jets ------------------------------------------------------

_STATE = ("x", "v", "t")


class Jet2:
    """Value, gradient and Hessian with respect to ``(x, v, t)``."""

    __slots__ = ("f", "gx", "gv", "gt", "hxx", "hxv", "hxt", "hvv", "hvt", "htt")

    def __init__(self, f=0.0, gx=0.0, gv=0.0, gt=0.0,
                 hxx=0.0, hxv=0.0, hxt=0.0, hvv=0.0, hvt=0.0, htt=0.0):
        self.f = f
        self.gx = gx
        self.gv = gv
        self.gt = gt
        self.hxx = hxx
        self.hxv = hxv
        self.hxt = hxt
        self.hvv = hvv
        self.hvt = hvt
        self.htt = htt

    @property
    def gradient(self) -> tuple:
        return (self.gx, self.gv, self.gt)

    @property
    def hessian(self) -> tuple:
        """Symmetric Hessian rows in (x, v, t) order."""
        return (
            (self.hxx, self.hxv, self.hxt),
            (self.hxv, self.hvv, self.hvt),
            (self.hxt, self.hvt, self.htt),
        )

    def __repr__(self):
        return (f"Jet2(f={self.f!r}, grad=({self.gx!r}, {self.gv!r}, {self.gt!r}))")

    def __add__(self, other):
        return Jet2(
            self.f + other.f,
            self.gx + other.gx, self.gv + other.gv, self.gt + other.gt,
            self.hxx + other.hxx, self.hxv + other.hxv, self.hxt + other.hxt,
            self.hvv + other.hvv, self.hvt + other.hvt, self.htt + other.htt,
        )

    def __sub__(self, other):
        return Jet2(
            self.f - other.f,
            self.gx - other.gx, self.gv - other.gv, self.gt - other.gt,
            self.hxx - other.hxx, self.hxv - other.hxv, self.hxt - other.hxt,
            self.hvv - other.hvv, self.hvt - other.hvt, self.htt - other.htt,
        )

    def __neg__(self):
        return Jet2(
            -self.f,
            -self.gx, -self.gv, -self.gt,
            -self.hxx, -self.hxv, -self.hxt, -self.hvv, -self.hvt, -self.htt,
        )

    def __mul__(self, other):
        u, w = self, other
        return Jet2(
            u.f * w.f,
            u.gx * w.f + u.f * w.gx,
            u.gv * w.f + u.f * w.gv,
            u.gt * w.f + u.f * w.gt,
            u.hxx * w.f + 2.0 * u.gx * w.gx + u.f * w.hxx,
            u.hxv * w.f + u.gx * w.gv + u.gv * w.gx + u.f * w.hxv,
            u.hxt * w.f + u.gx * w.gt + u.gt * w.gx + u.f * w.hxt,
            u.hvv * w.f + 2.0 * u.gv * w.gv + u.f * w.hvv,
            u.hvt * w.f + u.gv * w.gt + u.gt * w.gv + u.f * w.hvt,
            u.htt * w.f + 2.0 * u.gt * w.gt + u.f * w.htt,
        )

    def chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Compose with a scalar function given its value and two derivatives."""
        u = self
        return Jet2(
            f0,
            f1 * u.gx, f1 * u.gv, f1 * u.gt,
            f1 * u.hxx + f2 * u.gx * u.gx,
            f1 * u.hxv + f2 * u.gx * u.gv,
            f1 * u.hxt + f2 * u.gx * u.gt,
            f1 * u.hvv + f2 * u.gv * u.gv,
            f1 * u.hvt + f2 * u.gv * u.gt,
            f1 * u.htt + f2 * u.gt * u.gt,
        )

    def __truediv__(self, other):
        w0 = other.f
        w2 = w0 * w0
        w3 = w2 * w0
        if w3 == 0.0:
            raise EvalDomainError(f"division by {w0!r}: its cube is zero")
        return self * other.chain(1.0 / w0, -1.0 / w2, 2.0 / w3)


# --- derivative rules: (f, f', f'') at the operand value ---------------------

def _exp_rule(u: float) -> tuple:
    e = _exp_value(u)
    return e, e, e


def _ln_rule(u: float) -> tuple:
    f = _ln_value(u)
    uu = u * u
    if uu == 0.0:
        raise EvalDomainError(f"second derivative of log at {u!r} overflows")
    return f, 1.0 / u, -1.0 / uu


def _sqrt_rule(u: float) -> tuple:
    if u == 0.0:
        raise NonDifferentiableError("square root is not differentiable at zero")
    s = _sqrt_value(u)
    su = s * u
    if su == 0.0:
        raise EvalDomainError(f"second derivative of sqrt at {u!r} overflows")
    return s, 0.5 / s, -0.25 / su


def _abs_rule(u: float) -> tuple:
    if u == 0.0:
        raise NonDifferentiableError("absolute value is not differentiable at zero")
    return abs(u), (1.0 if u > 0.0 else -1.0), 0.0


def _sin_rule(u: float) -> tuple:
    s, c = _sin_value(u), _cos_value(u)
    return s, c, -s


def _cos_rule(u: float) -> tuple:
    s, c = _sin_value(u), _cos_value(u)
    return c, -s, -c


_DERIVATIVE_RULES = {Exp: _exp_rule, Ln: _ln_rule, Sqrt: _sqrt_rule,
                     Abs: _abs_rule, Sin: _sin_rule, Cos: _cos_rule}


def _is_constant_jet(j: Jet2) -> bool:
    return (j.gx == 0.0 and j.gv == 0.0 and j.gt == 0.0
            and j.hxx == 0.0 and j.hxv == 0.0 and j.hxt == 0.0
            and j.hvv == 0.0 and j.hvt == 0.0 and j.htt == 0.0)


def _pow_rule(u: float, n: float) -> tuple:
    """(f, f', f'') of u**n for a constant exponent n."""
    # skip undefined derivative terms whose coefficients vanish, so x**2 is
    # fine at x = 0
    f0 = _pow_value(u, n)
    f1 = 0.0 if n == 0.0 else n * _pow_value(u, n - 1.0)
    f2 = 0.0 if n in (0.0, 1.0) else n * (n - 1.0) * _pow_value(u, n - 2.0)
    return f0, f1, f2


def _jet_pow(base: Jet2, exponent: Jet2) -> Jet2:
    if _is_constant_jet(exponent):
        return base.chain(*_pow_rule(base.f, exponent.f))
    # variable exponent: u**w = exp(w * ln u), requires u > 0
    if base.f <= 0.0:
        raise EvalDomainError(f"non-positive base {base.f!r} with variable exponent")
    arg = exponent * base.chain(*_ln_rule(base.f))
    return arg.chain(*_exp_rule(arg.f))


_JET_BINARY = {Add: Jet2.__add__, Sub: Jet2.__sub__, Mul: Jet2.__mul__,
               Div: Jet2.__truediv__}
_VAR_SLOT = {"x": "gx", "v": "gv", "t": "gt"}


def eval_jet2(expr: Expr, binding: Binding) -> Jet2:
    """Evaluate ``expr`` with exact first and second derivatives in (x, v, t).

    Non-state variables in the binding are treated as constants.
    """
    kind = type(expr)
    if kind is Const:
        return Jet2(expr.value)
    rule = _JET_BINARY.get(kind)
    if rule is not None:
        return rule(eval_jet2(expr.left, binding), eval_jet2(expr.right, binding))
    if kind is Var:
        jet = Jet2(evaluate(expr, binding))
        slot = _VAR_SLOT.get(expr.name)
        if slot is not None:
            setattr(jet, slot, 1.0)
        return jet
    rule = _DERIVATIVE_RULES.get(kind)
    if rule is not None:
        u = eval_jet2(expr.operand, binding)
        return u.chain(*rule(u.f))
    if kind is Pow:
        return _jet_pow(eval_jet2(expr.base, binding),
                        eval_jet2(expr.exponent, binding))
    if kind is Neg:
        return -eval_jet2(expr.operand, binding)
    if kind is Antideriv:
        return _jet_antideriv(expr, binding)
    raise TypeError(f"cannot evaluate node of type {type(expr).__name__}")


# Hessian slots of Jet2 in order, as index pairs into _STATE
_HESSIAN_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _antideriv_slots(node: Antideriv) -> tuple:
    """The expressions of an integral's ten jet slots, in Jet2's order."""
    # differentiate applies the fundamental theorem of calculus in node.var
    # and differentiates under the integral sign in the other variables.
    first = [differentiate(node, q) for q in _STATE]
    second = [differentiate(first[i], _STATE[j]) for i, j in _HESSIAN_PAIRS]
    return (node, *first, *second)


def _jet_antideriv(node: Antideriv, binding: Binding) -> Jet2:
    return Jet2(*[evaluate(d, binding) for d in _antideriv_slots(node)])


# --- array sweeps -----------------------------------------------------------
#
# evaluate_field and jet_field run one tree walk over every sample point at
# once.  A value is a float64 array over the points, or a Python float where
# it is the same at all of them (constants, parameters).  The sweep keeps one
# mask of the points at which some node visited so far would have raised;
# after it is set, a point's values are never read, so numpy may compute
# anything there (its warnings are silenced for the walk).  Nodes are visited
# in the scalar order (left before right, base before exponent), and the
# per-point rules and integrals skip masked points, so they do work exactly
# where the scalar walks do.  A vectorised sweep (the integrands) applies the
# numpy rules below instead of the per-point ones.
#
# A sweep walks each distinct subtree once: it keeps every node's value and
# jet, keyed by the node, and returns the kept result when an equal node
# comes again (trees built from Horner polynomials repeat a few subtrees
# hundreds of times).  That is exact.  Equal nodes evaluate identically,
# since Const and Antideriv normalise -0.0 and admit only finite numbers.
# And the mask only grows: the kept result is right at every point unmasked
# when it was computed, which includes every point still unmasked at a
# later visit, and the points it masked are masked already, so the visit
# would add nothing.  Kept arrays are shared, so no rule changes an operand
# in place.  The memo lives as long as its sweep; the scalar walks keep none.

class _Sweep:
    __slots__ = ("columns", "bad", "vectorised", "values", "jets")

    def __init__(self, columns: Mapping, bad, vectorised: bool = False):
        self.columns = columns
        self.vectorised = vectorised
        # each distinct node's value and jet, once walked (see above)
        self.values: dict = {}
        self.jets: dict = {}
        if bad is None:
            bad = np.zeros(len(next(c for c in columns.values()
                                    if isinstance(c, np.ndarray))), dtype=bool)
        self.bad = np.array(bad, dtype=bool)

    def per_point(self, width: int, rule, *operands) -> np.ndarray:
        """``rule`` at every unmasked point, on Python floats; masks where it raises.

        Returns an array of shape (width, n) for a rule returning ``width``
        floats, NaN at masked points.
        """
        good = np.flatnonzero(~self.bad)
        args = [(op[good] if isinstance(op, np.ndarray)
                 else np.full(len(good), op)).tolist() for op in operands]
        kept, results = [], []
        for i, point in zip(good.tolist(), zip(*args)):
            try:
                results.append(rule(*point))
            except EvalDomainError:
                self.bad[i] = True
                continue
            kept.append(i)
        out = np.full((width, len(self.bad)), math.nan)
        if results:
            out[:, kept] = np.array(results, dtype=float).reshape(len(results), width).T
        return out


# --- vectorised value rules: the scalar domain checks as masks ---------------

def _exp_ufunc(u, sweep):
    e = np.exp(u)
    # math.exp raises only where a finite argument overflows
    sweep.bad |= np.isinf(e) & np.isfinite(u)
    return e


def _ln_ufunc(u, sweep):
    sweep.bad |= u <= 0.0
    return np.log(u)


def _sqrt_ufunc(u, sweep):
    sweep.bad |= u < 0.0
    return np.sqrt(u)


def _sin_ufunc(u, sweep):
    sweep.bad |= np.isinf(u)
    return np.sin(u)


def _cos_ufunc(u, sweep):
    sweep.bad |= np.isinf(u)
    return np.cos(u)


def _pow_ufunc(base, exponent, sweep):
    integral = np.isfinite(exponent) & (exponent == np.floor(exponent))
    sweep.bad |= ((base < 0.0) & ~integral) | ((base == 0.0) & (exponent < 0.0))
    p = np.power(base, exponent)
    # Python's float power raises where finite operands overflow
    sweep.bad |= np.isinf(p) & np.isfinite(base) & np.isfinite(exponent)
    return p


_UFUNC_VALUE = {Exp: _exp_ufunc, Ln: _ln_ufunc, Sqrt: _sqrt_ufunc,
                Abs: lambda u, sweep: np.abs(u), Sin: _sin_ufunc, Cos: _cos_ufunc}


def _full(value, n: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value
    return np.full(n, value, dtype=float)


def evaluate_field(expr: Expr, columns: Mapping, bad=None) -> tuple:
    """:func:`evaluate` at every point of ``columns`` in one tree walk.

    ``columns`` maps each state variable to a float64 array over the points
    and each parameter to a float.  ``bad`` optionally marks points already
    excluded; the walk does no per-point work there.  Returns ``(values,
    bad)``: ``bad`` is True exactly where :func:`evaluate` would raise
    :class:`EvalDomainError` (or where it was already True), and ``values``
    equals :func:`evaluate` bit for bit everywhere else.
    """
    return _values(expr, _Sweep(columns, bad))


def _integrand_field(expr: Expr, columns: Mapping) -> tuple:
    """:func:`evaluate_field` with numpy's ufuncs for the per-point rules.

    The mask is :func:`evaluate`'s domain rules, exactly; the values differ
    from :func:`evaluate` in the last bits where numpy and the C library
    round ``exp``, ``log``, powers, ``sin`` and ``cos`` differently.
    Quadrature integrands run through it, a few thousand nodes at a time.
    """
    return _values(expr, _Sweep(columns, None, vectorised=True))


def _values(expr: Expr, sweep: _Sweep) -> tuple:
    with np.errstate(all="ignore"):
        values = _value_walk(expr, sweep)
    return _full(values, len(sweep.bad)), sweep.bad


def evaluate_points(expr: Expr, columns: Mapping) -> list:
    """:func:`evaluate` at every point of ``columns``, as floats in point order.

    One :func:`evaluate_field` walk; raises :class:`EvalDomainError`, naming
    the first such point, if :func:`evaluate` would raise at any point.
    """
    values, bad = evaluate_field(expr, columns)
    if bad.any():
        i = int(np.argmax(bad))
        where = ", ".join(f"{name}={column[i].item()!r}"
                          for name, column in columns.items()
                          if isinstance(column, np.ndarray))
        raise EvalDomainError(f"expression undefined at {where}")
    return values.tolist()


def _value_walk(expr, sweep):
    value = sweep.values.get(expr)
    if value is None:
        value = sweep.values[expr] = _value_node(expr, sweep)
    return value


def _value_node(expr, sweep):
    kind = type(expr)
    if kind is Const:
        return expr.value
    if kind in _BINARY_VALUE:
        left = _value_walk(expr.left, sweep)
        right = _value_walk(expr.right, sweep)
        if kind is Add:
            return left + right
        if kind is Sub:
            return left - right
        if kind is Mul:
            return left * right
        sweep.bad |= right == 0.0
        return np.divide(left, right)
    if kind is Var:
        value = sweep.columns.get(expr.name)
        if value is None:
            sweep.bad[:] = True
            return math.nan
        return value if isinstance(value, np.ndarray) else float(value)
    if kind is Neg:
        return -_value_walk(expr.operand, sweep)
    rule = _UNARY_VALUE.get(kind)
    if rule is not None:
        operand = _value_walk(expr.operand, sweep)
        if sweep.vectorised:
            return _UFUNC_VALUE[kind](operand, sweep)
        return sweep.per_point(1, rule, operand)[0]
    if kind is Pow:
        base = _value_walk(expr.base, sweep)
        exponent = _value_walk(expr.exponent, sweep)
        if sweep.vectorised:
            return _pow_ufunc(base, exponent, sweep)
        return sweep.per_point(1, _pow_value, base, exponent)[0]
    if kind is Antideriv:
        return _antideriv_field(expr, sweep)
    raise TypeError(f"cannot evaluate node of type {type(expr).__name__}")


def jet_field(expr: Expr, columns: Mapping, bad=None) -> tuple:
    """:func:`eval_jet2` at every point of ``columns`` in one tree walk.

    Takes ``columns`` and ``bad`` as :func:`evaluate_field` does.  Returns
    ``(jet, bad)``: ``jet`` is a :class:`Jet2` whose ten slots are float64
    arrays over the points, equal to :func:`eval_jet2` bit for bit wherever
    ``bad`` is False, and ``bad`` is True exactly where :func:`eval_jet2`
    would raise :class:`EvalDomainError` or
    :class:`NonDifferentiableError` (or where it was already True).
    """
    sweep = _Sweep(columns, bad)
    with np.errstate(all="ignore"):
        jet = _jet_walk(expr, sweep)
    n = len(sweep.bad)
    return Jet2(*(_full(s, n) for s in _slots(jet))), sweep.bad


def _slots(jet: Jet2) -> tuple:
    return tuple(getattr(jet, s) for s in Jet2.__slots__)


def _jet_walk(expr, sweep):
    jet = sweep.jets.get(expr)
    if jet is None:
        jet = sweep.jets[expr] = _jet_node(expr, sweep)
    return jet


def _jet_node(expr, sweep):
    kind = type(expr)
    if kind is Const:
        return Jet2(expr.value)
    if kind in _JET_BINARY:
        left = _jet_walk(expr.left, sweep)
        right = _jet_walk(expr.right, sweep)
        if kind is not Div:
            return _JET_BINARY[kind](left, right)
        # Jet2.__truediv__ with its domain check turned into a mask
        w0 = np.asarray(right.f)
        w2 = w0 * w0
        w3 = w2 * w0
        sweep.bad |= w3 == 0.0
        return left * right.chain(1.0 / w0, -1.0 / w2, 2.0 / w3)
    if kind is Var:
        jet = Jet2(_value_walk(expr, sweep))
        slot = _VAR_SLOT.get(expr.name)
        if slot is not None:
            setattr(jet, slot, 1.0)
        return jet
    rule = _DERIVATIVE_RULES.get(kind)
    if rule is not None:
        u = _jet_walk(expr.operand, sweep)
        return u.chain(*sweep.per_point(3, rule, u.f))
    if kind is Pow:
        base = _jet_walk(expr.base, sweep)
        exponent = _jet_walk(expr.exponent, sweep)
        exp_slots = _slots(exponent)
        if not any(isinstance(s, np.ndarray) for s in exp_slots) \
                and _is_constant_jet(exponent):
            return base.chain(*sweep.per_point(3, _pow_rule, base.f, exponent.f))
        # an exponent that varies over the points: the scalar rule per point
        return Jet2(*sweep.per_point(
            10, lambda *p: _slots(_jet_pow(Jet2(*p[:10]), Jet2(*p[10:]))),
            *_slots(base), *exp_slots))
    if kind is Neg:
        return -_jet_walk(expr.operand, sweep)
    if kind is Antideriv:
        return Jet2(*[_value_walk(d, sweep) for d in _antideriv_slots(expr)])
    raise TypeError(f"cannot evaluate node of type {type(expr).__name__}")
