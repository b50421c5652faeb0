"""Numeric evaluation of expressions: plain values and second-order jets.

The rules of each function node type (``/``, powers, ``exp``, ``ln``,
``sqrt``, ``abs``, ``sin`` and ``cos``) are one row of ``_FUNCTIONS``:

* A *domain predicate*, written once for a float and for an array over a
  sweep's points: at one point it decides whether the value rule raises,
  and over a sweep it is the exact mask of those points.
* The C library's function, which the scalar value rule (the node's
  compiled callable) calls after the domain check, and numpy's.
* A *derivative rule* maps the operand value to ``(f, f', f'')``, built on
  the value rule, for a float and an array alike; a jet applies it through
  :meth:`Jet2.chain`.  Jets add only the checks that values do not need:
  ``sqrt`` and ``abs`` are not differentiable at zero, a variable exponent
  needs a positive base, and a derivative whose denominator rounds to zero
  (``1/u`` divides by ``u**3``, ``ln`` by ``u**2``) is out of domain.

Five entry points read the table:

* :func:`evaluate` walks the tree and returns a float.
* :func:`compile_callable` generates one straight-line Python function per
  tree, for ODE right-hand sides that are called thousands of times.
* :func:`evaluate_field` does what :func:`evaluate` does at every sample
  point in one tree walk, over float64 arrays, and returns a mask of the
  points where :func:`evaluate` would raise.  Elsewhere its values equal
  :func:`evaluate`'s bit for bit.  :func:`evaluate_points` is
  :func:`evaluate_field` for scans that need every point: it raises where
  the mask is set.
  Arithmetic, ``/``, ``sqrt`` and ``abs`` run in numpy, which rounds them
  as Python floats do.  The other functions map the C library's function
  over the unmasked points: numpy's differ from it in the last bit on a
  few percent of inputs.  Where a map overflows, that node runs point by
  point through its scalar rule.
* :func:`jet_field` walks the tree once over the sample points for a
  :class:`Jet2`: the value together with the gradient with respect to the
  state variables ``x, v, t`` and the three second derivatives that the
  Euler-Lagrange operator reads, ``L_xv``, ``L_vv`` and ``L_vt``, and the
  mask of the points where a value or derivative rule fails.  Derivatives
  are propagated structurally (no finite differences), so they are exact
  up to roundoff.  :func:`eval_jet2` is the same walk over one point: it
  raises the error of the first rule that fails instead of masking, and
  returns Python floats.

Integral nodes evaluate by adaptive Gauss-Kronrod quadrature
(:func:`~lagrangeforge.quadrature.integrate_adaptive`), at most one call
per integral node per walk: every unmasked point gets its own panels, from
the node's base to that point's upper limit, and points that repeat an
earlier point's limit and variables share its integral.  Each level of
bisection evaluates the integrand once at the nodes of all open panels,
with numpy's functions (``_integrand_field``) under the exact sweeps'
domain masks; a masked node makes its point's integral undefined.
A point's value never depends on the other points.  So a one-point read of
an integral or a solution node, by :func:`evaluate`, a compiled callable or
:func:`definite_integral`, is literally the node's field rule
(``_antideriv_field``, ``_solution_field``) over a sweep of one point
(``_at_point``), which raises where the rule would mask, and it agrees with
the fields bit for bit.  The jet of an integral node evaluates
its cached symbolic derivatives from
:func:`~lagrangeforge.expressions.differentiate`, which applies the
fundamental theorem of calculus in the integration variable and
differentiates under the integral sign in the others.

An ODE-solution node reads one trajectory of its equation over its whole
span, from :func:`~lagrangeforge.dynamics.integrate_ode`, which solves a
problem once per process and keeps it, through the cubic Hermite dense
output that :meth:`~lagrangeforge.dynamics.Trajectory.sample` uses
(:func:`hermite`).  Every entry point reads it through one array routine,
so they agree bit for bit.  Its
jet, like an integral's, evaluates its symbolic derivatives: the rate node,
and for the rate the equation's right-hand side.
"""
from __future__ import annotations

import math
import operator
from typing import Callable, Mapping, NamedTuple, Sequence

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
    OdeSolution,
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
    "ZERO",
    "compile_callable",
    "definite_integral",
    "evaluate",
    "evaluate_field",
    "evaluate_points",
    "eval_jet2",
    "jet_field",
]

Binding = Mapping[str, float]


# --- function nodes: one row of rules per node type --------------------------

class _Function(NamedTuple):
    """The rules of one function node type: a row of ``_FUNCTIONS``.

    ``undefined(*operands)`` is the domain predicate (None: defined
    everywhere) and ``message(*operands)`` its error's text; ``overflow``
    is the text where ``libm``, the C library's function, overflows (None:
    it cannot).  numpy's ``ufunc`` rounds as ``libm`` does where ``exact``.
    ``value``, the scalar value rule, is built from these (:func:`_value_rule`)."""

    libm: Callable
    ufunc: Callable
    derivative: Callable
    exact: bool = False
    undefined: Callable | None = None
    message: Callable | None = None
    overflow: Callable | None = None
    value: Callable | None = None


def _pow_domain(base, exponent):
    """A negative base with an exponent that is not a finite integer, or a
    zero base with a negative exponent."""
    if type(exponent) is not float:
        if isinstance(exponent, np.ndarray):
            integral = np.isfinite(exponent) & (exponent == np.floor(exponent))
            return ((base < 0.0) & ~integral) | ((base == 0.0) & (exponent < 0.0))
        exponent = float(exponent)   # numpy's arithmetic would raise flags
    # one exponent for every point: decide its tests once.  A finite integer
    # leaves no remainder; an infinity or NaN leaves NaN.
    if exponent % 1.0 == 0.0:
        return exponent < 0.0 and base == 0.0
    return base <= 0.0 if exponent < 0.0 else base < 0.0


def _pow_message(base, exponent) -> str:
    return ("zero raised to a negative power" if base == 0.0 else
            f"negative base {base!r} with non-integer exponent {exponent!r}")


def _infinite(u):
    return abs(u) == math.inf


# The derivative rules map an operand value to (f, f', f'').  Each is written
# once, for one point and for a sweep alike: ``u`` is a float or an array over
# the sweep's points, and ``on`` is the walk.  ``on.value(kind, *operands)``
# applies a node type's value rule, and ``on.fail(where, error, message,
# *args)`` raises ``error`` if ``where`` holds at the point (eval_jet2's
# one-point sweep) or masks the points where it holds (a sweep).

def _exp_rule(u, on) -> tuple:
    e = on.value(Exp, u)
    return e, e, e


def _ln_rule(u, on) -> tuple:
    f = on.value(Ln, u)
    uu = u * u
    on.fail(uu == 0.0, EvalDomainError,
            "second derivative of log at {!r} overflows", u)
    return f, 1.0 / u, -1.0 / uu


def _sqrt_rule(u, on) -> tuple:
    on.fail(u == 0.0, NonDifferentiableError,
            "square root is not differentiable at zero")
    s = on.value(Sqrt, u)
    su = s * u
    on.fail(su == 0.0, EvalDomainError,
            "second derivative of sqrt at {!r} overflows", u)
    return s, 0.5 / s, -0.25 / su


def _abs_rule(u, on) -> tuple:
    on.fail(u == 0.0, NonDifferentiableError,
            "absolute value is not differentiable at zero")
    # the sign: 1.0 above zero, -1.0 elsewhere (NaN too), on floats and arrays
    return abs(u), (u > 0.0) * 2.0 - 1.0, 0.0


def _sin_rule(u, on) -> tuple:
    s, c = on.value(Sin, u), on.value(Cos, u)
    return s, c, -s


def _cos_rule(u, on) -> tuple:
    s, c = on.value(Sin, u), on.value(Cos, u)
    return c, -s, -c


def _recip_rule(u, on) -> tuple:
    """(f, f', f'') of 1/u; undefined where u cubed is zero."""
    u2 = u * u
    u3 = u2 * u
    on.fail(u3 == 0.0, EvalDomainError,
            "division by {!r}: its cube is zero", u)
    return 1.0 / u, -1.0 / u2, 2.0 / u3


def _pow_rule(u, n: float, on) -> tuple:
    """(f, f', f'') of u**n for a constant exponent n, a float."""
    # skip undefined derivative terms whose coefficients vanish, so x**2 is
    # fine at x = 0
    f0 = _power(u, n, on)
    f1 = 0.0 if n == 0.0 else n * _power(u, n - 1.0, on)
    f2 = 0.0 if n in (0.0, 1.0) else n * (n - 1.0) * _power(u, n - 2.0, on)
    return f0, f1, f2


def _power(u, n: float, on):
    """u**n by ``on``'s value rule; 1.0 at exponent zero, which is u**0.0 for
    every float u, NaN and infinities included, and where no domain rule
    masks a point.  At exponent one it is ``u``, which the C library's
    ``pow(u, 1.0)`` returns bit for bit, with NaN at the masked points as a
    map leaves them."""
    if n == 0.0:
        return 1.0
    if n == 1.0:
        return np.where(on.bad, math.nan, u) if on.bad.any() else u
    return on.value(Pow, u, n)


_FUNCTIONS = {
    Div: _Function(operator.truediv, np.divide, _recip_rule, exact=True,
                   undefined=lambda num, den: den == 0.0,
                   message="division by zero".format),
    Pow: _Function(operator.pow, np.power, _pow_rule, undefined=_pow_domain,
                   message=_pow_message,
                   overflow="overflow computing {!r} ** {!r}".format),
    Exp: _Function(math.exp, np.exp, _exp_rule,
                   overflow="overflow computing exp({!r})".format),
    Ln: _Function(math.log, np.log, _ln_rule, undefined=lambda u: u <= 0.0,
                  message="log of non-positive value {!r}".format),
    Sqrt: _Function(math.sqrt, np.sqrt, _sqrt_rule, exact=True,
                    undefined=lambda u: u < 0.0,
                    message="square root of negative value {!r}".format),
    Abs: _Function(abs, np.abs, _abs_rule, exact=True),
    Sin: _Function(math.sin, np.sin, _sin_rule, undefined=_infinite,
                   message="sine of {!r}".format),
    Cos: _Function(math.cos, np.cos, _cos_rule, undefined=_infinite,
                   message="cosine of {!r}".format),
}

# Sums, differences and products: one operator on floats, arrays and jets
_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _operands(expr: Expr) -> tuple:
    """A function node's operands, in the order that the walks visit them."""
    kind = type(expr)
    if kind is Div:
        return expr.left, expr.right
    if kind is Pow:
        return expr.base, expr.exponent
    return (expr.operand,)


def evaluate(expr: Expr, binding: Binding) -> float:
    """Evaluate ``expr`` at ``binding``; unbound names and domain violations raise."""
    # constants and arithmetic are tested first: they are most of a tree
    kind = type(expr)
    if kind is Const:
        return expr.value
    rule = _ARITHMETIC.get(kind)
    if rule is not None:
        return rule(evaluate(expr.left, binding), evaluate(expr.right, binding))
    if kind is Var:
        try:
            return float(binding[expr.name])
        except KeyError:
            raise EvalDomainError(f"unbound variable {expr.name!r}") from None
    row = _FUNCTIONS.get(kind)
    if row is not None:
        if kind is Div or kind is Pow:
            a, b = _operands(expr)
            return row.value(evaluate(a, binding), evaluate(b, binding))
        return row.value(evaluate(expr.operand, binding))
    if kind is Neg:
        return -evaluate(expr.operand, binding)
    if kind is Antideriv or kind is OdeSolution:
        return _at_point(expr, free_vars(expr), binding)
    raise TypeError(f"cannot evaluate node of type {type(expr).__name__}")


# --- compiled callables -------------------------------------------------------
#
# The ODE integrator calls its right-hand side thousands of times; walking the
# tree with a dict binding per call is needlessly slow.  compile_callable
# generates one straight-line Python function per tree instead: each distinct
# subtree becomes one local, computed once, in the order in which the scalar
# walk first reaches it, so a call raises where evaluate raises and returns
# its bits.  Equal subtrees evaluate identically (see the sweeps below), so
# computing one once is exact.  A function node runs its row's parts inline,
# less a domain check that a constant operand decides (_defined_by_constant).
# The source holds only generated names: arguments are a0, a1, ..., locals
# t0, t1, ..., and constants, the rows' parts, the nodes that _at_point
# reads and their variables' names are entries of the function's
# namespace, so no user text reaches the compiler.

def compile_callable(expr: Expr, varnames: Sequence[str]) -> Callable[..., float]:
    """Compile ``expr`` to a positional-argument callable.

    Each call integrates its integrals from their bases, as :func:`evaluate`
    does, so a call's value equals :func:`evaluate`'s bit for bit and never
    depends on earlier calls.

    ``varnames`` become the positional parameters, in order, and must cover
    every free variable of ``expr``: a parameter of the tree is one more
    name, or is substituted before compiling.
    """
    names = tuple(varnames)
    for name in sorted(free_vars(expr)):
        if name not in names:
            raise EvalDomainError(f"unbound variable {name!r}")
    return _compile(expr, names)


_INLINE = {Add: "+", Sub: "-", Mul: "*"}


def _compile(expr, names):
    args = [f"a{i}" for i in range(len(names))]
    namespace = {"_Error": EvalDomainError, "_Overflow": OverflowError}
    lines = []
    held = {}   # each distinct node walked so far -> the name holding its value

    def constant(value) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name

    def emit(node) -> str:
        name = held.get(node)
        if name is not None:
            return name
        kind = type(node)
        if kind is Const:
            name = constant(node.value)
        elif kind is Var:
            name = args[names.index(node.name)]
        else:
            overflow = None
            if kind is Antideriv or kind is OdeSolution:
                read = free_vars(node)
                point = ", ".join(f"{constant(var)}: {arg}"
                                  for var, arg in zip(names, args) if var in read)
                text = (f"{constant(_at_point)}({constant(node)}, "
                        f"{constant(read)}, {{{point}}})")
            elif kind in _INLINE:
                left = emit(node.left)
                text = f"{left} {_INLINE[kind]} {emit(node.right)}"
            elif kind in _FUNCTIONS:
                # the row's parts, as _Ln, _Ln_undefined, _Ln_message, ...
                row, rule = _FUNCTIONS[kind], f"_{kind.__name__}"
                namespace[rule] = row.libm
                for part in ("undefined", "message", "overflow"):
                    namespace[f"{rule}_{part}"] = getattr(row, part)
                operands = ", ".join([emit(op) for op in _operands(node)])
                text = f"{rule}({operands})"
                if row.undefined is not None and not _defined_by_constant(node):
                    lines.append(f"    if {rule}_undefined({operands}):\n"
                                 f"        raise _Error({rule}_message({operands}))\n")
                if row.overflow is not None:
                    overflow = f"{rule}_overflow({operands})"
            elif kind is Neg:
                text = f"-{emit(node.operand)}"
            else:
                raise TypeError(f"cannot compile node of type {kind.__name__}")
            name = f"t{len(lines)}"
            line = f"    {name} = {text}\n"
            if overflow is not None:
                line = (f"    try:\n    {line}    except _Overflow:\n"
                        f"        raise _Error({overflow}) from None\n")
            lines.append(line)
        held[node] = name
        return name

    result = emit(expr)
    source = (f"def compiled({', '.join(args)}):\n" + "".join(lines)
              + f"    return {result}\n")
    exec(compile(source, "<compile_callable>", "exec"), namespace)
    return namespace["compiled"]


def _defined_by_constant(node) -> bool:
    """Whether a constant operand alone passes ``node``'s domain check: an
    integral exponent >= 0 (a power of any base), or a nonzero divisor."""
    kind = type(node)
    if kind is Pow and type(node.exponent) is Const:
        n = node.exponent.value
        return n >= 0.0 and n % 1.0 == 0.0
    if kind is Div and type(node.right) is Const:
        return node.right.value != 0.0
    return False


def _value_rule(kind):
    """The scalar value rule of ``kind``'s row: a compiled node over variables."""
    names = ("u", "w")[:len(kind.__match_args__)]
    return _compile(kind(*map(Var, names)), names)


_FUNCTIONS = {kind: row._replace(value=_value_rule(kind))
              for kind, row in _FUNCTIONS.items()}


# --- antiderivative nodes ---------------------------------------------------

def _integrate(integrand: Expr, var: str, lo, hi: np.ndarray,
               env: Mapping) -> np.ndarray:
    """``integrand`` over ``var`` from ``lo`` to each entry of ``hi``.

    ``env`` maps the integrand's other free variables to arrays over the
    entries of ``hi``.  One :func:`integrate_adaptive` call; NaN where the
    integrand is undefined at a node of that entry's panels.

    Entries that repeat an earlier one bit for bit, in ``hi`` and in every
    column of ``env`` (so ``-0.0`` and ``0.0`` differ), are integrated once,
    at their first occurrence, and take its value: an entry's value depends
    on its own limits and variables alone.  The first occurrences keep their
    order, so an error names the panel it names without the repeats.
    """
    scatter = None
    if len(hi) > 1:
        first = _first_occurrences(np.stack((hi, *env.values())).view(np.int64))
        kept = first == np.arange(len(hi))
        if not kept.all():
            # each entry's first occurrence's place among the kept entries
            scatter = (np.cumsum(kept) - 1)[first]
            take = np.flatnonzero(kept)
            hi = hi[take]
            env = {name: column[take] for name, column in env.items()}

    def at_nodes(z):
        owner = z.owner.ravel()
        columns = {name: column[owner] for name, column in env.items()}
        columns[var] = np.asarray(z).ravel()
        values, bad = _integrand_field(integrand, columns)
        return np.where(bad, math.nan, values).reshape(z.shape)

    values = integrate_adaptive(at_nodes, lo, hi)
    return values if scatter is None else values[scatter]


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """For each column of ``keys`` (one row per part of a key), the index of
    the first column equal to it."""
    order = np.lexsort(keys)   # stable: equal keys stay in column order
    ordered = keys[:, order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    first = np.empty(len(order), dtype=np.intp)
    first[order] = order[starts][np.cumsum(starts) - 1]
    return first


def _antideriv_field(node: Antideriv | _Integral, sweep) -> np.ndarray:
    """An integral node at every unmasked point of ``sweep``, in one call.

    An integral that an earlier sweep over the same points computed
    (``sweep.integrals``) is read from it instead.
    """
    n = len(sweep.bad)
    names = sorted(free_vars(node.integrand) - {node.var})
    for name in (node.var, *names):
        if name not in sweep.columns:
            sweep.fail(True, EvalDomainError, "unbound variable {!r}", name)
            return math.nan
    good = np.flatnonzero(~sweep.bad)
    out = np.full(n, math.nan)
    if good.size:
        upper = _full(sweep.columns[node.var], n)
        known = sweep.integrals.get(node)
        if known is not None:
            out[good] = known[good]
        else:
            env = {name: _full(sweep.columns[name], n)[good] for name in names}
            out[good] = _integrate(node.integrand, node.var, node.base,
                                   upper[good], env)
        sweep.fail(np.isnan(out), EvalDomainError,
                   "integrand undefined between {!r} and {!r}", node.base, upper)
    return out


# Nothing in the package reads or writes this dict.  The benchmark's traced
# run (bench/worker.py::_cache_sizes, under --trace 1) reads its size, and
# bench/ changes apart from the package, so the name stays, empty, until
# that read goes.
_ANTIDERIV_CACHE: dict = {}


class _Integral(NamedTuple):
    """An integral as :func:`_antideriv_field` reads it, without the checks
    of an :class:`Antideriv` node, which refuses an infinite base and an
    integrand that nests two integrals."""

    integrand: Expr
    var: str
    base: float


def definite_integral(
    expr: Expr,
    var: str,
    lo: float,
    hi: float,
    binding: Binding | None = None,
) -> float:
    """Integrate ``expr`` in ``var`` over [lo, hi], other variables frozen."""
    return _at_point(_Integral(expr, var, float(lo)), free_vars(expr) | {var},
                     {**(binding or {}), var: hi})


# --- ODE-solution nodes ------------------------------------------------------
#
# dynamics imports this module, so this module cannot import the integrator.
# dynamics sets these three names when it loads: the integrator, the spec
# type it takes and the tolerances of a solve.  A read looks
# ``integrate_ode`` up here, in this module, so a wrapper bound in its place
# (the benchmark's tracer wraps it in every module that binds it) sees it.
# The integrator keeps what it solves, so every read of a solution, and of
# its rate, after the first returns the kept trajectory.
integrate_ode = None
_SPEC_TYPE = None
_SOLUTION_CONFIG = None


def hermite(theta, h, y0, d0, y1, d1):
    """The cubic Hermite interpolant at ``theta`` in [0, 1] of a step of
    width ``h`` from value ``y0`` and slope ``d0`` to ``y1`` and ``d1``.

    Written once for floats and for arrays alike: numpy rounds each
    operation as Python does, so both give the same bits.
    """
    th2 = theta * theta
    th3 = th2 * theta
    h00 = 2.0 * th3 - 3.0 * th2 + 1.0
    h10 = th3 - 2.0 * th2 + theta
    h01 = -2.0 * th3 + 3.0 * th2
    h11 = th3 - th2
    return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1


def _solution_read(node: OdeSolution, t: np.ndarray) -> tuple:
    """``node`` at the times ``t``, a float64 array, and where it is defined.

    A time outside the node's span is undefined, up to a few units in the
    last place of its ends: a box that spans the interval steps its grid
    as ``lo + i * step``, whose last point can round past ``hi``.  Such a
    time reads the end step's interpolant a hair outside it.
    """
    traj = integrate_ode(_SPEC_TYPE(node.rhs), node.w0, node.dw0, node.t0,
                         node.t1, _SOLUTION_CONFIG)
    times, w, dw, _, ddw = traj.table
    slack = 8.0 * math.ulp(max(abs(node.t0), abs(node.t1)))
    inside = (t >= node.t0 - slack) & (t <= node.t1 + slack)
    if not inside.all():
        t = np.where(inside, t, node.t0)   # no work at a time outside
    # the step that holds t: the number of inner step ends at or before t,
    # so the first and last steps take the times before and after them
    i = np.searchsorted(times[1:-1], t, side="right")
    j = i + 1
    y, d = (w, dw) if node.order == 0 else (dw, ddw)
    start = times[i]
    h = times[j] - start
    return hermite((t - start) / h, h, y[i], d[i], y[j], d[j]), inside


def _solution_field(node: OdeSolution, sweep) -> np.ndarray:
    """A solution node at every point of ``sweep``; masks times outside its span."""
    t = sweep.columns.get("t")
    if t is None:
        sweep.fail(True, EvalDomainError, "unbound variable {!r}", "t")
        return math.nan
    t = _full(t, len(sweep.bad))
    values, inside = _solution_read(node, t)
    sweep.fail(~inside, EvalDomainError,
               "time {!r} outside the solution's span [{!r}, {!r}]",
               t, node.t0, node.t1)
    return values


def _at_point(node, names, binding: Binding) -> float:
    """``node``, an integral or a solution, at one point: its field rule
    over a one-point sweep, which raises where the rule would mask.  The
    point binds each name of ``names`` that ``binding`` holds."""
    columns = {name: np.array([float(binding[name])])
               for name in names if name in binding}
    rule = _solution_field if type(node) is OdeSolution else _antideriv_field
    return rule(node, _OnePoint(columns, ZERO))[0].item()


# --- second-order jets ------------------------------------------------------

_STATE = ("x", "v", "t")


class _Zero(float):
    """The type of :data:`ZERO`, a derivative slot that vanishes identically."""

    __slots__ = ()

    def __new__(cls):
        return ZERO

    def __reduce__(self):
        # pickles and copies as the module attribute, so as the singleton
        return "ZERO"


#: The structural zero: a jet slot that is zero by the tree's structure, not
#: by arithmetic.  It is tested by identity, so a computed 0.0 is never one.
ZERO = float.__new__(_Zero, 0.0)


class Jet2:
    """Value, gradient and the second derivatives that the Euler-Lagrange
    operator reads, with respect to ``(x, v, t)``.

    The operator ``L_vv x'' + L_vx v + L_vt - L_x`` reads of the Hessian
    only ``hxv``, ``hvv`` and ``hvt``, and their formulas never read
    ``L_xx``, ``L_xt`` or ``L_tt``, so the jet carries none of those.

    A derivative slot holds a float, an array over a sweep's points, or
    :data:`ZERO`, the default: constants and variables start sparse.  The
    arithmetic drops every term that has a ZERO factor and computes the
    others in the order of the full formulas; a slot with no term left is
    ZERO.  A *dense* jet is one whose leaves hold a plain 0.0, where nothing
    is dropped and every formula runs in full.

    Dropping is exact up to the sign of a zero.  Were the ZERO a plain 0.0,
    the dropped term would be ``±0`` whenever the product of its other
    factors is finite, and adding ``±0`` changes a sum at most in the sign
    of a zero; later products and sums carry a signed zero on as a signed
    zero.  Were that product infinite or NaN, the term would be NaN.  So
    the product of a dropped term's other factors is still formed, and
    none that is not finite may meet a ZERO.  The jet walks compute on
    numpy numbers, whose arithmetic numpy's error flags see, and redo a
    walk in which a flag or an input says that a non-finite number can have
    arisen (see :func:`eval_jet2` and :func:`jet_field`).
    """

    __slots__ = ("f", "gx", "gv", "gt", "hxv", "hvv", "hvt")

    def __init__(self, f=0.0, gx=ZERO, gv=ZERO, gt=ZERO,
                 hxv=ZERO, hvv=ZERO, hvt=ZERO):
        self.f = f
        self.gx = gx
        self.gv = gv
        self.gt = gt
        self.hxv = hxv
        self.hvv = hvv
        self.hvt = hvt

    @property
    def gradient(self) -> tuple:
        return (self.gx, self.gv, self.gt)

    def __repr__(self):
        return (f"Jet2(f={self.f!r}, grad=({self.gx!r}, {self.gv!r}, {self.gt!r}))")

    # The arithmetic tests for ZERO inline: a term with a ZERO factor is
    # dropped, a slot with no term left is ZERO, and the other terms are
    # computed and summed left to right in the order of the full formulas.

    def __add__(self, other):
        u, w = self, other
        a, b = u.gx, w.gx
        gx = b if a is ZERO else a if b is ZERO else a + b
        a, b = u.gv, w.gv
        gv = b if a is ZERO else a if b is ZERO else a + b
        a, b = u.gt, w.gt
        gt = b if a is ZERO else a if b is ZERO else a + b
        a, b = u.hxv, w.hxv
        hxv = b if a is ZERO else a if b is ZERO else a + b
        a, b = u.hvv, w.hvv
        hvv = b if a is ZERO else a if b is ZERO else a + b
        a, b = u.hvt, w.hvt
        hvt = b if a is ZERO else a if b is ZERO else a + b
        return Jet2(u.f + w.f, gx, gv, gt, hxv, hvv, hvt)

    def __sub__(self, other):
        u, w = self, other
        a, b = u.gx, w.gx
        gx = a if b is ZERO else -b if a is ZERO else a - b
        a, b = u.gv, w.gv
        gv = a if b is ZERO else -b if a is ZERO else a - b
        a, b = u.gt, w.gt
        gt = a if b is ZERO else -b if a is ZERO else a - b
        a, b = u.hxv, w.hxv
        hxv = a if b is ZERO else -b if a is ZERO else a - b
        a, b = u.hvv, w.hvv
        hvv = a if b is ZERO else -b if a is ZERO else a - b
        a, b = u.hvt, w.hvt
        hvt = a if b is ZERO else -b if a is ZERO else a - b
        return Jet2(u.f - w.f, gx, gv, gt, hxv, hvv, hvt)

    def __neg__(self):
        u = self
        gx, gv, gt, hxv, hvv, hvt = u.gx, u.gv, u.gt, u.hxv, u.hvv, u.hvt
        return Jet2(-u.f,
                    gx if gx is ZERO else -gx, gv if gv is ZERO else -gv,
                    gt if gt is ZERO else -gt, hxv if hxv is ZERO else -hxv,
                    hvv if hvv is ZERO else -hvv, hvt if hvt is ZERO else -hvt)

    def __mul__(self, other):
        u, w = self, other
        uf, wf = u.f, w.f
        uz, wz = uf is ZERO, wf is ZERO
        ugx, ugv, ugt = u.gx, u.gv, u.gt
        wgx, wgv, wgt = w.gx, w.gv, w.gt
        # first derivatives: u_q w + u w_q
        a = ZERO if ugx is ZERO or wz else ugx * wf
        b = ZERO if uz or wgx is ZERO else uf * wgx
        gx = b if a is ZERO else a if b is ZERO else a + b
        a = ZERO if ugv is ZERO or wz else ugv * wf
        b = ZERO if uz or wgv is ZERO else uf * wgv
        gv = b if a is ZERO else a if b is ZERO else a + b
        a = ZERO if ugt is ZERO or wz else ugt * wf
        b = ZERO if uz or wgt is ZERO else uf * wgt
        gt = b if a is ZERO else a if b is ZERO else a + b
        # u_xv w + u_x w_v + u_v w_x + u w_xv, summed as s
        a = u.hxv
        s = ZERO if a is ZERO or wz else a * wf
        b = ZERO if ugx is ZERO or wgv is ZERO else ugx * wgv
        s = b if s is ZERO else s if b is ZERO else s + b
        b = ZERO if ugv is ZERO or wgx is ZERO else ugv * wgx
        s = b if s is ZERO else s if b is ZERO else s + b
        b = w.hxv
        b = ZERO if uz or b is ZERO else uf * b
        hxv = b if s is ZERO else s if b is ZERO else s + b
        # u_vv w + 2 u_v w_v + u w_vv
        a = u.hvv
        s = ZERO if a is ZERO or wz else a * wf
        # 2 u_v is formed even where w_v is ZERO (see the class docstring)
        b = ZERO if ugv is ZERO else 2.0 * ugv
        b = ZERO if b is ZERO or wgv is ZERO else b * wgv
        s = b if s is ZERO else s if b is ZERO else s + b
        b = w.hvv
        b = ZERO if uz or b is ZERO else uf * b
        hvv = b if s is ZERO else s if b is ZERO else s + b
        # u_vt w + u_v w_t + u_t w_v + u w_vt
        a = u.hvt
        s = ZERO if a is ZERO or wz else a * wf
        b = ZERO if ugv is ZERO or wgt is ZERO else ugv * wgt
        s = b if s is ZERO else s if b is ZERO else s + b
        b = ZERO if ugt is ZERO or wgv is ZERO else ugt * wgv
        s = b if s is ZERO else s if b is ZERO else s + b
        b = w.hvt
        b = ZERO if uz or b is ZERO else uf * b
        hvt = b if s is ZERO else s if b is ZERO else s + b
        return Jet2(uf * wf, gx, gv, gt, hxv, hvv, hvt)

    def chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Compose with a scalar function given its value and two derivatives."""
        u = self
        gx, gv, gt = u.gx, u.gv, u.gt
        z1, z2 = f1 is ZERO, f2 is ZERO
        # f1 u_q, for q = x, v, t
        cx = ZERO if z1 or gx is ZERO else f1 * gx
        cv = ZERO if z1 or gv is ZERO else f1 * gv
        ct = ZERO if z1 or gt is ZERO else f1 * gt
        # f1 u_qr + (f2 u_q) u_r, for qr = xv, vv, vt; f2 u_q is formed even
        # where u_r is ZERO (see the class docstring)
        a = u.hxv
        a = ZERO if z1 or a is ZERO else f1 * a
        b = ZERO if z2 or gx is ZERO else f2 * gx
        b = ZERO if b is ZERO or gv is ZERO else b * gv
        hxv = b if a is ZERO else a if b is ZERO else a + b
        a = u.hvv
        a = ZERO if z1 or a is ZERO else f1 * a
        b = ZERO if z2 or gv is ZERO else f2 * gv
        b = ZERO if b is ZERO or gv is ZERO else b * gv
        hvv = b if a is ZERO else a if b is ZERO else a + b
        a = u.hvt
        a = ZERO if z1 or a is ZERO else f1 * a
        b = ZERO if z2 or gv is ZERO else f2 * gv
        b = ZERO if b is ZERO or gt is ZERO else b * gt
        hvt = b if a is ZERO else a if b is ZERO else a + b
        return Jet2(f0, cx, cv, ct, hxv, hvv, hvt)


def _is_constant_jet(j: Jet2):
    """Where every derivative slot of ``j`` is zero: a bool, or an array over
    a sweep's points."""
    flat = True
    for name in Jet2.__slots__[1:]:
        flat = flat & (getattr(j, name) == 0.0)
    return flat


_VAR_SLOT = {"x": "gx", "v": "gv", "t": "gt"}


def _leaf(value, zero) -> Jet2:
    """A jet whose six derivative slots hold ``zero``."""
    return Jet2(value, zero, zero, zero, zero, zero, zero)


# Second-derivative slots of Jet2 in order, as index pairs into _STATE
_HESSIAN_PAIRS = ((0, 1), (1, 1), (1, 2))


def _antideriv_slots(node: Expr) -> tuple:
    """The expressions of a node's seven jet slots, in Jet2's order: the
    jet of an integral or an ODE solution, whose rules are symbolic.

    Each slot costs a symbolic derivative and, at every point, often one
    more integral, so only the slots :class:`Jet2` keeps are built; a point
    where only the integral of some other derivative is undefined is in the
    jet's domain.
    """
    # differentiate applies the fundamental theorem of calculus in an
    # integral's variable and differentiates under the integral sign in the
    # other variables; a solution's t derivative comes from its equation.
    first = [differentiate(node, q) for q in _STATE]
    second = [differentiate(first[i], _STATE[j]) for i, j in _HESSIAN_PAIRS]
    return (node, *first, *second)


def _is_zero(slot: Expr) -> bool:
    """Whether a symbolic slot expression is the constant 0, a leaf zero."""
    return type(slot) is Const and slot.value == 0.0


# --- array sweeps -----------------------------------------------------------
#
# evaluate_field and jet_field run one tree walk over every sample point at
# once.  A value is a float64 array over the points, or a scalar where it is
# the same at all of them (constants, parameters).  The sweep keeps one
# mask of the points at which some node visited so far would have raised;
# after it is set, a point's values are never read, so numpy may compute
# anything there (it prints no warning during a walk).  Nodes are visited
# in the scalar order (left before right, base before exponent), and the
# C-library calls and integrals skip masked points, so they do work exactly
# where the scalar walks do.
#
# A function node's value rule runs in two steps (_Sweep.value): its row's
# domain predicate masks the operands, and the value is computed at the
# unmasked points, by numpy where it rounds as the C library does and else
# by mapping the C library's function; while no point is masked the map
# runs over whole columns.  Exp and powers can still overflow there: where
# a mapped C-library call raises OverflowError, the node is redone point by
# point with its scalar rule, which masks exactly the overflowing points.
# The integrands' sweep (``vectorised``) takes numpy's functions for the
# values and reads overflow off as an infinite result of finite operands.
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
# in place.  The memo lives as long as its sweep; evaluate keeps none.
#
# An exact sweep keeps each C-library map it makes (_Sweep.maps), keyed by
# the function and the operands: an array by its identity, a number by its
# value and the sign of a zero.  The jet of x^n maps pow at n, n-1 and n-2,
# so the jets of x^4 and x^3 both ask for x^3 and x^2, and the jets of sin
# and cos both ask for sin and cos; a later request gets the kept values,
# whose domain mask the first one set.  That is exact for the reason above:
# the kept values are right at every point unmasked when they were mapped.
# The memo holds the operands, so no array's id is reused while the sweep
# lives, and no operand changes in place.
#
# A sweep can also start from integral values that an earlier sweep over the
# same points computed (_Sweep.integrals).  The verifier's strata sweep
# (lagrangian.DomainBox._sample) gathers them at the points it keeps, none
# of which it ever masked, so each value is exact at every point, and the
# rhs and jet sweeps read them where they would integrate.  Within one
# integral call, an entry that repeats an earlier one bit for bit is
# integrated once (_integrate): an entry's value depends on its own limits
# and variables alone.
#
# A jet sweep keeps structural zeros (see Jet2): a slot that vanishes by the
# tree's structure is the object ZERO at all points at once, so a product
# with a constant or a variable does a fraction of the array work.  That is
# exact as long as no infinity or NaN meets a ZERO at an unmasked point.
# numpy flags every operation that turns finite numbers into an infinity or
# a NaN, so a jet walk runs with the flags calling _Sweep.flag (_jet_sweep),
# and holds constants and parameters as numpy scalars so that their
# arithmetic is flagged as well.  It checks what no flag sees: the columns
# and parameters and the slots of integrals (``source`` in _Sweep.vetted);
# a C-library map turns finite operands into a finite value or raises.  The
# derivative rules compute at masked points too (the square root of a
# negative, 1/0), so a flag raised inside a rule counts only where the
# rule's values are not finite at an unmasked point; the masked points then
# become NaN, which later arithmetic carries without a flag.
#
# If anything is left, the walk is redone.  eval_jet2 walks its point again
# with dense leaves, a plain 0.0 for ZERO, which drop nothing.  jet_field
# redoes its points one by one with eval_jet2 (_jet_points), so that it
# equals eval_jet2 bit for bit in every case: a dense array walk would
# differ in the sign of the zeros that eval_jet2 keeps as ZERO, which
# negates to 0.0 where a plain 0.0 negates to -0.0.  On the benchmark's
# three workloads no sweep is redone.
#
# A power whose exponent varies is exp(w ln u) over the arrays, with the
# points where u <= 0 masked first.  At a point where every derivative slot
# of the exponent is zero, eval_jet2 takes the constant-exponent rule
# instead, as a constant exponent does; its slots have more ZEROs than the
# other points', which one array cannot hold, so a sweep with such a point
# among others is redone.

class _Sweep:
    __slots__ = ("columns", "bad", "vectorised", "zero", "values", "jets",
                 "maps", "integrals", "flagged", "redo")

    def __init__(self, columns: Mapping, bad, vectorised: bool = False,
                 integrals: Mapping | None = None):
        self.columns = columns
        self.vectorised = vectorised
        # integral node -> its values over the points, from an earlier sweep
        # that masked none of them (see above)
        self.integrals = integrals or {}
        # what a jet leaf's derivative slots hold: ZERO, or 0.0 in eval_jet2's
        # dense walk
        self.zero = ZERO
        # the jet walks' watch for non-finite numbers (see above): numpy
        # flagged an operation, or a number no flag sees is not finite
        self.flagged = False
        self.redo = False
        # each distinct node's value and jet, once walked, and each C-library
        # map made, with its operands (see above)
        self.values: dict = {}
        self.jets: dict = {}
        self.maps: dict = {}
        if bad is None:
            first = next((c for c in columns.values()
                          if isinstance(c, np.ndarray)), None)
            if first is None:
                raise ValueError("the columns hold no array, so the number "
                                 "of points is unknown; pass bad")
            bad = np.zeros(len(first), dtype=bool)
        self.bad = np.array(bad, dtype=bool)

    def value(self, kind, *operands) -> np.ndarray:
        """``kind``'s value rule at every point; masks where the scalar rule raises.

        An exact sweep makes each C-library map once: a request with the
        same function and operands returns the values kept from the first
        (see above).
        """
        row = _FUNCTIONS[kind]
        if not (row.exact or self.vectorised):
            key = (kind, *map(_operand_key, operands))
            kept = self.maps.get(key)
            if kept is None:
                # the operands stay alive with the values, so no array's id
                # is reused while the sweep lives
                kept = self.maps[key] = (operands, self.mapped(row, *operands))
            return kept[1]
        if row.undefined is not None:
            self.bad |= row.undefined(*operands)
        value = row.ufunc(*operands)
        if row.overflow is not None:
            # the C library raises where finite operands overflow
            overflow = np.isinf(value)
            for op in operands:
                overflow = overflow & np.isfinite(op)
            self.bad |= overflow
        return value

    def mapped(self, row: _Function, *operands) -> np.ndarray:
        """``row``'s C-library function over the unmasked points, after its
        domain check."""
        if row.undefined is not None:
            self.bad |= row.undefined(*operands)
        # with no point masked yet, map over whole columns: no index, no scatter
        good = ~self.bad if self.bad.any() else None
        count = len(self.bad) if good is None else int(np.count_nonzero(good))
        args = [(op if good is None else op[good]).tolist()
                if isinstance(op, np.ndarray) else [float(op)] * count
                for op in operands]
        try:
            values = np.fromiter(map(row.libm, *args), float, count)
        except OverflowError:
            # exp or a power overflowed at some point: the scalar rule, point
            # by point, masks exactly the points where it raises
            return self.per_point(row.value, *operands)
        if good is None:
            return values
        out = np.full(len(good), math.nan)
        out[good] = values
        return out

    def integrals_at(self, index) -> dict:
        """The values of the integral nodes walked so far, at the points
        ``index``: the ``integrals`` of a later sweep over those points."""
        return {node: value[index] for node, value in self.values.items()
                if type(node) is Antideriv and isinstance(value, np.ndarray)}

    def fail(self, where, error, message, *args) -> None:
        """Mask the points where ``where`` holds; a one-point sweep raises
        there instead."""
        self.bad |= where

    def flag(self, kind: str, flag: int) -> None:
        """numpy's error callback: an operation made an infinity or a NaN."""
        self.flagged = True

    def vetted(self, compute, *args, source: bool = False) -> list:
        """``compute(*args)``, a sequence of values, judged apart from the walk.

        A numpy flag raised inside counts only if some value is not finite
        at an unmasked point: one raised at masked points alone is
        forgiven.  ``source`` marks values that enter unseen by the flags
        (columns, parameters, integrals); they are always checked.
        """
        outer, self.flagged = self.flagged, False
        try:
            values = compute(*args)
            if self.flagged or source:
                values = self.finite(values)
        finally:
            self.flagged = outer
        return values

    def finite(self, values) -> list:
        """``values`` with NaN at the masked points that are not finite.

        Later arithmetic carries a NaN without a flag.  Marks the sweep for
        redoing if a value is not finite at an unmasked point.
        """
        out = []
        for value in values:
            ok = np.isfinite(value)
            if not ok.all():
                if (ok | self.bad).all():
                    value = np.where(self.bad, math.nan, value)
                else:
                    self.redo = True
            out.append(value)
        return out

    def per_point(self, rule, *operands) -> np.ndarray:
        """``rule`` at every unmasked point, on Python floats; masks where it raises.

        Returns the rule's values over the points, NaN at masked points.
        """
        good = np.flatnonzero(~self.bad)
        args = [op[good].tolist() if isinstance(op, np.ndarray)
                else [float(op)] * len(good) for op in operands]
        out = np.full(len(self.bad), math.nan)
        for i, point in zip(good.tolist(), zip(*args)):
            try:
                out[i] = rule(*point)
            except EvalDomainError:
                self.bad[i] = True
        return out


class _OnePoint(_Sweep):
    """A sweep over one point that raises where the scalar rules raise.

    Its value rules are the scalar ones on Python floats, and a failing
    check raises at once, so the first rule that fails in walk order names
    the error.
    """

    __slots__ = ()

    def __init__(self, columns: Mapping, zero):
        super().__init__(columns, np.zeros(1, dtype=bool))
        self.zero = zero

    def value(self, kind, *operands) -> np.ndarray:
        return np.array([_FUNCTIONS[kind].value(*map(_scalar, operands))])

    def fail(self, where, error, message, *args) -> None:
        # ``where`` is a bool or holds one point
        if where:
            raise error(message.format(*map(_scalar, args)))


def _operand_key(op):
    """An operand's part of a C-library map's key: an array by its identity,
    a number by its value and, for a zero, its sign."""
    if isinstance(op, np.ndarray):
        return id(op)
    return op, math.copysign(1.0, op)


def _scalar(value):
    """A one-point sweep's number as a Python float; anything else (ZERO
    and Python floats too) as it is."""
    return value.item() if isinstance(value, (np.ndarray, np.generic)) else value


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
    """:func:`evaluate_field` with numpy's functions for the values.

    The mask is :func:`evaluate`'s domain rules, exactly, the same masks as
    :func:`evaluate_field`'s; the values differ from :func:`evaluate` in the
    last bits where numpy and the C library round ``exp``, ``log``, powers,
    ``sin`` and ``cos`` differently.
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
    rule = _ARITHMETIC.get(kind)
    if rule is not None:
        return rule(_value_walk(expr.left, sweep), _value_walk(expr.right, sweep))
    if kind is Var:
        value = sweep.columns.get(expr.name)
        if value is None:
            sweep.fail(True, EvalDomainError, "unbound variable {!r}", expr.name)
            return math.nan
        return value if isinstance(value, np.ndarray) else float(value)
    if kind in _FUNCTIONS:
        if kind is Div or kind is Pow:
            a, b = _operands(expr)
            return sweep.value(kind, _value_walk(a, sweep), _value_walk(b, sweep))
        return sweep.value(kind, _value_walk(expr.operand, sweep))
    if kind is Neg:
        return -_value_walk(expr.operand, sweep)
    if kind is Antideriv:
        return _antideriv_field(expr, sweep)
    if kind is OdeSolution:
        return _solution_field(expr, sweep)
    raise TypeError(f"cannot evaluate node of type {type(expr).__name__}")


def jet_field(expr: Expr, columns: Mapping, bad=None) -> tuple:
    """:func:`eval_jet2` at every point of ``columns`` in one tree walk.

    Takes ``columns`` and ``bad`` as :func:`evaluate_field` does.  Returns
    ``(jet, bad)``: ``jet`` is a :class:`Jet2` whose seven slots are float64
    arrays over the points, equal to :func:`eval_jet2` bit for bit wherever
    ``bad`` is False, and ``bad`` is True exactly where :func:`eval_jet2`
    would raise :class:`EvalDomainError` or
    :class:`NonDifferentiableError` (or where it was already True).
    """
    return _jets(expr, _Sweep(columns, bad))


def _jets(expr: Expr, sweep: _Sweep) -> tuple:
    """:func:`jet_field` over ``sweep``'s columns and mask."""
    given = sweep.bad.copy()
    jet = _jet_sweep(expr, sweep)
    if sweep.flagged or sweep.redo:
        return _jet_points(expr, sweep.columns, given)
    n = len(sweep.bad)
    return Jet2(*(_full(s, n) for s in _slots(jet))), sweep.bad


def _jet_points(expr: Expr, columns: Mapping, bad) -> tuple:
    """:func:`jet_field` by :func:`eval_jet2`, one point at a time."""
    bad = bad.copy()
    out = np.full((len(Jet2.__slots__), len(bad)), math.nan)
    for i in np.flatnonzero(~bad).tolist():
        binding = {name: (c[i].item() if isinstance(c, np.ndarray) else c)
                   for name, c in columns.items()}
        try:
            out[:, i] = _slots(eval_jet2(expr, binding))
        except EvalDomainError:
            bad[i] = True
    return Jet2(*out), bad


def eval_jet2(expr: Expr, binding: Binding) -> Jet2:
    """Evaluate ``expr`` with exact first and second derivatives in (x, v, t).

    The jet walk of :func:`jet_field` over one point, which raises the
    error of the first rule that fails.  Non-state variables in the binding
    are treated as constants.  Slots are Python floats, or :data:`ZERO`
    where they vanish by the tree's structure; they equal the dense walk's
    bit for bit, up to the sign of a zero (see :class:`Jet2`).
    """
    columns = {name: np.array([float(value)]) for name, value in binding.items()}
    sweep = _OnePoint(columns, ZERO)
    try:
        jet = _jet_sweep(expr, sweep)
    except EvalDomainError:
        # after a flag the dense walk decides: a NaN that it keeps can make
        # an exponent vary where this walk finds it constant
        if not (sweep.flagged or sweep.redo):
            raise
    else:
        if not (sweep.flagged or sweep.redo):
            return Jet2(*map(_scalar, _slots(jet)))
    # a non-finite number can have met a ZERO: dense leaves drop nothing, so
    # every term is computed as the full formulas do
    return Jet2(*map(_scalar, _slots(_jet_sweep(expr, _OnePoint(columns, 0.0)))))


def _slots(jet: Jet2) -> tuple:
    return tuple(getattr(jet, s) for s in Jet2.__slots__)


def _jet_sweep(expr, sweep):
    """``expr``'s jet over ``sweep``, with numpy's flags calling :meth:`_Sweep.flag`."""
    with np.errstate(over="call", invalid="call", divide="call",
                     under="ignore", call=sweep.flag):
        return _jet_walk(expr, sweep)


def _jet_walk(expr, sweep):
    jet = sweep.jets.get(expr)
    if jet is None:
        jet = sweep.jets[expr] = _jet_node(expr, sweep)
    return jet


def _leaf_values(sweep, exprs) -> list:
    """The values of ``exprs`` as jet leaves: arrays, numpy scalars or the
    sweep's zero.

    numpy's flags see the arithmetic of numpy scalars, not of Python floats.
    """
    values = []
    for e in exprs:
        if _is_zero(e):
            values.append(sweep.zero)
            continue
        value = _value_walk(e, sweep)
        values.append(value if isinstance(value, np.ndarray) else np.float64(value))
    return values


def _jet_node(expr, sweep):
    kind = type(expr)
    n = len(sweep.bad)
    if kind is Const:
        return _leaf(np.float64(expr.value), sweep.zero)
    rule = _ARITHMETIC.get(kind)
    if rule is not None:
        return rule(_jet_walk(expr.left, sweep), _jet_walk(expr.right, sweep))
    if kind is Var:
        value, = sweep.vetted(_leaf_values, sweep, (expr,), source=True)
        jet = _leaf(value, sweep.zero)
        slot = _VAR_SLOT.get(expr.name)
        if slot is not None:
            setattr(jet, slot, 1.0)
        return jet
    row = _FUNCTIONS.get(kind)
    if kind is Div:
        left, right = _jet_walk(expr.left, sweep), _jet_walk(expr.right, sweep)
        # a constant denominator stays a scalar, as a numpy one, so that a
        # zero is masked rather than raised
        return left * right.chain(*sweep.vetted(row.derivative,
                                                np.asarray(right.f), sweep))
    if kind is Pow:
        base = _jet_walk(expr.base, sweep)
        exponent = _jet_walk(expr.exponent, sweep)
        flat = _is_constant_jet(exponent)
        varies = isinstance(flat, np.ndarray)   # over the points
        if (flat.all() if varies else flat) and (
                n == 1 or not isinstance(exponent.f, np.ndarray)):
            power = exponent.f[0] if isinstance(exponent.f, np.ndarray) else exponent.f
            return base.chain(*sweep.vetted(row.derivative, _full(base.f, n),
                                            power, sweep))
        # an exponent that varies: u**w = exp(w * ln u), for u > 0 (see above)
        sweep.redo |= bool(np.any(flat & ~sweep.bad))
        sweep.fail(base.f <= 0.0, EvalDomainError,
                   "non-positive base {!r} with variable exponent", base.f)
        arg = exponent * base.chain(*sweep.vetted(_ln_rule, _full(base.f, n), sweep))
        return arg.chain(*sweep.vetted(_exp_rule, _full(arg.f, n), sweep))
    if row is not None:
        u = _jet_walk(expr.operand, sweep)
        return u.chain(*sweep.vetted(row.derivative, _full(u.f, n), sweep))
    if kind is Neg:
        return -_jet_walk(expr.operand, sweep)
    if kind is Antideriv or kind is OdeSolution:
        return Jet2(*sweep.vetted(_leaf_values, sweep, _antideriv_slots(expr),
                                  source=True))
    raise TypeError(f"cannot evaluate node of type {type(expr).__name__}")
