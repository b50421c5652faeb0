"""Lightweight closed-form antidifferentiation used by the builders.

Coefficient functions in practice are sums of monomials, exponentials of
linear arguments, and trigonometric terms with variable-free factors.  For
those this module produces closed-form antiderivatives, keeping built
Lagrangians cheap to evaluate and easy to compare structurally.  Anything
outside the rule set falls back to an explicit integral node evaluated by
quadrature, so builders never fail on exotic coefficients.
"""
from __future__ import annotations

from ..expressions import (
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
    simplify,
    substitute,
)

__all__ = ["antiderivative_in", "primitive_in"]

_ZERO = Const(0.0)


def _linear_coefficient(u: Expr, var: str) -> Expr | None:
    """d/dvar of ``u`` when that derivative is free of ``var``, else None."""
    d = differentiate(u, var)
    if d == _ZERO:
        return None
    if var in free_vars(d):
        return None
    return d


def primitive_in(expr: Expr, var: str) -> Expr | None:
    """A closed-form antiderivative of ``expr`` in ``var`` up to a constant.

    Returns None when the rule set does not apply; no integral nodes are
    introduced here.
    """
    expr = simplify(expr)
    return _primitive(expr, var)


def _primitive(expr: Expr, var: str) -> Expr | None:
    fv = free_vars(expr)
    if var not in fv:
        return simplify(Mul(expr, Var(var)))
    if isinstance(expr, Var):
        # expr is Var(var) since var is free
        return Mul(Const(0.5), Pow(expr, Const(2.0)))
    if isinstance(expr, Add) or isinstance(expr, Sub):
        left = _primitive(expr.left, var)
        right = _primitive(expr.right, var)
        if left is None or right is None:
            return None
        return type(expr)(left, right)
    if isinstance(expr, Neg):
        inner = _primitive(expr.operand, var)
        return None if inner is None else Neg(inner)
    if isinstance(expr, Mul):
        if var not in free_vars(expr.left):
            inner = _primitive(expr.right, var)
            return None if inner is None else Mul(expr.left, inner)
        if var not in free_vars(expr.right):
            inner = _primitive(expr.left, var)
            return None if inner is None else Mul(inner, expr.right)
        return (_poly_times_exp(expr.left, expr.right, var)
                or _poly_times_exp(expr.right, expr.left, var))
    if isinstance(expr, Div):
        if var not in free_vars(expr.right):
            inner = _primitive(expr.left, var)
            return None if inner is None else Div(inner, expr.right)
        # u / w with var-free u: rewrite the reciprocal and retry
        if var not in free_vars(expr.left):
            w = expr.right
            if isinstance(w, Pow) and isinstance(w.exponent, Const):
                flipped = Pow(w.base, Const(-w.exponent.value))
                return _primitive(simplify(Mul(expr.left, flipped)), var)
            if isinstance(w, Exp):
                return _primitive(
                    simplify(Mul(expr.left, Exp(Neg(w.operand)))), var
                )
            if isinstance(w, Div):
                return _primitive(
                    simplify(Mul(expr.left, Div(w.right, w.left))), var
                )
            inner = _primitive(Pow(w, Const(-1.0)), var)
            return None if inner is None else Mul(expr.left, inner)
        return None
    if isinstance(expr, Pow):
        if var in free_vars(expr.exponent):
            return None
        if not isinstance(expr.exponent, Const):
            return None
        n = expr.exponent.value
        slope = _linear_coefficient(expr.base, var)
        if slope is None:
            return None
        if n == -1.0:
            return Div(Ln(Abs(expr.base)), slope)
        return Div(Pow(expr.base, Const(n + 1.0)), Mul(Const(n + 1.0), slope))
    if isinstance(expr, Sqrt):
        slope = _linear_coefficient(expr.operand, var)
        if slope is None:
            return None
        return Div(
            Pow(expr.operand, Const(1.5)), Mul(Const(1.5), slope)
        )
    if isinstance(expr, Exp):
        slope = _linear_coefficient(expr.operand, var)
        if slope is None:
            return None
        return Div(expr, slope)
    if isinstance(expr, Sin):
        slope = _linear_coefficient(expr.operand, var)
        if slope is None:
            return None
        return Div(Neg(Cos(expr.operand)), slope)
    if isinstance(expr, Cos):
        slope = _linear_coefficient(expr.operand, var)
        if slope is None:
            return None
        return Div(Sin(expr.operand), slope)
    if isinstance(expr, Ln):
        u = expr.operand
        if u == Var(var) or u == Abs(Var(var)):
            return Sub(Mul(Var(var), expr), Var(var))
        return None
    if isinstance(expr, Abs):
        # int |u| for linear u with positive-slope shortcut is ambiguous in
        # sign; leave to quadrature
        return None
    return None


def _poly_times_exp(u: Expr, e: Expr, var: str) -> Expr | None:
    """Integration by parts for u * e^{k var + ...} with polynomial u.

    int u e^{arg} = e^{arg} (u/k - u'/k^2 + u''/k^3 - ...), a finite sum
    exactly when repeated differentiation of u terminates.
    """
    if not isinstance(e, Exp):
        return None
    k = _linear_coefficient(e.operand, var)
    if k is None:
        return None
    acc: Expr | None = None
    cur = simplify(u)
    for j in range(9):
        if cur == _ZERO:
            break
        term = Mul(Div(Const(1.0 if j % 2 == 0 else -1.0),
                       Pow(k, Const(float(j + 1)))), cur)
        acc = term if acc is None else Add(acc, term)
        cur = simplify(differentiate(cur, var))
    else:
        return None
    return None if acc is None else simplify(Mul(e, acc))


def antiderivative_in(expr: Expr, var: str, base: float) -> Expr:
    """Expression for the integral of ``expr`` in ``var`` from ``base``.

    Closed form when the rules apply, otherwise an integral node (the
    occurrences of ``var`` in ``expr`` become the integration dummy).
    """
    expr = simplify(expr)
    if expr == _ZERO:
        return _ZERO
    p = primitive_in(expr, var)
    if p is None:
        return Antideriv(expr, var, float(base))
    at_base = substitute(p, var, Const(float(base)))
    return simplify(Sub(p, at_base))
