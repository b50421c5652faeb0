"""Structural equality of expressions via an expanded normal form.

An expression is flattened into a sum of terms.  Each term is a numeric
coefficient times a multiset of atomic factors raised to numeric exponents,
times a single merged exponential factor ``exp(S)`` whose argument ``S`` is
itself a normal form.  Products distribute over sums, small integer powers of
sums expand, ``exp(a)*exp(b)`` merges, and constant parts of exponential
arguments fold into the coefficient.  Two expressions are equivalent when
their normal forms carry the same factor structure with coefficients equal to
a relative tolerance.

This is deliberately not a general simplifier: identities that need more than
distribution and exponent bookkeeping (for example ``sin^2 + cos^2 = 1``) are
out of scope, and structurally different atoms never compare equal.
"""
from __future__ import annotations

import math

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
    simplify,
)

__all__ = ["normal_form", "equivalent_expressions"]

# Caps keeping the expansion from blowing up on adversarial input; when a cap
# is hit the offending subtree is kept as an opaque atom instead.
_MAX_TERMS = 240
_MAX_EXPAND_POWER = 6


class _Budget(Exception):
    pass


def _round12(c: float) -> float:
    """Round to 12 significant digits so ulp noise cannot split term keys."""
    if c == 0.0 or not math.isfinite(c):
        return c
    if -1e12 < c < 1e12 and c == int(c):
        return c  # an integer of at most 12 digits: its own rounding
    return float(f"{c:.12g}")


# A normal form (NF) is a tuple of terms sorted by key; a term is
# (coeff, factors, exparg) with factors a sorted tuple of (atom, exponent)
# and exparg itself an NF.  Atoms are nested tuples headed by a tag string.

_ZERO_NF = ()


def _const_nf(c: float):
    c = _round12(c)
    if c == 0.0:
        return _ZERO_NF
    return ((c, (), _ZERO_NF),)

_ONE_NF = _const_nf(1.0)


def _atom_nf(atom, exponent=1.0):
    return ((1.0, ((atom, _round12(exponent)),), _ZERO_NF),)


def _expand_term(term):
    """Flatten sum-atoms raised to small positive integer powers.

    Exponent arithmetic (for example sqrt(u)*sqrt(u)) can leave an opaque
    ``(sum)^n`` factor with integer n; multiplying it back out restores the
    invariant that merged normal forms never carry such factors.
    """
    coeff, factors, exparg = term
    for i, (atom, e) in enumerate(factors):
        if atom[0] == "sum" and e == round(e) and 1.0 <= e <= _MAX_EXPAND_POWER:
            rest = factors[:i] + factors[i + 1:]
            out = ((coeff, rest, exparg),)
            for _ in range(int(e)):
                out = _nf_mul(out, atom[1])
            return out
    return (term,)


def _merge(terms):
    acc = {}
    scale = 0.0
    for term in terms:
        flat = (term,)
        for atom, _ in term[1]:
            if atom[0] == "sum":  # only a term with a sum atom can expand
                flat = _expand_term(term)
                break
        for coeff, factors, exparg in flat:
            key = (factors, exparg)
            acc[key] = acc.get(key, 0.0) + coeff
            if abs(coeff) > scale:
                scale = abs(coeff)
    # cancellation down in the float noise counts as zero
    noise = 1e-12 * scale
    out = []
    # terms in (factors, exparg) order; no two share a key
    for (factors, exparg), coeff in sorted(acc.items()):
        coeff = _round12(coeff)
        if coeff == 0.0 or abs(coeff) <= noise:
            continue
        out.append((coeff, factors, exparg))
    if len(out) > _MAX_TERMS:
        raise _Budget
    return tuple(out)


def _nf_add(a, b):
    if not a and not b:
        return _ZERO_NF
    return _merge(a + b)


def _nf_scale(a, c):
    if c == 0.0:
        return _ZERO_NF
    return _merge([(coeff * c, factors, exparg) for coeff, factors, exparg in a])


def _mul_term(t1, t2):
    c1, f1, e1 = t1
    c2, f2, e2 = t2
    powers = {}
    for atom, exponent in f1 + f2:
        powers[atom] = powers.get(atom, 0.0) + exponent
    rounded = [(atom, _round12(p)) for atom, p in powers.items()]
    factors = tuple(sorted(f for f in rounded if f[1] != 0.0))
    return (c1 * c2, factors, _nf_add(e1, e2))


def _nf_mul(a, b):
    if not a or not b:
        return _ZERO_NF
    if len(a) * len(b) > _MAX_TERMS:
        raise _Budget
    return _merge([_mul_term(t1, t2) for t1 in a for t2 in b])


def _as_number(nf):
    """The float value of a purely numeric NF, or None."""
    if nf == _ZERO_NF:
        return 0.0
    if len(nf) == 1 and nf[0][1] == () and nf[0][2] == _ZERO_NF:
        return nf[0][0]
    return None


def _term_pow(term, n):
    coeff, factors, exparg = term
    if coeff < 0.0 and n != round(n):
        raise _Budget  # keep (-u)^p opaque rather than guess a branch
    new_coeff = coeff ** n
    new_factors = tuple(sorted(
        (atom, _round12(e * n)) for atom, e in factors if _round12(e * n) != 0.0
    ))
    return (new_coeff, new_factors, _nf_scale(exparg, n))


def _nf_pow(base, expo):
    n = _as_number(expo)
    if n is None:
        return _atom_nf(("pow", base, expo))
    if n == 0.0:
        return _ONE_NF
    if n == 1.0:
        return base
    num = _as_number(base)
    if num is not None:
        if num < 0.0 and n != round(n):
            raise _Budget
        if num == 0.0:
            if n < 0.0:
                raise _Budget
            return _ZERO_NF
        return _const_nf(num ** n)
    if len(base) == 1:
        return _merge([_term_pow(base[0], n)])
    if n == round(n) and 2 <= n <= _MAX_EXPAND_POWER:
        out = base
        for _ in range(int(n) - 1):
            out = _nf_mul(out, base)
        return out
    return _atom_nf(("sum", base), n)


def _nf_exp(arg_nf):
    const_part = 0.0
    rest = []
    for coeff, factors, exparg in arg_nf:
        if factors == () and exparg == _ZERO_NF:
            const_part += coeff
        else:
            rest.append((coeff, factors, exparg))
    try:
        scale = math.exp(const_part)
    except OverflowError:
        raise _Budget from None
    return ((_round12(scale), (), _merge(rest)),)


def _nf(expr: Expr, memo: dict):
    """The normal form of ``expr``, once per distinct subtree.

    ``memo`` maps each node normalised so far to its normal form.  Equal
    nodes have equal normal forms, so a kept one is exact; trees built from
    Horner polynomials repeat a few subtrees many times.
    """
    nf = memo.get(expr)
    if nf is None:
        nf = memo[expr] = _nf_node(expr, memo)
    return nf


def _nf_node(expr: Expr, memo: dict):
    def nf(e):
        return _nf(e, memo)

    if isinstance(expr, Const):
        return _const_nf(expr.value)
    if isinstance(expr, Var):
        return _atom_nf(("var", expr.name))
    if isinstance(expr, Add):
        return _nf_add(nf(expr.left), nf(expr.right))
    if isinstance(expr, Sub):
        return _nf_add(nf(expr.left), _nf_scale(nf(expr.right), -1.0))
    if isinstance(expr, Neg):
        return _nf_scale(nf(expr.operand), -1.0)
    if isinstance(expr, Mul):
        return _nf_mul(nf(expr.left), nf(expr.right))
    if isinstance(expr, Div):
        denom = nf(expr.right)
        return _nf_mul(nf(expr.left), _nf_pow(denom, _const_nf(-1.0)))
    if isinstance(expr, Pow):
        return _nf_pow(nf(expr.base), nf(expr.exponent))
    if isinstance(expr, Sqrt):
        return _nf_pow(nf(expr.operand), _const_nf(0.5))
    if isinstance(expr, Exp):
        return _nf_exp(nf(expr.operand))
    if isinstance(expr, Ln):
        return _atom_nf(("ln", nf(expr.operand)))
    if isinstance(expr, Abs):
        return _atom_nf(("abs", nf(expr.operand)))
    if isinstance(expr, Sin):
        return _atom_nf(("sin", nf(expr.operand)))
    if isinstance(expr, Cos):
        return _atom_nf(("cos", nf(expr.operand)))
    if isinstance(expr, Antideriv):
        return _atom_nf(("antideriv", nf(expr.integrand), expr.var, expr.base))
    raise TypeError(f"cannot normalize node of type {type(expr).__name__}")


def normal_form(expr: Expr):
    """Expanded normal form of ``expr``; opaque but hashable and comparable.

    Returns None when expansion exceeds the size budget.
    """
    try:
        return _nf(simplify(expr), {})
    except _Budget:
        return None


def equivalent_expressions(a: Expr, b: Expr, rel_tol: float = 1e-9) -> bool:
    """True when ``a`` and ``b`` expand to the same normal form.

    Factor structure must match exactly; coefficients may differ by
    ``rel_tol`` relative to the largest coefficient present.  A False result
    means the engine could not identify the expressions, not a proof that
    they differ.
    """
    nfa = normal_form(a)
    nfb = normal_form(b)
    if nfa is None or nfb is None:
        return simplify(a) == simplify(b)
    if len(nfa) != len(nfb):
        return False
    scale = max(
        [abs(c) for c, _, _ in nfa] + [abs(c) for c, _, _ in nfb],
        default=0.0,
    )
    for (ca, fa, ea), (cb, fb, eb) in zip(nfa, nfb):
        if fa != fb or ea != eb:
            return False
        if abs(ca - cb) > rel_tol * max(scale, 1e-300):
            return False
    return True
