"""Expression trees over position x, velocity v, time t, and named parameters.

The node set is deliberately small: constants, variables, the four arithmetic
operations, negation, powers, exp/ln/abs/sqrt/sin/cos, and a single-variable
definite-integral node ``Antideriv`` whose value at a point is the integral of
its integrand from a fixed base to the current value of its variable.

Text syntax accepted by :func:`parse_expression`::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' args ')' | '(' expr ')'

``^`` binds tighter than unary minus, so ``-x^2`` parses as ``-(x^2)``.
Function calls are limited to exp, ln, abs, sqrt, sin, cos, plus the integral
form ``integral(var, base, integrand)`` used to round-trip Antideriv nodes.
Free identifiers other than x, v, t must be declared as parameters.

Expressions are immutable; all manipulation functions return new trees.
"""
from __future__ import annotations

import math
import re
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from typing import Iterable, Union

from .errors import (
    ExpressionError,
    ExprSyntaxError,
    SubstitutionError,
    UnknownIdentifierError,
)

__all__ = [
    "Expr", "Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow",
    "Exp", "Ln", "Abs", "Sqrt", "Sin", "Cos", "Antideriv",
    "parse_expression", "format_expression", "differentiate",
    "differentiate_with_notes", "substitute", "free_vars", "simplify",
    "canonical", "antideriv_depth", "as_expr",
    "CORE_VARIABLES", "MAX_ANTIDERIV_DEPTH", "ABS_DERIVATIVE_NOTE",
]

CORE_VARIABLES = ("x", "v", "t")
FUNCTION_NAMES = ("exp", "ln", "abs", "sqrt", "sin", "cos")
INTEGRAL_NAME = "integral"
RESERVED_NAMES = frozenset(FUNCTION_NAMES) | {INTEGRAL_NAME}
MAX_ANTIDERIV_DEPTH = 2

ABS_DERIVATIVE_NOTE = (
    "derivative of abs uses the sign convention u/|u|, valid away from u = 0"
)

ExprLike = Union["Expr", float, int]


@dataclass(frozen=True)
class Expr:
    """Base class for all expression nodes."""

    # ``_hash``: the node's structural hash, stored on first use (see
    # ``_node``).  ``_simplified``: set by ``simplify`` on a node it found to
    # be its own simplification; a marked node is returned as it is, so
    # ``simplify(node) is node`` for every marked node.  ``_text``: the
    # node's text and the precedence of its outermost operator, stored at
    # its first rendering (see ``_format``).
    __slots__ = ("_hash", "_simplified", "_text")

    def __add__(self, other: ExprLike) -> "Expr":
        return Add(self, as_expr(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add(as_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Sub(self, as_expr(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Sub(as_expr(other), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul(self, as_expr(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul(as_expr(other), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return Div(self, as_expr(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return Div(as_expr(other), self)

    def __pow__(self, other: ExprLike) -> "Expr":
        return Pow(self, as_expr(other))

    def __rpow__(self, other: ExprLike) -> "Expr":
        return Pow(as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Neg(self)

    def __str__(self) -> str:
        return format_expression(self)


def _memo_hash(self: Expr) -> int:
    try:
        return self._hash
    except AttributeError:
        h = self._structural_hash()
        object.__setattr__(self, "_hash", h)
        return h


def _refuse_setattr(self: Expr, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self: Expr, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _node(cls: type) -> type:
    """Declare an expression node: a slotted frozen dataclass whose hash is
    the dataclass's structural hash, computed once per instance and stored.

    Without the memo every hash of a tree walks the whole tree, and the
    ``lru_cache``s and the field walks' per-sweep memo hash their keys at
    every request.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    cls._structural_hash = cls.__hash__
    cls.__hash__ = _memo_hash
    # the generated guards name the class that ``slots=True`` replaced: they
    # raise TypeError for a name that is not a field, and keep that class
    # alive among ``Expr.__subclasses__()``
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


@_node
class Const(Expr):
    value: float

    def __post_init__(self):
        val = float(self.value)
        if not math.isfinite(val):
            raise ExpressionError(f"constant must be finite, got {val!r}")
        if val == 0.0:
            val = 0.0  # normalize -0.0
        object.__setattr__(self, "value", val)


@_node
class Var(Expr):
    name: str

    def __post_init__(self):
        if not self.name or not _IDENT_RE.fullmatch(self.name):
            raise ExpressionError(f"invalid variable name {self.name!r}")
        if self.name in RESERVED_NAMES:
            raise ExpressionError(f"{self.name!r} is a reserved function name")


@_node
class Add(Expr):
    left: Expr
    right: Expr


@_node
class Sub(Expr):
    left: Expr
    right: Expr


@_node
class Mul(Expr):
    left: Expr
    right: Expr


@_node
class Div(Expr):
    left: Expr
    right: Expr


@_node
class Neg(Expr):
    operand: Expr


@_node
class Pow(Expr):
    base: Expr
    exponent: Expr


@_node
class Exp(Expr):
    operand: Expr


@_node
class Ln(Expr):
    operand: Expr


@_node
class Abs(Expr):
    operand: Expr


@_node
class Sqrt(Expr):
    operand: Expr


@_node
class Sin(Expr):
    operand: Expr


@_node
class Cos(Expr):
    operand: Expr


@_node
class Antideriv(Expr):
    """Definite integral of ``integrand`` from ``base`` to the value of ``var``.

    Inside the integrand, ``var`` plays the role of the integration dummy;
    at evaluation time the node's value is
    ``int_{base}^{binding[var]} integrand(var -> xi) d xi``.
    """

    integrand: Expr
    var: str
    base: float

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.var) or self.var in RESERVED_NAMES:
            raise ExpressionError(f"invalid integration variable {self.var!r}")
        base = float(self.base)
        if not math.isfinite(base):
            raise ExpressionError("integration base must be finite")
        if base == 0.0:
            base = 0.0  # normalize -0.0, as Const does: equal nodes agree
        object.__setattr__(self, "base", base)
        if antideriv_depth(self.integrand) >= MAX_ANTIDERIV_DEPTH:
            raise ExpressionError(
                f"antiderivative nesting deeper than {MAX_ANTIDERIV_DEPTH} "
                "is not supported"
            )


_UNARY_CLASSES = {"exp": Exp, "ln": Ln, "abs": Abs, "sqrt": Sqrt,
                  "sin": Sin, "cos": Cos}

ZERO = Const(0.0)
ONE = Const(1.0)
TWO = Const(2.0)


def as_expr(value: ExprLike) -> Expr:
    """Coerce a number to a Const, passing expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


def antideriv_depth(expr: Expr) -> int:
    """Maximum nesting depth of Antideriv nodes in the tree."""
    if isinstance(expr, Antideriv):
        return 1 + antideriv_depth(expr.integrand)
    if isinstance(expr, (Const, Var)):
        return 0
    return max((antideriv_depth(c) for c in _children(expr)), default=0)


def _children(expr: Expr) -> Iterable[Expr]:
    if isinstance(expr, (Add, Sub, Mul, Div)):
        return (expr.left, expr.right)
    if isinstance(expr, Pow):
        return (expr.base, expr.exponent)
    if isinstance(expr, (Neg, Exp, Ln, Abs, Sqrt, Sin, Cos)):
        return (expr.operand,)
    if isinstance(expr, Antideriv):
        return (expr.integrand,)
    return ()


@lru_cache(maxsize=1024)
def free_vars(expr: Expr) -> frozenset[str]:
    """Names the expression's value depends on (an Antideriv depends on its var)."""
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Antideriv):
        return free_vars(expr.integrand) | {expr.var}
    out: frozenset[str] = frozenset()
    for child in _children(expr):
        out |= free_vars(child)
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

_TOKEN_SPEC = [
    ("NUMBER", _NUMBER_RE),
    ("IDENT", _IDENT_RE),
]
_SINGLE_CHARS = set("+-*/^(),")


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind
        self.text = text
        self.offset = offset


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SINGLE_CHARS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("IDENT", m.group(), i))
            i = m.end()
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, params: frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.params = params
        self.bound: list[str] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.offset,
            )
        return self.advance()

    def parse(self) -> Expr:
        expr = self.parse_sum()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(f"unexpected trailing {tok.text!r}", tok.offset)
        return expr

    def parse_sum(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.parse_unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            operand = self.parse_unary()
            if isinstance(operand, Const):
                return Const(-operand.value)
            return Neg(operand)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "^":
            self.advance()
            exponent = self.parse_unary()
            return Pow(base, exponent)
        return base

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "(":
            self.advance()
            inner = self.parse_sum()
            self.expect(")")
            return inner
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if self.peek().kind == "(":
                return self.parse_call(name, tok.offset)
            if name in RESERVED_NAMES:
                raise ExprSyntaxError(
                    f"function name {name!r} used without arguments", tok.offset
                )
            if (name in CORE_VARIABLES or name in self.params
                    or name in self.bound):
                return Var(name)
            raise UnknownIdentifierError(name, tok.offset)
        raise ExprSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.offset
        )

    def parse_call(self, name: str, offset: int) -> Expr:
        if name in _UNARY_CLASSES:
            self.expect("(")
            arg = self.parse_sum()
            self.expect(")")
            return _UNARY_CLASSES[name](arg)
        if name == INTEGRAL_NAME:
            return self.parse_integral()
        raise UnknownIdentifierError(name, offset)

    def parse_integral(self) -> Expr:
        # integral(var, base, integrand); var is bound inside the integrand
        self.expect("(")
        var_tok = self.expect("IDENT")
        if var_tok.text in RESERVED_NAMES:
            raise ExprSyntaxError(
                f"cannot integrate over reserved name {var_tok.text!r}",
                var_tok.offset,
            )
        self.expect(",")
        sign = 1.0
        if self.peek().kind == "-":
            self.advance()
            sign = -1.0
        base_tok = self.expect("NUMBER")
        self.expect(",")
        self.bound.append(var_tok.text)
        try:
            integrand = self.parse_sum()
        finally:
            self.bound.pop()
        self.expect(")")
        return Antideriv(integrand, var_tok.text, sign * float(base_tok.text))


def parse_expression(text: str, params: Iterable[str] = ()) -> Expr:
    """Parse text into an expression tree.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input and
    :class:`UnknownIdentifierError` for identifiers that are neither core
    variables (x, v, t) nor declared parameters.
    """
    param_set = frozenset(params)
    bad = param_set & RESERVED_NAMES
    if bad:
        raise ValueError(f"parameters shadow reserved names: {sorted(bad)}")
    return _Parser(text, param_set).parse()


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _format_number(value: float) -> str:
    # a negative value gives "-" and the text of its magnitude
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def format_expression(expr: Expr) -> str:
    """Render an expression as parseable text (print-parse-print fixed point).

    Each node's text is stored on the node at its first rendering, so a
    tree is formatted once however often it is printed, and a subtree it
    shares with a tree already printed is not formatted again.
    """
    return _format(expr, 0)


def _format(expr: Expr, min_prec: int) -> str:
    """``expr``'s text, in parentheses if it binds looser than ``min_prec``.

    The node's rule gives its text and the precedence of its outermost
    operator in one pass.  The pair is stored in the node's ``_text`` slot,
    which, like ``_hash``, stays out of the fields: nodes are immutable, so
    it never goes stale.
    """
    try:
        text, prec = expr._text
    except AttributeError:
        try:
            rule = _FORMAT_RULES[type(expr)]
        except KeyError:
            raise ExpressionError(
                f"cannot format {type(expr).__name__}") from None
        pair = rule(expr)
        object.__setattr__(expr, "_text", pair)
        text, prec = pair
    return text if prec >= min_prec else f"({text})"


def _infix(op: str, prec: int):
    def rule(expr) -> tuple[str, int]:
        return (f"{_format(expr.left, prec)} {op} "
                f"{_format(expr.right, prec + 1)}", prec)
    return rule


def _call(name: str):
    def rule(expr) -> tuple[str, int]:
        return f"{name}({_format(expr.operand, 0)})", _PREC_ATOM
    return rule


# each node type's rule: (text, precedence of the outermost operator)
_FORMAT_RULES = {
    Const: lambda e: (_format_number(e.value),
                      _PREC_NEG if e.value < 0 else _PREC_ATOM),
    Var: lambda e: (e.name, _PREC_ATOM),
    Add: _infix("+", _PREC_ADD),
    Sub: _infix("-", _PREC_ADD),
    Mul: _infix("*", _PREC_MUL),
    Div: _infix("/", _PREC_MUL),
    Neg: lambda e: ("-" + _format(e.operand, _PREC_NEG), _PREC_NEG),
    Pow: lambda e: (f"{_format(e.base, _PREC_ATOM)}^"
                    f"{_format(e.exponent, _PREC_NEG)}", _PREC_POW),
    Antideriv: lambda e: (f"integral({e.var}, {_format_number(e.base)}, "
                          f"{_format(e.integrand, 0)})", _PREC_ATOM),
    **{cls: _call(name) for name, cls in _UNARY_CLASSES.items()},
}


def canonical(expr: Expr) -> Expr:
    """Normal form reached by parsing formatted output.

    The only rewrite is folding negation of numeric literals into the literal,
    applied bottom-up, which makes ``parse(format(e)) == canonical(e)`` hold
    for every tree.
    """
    expr = _rebuild(expr, canonical)
    if isinstance(expr, Neg) and isinstance(expr.operand, Const):
        return Const(-expr.operand.value)
    return expr


def _rebuild(expr: Expr, f) -> Expr:
    """``expr`` with ``f`` applied to each child; ``expr`` itself when ``f``
    returns every child unchanged, so unchanged subtrees keep their identity
    and their stored hash."""
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, (Add, Sub, Mul, Div)):
        left, right = f(expr.left), f(expr.right)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(left, right)
    if isinstance(expr, Pow):
        base, exponent = f(expr.base), f(expr.exponent)
        if base is expr.base and exponent is expr.exponent:
            return expr
        return Pow(base, exponent)
    if isinstance(expr, (Neg, Exp, Ln, Abs, Sqrt, Sin, Cos)):
        operand = f(expr.operand)
        return expr if operand is expr.operand else type(expr)(operand)
    if isinstance(expr, Antideriv):
        integrand = f(expr.integrand)
        if integrand is expr.integrand:
            return expr
        return Antideriv(integrand, expr.var, expr.base)
    raise ExpressionError(f"cannot rebuild {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Local simplification
# ---------------------------------------------------------------------------

def _is_const(expr: Expr, value: float | None = None) -> bool:
    if not isinstance(expr, Const):
        return False
    return value is None or expr.value == value


def _fold_binary(op, left: float, right: float) -> Expr | None:
    try:
        result = op(left, right)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    if isinstance(result, complex) or not math.isfinite(result):
        return None
    return Const(result)


def simplify(expr: Expr) -> Expr:
    """Bottom-up local simplification: constant folding plus identity and
    annihilator rules (e + 0 -> e, 1 * e -> e, 0 * e -> 0, e^1 -> e, ...).

    Each node object of ``expr`` is simplified once per call, so a subtree
    that ``expr`` holds at many places is simplified once and its result
    shared.  The memo is keyed by identity, which is exact (the rules are a
    function of the node) and safe: ``expr`` keeps every key's object alive
    for the whole call.  It lasts for one call only.

    Across calls, a node that is its own simplification is marked and
    returned at once by every later call, so a subtree that has been
    simplified is never walked again.  A node is marked only when the rules
    return it unchanged over children that are themselves unchanged, so by
    induction ``simplify(node) is node`` for every marked node, and the mark
    never changes a result.  ``simplify`` is not idempotent in general
    (``-1 * -x`` gives ``-(-x)``, and only a second call gives ``x``); a
    node that a rule produced is not marked until a later call finds it
    unchanged.
    """
    done: dict = {}

    def once(e: Expr) -> Expr:
        if getattr(e, "_simplified", False):
            return e
        out = done.get(id(e))
        if out is None:
            out = done[id(e)] = _simplify_node(_rebuild(e, once))
            if out is e:
                object.__setattr__(e, "_simplified", True)
        return out

    return once(expr)


def _simplify_node(expr: Expr) -> Expr:
    """The local rules at one node whose operands are already simplified."""
    if isinstance(expr, Add):
        l, r = expr.left, expr.right
        if _is_const(l, 0.0):
            return r
        if _is_const(r, 0.0):
            return l
        if isinstance(l, Const) and isinstance(r, Const):
            folded = _fold_binary(lambda a, b: a + b, l.value, r.value)
            if folded is not None:
                return folded
        return expr
    if isinstance(expr, Sub):
        l, r = expr.left, expr.right
        if _is_const(r, 0.0):
            return l
        if _is_const(l, 0.0):
            return Const(-r.value) if isinstance(r, Const) else Neg(r)
        if isinstance(l, Const) and isinstance(r, Const):
            folded = _fold_binary(lambda a, b: a - b, l.value, r.value)
            if folded is not None:
                return folded
        if l == r:
            return ZERO
        return expr
    if isinstance(expr, Mul):
        l, r = expr.left, expr.right
        if _is_const(l, 0.0) or _is_const(r, 0.0):
            return ZERO
        if _is_const(l, 1.0):
            return r
        if _is_const(r, 1.0):
            return l
        if _is_const(l, -1.0):
            return Const(-r.value) if isinstance(r, Const) else Neg(r)
        if _is_const(r, -1.0):
            return Const(-l.value) if isinstance(l, Const) else Neg(l)
        if isinstance(l, Const) and isinstance(r, Const):
            folded = _fold_binary(lambda a, b: a * b, l.value, r.value)
            if folded is not None:
                return folded
        return expr
    if isinstance(expr, Div):
        l, r = expr.left, expr.right
        if _is_const(r, 1.0):
            return l
        if _is_const(l, 0.0) and not _is_const(r, 0.0):
            return ZERO
        if isinstance(l, Const) and isinstance(r, Const) and r.value != 0:
            folded = _fold_binary(lambda a, b: a / b, l.value, r.value)
            if folded is not None:
                return folded
        return expr
    if isinstance(expr, Neg):
        u = expr.operand
        if isinstance(u, Const):
            return Const(-u.value)
        if isinstance(u, Neg):
            return u.operand
        return expr
    if isinstance(expr, Pow):
        base, exponent = expr.base, expr.exponent
        if _is_const(exponent, 1.0):
            return base
        if _is_const(exponent, 0.0):
            return ONE
        if _is_const(base, 1.0):
            return ONE
        if isinstance(base, Const) and isinstance(exponent, Const):
            folded = _fold_binary(lambda a, b: a ** b, base.value, exponent.value)
            if folded is not None:
                return folded
        return expr
    if isinstance(expr, Exp):
        if _is_const(expr.operand):
            folded = _fold_binary(lambda a, _: math.exp(a), expr.operand.value, 0.0)
            if folded is not None:
                return folded
        return expr
    if isinstance(expr, Ln):
        u = expr.operand
        if isinstance(u, Const) and u.value > 0:
            return Const(math.log(u.value))
        if isinstance(u, Exp):
            return u.operand
        return expr
    if isinstance(expr, Sqrt):
        u = expr.operand
        if isinstance(u, Const) and u.value >= 0:
            return Const(math.sqrt(u.value))
        return expr
    if isinstance(expr, Abs):
        u = expr.operand
        if isinstance(u, Const):
            return Const(abs(u.value))
        if isinstance(u, Abs):
            return u
        return expr
    if isinstance(expr, Sin) and _is_const(expr.operand):
        return Const(math.sin(expr.operand.value))
    if isinstance(expr, Cos) and _is_const(expr.operand):
        return Const(math.cos(expr.operand.value))
    if isinstance(expr, Antideriv) and _is_const(expr.integrand, 0.0):
        return ZERO
    return expr


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Const(-b.value) if isinstance(b, Const) else Neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return ZERO
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _diff(expr: Expr, var: str, notes: set[str]) -> Expr:
    if isinstance(expr, Const):
        return ZERO
    if isinstance(expr, Var):
        return ONE if expr.name == var else ZERO
    if var not in free_vars(expr):
        return ZERO
    if isinstance(expr, Add):
        return _add(_diff(expr.left, var, notes), _diff(expr.right, var, notes))
    if isinstance(expr, Sub):
        return _sub(_diff(expr.left, var, notes), _diff(expr.right, var, notes))
    if isinstance(expr, Neg):
        return _neg(_diff(expr.operand, var, notes))
    if isinstance(expr, Mul):
        l, r = expr.left, expr.right
        return _add(_mul(_diff(l, var, notes), r), _mul(l, _diff(r, var, notes)))
    if isinstance(expr, Div):
        l, r = expr.left, expr.right
        return _div(
            _sub(_mul(_diff(l, var, notes), r), _mul(l, _diff(r, var, notes))),
            Mul(r, r),
        )
    if isinstance(expr, Pow):
        base, exponent = expr.base, expr.exponent
        db = _diff(base, var, notes)
        if var not in free_vars(exponent):
            new_exp = simplify(Sub(exponent, ONE))
            return _mul(_mul(exponent, Pow(base, new_exp)), db)
        de = _diff(exponent, var, notes)
        # d(b^e) = b^e * (e' ln b + e b'/b)
        return _mul(
            expr,
            _add(_mul(de, Ln(base)), _div(_mul(exponent, db), base)),
        )
    if isinstance(expr, Exp):
        return _mul(expr, _diff(expr.operand, var, notes))
    if isinstance(expr, Ln):
        return _div(_diff(expr.operand, var, notes), expr.operand)
    if isinstance(expr, Sqrt):
        return _div(_diff(expr.operand, var, notes), _mul(TWO, expr))
    if isinstance(expr, Sin):
        return _mul(Cos(expr.operand), _diff(expr.operand, var, notes))
    if isinstance(expr, Cos):
        return _neg(_mul(Sin(expr.operand), _diff(expr.operand, var, notes)))
    if isinstance(expr, Abs):
        notes.add(ABS_DERIVATIVE_NOTE)
        u = expr.operand
        return _mul(_div(u, expr), _diff(u, var, notes))
    if isinstance(expr, Antideriv):
        if var == expr.var:
            return expr.integrand
        inner = _diff(expr.integrand, var, notes)
        if _is_const(inner, 0.0):
            return ZERO
        return Antideriv(simplify(inner), expr.var, expr.base)
    raise ExpressionError(f"cannot differentiate {type(expr).__name__}")


@lru_cache(maxsize=1024)
def _diff_cached(expr: Expr, var: str) -> tuple[Expr, frozenset[str]]:
    notes: set[str] = set()
    result = simplify(_diff(expr, var, notes))
    return result, frozenset(notes)


def differentiate(expr: Expr, var: str) -> Expr:
    """Symbolic partial derivative with local simplification.

    For Antideriv nodes the derivative with respect to the integration
    variable is the integrand (fundamental theorem of calculus); derivatives
    with respect to other variables differentiate under the integral sign.
    """
    return _diff_cached(expr, var)[0]


def differentiate_with_notes(expr: Expr, var: str) -> tuple[Expr, frozenset[str]]:
    """Like :func:`differentiate` but also returns validity notes, e.g. the
    away-from-zero caveat attached to the derivative of ``abs``.
    """
    return _diff_cached(expr, var)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(expr: Expr, name: str, replacement: ExprLike) -> Expr:
    """Replace every free occurrence of ``name`` with ``replacement``."""
    replacement = as_expr(replacement)
    rep_vars = free_vars(replacement)

    def walk(node: Expr) -> Expr:
        # nothing to replace below this node: share the subtree
        if name not in free_vars(node):
            return node
        if isinstance(node, Var):
            return replacement if node.name == name else node
        if isinstance(node, Antideriv):
            if node.var == name:
                raise SubstitutionError(
                    f"cannot substitute integration variable {name!r}"
                )
            if node.var in rep_vars:
                raise SubstitutionError(
                    f"substitution would capture integration variable "
                    f"{node.var!r}"
                )
            if name not in free_vars(node.integrand):
                return node
            return Antideriv(walk(node.integrand), node.var, node.base)
        if isinstance(node, (Const,)):
            return node
        return _rebuild(node, walk)

    return walk(expr)
