"""Expression-node bookkeeping: memo slots, simplify dispatch, merged terms.

Every node is built with its hash memo empty (``None``) and its simplify
mark unset (``False``), and every other way a node comes to be (copying,
unpickling) leaves them so.  ``simplify`` looks its rules up by node type;
the reference below is the isinstance chain it replaced, kept to check
that the lookup changes no result and no mark.  The normal form's merge
is checked the same way against the loop it replaced.
"""
import contextlib
import copy
import dataclasses
import importlib
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangeforge.errors import ExpressionError
from lagrangeforge.expressions import (
    ONE,
    ZERO,
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
    canonical,
    parse_expression,
    simplify,
)

SRC = Path(__file__).resolve().parent.parent / "src"
ALL_NODES = ("exp(2*x) + ln(x) - abs(v) / sqrt(t) * -x^3"
             " + sin(t) + cos(x) + integral(s, 0.375, s*x)")
UNSET = object()  # getattr's default for a slot that holds no value
nf = importlib.import_module("lagrangeforge.normal_form")


def _nodes(expr):
    yield expr
    for f in dataclasses.fields(expr):
        child = getattr(expr, f.name)
        if isinstance(child, Expr):
            yield from _nodes(child)


def _empty(node):
    return (node._hash is None and node._simplified is False
            and getattr(node, "_text", UNSET) is UNSET)


# --- the isinstance-chain simplify that the dispatch tables replaced -------

def _rebuild_reference(expr, f):
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


def _is_const(expr, value=None):
    if not isinstance(expr, Const):
        return False
    return value is None or expr.value == value


def _fold(op, left, right):
    try:
        result = op(left, right)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    if isinstance(result, complex) or not math.isfinite(result):
        return None
    return Const(result)


def _simplify_node_reference(expr):
    if isinstance(expr, Add):
        l, r = expr.left, expr.right
        if _is_const(l, 0.0):
            return r
        if _is_const(r, 0.0):
            return l
        if isinstance(l, Const) and isinstance(r, Const):
            folded = _fold(lambda a, b: a + b, l.value, r.value)
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
            folded = _fold(lambda a, b: a - b, l.value, r.value)
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
            folded = _fold(lambda a, b: a * b, l.value, r.value)
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
            folded = _fold(lambda a, b: a / b, l.value, r.value)
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
            folded = _fold(lambda a, b: a ** b, base.value, exponent.value)
            if folded is not None:
                return folded
        return expr
    if isinstance(expr, Exp):
        if _is_const(expr.operand):
            folded = _fold(lambda a, _: math.exp(a), expr.operand.value, 0.0)
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


def _simplify_reference(expr):
    done = {}

    def once(e):
        if getattr(e, "_simplified", False):
            return e
        out = done.get(id(e))
        if out is None:
            out = done[id(e)] = _simplify_node_reference(_rebuild_reference(e, once))
            if out is e:
                object.__setattr__(e, "_simplified", True)
        return out

    return once(expr)


def _canonical_reference(expr):
    expr = _rebuild_reference(expr, _canonical_reference)
    if isinstance(expr, Neg) and isinstance(expr.operand, Const):
        return Const(-expr.operand.value)
    return expr


# constants that hit every rule: the identities, signed zeros, and values
# whose sums, products, powers and exponentials overflow
CONSTANTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e308,
                             -1e308, 1e200, 710.0, 400.0])
UNARY = [Neg, Exp, Ln, Abs, Sqrt, Sin, Cos]
BINARY = [Add, Sub, Mul, Div, Pow]


@st.composite
def trees(draw, depth=0, integral=True):
    if depth >= 4 or draw(st.integers(0, 4)) == 0:
        if draw(st.booleans()):
            return Const(draw(CONSTANTS))
        return Var(draw(st.sampled_from(["x", "v", "t"])))
    kind = draw(st.sampled_from(["unary", "binary", "same", "integral"]))
    if kind == "unary":
        return draw(st.sampled_from(UNARY))(draw(trees(depth + 1, integral)))
    if kind == "same" or (kind == "integral" and not integral):
        # Sub(e, e) with one object or two equal ones: the l == r rule
        sub = draw(trees(depth + 1, integral))
        return Sub(sub, sub if draw(st.booleans()) else copy.deepcopy(sub))
    if kind == "integral":
        body = draw(trees(depth + 1, integral=False))
        return Antideriv(body, "t", draw(CONSTANTS))
    cls = draw(st.sampled_from(BINARY))
    return cls(draw(trees(depth + 1, integral)), draw(trees(depth + 1, integral)))


def _marks(expr):
    return [n._simplified for n in _nodes(expr)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trees())
def test_dispatched_simplify_matches_the_isinstance_chain(drawn):
    # the second tree's result is a rule's product, -(-e): unmarked until a
    # second call; the third repeats one subtree object at two places
    for expr in (drawn, Mul(Const(-1.0), Neg(drawn)), Add(drawn, drawn)):
        ours, theirs = copy.deepcopy(expr), copy.deepcopy(expr)
        for _ in range(3):  # a fresh tree, then the marked earlier results
            got, want = simplify(ours), _simplify_reference(theirs)
            assert got == want and repr(got) == repr(want)
            assert _marks(ours) == _marks(theirs)
            assert _marks(got) == _marks(want)
            ours, theirs = got, want
        got, want = canonical(expr), _canonical_reference(expr)
        assert got == want and repr(got) == repr(want)


def test_an_unknown_node_type_still_cannot_be_rebuilt():
    @dataclasses.dataclass(frozen=True)
    class Plain(Expr):
        operand: Expr

    with pytest.raises(ExpressionError, match="cannot rebuild Plain"):
        simplify(Plain(Var("x")))


# --- memo slots ---------------------------------------------------------

def test_fresh_nodes_hold_empty_memos():
    tree = parse_expression(ALL_NODES, params=("s",))
    nodes = list(_nodes(tree))
    assert len({type(n) for n in nodes}) == 15
    for node in nodes + [Const(-0.0), Antideriv(Var("x"), "s", -0.0)]:
        assert _empty(node)


def test_one_hash_stores_the_structural_hash():
    tree = parse_expression(ALL_NODES, params=("s",))
    leaf = tree.right.integrand.right
    assert hash(leaf) == leaf._hash == leaf._structural_hash()
    assert tree._hash is None
    h = hash(tree)
    # the root's structural hash asks its children for theirs, so every
    # node of the tree holds its hash after one call
    for node in _nodes(tree):
        assert node._hash == node._structural_hash()
    assert h == tree._hash and hash(tree) == h


@pytest.mark.parametrize("make", [
    copy.copy,
    copy.deepcopy,
    lambda e: dataclasses.replace(e, right=copy.deepcopy(e.right)),
    lambda e: pickle.loads(pickle.dumps(e)),
])
def test_copies_start_with_empty_memos(make):
    tree = parse_expression(ALL_NODES, params=("s",))
    simplify(tree), str(tree), hash(tree)
    assert tree._simplified and tree._hash is not None
    made = make(tree)
    assert _empty(made)
    if make is not copy.copy:  # a shallow copy shares its children
        for node in _nodes(made.right):
            assert _empty(node)
    assert made is not tree and made == tree
    assert hash(made) == hash(tree) and made._hash == tree._hash
    assert simplify(made) is made and str(made) == str(tree)


def test_a_pickle_loads_under_another_hash_seed(tmp_path):
    # a stored hash is the process's own: Var names hash by PYTHONHASHSEED,
    # so a pickled one would be wrong in the loading process
    dump, load = tmp_path / "dump.py", tmp_path / "load.py"
    prelude = ("import pickle, sys\n"
               "from lagrangeforge.expressions import parse_expression, simplify\n"
               f"TEXT = {ALL_NODES!r}\n")
    dump.write_text(prelude + (
        "tree = parse_expression(TEXT, params=('s',))\n"
        "hash(tree), simplify(tree), str(tree)\n"
        "sys.stdout.buffer.write(pickle.dumps(tree))\n"))
    load.write_text(prelude + (
        "from lagrangeforge.expressions import Expr\n"
        "import dataclasses\n"
        "def nodes(e):\n"
        "    yield e\n"
        "    for f in dataclasses.fields(e):\n"
        "        c = getattr(e, f.name)\n"
        "        if isinstance(c, Expr):\n"
        "            yield from nodes(c)\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = parse_expression(TEXT, params=('s',))\n"
        "assert all(n._hash is None and not n._simplified for n in nodes(loaded))\n"
        "for a, b in zip(nodes(loaded), nodes(fresh)):\n"
        "    assert a == b and hash(a) == hash(b)\n"
        "    assert {b: 'found'}[a] == 'found'\n"
        "print('ok')\n"))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    pickled = subprocess.run([sys.executable, str(dump)], check=True,
                             capture_output=True,
                             env={**env, "PYTHONHASHSEED": "1"}).stdout
    loaded = subprocess.run([sys.executable, str(load)], check=True,
                            input=pickled, capture_output=True,
                            env={**env, "PYTHONHASHSEED": "2"})
    assert loaded.stdout.decode().split() == ["ok"]


# --- normal form: the merge before it was made leaner -----------------------

def _round12_reference(c):
    if c == 0.0 or not math.isfinite(c):
        return c
    return float(f"{c:.12g}")


def _merge_reference(terms):
    acc = {}
    scale = {}   # each term's largest |contribution|
    flat = []
    for term in terms:
        flat.extend(nf._expand_term(term))
    for coeff, factors, exparg in flat:
        key = (factors, exparg)
        acc[key] = acc.get(key, 0.0) + coeff
        scale[key] = max(scale.get(key, 0.0), abs(coeff))
    out = []
    for (factors, exparg), coeff in acc.items():
        if not math.isfinite(coeff):
            raise nf._Budget  # overflow is refused, not dropped as noise
        coeff = _round12_reference(coeff)
        if coeff == 0.0 or abs(coeff) <= 1e-11 * scale[factors, exparg]:
            continue
        out.append((coeff, factors, exparg))
    if len(out) > nf._MAX_TERMS:
        raise nf._Budget
    return tuple(sorted(out, key=lambda term: (term[1], term[2], term[0])))


def _nf_add_reference(a, b):
    return _merge_reference(a + b)


def _mul_term_reference(t1, t2):
    c1, f1, e1 = t1
    c2, f2, e2 = t2
    powers = {}
    for atom, exponent in f1 + f2:
        powers[atom] = powers.get(atom, 0.0) + exponent
    factors = tuple(sorted(
        (atom, _round12_reference(p)) for atom, p in powers.items()
        if _round12_reference(p) != 0.0
    ))
    return (c1 * c2, factors, _nf_add_reference(e1, e2))


@contextlib.contextmanager
def _reference_merge():
    swapped = {"_round12": _round12_reference, "_merge": _merge_reference,
               "_nf_add": _nf_add_reference, "_mul_term": _mul_term_reference}
    kept = {name: getattr(nf, name) for name in swapped}
    try:
        for name, func in swapped.items():
            setattr(nf, name, func)
        yield
    finally:
        for name, func in kept.items():
            setattr(nf, name, func)


# sums under small powers and square roots expand; 1 + 1e-13 leaves a
# difference at the noise bar
NF_TEXTS = ["(x + v)^3 * (x - t)^2", "sqrt(x + v) * sqrt(x + v) * (t + 1)",
            "exp(x + 2) * exp(v - 2) - exp(x + v)", "(x + 1)^2 - (x*x + 2*x)",
            "x * (1 + 1e-13) - x + 1e-12 * v", "ln(x + v)^2 * (x + v)^-1",
            "(x + v)^2.0000000000001 + (x + v)^6.5"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(trees(), st.sampled_from(NF_TEXTS).map(parse_expression)))
def test_leaner_merge_gives_the_same_normal_forms(drawn):
    def outcome(expr):
        try:
            return repr(nf.normal_form(expr))
        except OverflowError as exc:  # a constant power overflows either way
            return repr(exc)

    for expr in (drawn, Mul(drawn, Add(drawn, Var("x"))), Sub(drawn, Neg(drawn))):
        ours = outcome(expr)
        with _reference_merge():
            assert outcome(expr) == ours


# terms whose keys repeat and whose coefficients sit at the noise bar: a
# merged NF can hold a term that merging it once more would drop
LN_X = ("ln", ((1.0, ((("var", "x"), 1.0),), ()),))
TERMS = st.tuples(
    st.sampled_from([1.0, -1.0, 2.0, 0.5, 1.5e-12, -1.5e-12, 1e-13, 3.0]),
    st.lists(st.tuples(st.sampled_from([("var", "x"), ("var", "v"), LN_X]),
                       st.sampled_from([1.0, 2.0, -1.0, 0.5])),
             max_size=2, unique_by=lambda f: f[0]).map(lambda f: tuple(sorted(f))),
    st.sampled_from([(), ((1.0, ((("var", "t"), 1.0),), ()),)]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(TERMS, max_size=6), st.lists(TERMS, max_size=6))
def test_leaner_merge_matches_on_term_lists(first, second):
    a, b = _merge_reference(first), _merge_reference(second)
    assert repr(nf._merge(first + second)) == repr(_merge_reference(first + second))
    for x, y in ((a, b), ((), b), (a, ())):
        assert repr(nf._nf_add(x, y)) == repr(_nf_add_reference(x, y))
    for t1 in a:
        for t2 in b:
            assert repr(nf._mul_term(t1, t2)) == repr(_mul_term_reference(t1, t2))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(st.floats(), st.integers(-10 ** 13, 10 ** 13).map(float),
                 st.sampled_from([1e12, -1e12, 999999999999.0, 1e12 - 0.5,
                                  2.0 ** 53, -0.0, 0.5])))
def test_rounding_to_12_digits_is_unchanged(c):
    assert repr(nf._round12(c)) == repr(_round12_reference(c))
