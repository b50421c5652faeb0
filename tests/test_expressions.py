"""Parser, formatter, differentiation and substitution behavior."""

import copy
import dataclasses
import gc
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangeforge import (
    Abs,
    Add,
    Antideriv,
    Const,
    Cos,
    Div,
    Exp,
    ExprSyntaxError,
    Ln,
    Mul,
    Neg,
    Pow,
    Sin,
    Sqrt,
    Sub,
    SubstitutionError,
    Expr,
    UnknownIdentifierError,
    Var,
    canonical,
    compile_callable,
    differentiate,
    evaluate,
    format_expression,
    free_vars,
    parse_expression,
    simplify,
    substitute,
)

from lagrangeforge.expressions import _FORMAT_RULES, _diff_cached, _memo_hash
from test_node_bookkeeping import trees

X, V, T = Var("x"), Var("v"), Var("t")
UNSET = object()  # getattr's default for a slot that holds no value


class TestParsing:
    def test_number_forms(self):
        assert parse_expression("2") == Const(2.0)
        assert parse_expression("2.5e-3") == Const(0.0025)
        assert parse_expression(".5") == Const(0.5)

    def test_core_variables(self):
        assert parse_expression("x") == X
        assert parse_expression("v*t") == Mul(V, T)

    def test_params_must_be_declared(self):
        assert parse_expression("k*x", params=("k",)) == Mul(Var("k"), X)
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("k*x")
        assert err.value.offset == 0

    def test_precedence(self):
        # 1 + 2*3^2 groups as 1 + (2*(3^2))
        assert evaluate(parse_expression("1 + 2*3^2"), {}) == 19.0

    def test_power_right_associative(self):
        assert evaluate(parse_expression("2^3^2"), {}) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse_expression("-2^2"), {}) == -4.0

    def test_subtraction_left_associative(self):
        assert evaluate(parse_expression("8 - 3 - 2"), {}) == 3.0

    def test_division_left_associative(self):
        assert evaluate(parse_expression("16 / 4 / 2"), {}) == 2.0

    def test_functions(self):
        e = parse_expression("exp(x) + ln(t) + sqrt(v) + abs(x) + sin(t) + cos(t)")
        assert evaluate(e, {"x": 0.0, "v": 4.0, "t": 1.0}) == pytest.approx(
            1.0 + 0.0 + 2.0 + 0.0 + math.sin(1.0) + math.cos(1.0)
        )

    def test_integral_form(self):
        e = parse_expression("integral(s, 0, s^2)", params=("s",))
        assert isinstance(e, Antideriv)
        assert e.var == "s"
        assert e.base == 0.0
        # the dummy is bound inside: not a required parameter of the integrand
        assert free_vars(e) == {"s"}

    def test_integral_negative_base(self):
        e = parse_expression("integral(t, -1.5, t)")
        assert e.base == -1.5

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("x + * v")
        assert err.value.offset == 4

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("(x + v")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("x + v)")

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("x @ v")
        assert err.value.offset == 2

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expression("sinh(x)")

    def test_reserved_param_rejected(self):
        with pytest.raises(ValueError):
            parse_expression("x", params=("exp",))


class TestFormatting:
    def test_round_trip_simple(self):
        for text in [
            "x + v*t",
            "x - (v - t)",
            "x/(v*t)",
            "(x + v)^2",
            "2^x^2",
            "-x^2",
            "exp(-(x*t))",
            "integral(t, 0, t^2*x)",
        ]:
            e = parse_expression(text)
            assert parse_expression(format_expression(e)) == canonical(e)

    def test_subtraction_grouping(self):
        e = parse_expression("x - (v - t)")
        assert evaluate(
            parse_expression(format_expression(e)), {"x": 5.0, "v": 3.0, "t": 2.0}
        ) == 4.0

    def test_negative_constant(self):
        assert format_expression(Const(-2.0)) == "-2"
        assert parse_expression("-2") == Const(-2.0)


@st.composite
def expressions(draw, depth=0):
    if depth >= 4:
        leaf = draw(st.sampled_from(["x", "v", "t", "const"]))
        if leaf == "const":
            c = draw(st.floats(min_value=-9.0, max_value=9.0,
                               allow_nan=False, allow_infinity=False))
            return Const(c)
        return Var(leaf)
    kind = draw(st.sampled_from(
        ["leaf", "add", "sub", "mul", "div", "neg", "pow", "exp", "sin", "cos"]
    ))
    if kind == "leaf":
        return draw(expressions(depth=4))
    if kind in ("add", "sub", "mul", "div"):
        left = draw(expressions(depth=depth + 1))
        right = draw(expressions(depth=depth + 1))
        ctor = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
                "mul": lambda a, b: a * b, "div": Div}[kind]
        return ctor(left, right)
    if kind == "neg":
        return Neg(draw(expressions(depth=depth + 1)))
    if kind == "pow":
        base = draw(expressions(depth=depth + 1))
        n = draw(st.integers(min_value=0, max_value=3))
        return Pow(base, Const(float(n)))
    op = draw(expressions(depth=depth + 1))
    return {"exp": Exp, "sin": Sin, "cos": Cos}[kind](op)


@settings(max_examples=200, deadline=None)
@given(expressions())
def test_format_parse_round_trip(expr):
    assert parse_expression(format_expression(expr)) == canonical(expr)


@settings(max_examples=200, deadline=None)
@given(expressions())
def test_print_parse_print_is_a_fixed_point(expr):
    # the stored text of a node, and of the subtrees it shares with a new
    # tree, is the text a fresh copy renders
    for tree in (expr, Sub(expr, Pow(expr, Neg(expr))), Div(Neg(expr), expr)):
        text = str(tree)
        assert format_expression(tree) == text == str(copy.deepcopy(tree))
        printed = str(parse_expression(text))
        assert str(parse_expression(printed)) == printed


class TestDifferentiation:
    def test_polynomial(self):
        e = parse_expression("x^3 + 2*x")
        d = differentiate(e, "x")
        for xv in (-2.0, 0.0, 1.5):
            assert evaluate(d, {"x": xv}) == pytest.approx(3 * xv * xv + 2)

    def test_product_rule(self):
        d = differentiate(parse_expression("x*v^2"), "v")
        assert evaluate(d, {"x": 3.0, "v": 2.0}) == 12.0

    def test_quotient_rule(self):
        d = differentiate(parse_expression("x/t"), "t")
        assert evaluate(d, {"x": 6.0, "t": 2.0}) == pytest.approx(-1.5)

    def test_chain_rule(self):
        d = differentiate(parse_expression("exp(x^2)"), "x")
        assert evaluate(d, {"x": 1.0}) == pytest.approx(2.0 * math.e)

    def test_absent_variable_gives_zero(self):
        assert differentiate(parse_expression("v^2 + t"), "x") == Const(0.0)

    def test_general_power(self):
        # d/dx x^x = x^x (ln x + 1)
        d = differentiate(Pow(X, X), "x")
        assert evaluate(d, {"x": 2.0}) == pytest.approx(4.0 * (math.log(2.0) + 1.0))

    def test_abs_note(self):
        d = differentiate(Abs(X), "x")
        assert evaluate(d, {"x": -3.0}) == -1.0

    def test_integral_fundamental_theorem(self):
        e = Antideriv(Mul(T, T), "t", 0.0)
        d = differentiate(e, "t")
        assert evaluate(d, {"t": 2.0}) == pytest.approx(4.0)

    def test_integral_parameter_derivative(self):
        # d/dx of int_0^t x*s ds = t^2/2
        e = Antideriv(Mul(X, Var("s")), "s", 0.0)
        d = differentiate(e, "x")
        assert evaluate(d, {"x": 7.0, "s": 3.0}) == pytest.approx(4.5)

    def test_integral_no_dependence(self):
        e = Antideriv(Var("s"), "s", 0.0)
        assert differentiate(e, "x") == Const(0.0)


class TestSubstitution:
    def test_basic(self):
        e = parse_expression("k*x^2", params=("k",))
        assert substitute(e, "k", Const(3.0)) == parse_expression("3*x^2")

    def test_replace_with_expression(self):
        e = substitute(parse_expression("v^2"), "v", parse_expression("x + t"))
        assert evaluate(e, {"x": 1.0, "t": 2.0}) == 9.0

    def test_bound_variable_protected(self):
        e = Antideriv(Mul(Var("s"), X), "s", 0.0)
        with pytest.raises(SubstitutionError):
            substitute(e, "s", Const(1.0))

    def test_capture_rejected(self):
        e = Antideriv(Mul(Var("s"), X), "s", 0.0)
        with pytest.raises(SubstitutionError):
            substitute(e, "x", Var("s"))

    def test_untouched_subtree_shared(self):
        e = parse_expression("x^2 + v")
        assert substitute(e, "t", Const(0.0)) is e


class TestSimplify:
    def test_zero_and_one_identities(self):
        assert simplify(parse_expression("x*1 + 0")) == X
        assert simplify(parse_expression("0*v + x^1")) == X

    def test_constant_folding(self):
        assert simplify(parse_expression("2*3 + 4")) == Const(10.0)

    def test_self_subtraction(self):
        assert simplify(Mul(X, V) - Mul(X, V)) == Const(0.0)

    def test_ln_exp(self):
        assert simplify(Ln(Exp(X))) == X

    def test_guarded_folding(self):
        # 0^-1 stays symbolic instead of raising during simplify
        e = Pow(Const(0.0), Const(-1.0))
        assert simplify(e) == e

    def test_unchanged_subtrees_keep_their_identity(self):
        e = parse_expression("exp(x*v) + integral(s, 0.5, s*x) * (1 + x)",
                             params=("s",))
        assert simplify(e) is e and canonical(e) is e
        changed = simplify(Add(e.left, Mul(Const(1.0), e.right)))
        assert changed.left is e.left and changed.right is e.right

    def test_negations_fold_in_one_call_and_the_mark_keeps_that(self):
        # the Neg that 0 - u or -1 * u builds goes through the Neg rule, so
        # each double negation folds in one call. A mark on a node before
        # its children are simplified, or on a node a rule produced, would
        # return these trees unchanged
        for text, want in (("-1 * -x", X), ("x * -1 * -1", X), ("0 - -x", X),
                           ("x + -1 * -x", Add(X, X))):
            e = parse_expression(text)
            for _ in range(2):  # a fresh tree, then one with marked nodes
                once = simplify(e)
                assert once == want and repr(once) == repr(want)
                assert not e._simplified
                assert simplify(once) is once and once._simplified


def _marked(expr):
    return [n for n in _nodes(expr) if getattr(n, "_simplified", False)]


@settings(max_examples=200, deadline=None)
@given(expressions())
def test_simplify_marks_only_fixed_points(drawn):
    # in the second tree a rule's product, -(-e), goes through the Neg rule
    for expr in (drawn, Mul(Const(-1.0), Neg(copy.deepcopy(drawn)))):
        fresh = simplify(copy.deepcopy(expr))
        fresh_twice = simplify(simplify(copy.deepcopy(expr)))
        assert _marked(copy.deepcopy(expr)) == []
        simplify(expr)
        marked = simplify(expr)
        assert marked == fresh and repr(marked) == repr(fresh)
        twice = simplify(marked)
        assert twice == fresh_twice and repr(twice) == repr(fresh_twice)
        nodes = _marked(expr) + _marked(marked) + _marked(twice)
        assert nodes
        for node in nodes:
            assert simplify(node) is node
            assert simplify(copy.deepcopy(node)) == node


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trees())
def test_simplify_is_idempotent_and_derivatives_are_its_fixed_points(drawn):
    # every rule returns a fixed point, also where a rule builds -(-e); a
    # deep copy drops the marks, so the second call walks the whole tree
    for expr in (drawn, Mul(Const(-1.0), Neg(drawn)), Sub(Const(0.0), Neg(drawn))):
        once = simplify(copy.deepcopy(expr))
        for again in (simplify(once), simplify(copy.deepcopy(once))):
            assert again == once and repr(again) == repr(once)
        for q in ("x", "v", "t"):
            d = differentiate(expr, q)
            again = simplify(copy.deepcopy(d))
            assert again == d and repr(again) == repr(d)
            assert simplify(d) is d


class TestStructure:
    def test_free_vars(self):
        e = parse_expression("integral(s, 0, s*x) + v", params=("s",))
        assert free_vars(e) == {"s", "x", "v"}

    def test_nesting_depth_cap(self):
        inner = Antideriv(Var("a"), "a", 0.0)
        mid = Antideriv(Mul(Var("b"), inner), "b", 0.0)
        with pytest.raises(ValueError):
            Antideriv(Mul(Var("c"), mid), "c", 0.0)

    def test_const_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Const(math.inf)

    def test_var_rejects_reserved(self):
        with pytest.raises(ValueError):
            Var("exp")
        with pytest.raises(ValueError):
            Var("2bad")

    def test_operator_sugar(self):
        e = 2.0 * X + 1.0
        assert evaluate(e, {"x": 3.0}) == 7.0
        e2 = X / 2.0 - 1.0
        assert evaluate(e2, {"x": 8.0}) == 3.0

    def test_sqrt_of_square_abs_semantics(self):
        e = Sqrt(Pow(X, Const(2.0)))
        assert evaluate(e, {"x": -3.0}) == 3.0


# one tree holding every node type
ALL_NODES = ("exp(2*x) + ln(v) - abs(t) * sqrt(x) / sin(v)^cos(t) + -x"
             " + integral(s, 0.375, s*x) + ode_solution(-x, 0, 1, 1, 0, 0)")


def _nodes(expr):
    yield expr
    for f in dataclasses.fields(expr):
        child = getattr(expr, f.name)
        if isinstance(child, Expr):
            yield from _nodes(child)


def _subclasses(base):
    for cls in base.__subclasses__():
        yield cls
        yield from _subclasses(cls)


def _node_types():
    gc.collect()  # drop classes that earlier tests defined and released
    return list(_subclasses(Expr))


def _unmemoised_node_types():
    """Subclasses of ``Expr`` whose instances carry a ``__dict__`` or whose
    hash walks the whole tree, i.e. not declared through ``_node``."""
    return sorted(
        cls.__name__ for cls in _node_types()
        if "__slots__" not in vars(cls) or cls.__dictoffset__
        or cls.__hash__ is not _memo_hash
        or "_structural_hash" not in vars(cls))


def _count_structural_hashes(monkeypatch):
    calls = []
    for cls in _node_types():
        def counting(self, _hash=cls._structural_hash):
            calls.append(type(self).__name__)
            return _hash(self)
        monkeypatch.setattr(cls, "_structural_hash", counting)
    return calls


class TestNodeHash:
    def test_every_node_type_is_slotted_and_memoised(self):
        assert len(_node_types()) == 16
        assert _unmemoised_node_types() == []

    def test_check_flags_a_plain_dataclass_node(self):
        def declare():
            @dataclasses.dataclass(frozen=True)
            class Plain(Expr):
                operand: Expr
            return Plain
        plain = declare()
        try:
            assert _unmemoised_node_types() == ["Plain"]
            assert hasattr(plain(X), "__dict__")
        finally:
            del plain
        assert _unmemoised_node_types() == []

    def test_nodes_have_no_dict_and_hash_structurally(self):
        tree = parse_expression(ALL_NODES, params=("s",))
        nodes = list(_nodes(tree))
        assert {type(n) for n in nodes} == set(_node_types())
        for node in nodes:
            assert not hasattr(node, "__dict__")
        hash(tree)
        for node, fresh in zip(nodes, _nodes(parse_expression(ALL_NODES,
                                                              params=("s",)))):
            structural = hash(tuple(getattr(fresh, f.name)
                                    for f in dataclasses.fields(fresh)))
            assert hash(node) == node._hash == structural

    def test_hash_is_computed_once(self, monkeypatch):
        calls = _count_structural_hashes(monkeypatch)
        tree = parse_expression(ALL_NODES, params=("s",))
        hash(tree)
        assert len(calls) == len(list(_nodes(tree)))
        calls.clear()
        for _ in range(3):
            hash(tree)
            for node in _nodes(tree):
                hash(node)
        assert calls == []

    def test_antideriv_requests_rehash_nothing(self, monkeypatch):
        calls = _count_structural_hashes(monkeypatch)
        node = parse_expression("integral(s, 0.375, s*x)", params=("s",))
        integral = compile_callable(node, ("s", "x"))
        assert integral(0.5, 2.0) == pytest.approx(0.5 ** 2 - 0.375 ** 2)
        calls.clear()
        for s in (0.5, 0.75, 1.0, 0.75):
            integral(s, 2.0)
        assert calls == []

    def test_memo_stays_out_of_fields_repr_eq_and_pickle(self):
        # each memo slot, the call that fills it, a forged value, and the
        # slot's empty value (``_text`` stays unset until the first render)
        for slot, fill, forged_value, empty in (
                ("_hash", hash, 0, None),
                ("_simplified", simplify, True, False),
                ("_text", str, ("forged", 5), UNSET)):
            tree = parse_expression(ALL_NODES, params=("s",))
            assert getattr(tree, slot, UNSET) is empty
            text = repr(tree)
            fill(tree)
            assert getattr(tree, slot, UNSET) is not empty
            assert repr(tree) == text and slot not in text
            for node in _nodes(tree):
                assert slot not in {f.name for f in dataclasses.fields(node)}
            forged = parse_expression(ALL_NODES, params=("s",))
            object.__setattr__(forged, slot, forged_value)
            assert forged == tree
            restored = pickle.loads(pickle.dumps(tree))
            assert getattr(restored, slot, UNSET) is empty
            assert restored == tree and hash(restored) == hash(tree)
            assert str(restored) == str(tree)

    def test_text_is_computed_once(self, monkeypatch):
        calls = []
        for cls, rule in list(_FORMAT_RULES.items()):
            def counting(node, _rule=rule):
                calls.append(type(node).__name__)
                return _rule(node)
            monkeypatch.setitem(_FORMAT_RULES, cls, counting)
        tree = parse_expression(ALL_NODES, params=("s",))
        text = str(tree)
        assert len(calls) == len(list(_nodes(tree)))
        calls.clear()
        for _ in range(3):
            assert str(tree) == text
            for node in _nodes(tree):
                str(node)
        assert calls == []
        # a tree over rendered subtrees formats only its new nodes
        assert str(Mul(tree, Neg(tree.right))) == f"({text}) * -{tree.right}"
        assert calls == ["Mul", "Neg"]

    def test_nodes_stay_frozen(self):
        node = Add(X, V)
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.left = T
        with pytest.raises(dataclasses.FrozenInstanceError):
            node._hash = 0
        assert node.left == X and node._hash is None


def test_symbolic_caches_are_bounded():
    for cached in (free_vars, _diff_cached):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
