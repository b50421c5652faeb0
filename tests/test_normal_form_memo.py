"""``normal_form`` normalises each distinct subtree once per call.

Equal subtrees have equal normal forms, so keeping each one's result for
the rest of the call changes no result; trees built from Horner
polynomials repeat a few subtrees many times.
"""
import importlib
from collections import Counter

from lagrangeforge import expressions, parse_expression

nf_module = importlib.import_module("lagrangeforge.normal_form")

HORNER = "((x*t + 1)*t + 2)*v"
TEXTS = [
    f"({HORNER})^2 + exp(({HORNER})*t) - ({HORNER})/(1 + x^2)",
    f"ln({HORNER}) * ({HORNER}) + sqrt(x + 2)*sqrt(x + 2)",
    "0.5*exp(0.3*t)*(v^2 - 2.25*x^2) + integral(t, 0, exp(x*t)*v)",
]


def _nodes(e):
    """Every node of ``e``, once per place it occurs."""
    yield e
    for child in expressions._children(e):
        yield from _nodes(child)


def test_each_distinct_subtree_is_normalised_once(monkeypatch):
    for text in TEXTS:
        expr = expressions.simplify(parse_expression(text))
        seen = Counter()
        real = nf_module._nf_node

        def counted(node, memo):
            seen[node] += 1
            return real(node, memo)

        monkeypatch.setattr(nf_module, "_nf_node", counted)
        memoised = nf_module.normal_form(expr)
        monkeypatch.undo()
        assert memoised is not None
        assert set(seen.values()) == {1}
        nodes = list(_nodes(expr))
        assert set(seen) <= set(nodes) and len(nodes) > len(seen)

        # the same normal form as a walk that keeps nothing
        monkeypatch.setattr(nf_module, "_nf",
                            lambda node, memo: nf_module._nf_node(node, {}))
        assert nf_module.normal_form(expr) == memoised
        monkeypatch.undo()
