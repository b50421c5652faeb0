"""Point-by-point evaluation stays behind a short allowlist.

Scans over many points go through ``evaluate_field`` (or ``jet_field``) and
its mask.  Outside ``evaluation.py`` only the single-point methods below may
call ``evaluate``, ``eval_jet2`` or ``compile_callable``; the integrator's
right-hand side calls its compiled function, generated straight-line code
that is faster per call, made once per solve.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lagrangeforge"

SCALAR_ENTRY_POINTS = {"evaluate", "eval_jet2", "compile_callable"}

ALLOWED = {
    "lagrangian.py:OdeSpec.rhs_value",
    "lagrangian.py:Lagrangian.value",
    "lagrangian.py:Lagrangian.jet",
    "dynamics.py:_solve",
}


def _scalar_calls(path: Path, root: Path = PACKAGE) -> list:
    """``file:qualname`` of each function calling a scalar entry point."""
    tree = ast.parse(path.read_text(), filename=str(path))
    where = str(path.relative_to(root))
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in SCALAR_ENTRY_POINTS:
                found.append(f"{where}:{'.'.join(scope) or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_scalar_evaluation_only_in_allowlist():
    modules = sorted(p for p in PACKAGE.rglob("*.py")
                     if p.name != "evaluation.py")
    assert modules
    calls = {call for path in modules for call in _scalar_calls(path)}
    assert calls - ALLOWED == set()


def test_checker_flags_a_scalar_loop(tmp_path):
    module = tmp_path / "scan.py"
    module.write_text(
        "from .evaluation import evaluate, evaluate_field\n"
        "from . import evaluation\n"
        "class Box:\n"
        "    def worst(self, expr, points):\n"
        "        return max(abs(evaluate(expr, p)) for p in points)\n"
        "def fn(expr):\n"
        "    return evaluation.compile_callable(expr, ('t',))\n"
        "def fine(expr, cols):\n"
        "    return evaluate_field(expr, cols)\n")
    assert _scalar_calls(module, tmp_path) == ["scan.py:Box.worst",
                                               "scan.py:fn"]
