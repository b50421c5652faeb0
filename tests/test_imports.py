"""Every module-level import in the package is used or re-exported."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lagrangeforge"


def _imported_names(tree: ast.Module) -> dict:
    """Names bound by the module's top-level imports, with their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path: Path, root: Path = PACKAGE) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported_names(tree)
    return [f"{path.relative_to(root)}:{line}: {name}"
            for name, line in sorted(_imported_names(tree).items())
            if name not in used and name not in exported]


def test_package_modules_have_no_unused_imports():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def test_checker_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\nimport os\nfrom typing import Sequence\n"
                      "__all__ = ['Sequence']\nprint(os.sep)\n")
    assert _unused_imports(module, tmp_path) == ["module.py:2: math"]
