"""Source checks on the package, with the standard library's ast only.

Outside __init__, every module-level import is used: code deleted from a
module must take its imports with it. And the arithmetic stays exact, so
no module writes a float literal, calls float() or reaches for math.inf or
math.nan.
"""

import ast
from pathlib import Path

import noethercheck

PACKAGE = Path(noethercheck.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def _float_uses(tree):
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"literal {node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append(f"float() (line {node.lineno})")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in ("inf", "nan")
        ):
            out.append(f"math.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [f"math.{a.name} (line {node.lineno})" for a in node.names if a.name in ("inf", "nan")]
    return out


def test_no_unused_module_imports():
    problems = {}
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(_tree(path))
        if unused:
            problems[path.name] = unused
    assert problems == {}


def test_no_floats():
    problems = {}
    for path in MODULES:
        uses = _float_uses(_tree(path))
        if uses:
            problems[path.name] = uses
    assert problems == {}


def test_checks_catch_what_they_claim():
    tree = ast.parse(
        "import math\nfrom fractions import Fraction\nfrom .x import y as z\n"
        "a = math.inf\nb = float('1')\nc = 0.5\n"
    )
    assert _unused_imports(tree) == ["Fraction (line 2)", "z (line 3)"]
    assert _float_uses(tree) == ["math.inf (line 4)", "float() (line 5)", "literal 0.5 (line 6)"]
