"""The package adds floats by left folds, never by builtin ``sum``.

``sum`` adds floats with compensation from Python 3.12 on, so a float or
complex ``sum`` would give different output bits on different supported
Pythons.  Builtin ``sum`` may appear only where it adds integers; each of
those sites is listed here by module and enclosing function.
"""

import ast
from collections import Counter
from pathlib import Path

import logsplit

SRC = Path(logsplit.__file__).resolve().parent

#: (module, enclosing function) -> number of builtin ``sum`` calls there.
INTEGER_SUMS = {
    ("eigen.py", "EigenData.dim"): 1,  # multiplicities
    ("splitting.py", "SplittingType.degree"): 1,  # splitting roots
    ("documents.py", "_q_digit_bound"): 2,  # digit counts
}


def _sum_calls(tree: ast.AST, scope: str = ""):
    """The enclosing qualified name of each call of the name ``sum``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _sum_calls(node, f"{scope}.{node.name}" if scope else node.name)
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
            yield scope
        yield from _sum_calls(node, scope)


def test_builtin_sum_adds_only_integers():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        for scope in _sum_calls(ast.parse(path.read_text(encoding="utf-8"))):
            found[path.name, scope] += 1
    assert dict(found) == INTEGER_SUMS
