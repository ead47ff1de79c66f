"""README's Library code block runs, and each line that ends in a
``# value`` comment, a Python literal, returns a value of that repr."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _value_comment(line: str) -> str | None:
    """The comment of ``line`` when it is a Python literal, else None."""
    if "#" not in line:
        return None
    comment = line.rsplit("#", 1)[1].strip()
    try:
        ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        return None  # prose
    return comment


def test_library_block_values_match_their_comments():
    source = _library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        comment = _value_comment(lines[stmt.end_lineno - 1])
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        if comment is None or not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert repr(value) == comment, ast.get_source_segment(source, stmt)
        checked += 1
    assert checked >= 5
