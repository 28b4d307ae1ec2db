"""The exactness rule: no float call or float literal in the package source.

Every module of ``src/adlv`` is parsed with ``ast``, so docstrings and
comments may still speak of floats.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "adlv"


def _float_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            yield node.lineno, "float(...) call"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"


def test_no_floats_in_the_package():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _float_uses(path)
    ]
    assert found == []
