"""Soundness checks must survive python -O, so the package holds no assert."""

import ast
import pathlib

import baltri


def test_package_source_has_no_assert_statements():
    sources = sorted(pathlib.Path(baltri.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
