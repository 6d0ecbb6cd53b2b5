"""Soundness checks must survive python -O, so the package holds no assert."""

import ast
import pathlib

import pytest

import baltri

from conftest import run_python


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


@pytest.mark.parametrize("module", ["test_flips.py", "test_acceptance.py"])
def test_flip_tests_pass_under_optimization(module):
    # the move layer's soundness checks, and the headline guarantees built
    # on them, must hold without asserts
    tests = pathlib.Path(__file__).with_name(module)
    done = run_python(
        "import sys, pytest\n"
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {str(tests)!r}]))",
        "-O",
    )
    assert done.returncode == 0, done.stdout[-3000:]
