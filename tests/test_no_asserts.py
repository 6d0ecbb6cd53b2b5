"""Soundness checks must survive python -O, so the package holds no assert."""

import ast
import pathlib

import pytest

import baltri

from conftest import start_optimized_run

OPTIMIZED_MODULES = (
    "test_flips.py",
    "test_acceptance.py",
    "test_surface.py",
    "test_child_path.py",
    "test_fileio.py",
)


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


@pytest.mark.parametrize("module", OPTIMIZED_MODULES)
def test_flip_tests_pass_under_optimization(module, pytestconfig):
    # validate's, the parsers' and the move layer's soundness checks, and the
    # headline guarantees built on them, must hold without asserts; conftest
    # starts each selected run at collection, so the runs overlap the session
    proc = start_optimized_run(pytestconfig, module)
    out, _ = proc.communicate(timeout=120)
    print(out[-3000:])
    assert proc.returncode == 0, out[-3000:]
