"""Soundness checks must survive python -O, so the package holds no assert."""

import ast
import pathlib
import subprocess

import pytest

import baltri

from conftest import python_command

OPTIMIZED_MODULES = ("test_flips.py", "test_acceptance.py", "test_surface.py")


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


@pytest.fixture(scope="module")
def optimized_runs():
    """One python -O pytest run per module, all started at once so that
    they run at the same time."""
    runs = {}
    for module in OPTIMIZED_MODULES:
        tests = pathlib.Path(__file__).with_name(module)
        argv, env = python_command(
            "import sys, pytest\n"
            f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {str(tests)!r}]))",
            "-O",
        )
        runs[module] = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
    yield runs
    for proc in runs.values():
        proc.kill()  # only a run whose test did not wait for it is still going
        proc.wait()


@pytest.mark.parametrize("module", OPTIMIZED_MODULES)
def test_flip_tests_pass_under_optimization(module, optimized_runs):
    # validate's and the move layer's soundness checks, and the headline
    # guarantees built on them, must hold without asserts
    proc = optimized_runs[module]
    out, _ = proc.communicate(timeout=120)
    print(out[-3000:])
    assert proc.returncode == 0, out[-3000:]
