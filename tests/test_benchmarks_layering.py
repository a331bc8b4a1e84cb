"""Lint: the benchmark scripts measure the program, never the test suite.

The reference implementations under ``tests/oracles/`` exist for the
differential tests.  A benchmark that imports them, or puts ``tests/`` on
``sys.path`` to reach them, would time code that no user runs and tie
``benchmarks/`` to the test tree's layout.  Host time is perfbench's job; the
scripts under ``benchmarks/`` regenerate the paper's figures through
``repro`` and record perfbench's medians.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path, PurePosixPath

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: Top-level packages that live in the test tree.
TEST_PACKAGES = {"oracles", "tests"}


def _imported_modules(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def _violations(path: Path) -> Iterator[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        for module in _imported_modules(node):
            if module.split(".")[0] in TEST_PACKAGES:
                yield f"{path.name}:{node.lineno}: imports {module}"
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "tests" in PurePosixPath(node.value).parts):
            yield f"{path.name}:{node.lineno}: path into tests/: {node.value!r}"


def test_benchmarks_do_not_reach_into_tests():
    scripts = sorted(BENCHMARKS.glob("*.py"))
    assert scripts
    violations = [line for path in scripts for line in _violations(path)]
    assert not violations, "benchmarks/ reaches into tests/:\n" + "\n".join(violations)
