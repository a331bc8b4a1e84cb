"""Lint: every reference implementation under ``tests/oracles/`` has a user.

An oracle survives only as the reference of a differential suite that
imports it.  One that no ``tests/test_*.py`` module imports checks nothing,
yet still reads like coverage, so it must go with the code it used to check.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _imported_oracles(path: Path) -> Iterator[str]:
    """Oracle module names one test module imports (``oracles.<name>``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "oracles":
            modules = [f"oracles.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            package, _, name = module.partition(".")
            if package == "oracles" and name:
                yield name.split(".")[0]


def test_every_oracle_is_imported_by_a_test_module():
    oracles = {path.stem for path in (TESTS / "oracles").glob("*.py")} - {"__init__"}
    assert oracles
    used = {name for path in TESTS.glob("test_*.py") for name in _imported_oracles(path)}
    unused = sorted(oracles - used)
    assert not unused, f"no tests/test_*.py module imports these oracles: {unused}"
