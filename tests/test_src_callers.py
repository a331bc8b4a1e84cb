"""Lint: every public name defined in ``src/repro`` has a caller.

A *caller* is a non-``__init__`` module of ``src/repro``, or code under
``benchmarks/``, ``examples/`` or ``perfbench/``.  Tests are not callers: a
function that only a test reaches is dead weight that reads like coverage.
Package ``__init__`` modules only re-export, so a re-export is not a use.

A public function, method or class counts as called when its name appears in
a caller as a ``Name``, an ``Attribute`` or an import alias.  String
constants under ``benchmarks/``, ``examples/`` and ``perfbench/`` count too,
split at dots, because ``perfbench/spans.py``'s ``TARGETS`` names its traced
entry points as ``"Class.method"`` strings.  Strings in ``src/repro``
(docstrings included) do not.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
OUTSIDE_CALLERS = ("benchmarks", "examples", "perfbench")

#: The one class kept, with its methods, without a caller: ``FakeClock`` is
#: the test double that ``observe(clock=)`` exists for, so only tests use it.
ALLOWED = "repro.obs.clock.FakeClock"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(body: list[ast.stmt], prefix: str) -> Iterator[tuple[str, str]]:
    """(qualified name, bare name) of every public def and class in ``body``."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        qualified = f"{prefix}.{node.name}"
        yield qualified, node.name
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, qualified)


def _used_names(tree: ast.Module, count_strings: bool) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif count_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def _allowed(qualified: str) -> bool:
    return qualified == ALLOWED or qualified.startswith(ALLOWED + ".")


def _caller_names() -> set[str]:
    used: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path.name != "__init__.py":
            used.update(_used_names(_parse(path), count_strings=False))
    for directory in OUTSIDE_CALLERS:
        for path in (ROOT / directory).rglob("*.py"):
            used.update(_used_names(_parse(path), count_strings=True))
    return used


def test_every_public_src_name_has_a_caller():
    definitions = [
        (qualified, name)
        for path in sorted(SRC.rglob("*.py"))
        for qualified, name in _definitions(_parse(path).body, _module_name(path))
    ]
    assert len(definitions) > 500
    used = _caller_names()
    uncalled = sorted(q for q, name in definitions if name not in used and not _allowed(q))
    assert not uncalled, f"only tests reach these src/repro names: {uncalled}"


def test_allowlist_names_an_existing_class():
    defined = {
        qualified
        for path in SRC.rglob("*.py")
        for qualified, _ in _definitions(_parse(path).body, _module_name(path))
    }
    assert ALLOWED in defined


# -- the rules themselves, on small sources ----------------------------------


def _uses(source: str, count_strings: bool) -> set[str]:
    return set(_used_names(ast.parse(source), count_strings))


def test_definitions_qualify_methods_and_skip_private_names():
    tree = ast.parse(
        "class Model:\n"
        "    def latency(self): ...\n"
        "    def _helper(self): ...\n"
        "    class Inner:\n"
        "        def run(self): ...\n"
        "def build(): ...\n"
        "def _private(): ...\n"
        "class _Hidden:\n"
        "    def visible(self): ...\n"
    )
    assert list(_definitions(tree.body, "repro.m")) == [
        ("repro.m.Model", "Model"),
        ("repro.m.Model.latency", "latency"),
        ("repro.m.Model.Inner", "Inner"),
        ("repro.m.Model.Inner.run", "run"),
        ("repro.m.build", "build"),
    ]


def test_module_names_map_packages_to_their_init():
    assert _module_name(SRC / "obs" / "clock.py") == "repro.obs.clock"
    assert _module_name(SRC / "obs" / "__init__.py") == "repro.obs"


def test_names_attributes_and_import_aliases_are_uses():
    used = _uses(
        "from repro.core.overlap import price_plan as price\n"
        "import repro.faults.injector\n"
        "value = model.latency(size)\n",
        count_strings=False,
    )
    assert {"price_plan", "price", "repro", "faults", "injector"} <= used
    assert {"value", "model", "latency", "size"} <= used


def test_strings_count_outside_src_split_at_dots():
    source = 'TARGETS = ("FaultInjector.next_up", "crash_times")\n'
    assert {"FaultInjector", "next_up", "crash_times"} <= _uses(source, count_strings=True)
    assert not {"FaultInjector", "next_up", "crash_times"} & _uses(source, count_strings=False)


def test_src_docstrings_are_not_uses():
    source = (
        '"""crash_times"""\n'
        "def f():\n"
        '    """next_up"""\n'
        "    return 1\n"
    )
    used = _uses(source, count_strings=False)
    assert "crash_times" not in used and "next_up" not in used


def test_names_inside_f_strings_are_uses():
    used = _uses('text = f"{report.summary_table()} in {elapsed:.3f} s"\n', count_strings=False)
    assert {"report", "summary_table", "elapsed"} <= used


def test_allowlist_covers_fakeclock_and_its_methods_only():
    assert _allowed("repro.obs.clock.FakeClock")
    assert _allowed("repro.obs.clock.FakeClock.advance")
    assert not _allowed("repro.obs.clock.FakeClockFactory")
    assert not _allowed("repro.obs.clock.SystemClock.now")
