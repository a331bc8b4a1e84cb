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

Every re-export has a caller too.  A package ``__init__`` re-exports each
name it imports from a ``repro`` module and does not use itself.  The
re-export is used when a caller imports the name through the package
(``from repro.serve import ServeConfig``), reads it as an attribute of the
package (``obs.span`` after ``from repro import obs``), or when another
``__init__`` re-exports it from this package and that re-export is used.
For the top-level ``repro`` package only, the README's Python code blocks
are callers too: they hold its quickstart.  Every other public name is
imported from the module that defines it.
"""

from __future__ import annotations

import ast
import re
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


def _caller_paths() -> Iterator[tuple[Path, bool]]:
    """Every caller file, and whether its string constants count as uses."""
    for path in SRC.rglob("*.py"):
        if path.name != "__init__.py":
            yield path, False
    for directory in OUTSIDE_CALLERS:
        for path in (ROOT / directory).rglob("*.py"):
            yield path, True


def _caller_names() -> set[str]:
    used: set[str] = set()
    for path, count_strings in _caller_paths():
        used.update(_used_names(_parse(path), count_strings))
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


# -- re-exports ----------------------------------------------------------------


def _reexports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Re-exported name -> (source module, name there) of one ``__init__``."""
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    }
    own = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: source for name, source in imported.items() if name not in own}


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        owner = _dotted(node.value)
        return None if owner is None else f"{owner}.{node.attr}"
    return None


def _module_uses(tree: ast.Module) -> Iterator[tuple[str, str]]:
    """(module, name) of every name ``tree`` imports from or reads off a module."""
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:  # `import repro.faults as faults` binds the module
                    bound[alias.asname] = alias.name
                else:  # `import repro.faults` binds `repro`
                    head = alias.name.split(".")[0]
                    bound[head] = head
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        owner = _dotted(node.value) if isinstance(node, ast.Attribute) else None
        if owner is not None and owner.split(".")[0] in bound:
            head, _, rest = owner.partition(".")
            yield ".".join(filter(None, (bound[head], rest))), node.attr


def _readme_trees() -> Iterator[ast.Module]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL):
        yield ast.parse(block)


def _unused_reexports() -> list[str]:
    packages = {_module_name(path): _reexports(_parse(path)) for path in SRC.rglob("__init__.py")}
    used = {use for path, _ in _caller_paths() for use in _module_uses(_parse(path))}
    used |= {use for tree in _readme_trees() for use in _module_uses(tree) if use[0] == "repro"}
    pending = list(used)
    while pending:
        package, name = pending.pop()
        source = packages.get(package, {}).get(name)
        if source is not None and source[0] in packages and source not in used:
            used.add(source)
            pending.append(source)
    return sorted(
        f"{package}.{name}"
        for package, names in packages.items()
        for name in names
        if (package, name) not in used
    )


def test_every_reexport_has_a_caller():
    unused = _unused_reexports()
    assert not unused, (
        "no caller imports these names through their package; import them from the "
        f"module that defines them and drop the re-export: {unused}"
    )


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


def test_reexports_skip_names_the_init_uses_itself():
    tree = ast.parse(
        "from repro.cli import compare, report\n"
        "from repro.cli.common import command_error\n"
        "from repro.core.config import OverlapProblem as Problem\n"
        "_MODULES = (compare, report)\n"
        "def main():\n"
        "    return command_error\n"
    )
    assert _reexports(tree) == {"Problem": ("repro.core.config", "OverlapProblem")}


def test_package_imports_and_attribute_reads_are_uses():
    uses = set(_module_uses(ast.parse(
        "from repro import obs\n"
        "from repro.serve import ServeConfig\n"
        "import repro.plan\n"
        "import repro.faults as faults\n"
        "obs.span('x')\n"
        "repro.plan.search_plan()\n"
        "faults.FaultPlan()\n"
    )))
    assert {
        ("repro", "obs"),
        ("repro.serve", "ServeConfig"),
        ("repro.obs", "span"),
        ("repro.plan", "search_plan"),
        ("repro.faults", "FaultPlan"),
    } <= uses


def test_allowlist_covers_fakeclock_and_its_methods_only():
    assert _allowed("repro.obs.clock.FakeClock")
    assert _allowed("repro.obs.clock.FakeClock.advance")
    assert not _allowed("repro.obs.clock.FakeClockFactory")
    assert not _allowed("repro.obs.clock.SystemClock.now")
