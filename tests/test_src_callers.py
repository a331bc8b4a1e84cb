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

Every default has a caller that overrides it too: a parameter or dataclass
field no caller ever passes is a knob with a single value, so it is the
constant it always is (see ``test_every_default_is_overridden_by_a_caller``).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
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


# -- defaults ------------------------------------------------------------------

#: Defaults kept although no caller overrides them, each with its reason.
DEFAULTS_ALLOWED = {
    # The test double ``observe(clock=)`` exists for: only tests build one.
    "repro.obs.clock.FakeClock",
    # Every workload builds ``count=1``, but the value is the ``count`` key of
    # every e2e and pp payload and golden: dropping it changes the payloads.
    "repro.workloads.operators.OperatorInstance.count",
}

#: ``repro.api`` arguments are the program's input, not knobs of its code.
DEFAULTS_SKIPPED_MODULES = {"repro.api"}


@dataclass(frozen=True)
class _Signature:
    """The defaults of one def or dataclass ``__init__``, and how calls reach it."""

    qualified: str
    callee: str  # the bare name its calls use: the class name for ``__init__``
    params: tuple[str, ...]  # bound ``self`` / ``cls`` dropped
    positional: int  # how many leading ``params`` a call may pass by position
    defaults: tuple[str, ...]
    is_dataclass: bool  # ``replace(x, name=...)`` sets a dataclass's fields too


def _decorator_names(node: ast.FunctionDef | ast.ClassDef) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(target.id if isinstance(target, ast.Name) else getattr(target, "attr", None))
    return names


def _field_defaults(node: ast.ClassDef) -> tuple[list[str], list[str]]:
    """The ``__init__`` fields of a dataclass body and those with a default."""
    fields, defaults = [], []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            options = {keyword.arg: keyword.value for keyword in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = "default" in options or "default_factory" in options
        else:
            has_default = value is not None
        fields.append(stmt.target.id)
        if has_default:
            defaults.append(stmt.target.id)
    return fields, defaults


def _signatures(body: list[ast.stmt], prefix: str, owner: ast.ClassDef | None = None,
                ) -> Iterator[_Signature]:
    """Every def and dataclass in ``body`` (nested ones included) that has a default."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            qualified = f"{prefix}.{node.name}"
            if "dataclass" in _decorator_names(node):
                fields, defaults = _field_defaults(node)
                if defaults:
                    yield _Signature(qualified, node.name, tuple(fields), len(fields),
                                     tuple(defaults), is_dataclass=True)
            yield from _signatures(node.body, qualified, node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            if owner is not None and "staticmethod" not in _decorator_names(node):
                positional = positional[1:]
            defaults = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaults += [arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None]
            qualified = f"{prefix}.{node.name}"
            if defaults:
                callee = owner.name if owner is not None and node.name == "__init__" else node.name
                params = tuple(positional) + tuple(arg.arg for arg in args.kwonlyargs)
                yield _Signature(qualified, callee, params, len(positional), tuple(defaults),
                                 is_dataclass=False)
            yield from _signatures(node.body, qualified)


def _bare_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Calls(ast.NodeVisitor):
    """What callers pass, and which names they use as values rather than call.

    ``passed[name]`` holds, per call of a callee by that bare name, the
    keywords it passes, how many arguments it passes by position, and whether
    it unpacks ``*args`` / ``**kwargs``.  ``cls(...)`` inside a class calls
    that class and ``super().__init__(...)`` its first base.  ``replaced`` is
    every field name ``replace(x, name=...)`` sets.  ``values`` is every name
    read as a value: not called, and not an annotation, an ``isinstance``
    class, a base class or the receiver of an attribute.
    """

    def __init__(self) -> None:
        self.passed: dict[str, list[tuple[set[str], int, bool, bool]]] = {}
        self.replaced: set[str] = set()
        self.values: set[str] = set()
        self._classes: list[ast.ClassDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for child in [*node.decorator_list, *node.keywords]:
            self.visit(child)
        self._classes.append(node)
        for stmt in node.body:
            self.visit(stmt)
        self._classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = [*node.args.defaults, *(d for d in node.args.kw_defaults if d is not None)]
        for child in [*node.decorator_list, *defaults, *node.body]:
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)

    def visit_arg(self, node: ast.arg) -> None:  # a lambda's argument annotations
        pass

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = _bare_name(func)
        if name == "cls" and isinstance(func, ast.Name) and self._classes:
            name = self._classes[-1].name
        elif (isinstance(func, ast.Attribute) and name == "__init__"
              and isinstance(func.value, ast.Call) and _bare_name(func.value.func) == "super"
              and self._classes and self._classes[-1].bases):
            name = _bare_name(self._classes[-1].bases[0])
        if name is not None:
            keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            self.passed.setdefault(name, []).append((
                keywords,
                len(node.args),
                starred,
                any(keyword.arg is None for keyword in node.keywords),
            ))
            if name == "replace":
                self.replaced |= keywords
        if isinstance(func, ast.Attribute):
            if not isinstance(func.value, ast.Name):
                self.visit(func.value)
        elif name is None:
            self.visit(func)
        arguments = node.args[:1] if name in ("isinstance", "issubclass") else node.args
        for child in [*arguments, *(keyword.value for keyword in node.keywords)]:
            self.visit(child)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.values.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.values.add(node.attr)
        if not isinstance(node.value, ast.Name):
            self.visit(node.value)


def _unset_defaults(definitions: Iterable[tuple[ast.Module, str]],
                    callers: Iterable[ast.Module]) -> list[str]:
    """``<def>.<parameter>`` of every default no call in ``callers`` passes."""
    calls = _Calls()
    for tree in callers:
        calls.visit(tree)
    unset = []
    for tree, module in definitions:
        for signature in _signatures(tree.body, module):
            if signature.callee in calls.values:
                continue  # a registry entry or callback: its calls cannot be seen
            passed = set(calls.replaced) if signature.is_dataclass else set()
            for keywords, positional, starred, unpacked in calls.passed.get(signature.callee, ()):
                for index, param in enumerate(signature.params):
                    by_position = index < signature.positional and (index < positional or starred)
                    if by_position or param in keywords or unpacked:
                        passed.add(param)
            unset += [f"{signature.qualified}.{param}" for param in signature.defaults
                      if param not in passed]
    return unset


def _defaults_allowed(knob: str) -> bool:
    return any(knob == entry or knob.startswith(entry + ".") for entry in DEFAULTS_ALLOWED)


def _src_unset_defaults() -> list[str]:
    definitions = [
        (_parse(path), _module_name(path))
        for path in sorted(SRC.rglob("*.py"))
        if _module_name(path) not in DEFAULTS_SKIPPED_MODULES
    ]
    return _unset_defaults(definitions, (_parse(path) for path, _ in _caller_paths()))


def test_every_default_is_overridden_by_a_caller():
    unset = [knob for knob in _src_unset_defaults() if not _defaults_allowed(knob)]
    assert not unset, (
        "no caller outside tests passes these defaults; make each the constant it "
        f"always is, or delete it when nothing reads it: {unset}"
    )


def test_defaults_allowlist_names_existing_defaults():
    unset = _src_unset_defaults()
    for entry in DEFAULTS_ALLOWED:
        assert any(knob == entry or knob.startswith(entry + ".") for knob in unset), entry


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


def _unset_in(source: str) -> list[str]:
    """The defaults rule on one module that is its own only caller."""
    tree = ast.parse(source)
    return _unset_defaults([(tree, "m")], [tree])


def test_defaults_are_set_by_keyword_position_unpacking_cls_super_and_replace():
    assert _unset_in(
        "def f(a, b=1, c=2, *, d=3): ...\n"
        "def g(a=1, b=2): ...\n"
        "class Model:\n"
        "    def __init__(self, x=1, y=2): ...\n"
        "    def run(self, size=1): ...\n"
        "    @classmethod\n"
        "    def build(cls, scale=1):\n"
        "        return cls(y=scale)\n"
        "class Child(Model):\n"
        "    def __init__(self, z=1):\n"
        "        super().__init__(z)\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 0\n"
        "    w: int = field(default=0)\n"
        "    state: list = field(init=False, default_factory=list)\n"
        "f(0, 5)\n"
        "f(0, d=4)\n"
        "g(*values)\n"
        "Model().run(3)\n"
        "Model.build()\n"
        "Child()\n"
        "replace(Point(1, 2), z=3)\n"
    ) == ["m.f.c", "m.Model.build.scale", "m.Child.__init__.z", "m.Point.w"]


def test_defaults_of_values_are_skipped_but_annotations_and_type_checks_are_not_values():
    assert _unset_in(
        "def registered(size=1): ...\n"
        "def callback(size=1): ...\n"
        "def annotation(size=1): ...\n"
        "class Base:\n"
        "    def __init__(self, size=1): ...\n"
        "class Checked:\n"
        "    def __init__(self, size=1): ...\n"
        "REGISTRY = {'r': registered}\n"
        "run(on_done=callback)\n"
        "def use(x: annotation) -> Checked:\n"
        "    return isinstance(x, Checked)\n"
        "class Derived(Base): ...\n"
    ) == ["m.annotation.size", "m.Base.__init__.size", "m.Checked.__init__.size"]
