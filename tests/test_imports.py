"""Every module of the package uses every name it imports.

A static check over the source with the standard library's `ast`: a name
bound by `import` or `from ... import` must be read somewhere in the same
module.  `__init__.py` is checked like every other module: it binds no
names, because each name is imported from the module that defines it, so
a re-export added there would be an import it never reads.  The names the
bench's call tracer patches must resolve too, the test oracles of
`tests/oracles.py` may import nothing from the package but `mudra.model`,
and `ratlp`, which computes on plain integers, imports nothing from it.
Every function, class and method the package defines is read by the
package or the bench, not only by the tests, and every value of the
package is built by its constructor but in the two places named in
`BYPASSES`.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mudra"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(source: str) -> list[str]:
    """Names bound by `import` and `from ... import`, in import order."""
    imported: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return imported


def unused_imports(source: str) -> list[str]:
    """Names the module imports but never reads, in import order."""
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return [name for name in imported_names(source) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == ["os", "pi"]


def package_imports(source: str) -> list[str]:
    """The modules of `mudra` other than `mudra.model` that `source` imports."""
    modules: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "mudra":
            modules += [f"mudra.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    return [
        name for name in modules
        if (name == "mudra" or name.startswith("mudra.")) and name != "mudra.model"
    ]


def test_oracles_import_only_the_model():
    """An oracle that calls the code it checks is not an oracle."""
    assert package_imports((ROOT / "tests" / "oracles.py").read_text()) == []


def test_the_oracle_check_sees_a_package_import():
    source = (
        "import itertools\n"
        "from mudra.model import RandomAssignment\n"
        "from mudra import model, rules\n"
        "from mudra.order import prefix_sums\n"
        "import mudra.fairness\n"
    )
    assert package_imports(source) == ["mudra.rules", "mudra.order", "mudra.fairness"]


def test_the_lp_imports_nothing_from_the_package():
    source = (PACKAGE / "ratlp.py").read_text()
    assert not [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mudra"))
    ]


def load_tracer():
    """The bench's `perfbench/tracer.py`, loaded as a module."""
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    """Every binding site in `perfbench/tracer.py`'s tables, and the kind
    table the bench reads from the CLI, exists in the package."""
    tracer = load_tracer()
    missing = [
        site for site in tracer.SPANS + tracer.COUNTERS
        if not callable(getattr(importlib.import_module(site[1]), site[2], None))
    ]
    missing += [
        site for site in tracer.METHODS
        if not callable(getattr(getattr(importlib.import_module(site[1]), site[2], None),
                                site[3], None))
    ]
    assert missing == []
    cli = importlib.import_module("mudra.cli")
    assert [name for name in tracer.COMMANDS if not hasattr(cli, name)] == []
    assert set(cli._KIND_FINDERS) == {"sd", "weak-sd", "dl"}


def defined_names(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    """Each module-level function and class of `tree` and each method of
    its classes but the dunders, Click command callbacks aside."""
    found: list = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found.append(node)
            found += [
                item for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            ]
        elif isinstance(node, ast.FunctionDef) and not any(
            isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "command"
            for d in node.decorator_list
        ):
            found.append(node)
    return found


def read_names(tree: ast.AST) -> Counter:
    """How often `tree` reads each name, as a variable or an attribute."""
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
    return reads


def unread_names(package: dict[str, str], others: list[str], listed: set[str]) -> list[str]:
    """"module.name" of each name of `defined_names` in `package` (module
    name -> source) that no source of `package` or `others` reads outside
    its own definition, and that is not in `listed`."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    reads = sum((read_names(tree) for tree in trees.values()), Counter())
    reads += sum((read_names(ast.parse(source)) for source in others), Counter())
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in defined_names(tree)
        if node.name not in listed and reads[node.name] == read_names(node)[node.name]
    ]


def test_every_name_is_read_outside_the_tests():
    """A name that only the tests read is deleted, not kept alive.  The
    names the bench's tracer patches count as read: it reads them by name."""
    tracer = load_tracer()
    listed = {site[2] for site in tracer.SPANS + tracer.COUNTERS}
    listed |= {site[3] for site in tracer.METHODS}
    package = {path.stem: path.read_text() for path in MODULES}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unread_names(package, bench, listed) == []


def test_the_name_check_sees_an_unread_name():
    source = (
        "def used():\n"
        "    return A().kept()\n"
        "def recursive(k):\n"
        "    return recursive(k - 1)\n"
        "def traced():\n"
        "    pass\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self.dropped = 1\n"
        "    def kept(self):\n"
        "        return self\n"
        "    def dropped(self):\n"
        "        pass\n"
        "@main.command()\n"
        "def callback():\n"
        "    pass\n"
    )
    assert unread_names({"m": source}, ["used()\n"], {"traced"}) == ["m.recursive", "m.dropped"]


#: Each way round a constructor -> the one function that may take it.
BYPASSES = {
    "__new__": "model.RandomAssignment.from_numerators",
    "__dict__": "model.RandomAssignment._reduce",
}


def bypass(node: ast.AST) -> str | None:
    """"__new__" for a call of `X.__new__`, "__dict__" for a write to an
    object's `__dict__` and "object.__setattr__" for a call of it."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if func.attr == "__new__":
            return "__new__"
        if func.attr == "__setattr__" and getattr(func.value, "id", None) == "object":
            return "object.__setattr__"
        if func.attr in ("update", "setdefault") and getattr(func.value, "attr", None) == "__dict__":
            return "__dict__"
    if (
        isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
        and getattr(node.value, "attr", None) == "__dict__"
    ):
        return "__dict__"
    return None


def frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
        for d in node.decorator_list
    )


def constructor_bypasses(module: str, source: str) -> list[str]:
    """"where: how" for each `bypass` in `source` outside the function
    `BYPASSES` allows it in; `object.__setattr__` is allowed in the
    `__post_init__` of a frozen dataclass."""
    found: list[str] = []

    def visit(node: ast.AST, where: str, post_init: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = isinstance(node, ast.ClassDef) and frozen_dataclass(node)
                visit(child, f"{where}.{child.name}", inside and child.name == "__post_init__")
                continue
            how = bypass(child)
            allowed = BYPASSES.get(how) == where or how == "object.__setattr__" and post_init
            if how is not None and not allowed:
                found.append(f"{where}: {how}")
            visit(child, where, post_init)

    visit(ast.parse(source), module, False)
    return found


def test_no_value_bypasses_its_constructor():
    """A value built round its constructor skips the constructor's checks."""
    assert [
        found for path in MODULES
        for found in constructor_bypasses(path.stem, path.read_text())
    ] == []


def test_the_bypass_check_sees_a_bypass():
    source = (
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    x: int\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "    def later(self):\n"
        "        object.__setattr__(self, 'x', 2)\n"
        "class RandomAssignment:\n"
        "    def from_numerators(cls):\n"
        "        made = object.__new__(cls)\n"
        "        made.__dict__['x'] = 1\n"
        "        return made\n"
        "    def _reduce(self):\n"
        "        self.__dict__.update(x=1)\n"
        "def unchecked():\n"
        "    made = P.__new__(P)\n"
        "    vars(made)\n"
        "    made.__dict__.setdefault('x', 1)\n"
    )
    assert constructor_bypasses("model", source) == [
        "model.P.later: object.__setattr__",
        "model.RandomAssignment.from_numerators: __dict__",
        "model.unchecked: __new__",
        "model.unchecked: __dict__",
    ]
    # elsewhere than in `model`, the same methods may take neither
    assert constructor_bypasses("rules", source)[1:4] == [
        "rules.RandomAssignment.from_numerators: __new__",
        "rules.RandomAssignment.from_numerators: __dict__",
        "rules.RandomAssignment._reduce: __dict__",
    ]
