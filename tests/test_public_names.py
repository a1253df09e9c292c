"""Every public name of the package is used by the package, a demo or a benchmark.

A public top-level function or class, or a public method of a class, that
only tests call is code that no pipeline, CLI command or demo runs.  The
guard walks the syntax trees of the package modules, the demos and the
benchmark harness, and counts a name as used where it appears as a name, an
attribute, an imported name or a string constant (the benchmark tracer wraps
functions by name).  A definition's use of its own name, as in recursion or
a class's methods naming their class, does not count.  Since an import
counts as a use, no package module or demo may import a name it never reads.
"""

import ast
from pathlib import Path

import gpam2d

PACKAGE = Path(gpam2d.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "benchmarks").glob("*.py"))]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(source: str) -> set[str]:
    """The public top-level functions and classes of a module, and the public
    methods of its classes as ``Class.method``."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            out.add(node.name)
        if isinstance(node, ast.ClassDef):
            out |= {f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, DEFINITIONS) and not m.name.startswith("_")}
    return out


def used_names(source: str) -> dict[str | None, set[str]]:
    """The names each top-level statement uses, keyed by the name it defines;
    a method's uses are keyed ``Class.method``."""
    used: dict[str | None, set[str]] = {}

    def collect(owner: str | None, tree: ast.AST):
        names = used.setdefault(owner, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)

    for top in ast.parse(source).body:
        if not isinstance(top, ast.ClassDef):
            collect(getattr(top, "name", None), top)
            continue
        for part in (*top.decorator_list, *top.bases, *top.keywords, *top.body):
            method = isinstance(part, DEFINITIONS)
            collect(f"{top.name}.{part.name}" if method else top.name, part)
    return used


def unused_definitions(modules: dict[str, str], readers: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each public definition in ``modules`` that no reader
    uses outside the definition itself."""
    uses = {(path, owner): names for path, source in readers.items()
            for owner, names in used_names(source).items()}

    def inside(owner: str | None, name: str) -> bool:
        return owner is not None and (owner == name or owner.startswith(name + "."))

    return {
        (module, name)
        for module, source in modules.items()
        for name in public_definitions(source)
        if not any(name.rpartition(".")[2] in names for (path, owner), names in uses.items()
                   if not (path == module and inside(owner, name)))
    }


def test_every_public_name_is_used():
    modules = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    readers = {path.stem if path.parent == PACKAGE else str(path): path.read_text()
               for path in READERS}
    assert unused_definitions(modules, readers) == set()


def test_guard_sees_every_spelling():
    module = (
        "def called():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def imported():\n    pass\n"
        "def by_attribute():\n    pass\n"
        "def by_string():\n    pass\n"
        "class Unused:\n    pass\n"
        "def _private():\n    pass\n"
        "class Kept:\n"
        "    def method(self):\n        return self.helper(Kept)\n"
        "    def helper(self, cls):\n        pass\n"
        "    def lonely(self):\n        return self.lonely()\n"
        "    def _hidden(self):\n        pass\n"
        "class _Private:\n    def unread(self):\n        pass\n"
    )
    reader = (
        "from m import imported as alias\nimport m\n"
        "called()\nm.by_attribute()\ngetattr(m, 'by_string')\nm.Kept().method()\n"
    )
    got = unused_definitions({"m": module}, {"m": module, "reader": reader})
    assert got == {("m", "recursive"), ("m", "Unused"), ("m", "Kept.lonely"),
                   ("m", "_Private.unread")}


def unused_imports(source: str) -> set[str]:
    """The names a module imports but never reads; ``__future__`` imports aside."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_unused_import():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py")]
    assert {str(path.relative_to(ROOT)): names for path in paths
            if (names := unused_imports(path.read_text()))} == {}


def test_import_guard_sees_every_spelling():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom m import used, unused\n"
        "from m import kept as alias, dropped as other\nimport json\n"
        "def f():\n    import sys\n    return os.path.join(np.pi, used, alias)\n"
    )
    assert unused_imports(source) == {"unused", "other", "json", "sys"}
