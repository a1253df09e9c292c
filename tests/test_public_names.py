"""Every public name of the package is used by the package, a demo or a benchmark.

A public top-level function or class that only tests call is code that no
pipeline, CLI command or demo runs.  The guard walks the syntax trees of the
package modules, the demos and the benchmark harness, and counts a name as
used where it appears as a name, an attribute, an imported name or a string
constant (the benchmark tracer wraps functions by name).  A definition's use
of its own name, as in recursion, does not count.  Since an import counts as
a use, no package module or demo may import a name it never reads.
"""

import ast
from pathlib import Path

import gpam2d

PACKAGE = Path(gpam2d.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "benchmarks").glob("*.py"))]


def public_definitions(source: str) -> set[str]:
    """The public top-level functions and classes of a module."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def used_names(source: str) -> dict[str | None, set[str]]:
    """The names each top-level statement uses, keyed by the name it defines."""
    used: dict[str | None, set[str]] = {}
    for top in ast.parse(source).body:
        names = used.setdefault(getattr(top, "name", None), set())
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return used


def unused_definitions(modules: dict[str, str], readers: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each public definition in ``modules`` that no reader uses."""
    uses = {(path, owner): names for path, source in readers.items()
            for owner, names in used_names(source).items()}
    return {
        (module, name)
        for module, source in modules.items()
        for name in public_definitions(source)
        if not any(name in names for (path, owner), names in uses.items()
                   if (path, owner) != (module, name))
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
    )
    reader = (
        "from m import imported as alias\nimport m\n"
        "called()\nm.by_attribute()\ngetattr(m, 'by_string')\n"
    )
    got = unused_definitions({"m": module}, {"m": module, "reader": reader})
    assert got == {("m", "recursive"), ("m", "Unused")}


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
