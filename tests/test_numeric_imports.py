"""The package imports numpy and the standard library, and nothing of scipy.

``kernels.Spline`` is the one spline of the package, and no table it builds
needs a special function: the Fourier table is a Gauss-Legendre projection.
Importing ``scipy.special`` alone took about 0.2 s at the start of every
process.  The guard walks the syntax tree of every package module, the
declared dependencies are checked against what those trees import, the
``test`` extra against what the tests import, and a fresh interpreter checks
what importing every module, and building every table, loads.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gpam2d

PACKAGE = Path(gpam2d.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
TESTS = Path(__file__).resolve().parent
BANNED = "scipy"


def _banned(path: str) -> bool:
    return path == BANNED or path.startswith(BANNED + ".")


def _imports(source: str):
    """``(line, paths)`` of each absolute import: the modules and names it reads."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield node.lineno, [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.lineno, [node.module] + [f"{node.module}.{a.name}" for a in node.names]


def banned_imports(source: str) -> list[int]:
    """Lines of the imports of ``scipy`` or of anything in it."""
    return sorted(line for line, paths in _imports(source) if any(_banned(p) for p in paths))


def third_party(source: str) -> set[str]:
    """Top-level modules imported that are neither the standard library, the package nor conftest."""
    tops = {path.split(".")[0] for _, paths in _imports(source) for path in paths}
    return tops - set(sys.stdlib_module_names) - {"gpam2d", "conftest"}


def _names(specs) -> set[str]:
    """The distribution names of requirement specifiers, lower-cased."""
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in specs}


def test_no_scipy_import_in_the_package():
    found = {path.stem: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := banned_imports(path.read_text()))}
    assert found == {}


def test_guard_sees_every_spelling():
    source = (
        "import scipy.interpolate\nfrom scipy import special\n"
        "from scipy.special import j0\nimport numpy\n"
        "def f():\n    import scipy as sp\n"
        "import scipyx\nfrom . import scipy\nimport os, scipy.fft\n"
    )
    assert banned_imports(source) == [1, 2, 3, 6, 9]


def test_declared_dependencies_are_the_imports():
    tomllib = pytest.importorskip("tomllib")
    names = _names(tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"])
    imported = set().union(*(third_party(path.read_text()) for path in PACKAGE.glob("*.py")))
    assert imported == names == {"numpy"}


def test_declared_test_extra_is_what_the_tests_import():
    # Beyond the package's own dependencies: no extra that no test imports,
    # and no test import left undeclared.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    extra = _names(project["optional-dependencies"]["test"])
    imported = set().union(*(third_party(path.read_text()) for path in TESTS.glob("*.py")))
    assert extra == imported - _names(project["dependencies"])


def test_third_party_sees_absolute_imports_only():
    source = ("import numpy as np\nfrom numpy.polynomial import Polynomial\nimport math\n"
              "from . import kernels\nfrom gpam2d import cli\nimport os, scipy.special\n"
              "from conftest import disc_mass\n")
    assert third_party(source) == {"numpy", "scipy"}


def test_fresh_interpreter_leaves_scipy_unloaded():
    modules = [f"gpam2d.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))]
    script = (
        "import sys\n"
        + "".join(f"import {m}\n" for m in modules)
        + "from gpam2d.kernels import Mollifier, SquareKernel\n"
        "mol = Mollifier(resolution=8)\n"
        "SquareKernel(mol, resolution=8)\n"
        "mol.fourier(0.0)\n"
        "[mol._disc_mean(order, 0.5) for order in (1, 2, 3)]\n"
        "print(sorted(mol._splines, key=str), "
        f"sorted(m for m in sys.modules if m == {BANNED!r} or m.startswith({BANNED + '.'!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == (
        "[('harmonic', 4), ('mean', 1), ('mean', 2), ('mean', 3), ('profile', 1), "
        "('profile', 2), ('profile', 3), 'fourier'] []")
