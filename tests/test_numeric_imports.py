"""The numeric layer needs ``scipy.special`` only: no ``scipy.interpolate``.

``kernels.Spline`` is the one spline of the package.  ``scipy.interpolate``
(which loads ``scipy.optimize``, ``scipy.linalg`` and ``scipy.sparse``) would
add about 0.3 s to the start of every process.  The guard walks the syntax
tree of every package module, and a fresh interpreter checks what importing
them, and building every table, loads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gpam2d

PACKAGE = Path(gpam2d.__file__).resolve().parent
BANNED = "scipy.interpolate"


def _banned(path: str) -> bool:
    return path == BANNED or path.startswith(BANNED + ".")


def banned_imports(source: str) -> list[int]:
    """Lines of the imports of ``scipy.interpolate`` or of anything in it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            paths = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(_banned(p) for p in paths):
            lines.append(node.lineno)
    return lines


def test_no_interpolate_import_in_the_package():
    found = {path.stem: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := banned_imports(path.read_text()))}
    assert found == {}


def test_guard_sees_every_spelling():
    source = (
        "import scipy.interpolate\nfrom scipy import interpolate\n"
        "from scipy.interpolate import CubicSpline\nimport scipy.special\n"
        "def f():\n    import scipy.interpolate._cubic as c\n"
        "from scipy.special import j0\nimport scipy.interpolated\n"
    )
    assert banned_imports(source) == [1, 2, 3, 6]


def test_fresh_interpreter_leaves_interpolate_unloaded():
    modules = [f"gpam2d.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))]
    script = (
        "import sys\n"
        + "".join(f"import {m}\n" for m in modules)
        + "from gpam2d.kernels import Mollifier, SquareKernel\n"
        "mol = Mollifier(resolution=8)\n"
        "SquareKernel(mol, resolution=8)\n"
        "[mol.mass(order, 0.5) for order in (1, 2, 3)]\n"
        "print(len(mol._splines), 'scipy.special' in sys.modules, "
        f"sorted(m for m in sys.modules if m == {BANNED!r} or m.startswith({BANNED + '.'!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "8 True []"
