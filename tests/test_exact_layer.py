"""No float enters the exact layer.

The symbol algebra and the graph layer compute over integers, fractions and
extended rationals, so verdicts and margins are exact.  The guard walks the
syntax tree of each exact module and names every spelling that would bring
a float in: a float literal, the ``float`` builtin (called or passed as a
dtype), true division, a numpy float dtype, a numpy constructor that
defaults to float64, and a ``math`` function that returns a float.
"""

import ast
from pathlib import Path

import gpam2d

PACKAGE = Path(gpam2d.__file__).resolve().parent
EXACT_MODULES = ("exts", "coeffs", "symbols", "feynman", "powercount", "classify", "corpus")
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
NUMPY_FLOATS = ("float", "double", "half", "single", "longdouble")
FLOAT_DEFAULT = {"zeros", "ones", "empty", "full"}  # float64 unless given a dtype


def _numpy_attr(node, numpy_names) -> str | None:
    """``attr`` of an ``np.attr`` lookup, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id in numpy_names:
            return node.attr
    return None


def float_sources(source: str) -> list[tuple[str, int]]:
    """(spelling, line) of every way a float could enter, in line order."""
    tree = ast.parse(source)
    numpy_names, math_names = {"numpy"}, {"math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy":
                    numpy_names.add(a.asname or a.name)
                elif a.name == "math":
                    math_names.add(a.asname or a.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [("math." + a.name, node.lineno)
                      for a in node.names if a.name not in INTEGER_MATH]
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(("float literal", node.lineno))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(("float", node.lineno))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(("true division", node.lineno))
        elif (attr := _numpy_attr(node, numpy_names)) and attr.startswith(NUMPY_FLOATS):
            found.append(("numpy." + attr, node.lineno))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in INTEGER_MATH):
            found.append(("math." + node.attr, node.lineno))
        elif (isinstance(node, ast.Call) and _numpy_attr(node.func, numpy_names) in FLOAT_DEFAULT
              and not any(k.arg == "dtype" for k in node.keywords)):
            found.append(("numpy default float64", node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_no_float_in_the_exact_layer():
    found = {
        name: hits
        for name in EXACT_MODULES
        if (hits := float_sources((PACKAGE / f"{name}.py").read_text()))
    }
    assert found == {}


def test_guard_sees_every_spelling():
    source = (
        "import math\nimport numpy as np\nfrom math import lcm, sqrt\n"
        "x = 0.5\n"
        "y = float(3)\n"
        "z = 3 / 4\n"
        "z /= 2\n"
        "a = np.zeros(3, dtype=np.float64)\n"
        "b = a.astype(float)\n"
        "c = np.ones(3)\n"
        "d = math.sqrt(2) + math.lcm(2, 3) + 7 // 2\n"
        "e = np.zeros(3, dtype=np.int64)\n"
    )
    assert float_sources(source) == [
        ("math.sqrt", 3),
        ("float literal", 4),
        ("float", 5),
        ("true division", 6),
        ("true division", 7),
        ("numpy.float64", 8),
        ("float", 9),
        ("numpy default float64", 10),
        ("math.sqrt", 11),
    ]
