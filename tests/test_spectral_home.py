"""The FFT has one home: ``kernels.Spectral``.

Every other module reaches the Fourier transform through ``Spectral``, so
the normalisation and the projection onto real fields are fixed in one
class.  The guard walks the syntax tree of every package module.
"""

import ast
from pathlib import Path

import gpam2d

PACKAGE = Path(gpam2d.__file__).resolve().parent
FFT_MODULES = ("numpy.fft", "scipy.fft")
ALLOWED = {("kernels", "Spectral")}


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _is_fft(path: str) -> bool:
    return any(path == m or path.startswith(m + ".") for m in FFT_MODULES)


def fft_references(source: str, module: str) -> list[tuple[str, int]]:
    """(top-level definition, line) of each FFT reference outside the allowed homes."""
    tree = ast.parse(source)
    aliases = {}  # local name -> module path it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname, a.name) for a in node.names if a.asname)
        elif isinstance(node, ast.ImportFrom):
            aliases.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    found = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        if (module, owner) in ALLOWED:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                paths = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                paths = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute) and (dotted := _dotted(node)):
                head, _, rest = dotted.partition(".")
                paths = [".".join(filter(None, [aliases.get(head, head), rest]))]
            else:
                continue
            if any(_is_fft(p) for p in paths):
                found.add((owner, node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_fft_only_in_its_home():
    found = {
        path.stem: refs
        for path in sorted(PACKAGE.glob("*.py"))
        if (refs := fft_references(path.read_text(), path.stem))
    }
    assert found == {}


def test_guard_sees_every_spelling():
    source = (
        "import numpy as np\nimport scipy.fft\nfrom numpy import fft as f\n"
        "from numpy.fft import fft2\n"
        "def g(x):\n    return np.fft.fft2(x)\n"
        "class Spectral:\n    y = np.fft.ifft2\n"
    )
    lines = [line for _, line in fft_references(source, "montecarlo")]
    assert lines == [2, 3, 4, 6, 8]
    # In kernels the class is the home; the function is not.
    assert [line for _, line in fft_references(source, "kernels")] == [2, 3, 4, 6]
