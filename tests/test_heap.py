"""The steady heap: importing ``kernels`` fixes glibc's mmap and trim
thresholds, so a table built a second time maps and faults in no fresh pages.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gpam2d
from gpam2d import kernels

PACKAGE_PARENT = Path(gpam2d.__file__).resolve().parent.parent


def _glibc_setting(name: str) -> bool:
    return (name.startswith("MALLOC_") and name.endswith("_")) or name == "GLIBC_TUNABLES"


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="no mallopt: the heap is the platform's own")
def test_second_table_build_faults_few_pages():
    # Without the setting a second Fourier table faults in about 9,000 pages.
    script = (
        "import resource\n"
        "from gpam2d.kernels import Mollifier\n"
        "def faults():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(2):\n"
        "    mol, counts = Mollifier(resolution=64), []\n"
        "    for build in (lambda: mol._profile_spline(2), lambda: mol.fourier(1.0)):\n"
        "        before = faults()\n"
        "        build()\n"
        "        counts.append(faults() - before)\n"
        "print(*counts)\n"
    )
    env = {k: v for k, v in os.environ.items() if not _glibc_setting(k)}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_PARENT), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    profile, fourier = map(int, done.stdout.split())
    assert profile < 1000 and fourier < 1000, (profile, fourier)


def test_glibc_settings_of_the_user_win(monkeypatch):
    for name in [k for k in os.environ if _glibc_setting(k)]:
        monkeypatch.delenv(name)
    assert kernels._steady_heap() is _has_mallopt()
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    assert kernels._steady_heap() is False
    monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_")
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072")
    assert kernels._steady_heap() is False
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=2048")
    assert kernels._steady_heap() is _has_mallopt()
