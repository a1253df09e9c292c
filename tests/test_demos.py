"""Smoke test: the fast demos run to the end and print something."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name", ["01_symbol_algebra", "02_graphs_and_pairings", "03_power_counting"]
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
