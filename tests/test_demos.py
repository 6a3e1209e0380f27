"""Smoke test: every script in ``demos/`` runs to completion and prints."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])  # demos read optional arguments
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
