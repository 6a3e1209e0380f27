"""Smoke tests: every script in ``demos/`` runs to completion and prints, and
README's quick-start block prints the values its comments give."""

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


def test_readme_quick_start_prints_its_comments(capsys):
    """README's quick-start block runs, and each ``print`` line prints the
    value in its comment."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    expected = [line.split("#", 1)[1].strip() for line in prints]
    assert expected, "no commented print lines in the quick-start block"
    exec(compile(block, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
