import pytest

from pairclone import checks
from pairclone.checks import run_checks


def test_small_grid_all_pass():
    results = run_checks(grid=60, tolerance=1e-10, oracle_points=4, oracle_grid=64)
    assert results
    for result in results:
        assert result.passed, result.line()


def test_every_property_reports_a_line():
    results = run_checks(grid=30, tolerance=1e-10, oracle_points=3, oracle_grid=64)
    lines = [r.line() for r in results]
    assert all(line.startswith("[PASS]") for line in lines)
    names = {r.name for r in results}
    assert len(names) == len(results)  # no duplicated property names


def test_impossible_tolerance_fails():
    # below machine precision at least one identity must miss
    results = run_checks(grid=30, tolerance=1e-18, oracle_points=3, oracle_grid=64)
    assert any(not r.passed for r in results)
    failing = [r for r in results if not r.passed]
    assert all("[FAIL]" in r.line() for r in failing)


def test_parameters_validated():
    with pytest.raises(ValueError):
        run_checks(grid=1)
    with pytest.raises(ValueError):
        run_checks(tolerance=0.0)
    with pytest.raises(ValueError):
        run_checks(tolerance=float("inf"))
    with pytest.raises(ValueError):
        run_checks(oracle_points=0)


def test_grid_blocks_do_not_change_results(monkeypatch):
    whole = [r.line() for r in run_checks(grid=50, oracle_points=3, oracle_grid=64)]
    monkeypatch.setattr(checks, "_BLOCK", 7)
    split = [r.line() for r in run_checks(grid=50, oracle_points=3, oracle_grid=64)]
    assert split == whole
