import math

import pytest

from pairclone import optimizer, report as report_module
from pairclone.cloner import ClonerCoefficients, UnitarityError, fidelity_closed_form
from pairclone.report import build_clone_report, format_clone_report

TOL = 1e-12


def test_default_report_at_quarter_pi():
    report = build_clone_report(math.pi / 4)
    assert report.used_closed_form_optimum
    for value in report.simulated_fidelities:
        assert abs(value - 0.8535533905932738) <= TOL
    assert abs(report.formula_fidelity - report.best_possible_fidelity) <= TOL
    for formula, simulated in zip(report.formula_eta, report.simulated_eta):
        assert abs(formula - simulated) <= TOL
        assert abs(formula - 1 / math.sqrt(2)) <= TOL
    assert max(abs(r) for r in report.residuals) < 1e-10


def test_override_coefficients():
    # classical copier at phi = 0.3: F = 1/2 + cos^2(0.3)/2, frozen below
    report = build_clone_report(0.3, ClonerCoefficients(a=1.0, b=0.0, c=0.0))
    assert not report.used_closed_form_optimum
    assert abs(report.formula_fidelity - 0.9563339037274196) <= TOL
    for value in report.simulated_fidelities:
        assert abs(value - report.formula_fidelity) <= TOL
    assert report.formula_fidelity < report.best_possible_fidelity


def test_report_at_zero():
    report = build_clone_report(0.0)
    for value in report.simulated_fidelities:
        assert abs(value - 1.0) <= TOL
    assert abs(report.formula_eta[0]) <= TOL
    assert abs(report.formula_eta[1] - 1.0) <= TOL


def test_pure_b_corner_reports_residuals():
    # F = 1/2 at a = c = 0: multiplier 0, residuals (b sin^2, 0, b sin^2, ~0)
    pure_b = ClonerCoefficients(a=0.0, b=math.sqrt(0.5), c=0.0)
    report = build_clone_report(0.7, pure_b)
    assert report.multiplier == 0.0
    text = format_clone_report(report)
    assert "stationarity multiplier: 0\n" in text
    assert "stationarity residuals: 2.935e-01  0.000e+00  2.935e-01  2.220e-16" in text


def test_formatting_round_trips_key_numbers():
    text = format_clone_report(build_clone_report(math.pi / 4))
    assert "0.853553390593" in text
    assert "0.707106781187" in text
    assert "state 4" in text


def test_angle_validated():
    with pytest.raises(ValueError):
        build_clone_report(-1.0)


def test_tuple_coefficients_validated():
    # a plain (a, b, c) becomes a validated ClonerCoefficients
    as_tuple = build_clone_report(0.3, (1.0, 0.0, 0.0))
    assert as_tuple.coeffs == ClonerCoefficients(a=1.0, b=0.0, c=0.0)
    expected = build_clone_report(0.3, ClonerCoefficients(a=1.0, b=0.0, c=0.0))
    assert format_clone_report(as_tuple) == format_clone_report(expected)
    with pytest.raises(UnitarityError, match="deviates from 1"):
        build_clone_report(0.3, (1.0, 0.1, 0.0))


def test_closed_form_fidelity_evaluated_once(monkeypatch):
    # the printed F and the multiplier F - 1/2 come from one evaluation
    calls = []

    def spy(*args):
        calls.append(args)
        return fidelity_closed_form(*args)

    for module in (report_module, optimizer):
        monkeypatch.setattr(module, "fidelity_closed_form", spy)
    report = build_clone_report(0.3, (1.0, 0.0, 0.0))
    assert len(calls) == 1
    assert report.multiplier == report.formula_fidelity - 0.5
