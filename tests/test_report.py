import dataclasses
import hashlib
import math

import numpy as np
import pytest

from pairclone import optimizer, report as report_module
from pairclone.cloner import ClonerCoefficients, UnitarityError, build_isometry, clone_batch, fidelity_closed_form
from pairclone.ensemble import family
from pairclone.linalg import bloch_vectors
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


# (angle, coefficient override, SHA-256 of format_clone_report's text); the
# override lies on the surface a^2 + 2b^2 + c^2 = 1.  The simulated digits
# come from einsum, so CI runs the digest test with NumPy's SIMD dispatch
# disabled too.
REPORT_CASES = {
    "0": (0.0, None, "1f6c888ed6ab07a185b7150de283cc0d3a24d84c289d6e41162f9b0f9a1db1e9"),
    "pi/8": (math.pi / 8, None, "f4f9fcaac31abe8cb3d70a2349289d2b0504abcbfbabcb3040424190f4117c93"),
    "pi/4": (math.pi / 4, None, "93fb2a76ef4e90ab9d54c5e09aca0fb3abd5e57d02d194e57984b33e86ce8b33"),
    "0.7": (0.7, None, "c616d6f3828a4f931e8524f02f31af76840ff1d78c18cd08945689f008d0627f"),
    "1e-9": (1e-9, None, "41bede6f19e2c27699c5902fcbb40c0ff45a7983df4b3569d6629d3a5a19daff"),
    "pi/2": (math.pi / 2, None, "4d63e4d80012fda2f85529d12525eff5e7146e205fe683e287e3091192f2da6e"),
    "0.3 override": (0.3, (0.6, 0.4, math.sqrt(0.32)),
                     "d59b1a7f1462cd88615816f6a7eb68fd110f268c40af649e48051c3a35b15367"),
}


@pytest.mark.parametrize("phi, coeffs, digest", REPORT_CASES.values(), ids=REPORT_CASES)
def test_report_text_digest(phi, coeffs, digest):
    text = format_clone_report(build_clone_report(phi, coeffs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_simulated_eta_bits_are_bloch_vectors_of_the_probe_copies():
    # The report reads eta_x and eta_z from copy 1 of |+> and |0> as Python
    # complex numbers; they are the batch kernel's Bloch components to the
    # last bit, at the optimum and at seeded on-surface overrides.
    rng = np.random.default_rng(20261028)
    phis = [0.0, 5e-324, 1e-9, math.pi / 4, math.pi / 2, *rng.uniform(0, math.pi / 2, 100).tolist()]
    directions = rng.normal(size=(len(phis), 3))
    directions = np.abs(directions) / np.linalg.norm(directions, axis=1)[:, None]  # coefficients are nonnegative
    overrides = [(a, b / math.sqrt(2), c) for a, b, c in directions.tolist()]
    for phi, override in zip(phis, overrides):
        for coeffs in (None, override):
            report = build_clone_report(phi, coeffs)
            states, _ = family(np.array([phi]))
            inputs = np.concatenate([states, report_module._PROBES[None]], axis=1)
            copies = clone_batch(build_isometry(report.coeffs)[None], inputs)
            x_probe, z_probe = bloch_vectors(copies.copy1[0, 4:])
            expected = (float.hex(float(x_probe[0])), float.hex(float(z_probe[2])))
            assert tuple(map(float.hex, report.simulated_eta)) == expected, (phi, coeffs)


def _leaves(value):
    if isinstance(value, (tuple, ClonerCoefficients)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


@pytest.mark.parametrize("phi, coeffs, _", REPORT_CASES.values(), ids=REPORT_CASES)
def test_report_holds_python_floats(phi, coeffs, _):
    report = build_clone_report(phi, coeffs)
    for field in dataclasses.fields(report):
        if field.name != "used_closed_form_optimum":
            for value in _leaves(getattr(report, field.name)):
                assert type(value) is float, (field.name, value)


def test_signed_zero_angle_reports_as_zero():
    # -0.0 neither prints "-0" nor flips the sign of a zero Bloch component
    assert format_clone_report(build_clone_report(-0.0)) == format_clone_report(build_clone_report(0.0))
