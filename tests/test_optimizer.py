import math

import numpy as np
import pytest

from pairclone import optimizer
from pairclone.cloner import ClonerCoefficients, fidelity_closed_form, shrinking_factors
from pairclone.optimizer import (
    MAX_GRID_DENSITY,
    ConvergenceError,
    NumericSearchReport,
    lagrange_residual,
    numeric_optimize,
    optimal_coefficients,
    optimal_fidelity,
    optimal_shrinking,
    recover_multiplier,
)

TOL = 1e-12

# frozen reference values, evaluated from the closed forms by hand-checked
# arithmetic:
#   F(pi/4) = (1 + sqrt(1/2)) / 2
#   F(pi/3) = (1 + sqrt(9/16 + 1/16)) / 2 = (1 + sqrt(10)/4) / 2
F_QUARTER_PI = 0.8535533905932738
F_THIRD_PI = 0.8952847075210475
COEFFS_QUARTER_PI = (0.8535533905932737, 0.3535533905932738, 0.1464466094067262)


class TestClosedFormOptimum:
    def test_coefficients_at_zero(self):
        cc = optimal_coefficients(0.0)
        assert (cc.a, cc.b, cc.c) == (1.0, 0.0, 0.0)

    def test_coefficients_at_half_pi(self):
        cc = optimal_coefficients(math.pi / 2)
        assert abs(cc.a - 0.5) <= TOL
        assert abs(cc.b - 0.5) <= TOL
        assert abs(cc.c - 0.5) <= TOL

    def test_coefficients_at_quarter_pi(self):
        cc = optimal_coefficients(math.pi / 4)
        for value, expected in zip(cc.as_tuple(), COEFFS_QUARTER_PI):
            assert abs(value - expected) <= TOL

    def test_constraint_on_grid(self):
        for phi in np.linspace(0, math.pi / 2, 1000):
            assert abs(optimal_coefficients(float(phi)).constraint_defect) <= TOL

    def test_fidelity_endpoints_and_special_points(self):
        assert abs(optimal_fidelity(0.0) - 1.0) <= TOL
        assert abs(optimal_fidelity(math.pi / 2) - 1.0) <= TOL
        assert abs(optimal_fidelity(math.pi / 4) - F_QUARTER_PI) <= TOL
        assert abs(optimal_fidelity(math.pi / 3) - F_THIRD_PI) <= TOL

    def test_consistency_chain(self):
        for phi in np.linspace(0, math.pi / 2, 100):
            phi = float(phi)
            cc = optimal_coefficients(phi)
            assert abs(optimal_fidelity(phi) - fidelity_closed_form(cc, phi)) <= TOL

    def test_out_of_range_rejected(self):
        for func in (optimal_coefficients, optimal_fidelity, optimal_shrinking):
            with pytest.raises(ValueError):
                func(2.0)


class TestShrinking:
    def test_quarter_pi_point(self):
        eta_x, eta_z = optimal_shrinking(math.pi / 4)
        assert abs(eta_x - 1 / math.sqrt(2)) <= TOL
        assert abs(eta_z - 1 / math.sqrt(2)) <= TOL

    def test_endpoint(self):
        assert optimal_shrinking(0.0) == (0.0, 1.0)

    def test_identities_on_grid(self):
        for phi in np.linspace(0, math.pi / 2, 200):
            phi = float(phi)
            eta_x, eta_z = optimal_shrinking(phi)
            assert abs(eta_x**2 + eta_z**2 - 1.0) <= TOL
            assert abs(eta_x - optimal_shrinking(math.pi / 2 - phi)[1]) <= TOL
            from_coeffs = shrinking_factors(optimal_coefficients(phi))
            assert abs(eta_x - from_coeffs[0]) <= TOL
            assert abs(eta_z - from_coeffs[1]) <= TOL


class TestStationarity:
    def test_closed_form_solution_is_stationary(self):
        for phi in np.linspace(0, math.pi / 2, 100):
            phi = float(phi)
            cc = optimal_coefficients(phi)
            lam = recover_multiplier(cc, phi)
            assert lam is not None
            residuals = lagrange_residual(cc, lam, phi)
            assert max(abs(r) for r in residuals) < 1e-10

    def test_recovered_multiplier_closed_form(self):
        # at the optimum the multiplier equals sqrt(sin^4 + cos^4) / 2,
        # i.e. the optimal fidelity minus 1/2
        for phi in np.linspace(0, math.pi / 2, 50):
            phi = float(phi)
            lam = recover_multiplier(optimal_coefficients(phi), phi)
            assert abs(lam - (optimal_fidelity(phi) - 0.5)) <= TOL

    def test_corner_solution(self):
        from pairclone.cloner import ClonerCoefficients

        residuals = lagrange_residual(ClonerCoefficients(1.0, 0.0, 0.0), 0.5, 0.0)
        assert residuals == (0.0, 0.0, 0.0, 0.0)

    def test_multiplier_unrecoverable_when_a_and_c_vanish(self):
        from pairclone.cloner import ClonerCoefficients

        pure_b = ClonerCoefficients(a=0.0, b=math.sqrt(0.5), c=0.0)
        assert recover_multiplier(pure_b, 0.7) is None

    def test_random_non_optimal_coefficients_violate_stationarity(self):
        from pairclone.cloner import ClonerCoefficients

        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            t, u = rng.uniform(0, math.pi / 2, 2)
            cc = ClonerCoefficients(
                a=math.sin(t) * math.cos(u),
                b=math.cos(t) / math.sqrt(2),
                c=math.sin(t) * math.sin(u),
            )
            phi = float(rng.uniform(0, math.pi / 2))
            opt = optimal_coefficients(phi)
            distance = max(
                abs(cc.a - opt.a), abs(cc.b - opt.b), abs(cc.c - opt.c)
            )
            if distance < 0.1:
                continue
            lam = recover_multiplier(cc, phi)
            if lam is None:
                continue
            r1, r2, r3, _ = lagrange_residual(cc, lam, phi)
            assert max(abs(r1), abs(r2), abs(r3)) > 1e-3
            checked += 1


class TestNumericOracle:
    def test_quarter_pi(self):
        report = numeric_optimize(math.pi / 4, grid_density=128)
        assert abs(report.best_fidelity - F_QUARTER_PI) <= 1e-8
        for value, expected in zip(report.best_coeffs.as_tuple(), COEFFS_QUARTER_PI):
            assert abs(value - expected) <= 1e-4

    def test_perfect_cloning_at_zero(self):
        report = numeric_optimize(0.0, grid_density=64)
        assert abs(report.best_fidelity - 1.0) <= 1e-10

    def test_third_pi(self):
        report = numeric_optimize(math.pi / 3, grid_density=128)
        assert abs(report.best_fidelity - F_THIRD_PI) <= 1e-8

    def test_agreement_on_grid(self):
        for phi in np.linspace(0, math.pi / 2, 25):
            phi = float(phi)
            report = numeric_optimize(phi, grid_density=64)
            assert abs(report.best_fidelity - optimal_fidelity(phi)) <= 1e-8
            # a grid sample of the exact objective can never beat the optimum
            assert report.best_fidelity <= optimal_fidelity(phi) + 1e-12

    def test_reports_are_deterministic(self):
        first = numeric_optimize(0.37, grid_density=64)
        second = numeric_optimize(0.37, grid_density=64)
        assert first == second

    def test_constraint_on_best_coefficients(self):
        report = numeric_optimize(0.9, grid_density=64)
        assert abs(report.best_coeffs.constraint_defect) <= 1e-10
        assert isinstance(report, NumericSearchReport)
        assert report.rounds >= 1
        assert report.evaluations == report.rounds * 65 * 65

    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="grid_density"):
            numeric_optimize(0.5, grid_density=32)
        with pytest.raises(ValueError, match="refine_tolerance"):
            numeric_optimize(0.5, refine_tolerance=0.0)
        with pytest.raises(ValueError):
            numeric_optimize(3.0)
        with pytest.raises(ValueError, match="max_rounds"):
            numeric_optimize(0.5, grid_density=64, max_rounds=0)

    def test_oversized_grid_rejected_before_allocation(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("numeric_optimize allocated before validating")

        monkeypatch.setattr(optimizer.np, "empty", no_allocation)
        with pytest.raises(ValueError, match="grid_density"):
            numeric_optimize(0.5, grid_density=MAX_GRID_DENSITY + 1)

    def test_no_convergence_reports_achieved_tolerance(self):
        # one round leaves only the first, infinite improvement
        with pytest.raises(ConvergenceError) as excinfo:
            numeric_optimize(0.3, grid_density=64, max_rounds=1)
        assert excinfo.value.achieved_tolerance == math.inf


def _meshgrid_search(phi, grid_density):
    """The oracle as first written: the objective evaluated on a full
    meshgrid every round.  Reference for the separable evaluation."""
    cos2 = math.cos(phi) ** 2
    sin2 = math.sin(phi) ** 2
    half_pi = math.pi / 2
    t_lo, t_hi = 0.0, half_pi
    u_lo, u_hi = 0.0, half_pi
    best_f = -math.inf
    best_t = best_u = 0.0
    evaluations = 0
    small_rounds = 0
    for round_index in range(60):
        ts = np.linspace(t_lo, t_hi, grid_density + 1)
        us = np.linspace(u_lo, u_hi, grid_density + 1)
        tt, uu = np.meshgrid(ts, us, indexing="ij")
        aa = np.sin(tt) * np.cos(uu)
        cc = np.sin(tt) * np.sin(uu)
        bb = np.cos(tt) * math.sqrt(0.5)
        ff = 0.5 + 0.5 * (aa * aa - cc * cc) * cos2 + bb * (aa + cc) * sin2
        evaluations += ff.size
        row, col = divmod(int(np.argmax(ff)), grid_density + 1)
        round_best = float(ff[row, col])
        if round_best > best_f:
            improvement = round_best - best_f if math.isfinite(best_f) else math.inf
            best_f, best_t, best_u = round_best, float(ts[row]), float(us[col])
        else:
            improvement = 0.0
        if round_index > 0:
            small_rounds = small_rounds + 1 if improvement < 1e-12 else 0
            if small_rounds >= 3:
                break
        if max(t_hi - t_lo, u_hi - u_lo) < 1e-11:
            break
        h_t = (t_hi - t_lo) / grid_density
        h_u = (u_hi - u_lo) / grid_density
        t_lo, t_hi = max(0.0, best_t - 4 * h_t), min(half_pi, best_t + 4 * h_t)
        u_lo, u_hi = max(0.0, best_u - 4 * h_u), min(half_pi, best_u + 4 * h_u)
    else:
        raise AssertionError("reference search did not converge")
    coeffs = ClonerCoefficients(
        a=math.sin(best_t) * math.cos(best_u),
        b=math.cos(best_t) * math.sqrt(0.5),
        c=math.sin(best_t) * math.sin(best_u),
    )
    return NumericSearchReport(coeffs, best_f, evaluations, improvement, round_index + 1)


@pytest.mark.parametrize("grid_density", [64, 128, 256])
def test_separable_grid_is_bit_identical_to_meshgrid(grid_density):
    seeded = np.random.default_rng(2000 + grid_density).uniform(0, math.pi / 2, 200)
    for phi in [0.0, math.pi / 4, math.pi / 2, *map(float, seeded)]:
        report = numeric_optimize(phi, grid_density=grid_density)
        assert report == _meshgrid_search(phi, grid_density), phi
        assert report.evaluations == report.rounds * (grid_density + 1) ** 2
