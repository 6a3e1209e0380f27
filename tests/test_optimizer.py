import math
import subprocess
import sys

import numpy as np
import pytest

from pairclone import cloner, optimizer
from pairclone.cloner import ClonerCoefficients, fidelity_closed_form
from pairclone.ensemble import angle_terms
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
        for value, expected in zip(cc, COEFFS_QUARTER_PI):
            assert abs(value - expected) <= TOL

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
            # one angle or an (N,) ndarray; a Python list is neither
            with pytest.raises(ValueError, match="angle must be a real number, got list"):
                func([0.1, 0.2])


class TestShrinking:
    def test_quarter_pi_point(self):
        eta_x, eta_z = optimal_shrinking(math.pi / 4)
        assert abs(eta_x - 1 / math.sqrt(2)) <= TOL
        assert abs(eta_z - 1 / math.sqrt(2)) <= TOL

    def test_endpoint(self):
        assert optimal_shrinking(0.0) == (0.0, 1.0)

class TestStationarity:
    def test_recovered_multiplier_closed_form(self):
        # at the optimum the multiplier equals sqrt(sin^4 + cos^4) / 2,
        # i.e. the optimal fidelity minus 1/2
        for phi in np.linspace(0, math.pi / 2, 50):
            phi = float(phi)
            lam = recover_multiplier(optimal_coefficients(phi), phi)
            assert abs(lam - (optimal_fidelity(phi) - 0.5)) <= TOL

    def test_corner_solution(self):
        residuals = lagrange_residual(ClonerCoefficients(1.0, 0.0, 0.0), 0.5, 0.0)
        assert residuals == (0.0, 0.0, 0.0, 0.0)

    def test_pure_b_corner_is_not_stationary(self):
        # F = 1/2 at a = c = 0, so the multiplier is 0 and the first and
        # third residuals are b sin^2 phi
        pure_b = ClonerCoefficients(a=0.0, b=math.sqrt(0.5), c=0.0)
        lam = recover_multiplier(pure_b, 0.7)
        assert lam == 0.0
        r1, r2, r3, r4 = lagrange_residual(pure_b, lam, 0.7)
        expected = math.sqrt(0.5) * math.sin(0.7) ** 2  # 0.2935
        assert abs(r1 - expected) <= TOL and abs(r3 - expected) <= TOL
        assert r2 == 0.0 and abs(r4) <= TOL

    def test_random_non_optimal_coefficients_violate_stationarity(self):
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
            r1, r2, r3, _ = lagrange_residual(cc, recover_multiplier(cc, phi), phi)
            assert max(abs(r1), abs(r2), abs(r3)) > 1e-3
            checked += 1


class TestNumericOracle:
    def test_quarter_pi(self):
        report = numeric_optimize(math.pi / 4, grid_density=128)
        assert abs(report.best_fidelity - F_QUARTER_PI) <= 1e-8
        for value, expected in zip(report.best_coeffs, COEFFS_QUARTER_PI):
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
        with pytest.raises(ValueError, match="grid_density"):
            numeric_optimize(0.5, grid_density=100.7)  # not truncated to 100
        with pytest.raises(ValueError, match="grid_density"):
            numeric_optimize(0.5, grid_density=True)
        with pytest.raises(ValueError):
            numeric_optimize(3.0)
        with pytest.raises(ValueError, match="angle must be a real number, got bool"):
            numeric_optimize(True)  # not a search at phi = 1
        assert numeric_optimize(0.5, grid_density=np.int64(64)) == numeric_optimize(0.5, grid_density=64)

    def test_oversized_grid_rejected_before_allocation(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("numeric_optimize allocated before validating")

        monkeypatch.setattr(optimizer.np, "empty", no_allocation)
        monkeypatch.setattr(optimizer, "_first_round", no_allocation)
        with pytest.raises(ValueError, match="grid_density"):
            numeric_optimize(0.5, grid_density=MAX_GRID_DENSITY + 1)

    def test_no_convergence_reports_achieved_tolerance(self, monkeypatch):
        # one round leaves only the first, infinite improvement
        monkeypatch.setattr(optimizer, "_MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceError) as excinfo:
            numeric_optimize(0.3, grid_density=64)
        assert excinfo.value.achieved_tolerance == math.inf

    def test_achieved_tolerance_is_last_three_rounds(self):
        # an exact grid node is the optimum only at the endpoints; inside,
        # the final rounds still gain below the 1e-12 stopping tolerance
        for phi in np.linspace(0, math.pi / 2, 25)[1:-1]:
            report = numeric_optimize(float(phi), grid_density=256)
            assert 0.0 < report.achieved_tolerance < 1e-12, phi


@pytest.mark.parametrize("grid_density", [64, 128, 256])
def test_separable_grid_is_bit_identical_to_meshgrid(monkeypatch, grid_density):
    """Every round's nodes, on every window real searches visit, equal the
    objective evaluated on a full meshgrid, byte for byte; the first
    round's come from the cached terms."""
    chart_terms, objective = optimizer._chart_terms, optimizer._objective
    windows = []
    axes = None  # of the round being evaluated

    def recording_axes(ts, us):
        nonlocal axes
        axes = ts, us
        return chart_terms(ts, us)

    def against_meshgrid(terms, cos2, sin2):
        ff = objective(terms, cos2, sin2)
        ts, us = axes
        tt, uu = np.meshgrid(ts, us, indexing="ij")
        sin_tt = np.sin(tt)
        aa = sin_tt * np.cos(uu)
        cc = sin_tt * np.sin(uu)
        bb = np.cos(tt) * math.sqrt(0.5)
        reference = 0.5 + 0.5 * (aa * aa - cc * cc) * cos2 + bb * (aa + cc) * sin2
        windows.append((ts[0], ts[-1], us[0], us[-1]))
        assert ff.tobytes() == reference.tobytes(), windows[-1]
        return ff

    monkeypatch.setattr(optimizer, "_chart_terms", recording_axes)
    monkeypatch.setattr(optimizer, "_objective", against_meshgrid)
    full = np.linspace(0.0, math.pi / 2, grid_density + 1)
    seeded = np.random.default_rng(2000 + grid_density).uniform(0, math.pi / 2, 20)
    hits = optimizer._first_round.cache_info().hits
    rounds = 0
    for phi in [0.0, math.pi / 4, math.pi / 2, *map(float, seeded)]:
        axes = full, full
        report = numeric_optimize(phi, grid_density=grid_density)
        assert report.evaluations == (grid_density + 1) ** 2 + (report.rounds - 1) * 65**2
        rounds += report.rounds
    assert len(windows) == rounds
    assert optimizer._first_round.cache_info().hits >= hits + 22


class TestFirstRoundCache:
    def test_empty_after_import(self):
        probe = "import pairclone; print(pairclone.optimizer._first_round.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert proc.stdout == "0\n"

    def test_one_miss_for_many_searches_at_one_grid(self):
        optimizer._first_round.cache_clear()
        for phi in np.linspace(0, math.pi / 2, 25):
            numeric_optimize(float(phi), grid_density=256)
        info = optimizer._first_round.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 24, 1)

    def test_cached_arrays_are_read_only(self):
        ts, (half_diff, mixed) = optimizer._first_round(64)
        for array in (ts, half_diff, mixed):
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0.0

    def test_reports_match_a_cleared_cache(self):
        phis = [0.0, 0.37, math.pi / 4, 1.2]
        cached = [numeric_optimize(phi, grid_density=grid) for grid in (64, 256, 64) for phi in phis]
        fresh = []
        for grid in (64, 256, 64):
            for phi in phis:
                optimizer._first_round.cache_clear()
                fresh.append(numeric_optimize(phi, grid_density=grid))
        assert cached == fresh


# Within a few milliradians of an endpoint the first round's best node is
# (or sits next to) the endpoint optimum, and later rounds can gain nothing
# for several rounds while the optimum is still far from a node.
NEAR_ENDPOINTS = [x for gap in np.geomspace(5e-4, 1e-2, 6) for x in (gap, math.pi / 2 - gap)]


@pytest.mark.parametrize(
    "grid_density, near, seeded",
    [(64, NEAR_ENDPOINTS, 200), (128, NEAR_ENDPOINTS, 200), (256, NEAR_ENDPOINTS, 200),
     (512, [], 3), (1024, [], 3), (2048, [], 2)],
    ids=["64", "128", "256", "512", "1024", "2048"],
)
def test_oracle_accuracy_at_every_grid(grid_density, near, seeded):
    """The search stays 100x inside verify's oracle bounds (1e-8 on the
    fidelity, 1e-4 on the coefficients) and within its 14-round bound."""
    rng = np.random.default_rng(4000 + grid_density)
    for phi in [0.0, math.pi / 4, math.pi / 2, *near, *rng.uniform(0, math.pi / 2, seeded).tolist()]:
        report = numeric_optimize(phi, grid_density=grid_density)
        assert abs(report.best_fidelity - optimal_fidelity(phi)) <= 1e-10, phi
        exact = optimal_coefficients(phi)
        assert max(abs(x - y) for x, y in zip(report.best_coeffs, exact)) <= 1e-6, phi
        assert report.rounds <= 14, phi


# Floats and arrays can differ only in ensemble.angle_terms: every closed
# form goes on from its three terms with + - * / and sqrt, which give the
# same bits in numpy and in Python.  So angle_terms is pinned on all
# 201,004 ANGLES (the endpoints and pi/4, the 200,001-point grid and 1,000
# seeded angles), and each closed form on the 21,004 PINNED ones: the same
# special and seeded angles and every 10th grid angle.
SPECIAL = [0.0, math.pi / 4, math.pi / 2]
GRID = np.linspace(0.0, math.pi / 2, 200_001)
SEEDED = np.random.default_rng(20261018).uniform(0.0, math.pi / 2, 1000)
ANGLES = np.concatenate([SPECIAL, GRID, SEEDED])
PINNED = np.concatenate([SPECIAL, GRID[::10], SEEDED])


def _same_bits(array_result, float_results):
    """Arrays, or tuples of arrays, against a list of float results."""
    if isinstance(array_result, tuple):
        array_result, float_results = np.stack(array_result), np.transpose(float_results)
    assert array_result.tobytes() == np.array(float_results, dtype=float).tobytes()


def test_angle_terms_array_matches_float_bits():
    _same_bits(angle_terms(ANGLES), list(map(angle_terms, ANGLES.tolist())))


@pytest.fixture(scope="module")
def samples():
    """(coefficients, angles, coefficient columns): the optimum at every
    angle of PINNED, then random surface points and the corners (1, 0, 0),
    (0, 1/sqrt 2, 0) and (0, 0, 1), each at the 1,000 seeded angles."""
    phis = PINNED.tolist()
    coeffs = list(map(optimal_coefficients, phis))
    seeded = SEEDED.tolist()
    rng = np.random.default_rng(20261019)
    for t, u in rng.uniform(0.0, math.pi / 2, size=(1000, 2)):
        coeffs.append(ClonerCoefficients(
            a=math.sin(t) * math.cos(u), b=math.cos(t) * math.sqrt(0.5), c=math.sin(t) * math.sin(u)
        ))
    for corner in [(1.0, 0.0, 0.0), (0.0, math.sqrt(0.5), 0.0), (0.0, 0.0, 1.0)]:
        coeffs += [ClonerCoefficients(*corner)] * len(seeded)
    phis += seeded * 4
    columns = tuple(np.array(column) for column in zip(*coeffs))
    return coeffs, phis, columns


@pytest.mark.parametrize("closed_form", [optimal_fidelity, optimal_shrinking, optimizer.optimum])
def test_array_closed_forms_match_scalar_bits(closed_form):
    _same_bits(closed_form(PINNED), list(map(closed_form, PINNED.tolist())))


@pytest.fixture(scope="module")
def overlaps(samples):
    """Seeded overlap sums below the maximum, one pair per sample: as
    float pairs and as the two arrays re_ab, re_bc."""
    re_ab, re_bc = np.random.default_rng(20261020).uniform(-2.0, 2.0, size=(2, len(samples[1])))
    return list(zip(re_ab.tolist(), re_bc.tolist())), (re_ab, re_bc)


@pytest.mark.parametrize(
    "closed_form",
    [
        lambda coeffs, phi, _: fidelity_closed_form(coeffs, phi),
        lambda coeffs, *_: cloner.shrinking_factors(coeffs),
        lambda coeffs, phi, _: cloner.fidelity_general(coeffs, phi, (2.0, 2.0)),
        cloner.fidelity_general,
        lambda coeffs, phi, _: recover_multiplier(coeffs, phi),
    ],
    ids=[
        "fidelity_closed_form", "shrinking_factors", "fidelity_general-maximal",
        "fidelity_general-seeded", "recover_multiplier",
    ],
)
def test_array_coefficient_forms_match_scalar_bits(samples, overlaps, closed_form):
    coeffs, phis, columns = samples
    pairs, arrays = overlaps
    _same_bits(closed_form(columns, np.array(phis), arrays), list(map(closed_form, coeffs, phis, pairs)))


@pytest.fixture(scope="module")
def multipliers(samples):
    """recover_multiplier at every sample."""
    coeffs, phis, _ = samples
    return list(map(recover_multiplier, coeffs, phis))


def test_array_lagrange_residual_matches_scalar_bits(samples, multipliers):
    coeffs, phis, columns = samples
    result = lagrange_residual(columns, np.array(multipliers), np.array(phis))
    _same_bits(result, list(map(lagrange_residual, coeffs, multipliers, phis)))


@pytest.mark.parametrize(
    "bad",
    [np.array([0.1, -1e-300]), np.array([math.nan]), np.array([[0.1]]), np.array([0.3 + 0j]), np.array(["a"])],
)
def test_array_closed_forms_validate_angles(bad):
    with pytest.raises(ValueError, match="angles"):
        optimal_fidelity(bad)
