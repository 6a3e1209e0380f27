import decimal
import functools
import hashlib
import itertools
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


_OBJECTIVE = optimizer._objective  # the oracle's objective, before any monkeypatch


def _nan_later_rounds(terms, cos2, sin2, out):
    """The oracle's objective, NaN on every node of the rounds after the
    first: only those take ``cos2`` as an array, one row per live search."""
    ff = _OBJECTIVE(terms, cos2, sin2, out)
    if np.ndim(cos2) > 0:
        ff[...] = math.nan
    return ff


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

    def test_no_angles_no_searches(self):
        report = numeric_optimize(np.array([]))
        assert report.evaluations == 0
        assert [len(column) for column in (*report.best_coeffs, report.best_fidelity, report.rounds)] == [0] * 5

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

    @pytest.mark.parametrize("grid_density, rounds", [(64, [11, 14, 14, 14, 14]), (256, [10, 13, 13, 13, 13])])
    def test_never_improving_search_ends_by_window_collapse(self, monkeypatch, grid_density, rounds):
        # a NaN later round never replaces the incumbent and its gain is NaN,
        # so only the collapse rule can end the search: each window is at
        # most 1/8 as wide as the one before, so within 14 rounds
        monkeypatch.setattr(optimizer, "_objective", _nan_later_rounds)
        report = numeric_optimize(np.array([0.0, 0.3, 0.7, math.pi / 4, math.pi / 2]), grid_density=grid_density)
        assert report.rounds.tolist() == rounds
        assert numeric_optimize(0.3, grid_density=grid_density).rounds == rounds[1]

    def test_flat_objective_ends_by_tolerance(self, monkeypatch):
        # no round gains, so the search stops once the grid is fine enough;
        # a flat objective ties every node, so the first round keeps them all
        # and its incumbent is the node (0, 0)
        def flat(terms, cos2, sin2, out):
            out[0][...] = 0.75
            return out[0]

        ts = np.linspace(0.0, math.pi / 2, 65)
        every_node = np.arange(65 * 65), tuple(term.ravel() for term in optimizer._chart_terms(ts, ts))
        monkeypatch.setattr(optimizer, "_first_round", lambda grid_density: (ts, *every_node))
        monkeypatch.setattr(optimizer, "_objective", flat)
        report = numeric_optimize(np.array([0.0, 0.3, 0.7, math.pi / 4, math.pi / 2]), grid_density=64)
        assert report.rounds.tolist() == [5] * 5
        assert report.achieved_tolerance.tolist() == [0.0] * 5
        assert report.best_fidelity.tolist() == [0.75] * 5

    def test_achieved_tolerance_is_last_three_rounds(self):
        # an exact grid node is the optimum only at the endpoints; inside,
        # the final rounds still gain below the 1e-12 stopping tolerance
        for phi in np.linspace(0, math.pi / 2, 25)[1:-1]:
            report = numeric_optimize(float(phi), grid_density=256)
            assert 0.0 < report.achieved_tolerance < 1e-12, phi


@pytest.mark.parametrize("grid_density", [64, 128, 256])
def test_separable_grid_is_bit_identical_to_meshgrid(monkeypatch, grid_density):
    """Every round's nodes, on every window real searches visit, equal the
    objective evaluated on a full meshgrid, byte for byte: each first
    round's kept nodes, from the cached terms, and each search's window in
    every batched later round.  Each search's windows are the ones its own
    grids ask for: +-4 spacings of its last grid around its incumbent so
    far, clipped to [0, pi/2]; its first incumbent is the full meshgrid's
    best node."""
    chart_terms, objective = optimizer._chart_terms, optimizer._objective
    full = np.linspace(0.0, math.pi / 2, grid_density + 1)
    _, kept, cached = optimizer._first_round(grid_density)
    visited = {}  # per (cos2, sin2) of a search: its grids (ts, us, ff) in order
    axes = None  # of the batch being evaluated, each (m, 65)

    def recording_axes(ts, us, out):
        nonlocal axes
        axes = ts, us
        for axis in (*ts, *us):  # np.linspace over the window
            assert axis.tobytes() == np.linspace(axis[0], axis[-1], 65).tobytes()
        return chart_terms(ts, us, out)

    def against_meshgrid(terms, cos2, sin2, out):
        ff = objective(terms, cos2, sin2, out)
        if ff.ndim == 1:  # a first round, on its kept nodes
            assert terms is cached
            grids = [(full, full, ff, cos2, sin2)]
        else:
            grids = zip(*axes, ff, cos2[:, 0, 0], sin2[:, 0, 0])
        for ts, us, f, c2, s2 in grids:
            tt, uu = np.meshgrid(ts, us, indexing="ij")
            sin_tt = np.sin(tt)
            aa = sin_tt * np.cos(uu)
            cc = sin_tt * np.sin(uu)
            bb = np.cos(tt) * math.sqrt(0.5)
            reference = 0.5 + 0.5 * (aa * aa - cc * cc) * c2 + bb * (aa + cc) * s2
            kept_reference = reference.ravel()[kept] if f.ndim == 1 else reference
            assert f.tobytes() == kept_reference.tobytes(), (ts[0], ts[-1], us[0], us[-1])
            visited.setdefault((float(c2), float(s2)), []).append((ts.copy(), us.copy(), reference))
        return ff

    monkeypatch.setattr(optimizer, "_chart_terms", recording_axes)
    monkeypatch.setattr(optimizer, "_objective", against_meshgrid)
    seeded = np.random.default_rng(2000 + grid_density).uniform(0, math.pi / 2, 20)
    phis = np.array([0.0, math.pi / 4, math.pi / 2, *seeded])
    report = numeric_optimize(phis, grid_density=grid_density)
    rounds = int(report.rounds.sum())
    assert report.evaluations == len(phis) * (grid_density + 1) ** 2 + (rounds - len(phis)) * 65**2
    assert sum(len(grids) for grids in visited.values()) == rounds

    sin2, cos2, _ = angle_terms(phis)
    for i, key in enumerate(zip(cos2.tolist(), sin2.tolist())):
        grids = visited[key]
        assert len(grids) == report.rounds[i]
        best_f, best_t, best_u = -math.inf, 0.0, 0.0
        for r, (ts, us, f) in enumerate(grids):
            if r:  # the window this search's last grid and incumbent ask for
                h_t = (last_ts[-1] - last_ts[0]) / (len(last_ts) - 1)
                h_u = (last_us[-1] - last_us[0]) / (len(last_us) - 1)
                asked = (max(0.0, best_t - 4 * h_t), max(0.0, best_u - 4 * h_u),
                         min(math.pi / 2, best_t + 4 * h_t), min(math.pi / 2, best_u + 4 * h_u))
                assert (ts[0], us[0], ts[-1], us[-1]) == asked, (phis[i], r)
            row, col = divmod(int(np.argmax(f)), f.shape[1])
            if f[row, col] > best_f:
                best_f, best_t, best_u = float(f[row, col]), float(ts[row]), float(us[col])
            last_ts, last_us = ts, us
        assert report.best_fidelity[i] == best_f
        sin_t = math.sin(best_t)
        expected = [sin_t * math.cos(best_u), math.cos(best_t) * math.sqrt(0.5), sin_t * math.sin(best_u)]
        assert [column[i] for column in report.best_coeffs] == expected


# Within a few milliradians of an endpoint the first round's best node is
# (or sits next to) the endpoint optimum, and later rounds can gain nothing
# for several rounds while the optimum is still far from a node.
NEAR_ENDPOINTS = [x for gap in np.geomspace(5e-4, 1e-2, 6) for x in (gap, math.pi / 2 - gap)]


def _full_first_round(grid_density):
    """Axis nodes and both terms of the first round on every node, as
    (n + 1, n + 1) arrays."""
    ts = np.linspace(0.0, math.pi / 2, grid_density + 1)
    return ts, optimizer._chart_terms(ts, ts)


@pytest.mark.parametrize("grid_density", [64, 128, 256])
def test_pruned_first_round_keeps_the_bits_of_the_full_grid(monkeypatch, grid_density):
    """The first round on the kept nodes picks the node and value a full
    grid's argmax picks, by float.hex, at the special and near-endpoint
    angles and 300 seeded ones.  Later rounds are NaN, so they never
    replace the incumbent: each report holds its first round's best."""
    monkeypatch.setattr(optimizer, "_objective", _nan_later_rounds)
    phis = np.array([0.0, math.pi / 4, math.pi / 2, *NEAR_ENDPOINTS,
                     *np.random.default_rng(5000 + grid_density).uniform(0, math.pi / 2, 300)])
    report = numeric_optimize(phis, grid_density=grid_density)
    ts, terms = _full_first_round(grid_density)
    work = np.empty((2, grid_density + 1, grid_density + 1))
    sin2, cos2, _ = angle_terms(phis)
    for i in range(len(phis)):
        ff = _OBJECTIVE(terms, cos2[i], sin2[i], work)
        row, col = divmod(int(np.argmax(ff)), grid_density + 1)
        t, u = ts[row], ts[col]
        expected = [ff[row, col], math.sin(t) * math.cos(u), math.cos(t) * math.sqrt(0.5), math.sin(t) * math.sin(u)]
        found = [report.best_fidelity[i], *(column[i] for column in report.best_coeffs)]
        assert [float(x).hex() for x in found] == [float(x).hex() for x in expected], phis[i]


@pytest.mark.parametrize("grid_density", [64, 128, 256])
def test_pruned_first_round_bits_drop_only_beaten_nodes(grid_density):
    """A node is dropped exactly when one of its 8 grid neighbours is at
    least the margin larger in both terms, the kept terms are the full
    grid's bits, and under a tenth of the nodes are kept, so the speed is
    not silently lost."""
    ts, kept, kept_terms = optimizer._first_round(grid_density)
    full_ts, terms = _full_first_round(grid_density)
    assert ts.tobytes() == full_ts.tobytes()
    n = grid_density + 1
    # -inf around the grid: a missing neighbour never beats a node
    padded = [np.pad(term, 1, constant_values=-math.inf) for term in terms]
    beaten = np.zeros((n, n), dtype=bool)
    for dr, dc in itertools.product((-1, 0, 1), repeat=2):
        if dr or dc:
            gains = [p[1 + dr:1 + dr + n, 1 + dc:1 + dc + n] - term for p, term in zip(padded, terms)]
            beaten |= (gains[0] >= optimizer._DOMINANCE_MARGIN) & (gains[1] >= optimizer._DOMINANCE_MARGIN)
    assert kept.tolist() == np.flatnonzero(~beaten).tolist()
    for kept_term, term in zip(kept_terms, terms):
        assert kept_term.tobytes() == term.ravel()[kept].tobytes()
    assert 10 * len(kept) < n * n


def test_dominance_margin_bits_bound():
    # Each node's rounded objective is within 3u (u = 2^-53) of its exact
    # value, so a neighbour that gains the margin in both terms stays
    # strictly above after rounding once the margin exceeds 2 * 3u; keep
    # three orders of magnitude beyond that.
    assert optimizer._DOMINANCE_MARGIN >= 1000 * 3 * 2.0**-53


# SHA-256 of the float calls' reports on the 437 angles below, one line per
# angle of its fields' float.hex, rounds and evaluations.  They were taken
# from the oracle of commit d104431, which drove each search as a generator,
# so they hold the array round loop to an independent result.
FLOAT_FORM_DIGESTS = {
    64: "ad69be49e481e8f7016f53d2a1fa11670af92fd983daf7e26db145f8c3677c4f",
    128: "4d8dbbaaaee55c7586a4db470ea53b7cffb2024aa31d773c7ded0ba8d7eac4fd",
    256: "cff9ded820671ca385e7ff0fa1190eccc4c850ff2a778a93f2dfbb6e04cda476",
}


@pytest.mark.parametrize("grid_density", [64, 128, 256])
def test_array_form_has_the_bits_of_the_float_form(grid_density):
    """Each search of an array call equals the call at its one angle, in
    every field, whatever its place in the groups of up to 13: on verify's
    25 angles (the endpoints among them), the near-endpoint stall angles
    and 400 seeded ones, in arrays of 1, 7, 8, 9, 13, 14, 25, 26 and 27
    angles, on either side of one, two and three groups.  The float calls
    keep the bits of the earlier oracle, by digest."""
    phis = np.array([*np.linspace(0, math.pi / 2, 25), *NEAR_ENDPOINTS,
                     *np.random.default_rng(3000 + grid_density).uniform(0, math.pi / 2, 400)])
    singles = [numeric_optimize(phi, grid_density=grid_density) for phi in phis.tolist()]
    lines = (" ".join([r.best_fidelity.hex(), *(x.hex() for x in r.best_coeffs), r.achieved_tolerance.hex(),
                       str(r.rounds), str(r.evaluations)]) for r in singles)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FLOAT_FORM_DIGESTS[grid_density]
    start, lengths = 0, itertools.cycle([1, 7, 8, 9, 13, 14, 25, 26, 27])
    while start < len(phis):
        stop = min(start + next(lengths), len(phis))
        report, expected = numeric_optimize(phis[start:stop], grid_density=grid_density), singles[start:stop]
        assert type(report.evaluations) is int
        assert report.evaluations == sum(single.evaluations for single in expected)
        assert report.rounds.tolist() == [single.rounds for single in expected]
        for field in ("best_fidelity", "achieved_tolerance"):
            assert [x.hex() for x in getattr(report, field).tolist()] == [
                getattr(single, field).hex() for single in expected
            ], field
        for k, column in enumerate(report.best_coeffs):
            assert [x.hex() for x in column.tolist()] == [tuple(single.best_coeffs)[k].hex() for single in expected]
        start = stop


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
        ts, kept, (half_diff, mixed) = optimizer._first_round(64)
        for array in (ts, kept, half_diff, mixed):
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


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble, int])
def test_angle_terms_other_dtypes_keep_the_float_bits(dtype):
    """An array of another real dtype is taken to float64 before its sines,
    as each element is on the float path; numpy's own float16, float32 or
    longdouble loops would give other bits."""
    if dtype is int:
        phis = np.array([0, 1, 1, 0, 1])
    else:
        phis = np.random.default_rng(20261024).uniform(0.0, 1.5, 5000).astype(dtype)
    _same_bits(angle_terms(phis), list(map(angle_terms, phis.tolist())))


# SHA-256 of angle_terms on verify's fine grid, its three arrays as <f8
# bytes in order.  Like the sweep workload's SWEEP_SHA256 it pins the C
# library it was taken with (glibc 2.36, x86-64): sin, cos and pow are not
# correctly rounded, so another libm may give other last bits.  A change in
# how the terms are formed shows here in Tier-1, not only in the sweep CSV.
FINE_GRID_TERMS_SHA256 = "2c2677e3598ce949973e5f48a7f058e7c5d1991a6720035efd5f8c9d54d8c1a9"


def test_angle_terms_bits_on_verify_fine_grid():
    digest = hashlib.sha256()
    for terms in angle_terms(np.linspace(0.0, math.pi / 2, 15709)):
        digest.update(terms.astype("<f8").tobytes())
    assert digest.hexdigest() == FINE_GRID_TERMS_SHA256


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
    with pytest.raises(ValueError, match="angles"):
        numeric_optimize(bad)  # the oracle's array form takes the same gate


def _decimal_cos(x):
    """cos by the Taylor recipe of the ``decimal`` documentation."""
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 0, 0, 1, 1, 1, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


def _decimal_sin(x):
    """sin by the Taylor recipe of the ``decimal`` documentation."""
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 1, 0, x, 1, x, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


OPTIMUM_COLUMNS = ("F", "eta_x", "eta_z", "a", "b", "c")
_SEEDED = np.random.default_rng(20261020).uniform(0.0, math.pi / 2, 200)
DECIMAL_ANGLES = {  # the seeded angles split where the c column starts to hold
    "seeded-below-0.7": _SEEDED[_SEEDED < 0.7],
    "seeded-from-0.7": _SEEDED[_SEEDED >= 0.7],
    "small": np.geomspace(1e-8, 1e-2, 61),
}
# Each column is a chain of about a dozen float64 roundings of at most half
# an epsilon each (sin and cos within an ulp); a few more give the bound.
DECIMAL_RTOL = 8 * np.finfo(float).eps


@functools.cache
def _decimal_optimum(angles: str) -> tuple:
    """The six columns of ``optimum`` at DECIMAL_ANGLES[angles], each a list
    of Decimals from the closed form in 60 digits at the exact binary angle."""
    columns = []
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for phi in DECIMAL_ANGLES[angles].tolist():
            x = decimal.Decimal(phi)
            sin2, cos2 = _decimal_sin(x) ** 2, _decimal_cos(x) ** 2
            root = (sin2 * sin2 + cos2 * cos2).sqrt()
            eta_z = cos2 / root
            columns.append(((1 + root) / 2, sin2 / root, eta_z, (1 + eta_z) / 2, sin2 / (2 * root), (1 - eta_z) / 2))
    return tuple(zip(*columns))


# c = 0.5 (1 - eta_z) subtracts two numbers near 1 as phi -> 0, so its
# relative error grows as 1/phi^4: about 2e-8 at phi = 1e-2 and 1 from
# 1e-4 down.  At the seeded angles it fails up to about phi = 0.56 and
# holds within 3.5 epsilons from 0.7 on, where it is asserted.
_C_CANCELS = pytest.mark.xfail(
    strict=True, reason="c = 0.5 (1 - eta_z) cancels as eta_z -> 1 at small phi"
)


@pytest.mark.parametrize(
    "column, angles",
    [
        pytest.param(column, angles, marks=_C_CANCELS if column == "c" and angles != "seeded-from-0.7" else ())
        for angles in DECIMAL_ANGLES
        for column in OPTIMUM_COLUMNS
    ],
)
def test_optimum_matches_a_decimal_reference(column, angles):
    """Each column of ``optimum`` within DECIMAL_RTOL, relative, of the
    closed form evaluated in ``decimal`` with sin and cos by Taylor series."""
    k = OPTIMUM_COLUMNS.index(column)
    values = optimizer.optimum(DECIMAL_ANGLES[angles])[k].tolist()
    exacts = _decimal_optimum(angles)[k]
    errors = [abs((decimal.Decimal(value) - exact) / exact) for value, exact in zip(values, exacts)]
    worst = max(range(len(errors)), key=errors.__getitem__)
    assert errors[worst] <= DECIMAL_RTOL, (DECIMAL_ANGLES[angles][worst], float(errors[worst]))
