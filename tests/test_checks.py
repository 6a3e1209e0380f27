import dataclasses
import math
import types

import numpy as np
import pytest

import pairclone
from pairclone import checks, cloner, ensemble, linalg, optimizer
from pairclone.checks import run_checks

EPS = 1e-6  # far above every pinned bound except the oracle's 1e-4


def _nan_at_quarter_pi(out, phis):
    # F of the optimum NaN at pi/4 itself, where argmin of F would land
    return (np.where(phis == math.pi / 4, math.nan, out[0]), *out[1:])


def _dip_beside_quarter_pi(out, phis):
    # F of the optimum with a 1e-6 dip 1e-3 below pi/4, where F is within
    # 1e-6 of its minimum
    return (out[0] - EPS * (np.abs(phis - (math.pi / 4 - 1e-3)) < 2e-4), *out[1:])


def _rotate_state_3_towards_1(out, *_):
    # a unit-norm turn of psi3 by 1e-6 rad towards psi1, its pair partner
    states = out[0].copy()
    states[:, 2] = math.cos(EPS) * states[:, 2] + math.sin(EPS) * states[:, 0]
    return states, out[1]


def _shift_bloch_y(out, *_):
    bloch = out[1].copy()
    bloch[..., 1] += EPS
    return out[0], bloch


# (module, function, perturbation of its result given its arguments, the
# properties that must then fail); at least one from each of acceptance
# criteria 2-9, and one for each property outside them.  Together with
# OWN_TESTS they name every property of run_checks.  tests/test_cli.py
# covers a plain 1e-6 shift and a NaN in the fidelity of optimizer.optimum.
MUTATIONS = [
    pytest.param(
        ensemble, "family", lambda out, *_: (out[0] * (1 + EPS), out[1]),
        ["ensemble unit norms", "ensemble relabel symmetry"],
        id="ensemble-family-states",
    ),
    pytest.param(
        ensemble, "family", _rotate_state_3_towards_1,
        ["ensemble pair orthogonality"],
        id="ensemble-family-rotated-pair",
    ),
    pytest.param(
        ensemble, "family", _shift_bloch_y,
        ["ensemble y components vanish"],
        id="ensemble-family-bloch-y",
    ),
    pytest.param(
        ensemble, "family", lambda out, *_: (out[0], out[1] * (1 + EPS)),
        ["ensemble Bloch pattern"],
        id="ensemble-family-bloch",
    ),
    pytest.param(
        linalg, "partial_trace", lambda out, *_: out * (1 + EPS),
        ["partial trace of product states"],
        id="linalg-partial_trace",
    ),
    pytest.param(
        # the joint states of the partial-trace block and the isometry's
        # term kets are both tensor products
        linalg, "tensor", lambda out, *_: out * (1 + EPS),
        ["partial trace of product states", "isometry columns orthonormal"],
        id="linalg-tensor",
    ),
    pytest.param(
        linalg, "bloch_from_density", lambda out, *_: out * (1 + EPS),
        ["Bloch round trip"],
        id="linalg-bloch_from_density",
    ),
    pytest.param(
        optimizer, "optimum", lambda out, *_: (*out[:3], out[3] * (1 + EPS), *out[4:]),
        ["optimal coefficient constraint"],
        id="C3-optimum-a",
    ),
    pytest.param(
        # 1e-6 would stay below the coefficient bound of 1e-4
        optimizer, "numeric_optimize",
        lambda out, *_: dataclasses.replace(out, best_coeffs=(out.best_coeffs[0] + 1e-3, *out.best_coeffs[1:])),
        ["oracle coefficient agreement"],
        id="C4-numeric_optimize-coeffs",
    ),
    pytest.param(
        cloner, "clone_batch",
        lambda out, *_: out._replace(
            fidelities=out.fidelities * (1 + EPS * np.arange(out.fidelities.shape[1]))
        ),
        ["four fidelities equal", "simulation matches optimal fidelity"],
        id="C2-clone_batch-fidelities",
    ),
    pytest.param(
        cloner, "isometry_batch", lambda out, *_: out * (1 + EPS),
        ["isometry columns orthonormal", "simulation matches optimal fidelity"],
        id="C3-isometry_batch",
    ),
    pytest.param(
        optimizer, "numeric_optimize",
        lambda out, *_: dataclasses.replace(out, best_fidelity=out.best_fidelity + EPS),
        ["oracle fidelity agreement"],
        id="C4-numeric_optimize",
    ),
    pytest.param(
        optimizer, "lagrange_residual", lambda out, *_: (out[0] + EPS, *out[1:]),
        ["stationarity residuals"],
        id="C5-lagrange_residual",
    ),
    pytest.param(
        # the multiplier F - 1/2 moves with F, and the three equations
        # that carry it then miss
        optimizer, "optimum", lambda out, *_: (out[0] + EPS, *out[1:]),
        ["stationarity residuals"],
        id="C5-optimum-multiplier",
    ),
    pytest.param(
        cloner, "shrinking_factors", lambda out, *_: (out[0] * (1 + EPS), out[1]),
        ["channel Bloch contraction map", "shrinking factor identities"],
        id="C6-shrinking_factors",
    ),
    pytest.param(
        optimizer, "optimum", lambda out, *_: (out[0], out[1] * (1 + EPS), *out[2:]),
        ["shrinking factor identities", "shrinking reflection symmetry"],
        id="C6-optimal_shrinking",
    ),
    pytest.param(
        optimizer, "optimum", _dip_beside_quarter_pi,
        ["fidelity minimum at pi/4"],
        id="C7-optimal_fidelity-dip",
    ),
    pytest.param(
        optimizer, "optimum", _nan_at_quarter_pi,
        ["fidelity minimum at pi/4"],
        id="C7-optimal_fidelity-nan-at-quarter-pi",
    ),
    pytest.param(
        cloner, "clone_batch", lambda out, *_: out._replace(copy1=out.copy1 * (1 + EPS)),
        ["perfect cloning at the endpoints", "copy 1 equals copy 2"],
        id="C8-clone_batch-copy1",
    ),
    pytest.param(
        # each copy transposed: the y axis of the channel flips, and only
        # complex inputs can show it
        cloner, "clone_batch", lambda out, *_: out._replace(copy1=out.copy1.conj(), copy2=out.copy2.conj()),
        ["channel Bloch contraction map"],
        id="C6-clone_batch-conjugated-copies",
    ),
    pytest.param(
        cloner, "fidelity_general", lambda out, *_: out * (1 + EPS),
        ["general formula at maximal overlaps"],
        id="C9-fidelity_general",
    ),
    pytest.param(
        cloner, "fidelity_general",
        # perturbed where either overlap sum is below its maximum, 2
        lambda out, coeffs, phi, overlaps: out + EPS * (np.minimum(*overlaps) < 2.0),
        ["overlaps below maximum never help"],
        id="C9-fidelity_general-submaximal",
    ),
]


def test_small_grid_all_pass():
    results = run_checks(grid=60)
    assert results
    for result in results:
        assert result.passed, result.line()


def test_every_property_reports_a_line():
    results = run_checks(grid=30)
    lines = [r.line() for r in results]
    assert all(line.startswith("[PASS]") for line in lines)
    names = {r.name for r in results}
    assert len(names) == len(results)  # no duplicated property names


def test_parameters_validated(monkeypatch):
    def no_work(_):
        raise AssertionError("a check block ran before the arguments were checked")

    monkeypatch.setattr(checks, "_grid_deviations", no_work)
    for bad in [1, 2.5, True]:
        with pytest.raises(ValueError):
            run_checks(grid=bad)


# 1: every angle in its own block; 7: eight blocks of 7 or 6; 49: two of 25,
# as np.array_split balances the blocks
@pytest.mark.parametrize("block", [1, 7, 49])
def test_grid_blocks_do_not_change_results(monkeypatch, block):
    whole = [r.line() for r in run_checks(grid=50)]
    monkeypatch.setattr(checks, "_BLOCK", block)
    split = [r.line() for r in run_checks(grid=50)]
    assert split == whole


@pytest.mark.parametrize(
    "later", [math.nan, 2e20, 1e20], ids=["nan-beats-larger", "larger", "tie-keeps-first"]
)
def test_worst_angle_found_across_blocks(monkeypatch, later):
    # a deviation of 1e20 (exact: 1e20 - F == 1e20) in the first block and
    # `later` in the sixth
    phis = np.linspace(0.0, math.pi / 2, 50)
    first, second = phis[3], phis[40]
    exact = cloner.fidelity_closed_form

    def perturbed(coeffs, block):
        values = np.where(block == first, 1e20, exact(coeffs, block))
        return np.where(block == second, later, values)

    monkeypatch.setattr(checks, "_BLOCK", 7)
    monkeypatch.setattr(cloner, "fidelity_closed_form", perturbed)
    chain = {r.name: r for r in run_checks(grid=50)}["optimal fidelity consistency chain"]
    assert chain.deviation == later or (math.isnan(later) and math.isnan(chain.deviation))
    assert chain.worst_at == f"phi={(first if later == 1e20 else second):.6g}"


# Properties that a test of their own makes fail, by that test's name.
OWN_TESTS = {"optimal fidelity consistency chain": "test_worst_angle_found_across_blocks"}


@pytest.mark.parametrize("module, function, perturb, failing", MUTATIONS)
def test_each_pinned_property_can_fail(monkeypatch, module, function, perturb, failing):
    original = getattr(module, function)

    def perturbed(*args, **kwargs):
        return perturb(original(*args, **kwargs), *args)

    # every module that binds the name, as report.py binds ensemble.family
    for bound in [pairclone, *(m for m in vars(pairclone).values() if isinstance(m, types.ModuleType))]:
        if getattr(bound, function, None) is original:
            monkeypatch.setattr(bound, function, perturbed)
    results = {r.name: r for r in run_checks(grid=30)}
    for name in failing:
        assert not results[name].passed, results[name].line()


def test_every_property_has_a_fault_that_fails_it():
    failing = {name for case in MUTATIONS for name in case.values[3]}
    assert failing | set(OWN_TESTS) == {r.name for r in run_checks(grid=30)}
