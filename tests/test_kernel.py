"""The batch kernel against independent references.

``build_isometry`` is compared bit for bit with the ``numpy.kron``
construction of ``kron_reference``, and the kernel's reduced copies with the
closed-form fidelity, with each other and with the 8x8 density-matrix
route (``apply_cloner`` then ``copy_state``), on the real family and on
random complex kets through ``kron_reference`` isometries with a complex
ancilla.
"""

import math

import numpy as np
import pytest
from kron_reference import kron_isometry, rotated_ancilla

from pairclone.checks import run_checks
from pairclone.cloner import (
    ClonerCoefficients,
    apply_cloner,
    build_isometry,
    clone_batch,
    copy_state,
    fidelity,
    fidelity_closed_form,
    isometry_batch,
)
from pairclone.ensemble import family

SEED = 20261017


def _samples():
    """200 random angles plus 0, pi/4 and pi/2, each with random
    coefficients on the surface a^2 + 2b^2 + c^2 = 1."""
    rng = np.random.default_rng(SEED)
    phis = np.concatenate([[0.0, math.pi / 4, math.pi / 2], rng.uniform(0, math.pi / 2, 200)])
    t, u = rng.uniform(0, math.pi / 2, size=(2, len(phis)))
    coeffs = [
        ClonerCoefficients(
            a=math.sin(ti) * math.cos(ui),
            b=math.cos(ti) / math.sqrt(2),
            c=math.sin(ti) * math.sin(ui),
        )
        for ti, ui in zip(t, u)
    ]
    return phis, coeffs


PHIS, COEFFS = _samples()


def test_build_isometry_matches_kron_reference_bit_for_bit():
    for coeffs in COEFFS:
        built = build_isometry(coeffs)
        assert built.shape == (8, 2)
        assert built.tobytes() == kron_isometry(coeffs).tobytes()


def test_kernel_copies_match_closed_form_and_each_other():
    states, _ = family(PHIS)
    copies = clone_batch(isometry_batch([tuple(cc) for cc in COEFFS]), states)
    closed = np.array([fidelity_closed_form(cc, phi) for cc, phi in zip(COEFFS, PHIS)])
    assert copies.fidelities.shape == (len(PHIS), 4)
    assert np.max(np.abs(copies.fidelities - closed[:, None])) <= 1e-12
    assert np.max(np.abs(copies.copy1 - copies.copy2)) <= 1e-12


def test_kernel_copies_match_density_matrix_route():
    states, _ = family(PHIS[:20])
    isometries = isometry_batch([tuple(cc) for cc in COEFFS[:20]])
    copies = clone_batch(isometries, states)
    for n, isometry in enumerate(isometries):
        for k, psi in enumerate(states[n]):
            rho_out = apply_cloner(isometry, psi)
            assert np.max(np.abs(copies.copy1[n, k] - copy_state(rho_out, 1))) <= 1e-12
            assert np.max(np.abs(copies.copy2[n, k] - copy_state(rho_out, 2))) <= 1e-12


@pytest.mark.parametrize("shape", [(3, 5), (1, 6), (7, 1)])
def test_kernel_matches_density_matrix_route_on_complex_data(shape):
    # On the real family with the real default ancilla every copy is real
    # and symmetric, so a transposed copy (rho^T = conj(rho)) or a
    # misplaced conj passes; on complex data it does not.  N != K in two of
    # the shapes, so swapped N and K axes fail too.
    n, k = shape
    rng = np.random.default_rng(SEED + 2)
    isometries = []
    for cc in COEFFS[:n]:
        unitary, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        phases = np.exp(1j * rng.uniform(-math.pi, math.pi, size=6))
        isometries.append(kron_isometry(cc, rotated_ancilla(unitary, phases)))
    isometries = np.stack(isometries)
    kets = rng.normal(size=(n, k, 2)) + 1j * rng.normal(size=(n, k, 2))
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    copies = clone_batch(isometries, kets)
    assert copies.copy1.shape == copies.copy2.shape == (n, k, 2, 2)
    assert copies.fidelities.shape == (n, k)
    for i, isometry in enumerate(isometries):
        for j, psi in enumerate(kets[i]):
            rho_out = apply_cloner(isometry, psi)
            copy1, copy2 = copy_state(rho_out, 1), copy_state(rho_out, 2)
            assert np.max(np.abs(copies.copy1[i, j] - copy1)) <= 1e-12
            assert np.max(np.abs(copies.copy2[i, j] - copy2)) <= 1e-12
            assert abs(copies.fidelities[i, j] - fidelity(psi, copy1)) <= 1e-12


@pytest.mark.parametrize("grid", [2, 3])
def test_smallest_grids_pass_every_check(grid):
    results = run_checks(grid=grid)
    assert len(results) == 23
    for result in results:
        assert result.passed, result.line()
