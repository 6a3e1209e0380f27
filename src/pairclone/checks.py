"""Whole-library verification sweep used by the ``verify`` command.

Each check walks a phi grid (or a seeded random sample), records the
worst observed deviation from the property it tests, and passes when that
deviation is finite and under its bound.  :func:`_worst` is the one
reduction: it finds the worst angle of each block of the grid, then reduces
the blocks' results in the same way.  The bounds are fixed: 1e-10 for
the closed-form identities, 1e-8 and 1e-4 for the grid-search oracle's
fidelity and coefficients (its accuracy is set by refinement depth, not
roundoff), and the fine grid's step for the location of the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cloner, ensemble, linalg, optimizer

_HALF_PI = math.pi / 2
_SEED = 20260808
_CHANNEL_SEED = _SEED + 1  # the channel block's complex kets
_BLOCK = 1024  # angles per kernel call in the grid sweep
# Fixed bounds on the worst deviation; see the module docstring.
_IDENTITY_BOUND = 1e-10
_ORACLE_FIDELITY_BOUND = 1e-8
_ORACLE_COEFF_BOUND = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    worst_at: str

    @property
    def passed(self) -> bool:
        # Fails closed: a NaN or infinite deviation is a failure.
        return math.isfinite(self.deviation) and self.deviation <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: max deviation {self.deviation:.3e} "
            f"(tolerance {self.tolerance:.1e}, worst at {self.worst_at})"
        )


def _worst(name: str, deviations, tolerance: float, where) -> CheckResult:
    """Largest deviation over all samples along the leading axis, such as
    the (N,) per-angle worsts of :func:`_grid_deviations`; ``where(i)``
    names sample ``i``.  ``np.max``, not ``nanmax``: a NaN anywhere becomes
    the reported deviation, so the check fails."""
    deviations = np.asarray(deviations, dtype=float)
    per_sample = np.max(deviations.reshape(len(deviations), -1), axis=1)
    index = int(np.argmax(per_sample))  # first maximum, or first NaN
    worst = float(per_sample[index])
    if not (worst > 0.0 or math.isnan(worst)):
        return CheckResult(name, 0.0, tolerance, "-")
    return CheckResult(name, worst, tolerance, where(index))


def _at_phi(phis):
    return lambda index: f"phi={phis[index]:.6g}"


def _grid_deviations(phis) -> dict:
    """Worst deviation of every grid property at each of the N angles
    ``phis``, one (N,) array per property, in report order.  Every array
    keeps the angle on its last, contiguous axis, for N-long inner loops;
    the kernels that take the angle first get (N, ...) views of it."""
    n = len(phis)
    # --- ensemble geometry ----------------------------------------------
    states, bloch = ensemble.family(phis)
    states, bloch = np.ascontiguousarray(states.T), bloch.transpose(1, 2, 0)  # (2, 4, N), (4, 3, N)
    projectors = states[:, None] * states[None].conj()  # (2, 2, 4, N), as the kernel's copies
    s, c = np.sin(phis), np.cos(phis)
    expected = np.stack([[s, c], [-s, c], [-s, -c], [s, -c]])
    flipped = states[::-1]  # sigma_x |psi>
    partners = states[:, ::-1]  # state 5 - label
    # the stored Bloch vectors against the table and against the states' projectors
    read_out = linalg.bloch_vectors(projectors.transpose(2, 3, 0, 1)).transpose(0, 2, 1)
    pattern = np.concatenate([bloch[:, ::2] - expected, read_out - bloch], axis=1)
    deviations = {
        "ensemble unit norms": np.abs(np.linalg.norm(states, axis=0) - 1.0),
        # the pairs {1, 3} and {2, 4}
        "ensemble pair orthogonality": np.abs(np.sum(states[:, :2].conj() * states[:, 2:], axis=0)),
        "ensemble y components vanish": np.abs(bloch[:, 1]),
        "ensemble Bloch pattern": np.abs(pattern),
        "ensemble relabel symmetry": np.abs(1.0 - np.abs(np.sum(flipped.conj() * partners, axis=0))),
    }

    # --- optimum: constraint, isometry, fidelities, shrinking ------------
    f_opt, eta_x, eta_z, *coeffs = optimizer.optimum(phis)
    isometries = np.ascontiguousarray(cloner.isometry_batch(np.column_stack(coeffs)).T)  # (2, 8, N)
    copies = cloner.clone_batch(isometries.T, states.T)
    # both copies' fidelities, (8, N): the paper's claim covers each copy
    fids = np.concatenate([copies.fidelities.T, cloner.expectation(states.T, copies.copy2).real.T])
    gram = np.einsum("ian,jan->ijn", isometries.conj(), isometries)
    f_closed = cloner.fidelity_closed_form(coeffs, phis)
    eta = np.stack((eta_x, eta_z))
    mirrored = optimizer.optimum(_HALF_PI - phis)[2]
    formula = np.stack(cloner.shrinking_factors(coeffs))
    multiplier = optimizer.recover_multiplier(coeffs, phis, fidelity=f_opt)
    residuals = np.stack(optimizer.lagrange_residual(coeffs, multiplier, phis))
    # the grid holds 0 and pi/2 exactly, where each pair is a basis: F = 1 and copy 1 = input
    ends = (phis == 0.0) | (phis == _HALF_PI)
    copy_defects = np.abs(copies.copy1.transpose(2, 3, 1, 0) - projectors).reshape(-1, n)
    perfect = np.concatenate([np.abs(f_opt - 1.0)[None], np.abs(fids - 1.0), copy_defects])
    deviations.update({
        "optimal coefficient constraint": np.abs(cloner.constraint_defect(*coeffs)),
        "isometry columns orthonormal": np.abs(gram - np.eye(2)[..., None]),
        "four fidelities equal": np.max(fids, axis=0) - np.min(fids, axis=0),
        "simulation matches optimal fidelity": np.abs(fids - f_opt),
        "optimal fidelity consistency chain": np.abs(f_opt - f_closed),
        "shrinking factor identities": np.concatenate(
            [np.abs(np.sum(eta * eta, axis=0) - 1.0)[None], np.abs(eta - formula)]
        ),
        "shrinking reflection symmetry": np.abs(eta[0] - mirrored),
        "stationarity residuals": np.abs(residuals),
        "perfect cloning at the endpoints": np.where(ends, perfect, 0.0),
    })
    # np.max, not nanmax: a NaN entry is its angle's worst
    return {name: np.max(d.reshape(-1, n), axis=0) for name, d in deviations.items()}


def run_checks(grid: int = 1000) -> list[CheckResult]:
    """Run every library invariant on a ``grid``-angle phi grid and return
    one result per property.  ``grid`` is checked before any work is done."""
    grid = linalg._integer(grid, "grid")
    if grid < 2:
        raise ValueError("grid must be at least 2")

    phis = np.linspace(0.0, _HALF_PI, grid)
    rng = np.random.default_rng(_SEED)
    results: list[CheckResult] = []

    # Blocks of angles bound the working memory for any grid size: each
    # block keeps only its worst angle per property, and the first maximum
    # (or first NaN) of the blocks' results is that of all angles.
    blocks = [
        [_worst(name, d, _IDENTITY_BOUND, _at_phi(block)) for name, d in _grid_deviations(block).items()]
        for block in np.array_split(phis, -(-grid // _BLOCK))
    ]
    for per_block in zip(*blocks):
        where = [r.worst_at for r in per_block]
        deviations = [r.deviation for r in per_block]
        results.append(_worst(per_block[0].name, deviations, _IDENTITY_BOUND, where.__getitem__))

    # --- copy symmetry and channel geometry on random complex states -----
    # (these 25 angles and their optimum serve the oracle block too)
    coarse_phis = np.linspace(0.0, _HALF_PI, 25)
    coarse_f, _, _, *coarse_coeffs = optimizer.optimum(coarse_phis)
    # Haar-random kets (alpha, beta) from the block's own stream, with Bloch
    # vectors m = (2 Re alpha* beta, 2 Im alpha* beta, |alpha|^2 - |beta|^2)
    normal = np.random.default_rng(_CHANNEL_SEED).normal(size=(len(coarse_phis), 100, 2, 2))
    kets = normal[..., 0] + 1j * normal[..., 1]
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    alpha, beta = kets[..., 0], kets[..., 1]
    cross = alpha.conj() * beta
    m_in = np.stack([2 * cross.real, 2 * cross.imag, np.abs(alpha) ** 2 - np.abs(beta) ** 2], axis=-1)
    copies = cloner.clone_batch(cloner.isometry_batch(np.column_stack(coarse_coeffs)), kets)
    # By the expansion in cloner's docstring each copy has <0|rho|1> = 2ab alpha
    # beta* + 2bc alpha* beta, so m_x - i m_y = 2<0|rho|1> goes to eta_x m_x -
    # i eta_y m_y with eta_x = 2b(a + c) and eta_y = 2b(a - c); eta_z = a^2 - c^2.
    a, b, c = coarse_coeffs
    eta_x, eta_z = cloner.shrinking_factors(coarse_coeffs)
    eta = np.column_stack((eta_x, 2 * b * (a - c), eta_z))[:, None, None]  # (25, 1, 1, 3)
    m_out = linalg.bloch_vectors(np.stack([copies.copy1, copies.copy2], axis=2))  # (25, 100, 2, 3)
    at_coarse = _at_phi(coarse_phis)
    copy_gap = np.abs(copies.copy1 - copies.copy2)
    results.append(_worst("copy 1 equals copy 2", copy_gap, _IDENTITY_BOUND, at_coarse))
    contraction = np.abs(m_out - eta * m_in[:, :, None])
    results.append(_worst("channel Bloch contraction map", contraction, _IDENTITY_BOUND, at_coarse))

    # --- general fidelity formula over random feasible coefficients ------
    # (t, u) chart the constraint surface; draws in the order t, u, phi,
    # re_ab, re_bc per sample
    t, u, general_phis, re_ab, re_bc = rng.uniform(
        [0.0, 0.0, 0.0, -2.0, -2.0], [_HALF_PI, _HALF_PI, _HALF_PI, 2.0, 2.0], size=(1000, 5)
    ).T
    surface = (np.sin(t) * np.cos(u), np.cos(t) / math.sqrt(2), np.sin(t) * np.sin(u))
    at_max = cloner.fidelity_general(surface, general_phis, (2.0, 2.0))
    general = np.abs(at_max - cloner.fidelity_closed_form(surface, general_phis))
    sub = cloner.fidelity_general(surface, general_phis, (re_ab, re_bc))
    monotone = np.maximum(0.0, sub - at_max)
    at_general = _at_phi(general_phis)
    results.append(_worst("general formula at maximal overlaps", general, _IDENTITY_BOUND, at_general))
    results.append(_worst("overlaps below maximum never help", monotone, _IDENTITY_BOUND, at_general))

    # --- linear algebra round trips ---------------------------------------
    partial, roundtrip = [], []
    for _ in range(50):
        m = rng.uniform(-1.0, 1.0, size=3)
        norm = float(np.linalg.norm(m))
        if norm > 1.0:
            m = m / (norm * (1.0 + rng.uniform(0.0, 1.0)))
        rho_a = linalg.density_from_bloch(m)
        roundtrip.append(np.abs(linalg.bloch_from_density(rho_a) - m))
        rho_b = linalg.density_from_bloch(rng.uniform(-0.5, 0.5, size=3))
        joint = linalg.tensor(rho_a, rho_b)
        partial.append([
            np.abs(linalg.partial_trace(joint, [2, 2], 0) - rho_a),
            np.abs(linalg.partial_trace(joint, [2, 2], 1) - rho_b),
        ])
    at_sample = "sample {}".format
    results.append(_worst("partial trace of product states", partial, _IDENTITY_BOUND, at_sample))
    results.append(_worst("Bloch round trip", roundtrip, _IDENTITY_BOUND, at_sample))

    # --- worst case sits at the centre of the range ------------------------
    # Fails closed: a non-finite value, where argmin would land, gives NaN.
    fine = np.linspace(0.0, _HALF_PI, 15709)  # ~1e-4 resolution
    values = optimizer.optimum(fine)[0]
    broken = np.flatnonzero(~np.isfinite(values))
    index = int(broken[0]) if len(broken) else int(np.argmin(values))
    step = fine[1] - fine[0]
    results.append(
        CheckResult(
            "fidelity minimum at pi/4",
            math.nan if len(broken) else abs(float(fine[index]) - math.pi / 4),
            float(step),
            f"phi={fine[index]:.6g}",
        )
    )

    # --- independent grid-search oracle ------------------------------------
    searches = optimizer.numeric_optimize(coarse_phis)  # at DEFAULT_GRID_DENSITY
    oracle_f = np.abs(searches.best_fidelity - coarse_f)
    oracle_c = np.abs(np.column_stack(searches.best_coeffs) - np.column_stack(coarse_coeffs))
    results.append(_worst("oracle fidelity agreement", oracle_f, _ORACLE_FIDELITY_BOUND, at_coarse))
    results.append(_worst("oracle coefficient agreement", oracle_c, _ORACLE_COEFF_BOUND, at_coarse))

    return results
