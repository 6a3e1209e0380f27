"""Whole-library verification sweep used by the ``verify`` command.

Each check walks a phi grid (or a seeded random sample), records the
worst observed deviation from the property it tests, and passes when that
deviation is finite and under its bound.  The bounds are fixed: 1e-10 for
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


def _per_sample(deviations) -> np.ndarray:
    """Largest deviation of each sample along the leading axis.  ``np.max``,
    not ``nanmax``: a NaN anywhere stays the sample's deviation."""
    deviations = np.asarray(deviations, dtype=float)
    return np.max(deviations.reshape(len(deviations), -1), axis=1)


def _worst(name: str, deviations, tolerance: float, where) -> CheckResult:
    """Largest deviation over all samples; ``where(i)`` names sample ``i``.
    A NaN anywhere becomes the reported deviation, so the check fails."""
    per_sample = _per_sample(deviations)
    index = int(np.argmax(per_sample))  # first maximum, or first NaN
    worst = float(per_sample[index])
    if not (worst > 0.0 or math.isnan(worst)):
        return CheckResult(name, 0.0, tolerance, "-")
    return CheckResult(name, worst, tolerance, where(index))


def _at_phi(phis):
    return lambda index: f"phi={phis[index]:.6g}"


def _grid_deviations(phis) -> dict:
    """Deviation of every grid property at each angle of ``phis``, one
    array of shape (N,) per property, in report order."""
    # --- ensemble geometry ----------------------------------------------
    states, bloch = ensemble.family(phis)  # (N, 4, 2), (N, 4, 3)
    s, c = np.sin(phis), np.cos(phis)
    expected = np.stack([[s, c], [-s, c], [-s, -c], [s, -c]]).transpose(2, 0, 1)
    flipped = states[..., ::-1]  # sigma_x |psi>
    partners = states[:, ::-1]  # state 5 - label
    pattern = np.abs(bloch[..., ::2] - expected)
    deviations = {
        "ensemble unit norms": np.abs(np.linalg.norm(states, axis=-1) - 1.0),
        "ensemble pair orthogonality": ensemble.pair_overlaps(states),
        "ensemble y components vanish": np.abs(bloch[..., 1]),
        "ensemble Bloch pattern": np.concatenate(
            [pattern, ensemble.bloch_defects(states, bloch)], axis=-1
        ),
        "ensemble relabel symmetry": np.abs(1.0 - np.abs(np.sum(flipped.conj() * partners, axis=-1))),
    }

    # --- optimum: constraint, isometry, fidelities, shrinking ------------
    f_opt, eta_x, eta_z, *coeffs = optimizer.optimum(phis)
    isometries = cloner.isometry_batch(np.column_stack(coeffs))
    fids = cloner.clone_batch(isometries, states).fidelities  # (N, 4)
    gram = isometries.conj().transpose(0, 2, 1) @ isometries
    f_closed = cloner.fidelity_closed_form(coeffs, phis)
    eta = np.column_stack((eta_x, eta_z))
    mirrored = optimizer.optimum(_HALF_PI - phis)[2]
    formula = np.column_stack(cloner.shrinking_factors(coeffs))
    residuals = np.column_stack(optimizer.lagrange_residual(coeffs, f_opt - 0.5, phis))
    deviations.update({
        "optimal coefficient constraint": np.abs(cloner.constraint_defect(*coeffs)),
        "isometry columns orthonormal": np.abs(gram - np.eye(2)),
        "four fidelities equal": np.max(fids, axis=1) - np.min(fids, axis=1),
        "simulation matches optimal fidelity": np.abs(fids - f_opt[:, None]),
        "optimal fidelity consistency chain": np.abs(f_opt - f_closed),
        "shrinking factor identities": np.column_stack(
            [np.abs(np.sum(eta * eta, axis=1) - 1.0), np.abs(eta - formula)]
        ),
        "shrinking reflection symmetry": np.abs(eta[:, 0] - mirrored),
        "stationarity residuals": np.abs(residuals),
    })
    return {name: _per_sample(d) for name, d in deviations.items()}


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
    # block keeps only its worst angle per property.  The first maximum
    # (or first NaN) of the block maxima is that of all angles.
    block_worst = {}  # name -> [(deviation, index into phis)] in block order
    start = 0
    for block in np.array_split(phis, -(-grid // _BLOCK)):
        for name, per_angle in _grid_deviations(block).items():
            index = int(np.argmax(per_angle))  # first maximum, or first NaN
            block_worst.setdefault(name, []).append((per_angle[index], start + index))
        start += len(block)
    for name, worst in block_worst.items():
        deviations, indices = zip(*worst)
        results.append(_worst(name, deviations, _IDENTITY_BOUND, _at_phi(phis[list(indices)])))

    # --- copy symmetry and channel geometry on random states -------------
    # (these 25 angles and their optimum serve the oracle block too)
    coarse_phis = np.linspace(0.0, _HALF_PI, 25)
    coarse_f, _, _, *coarse_coeffs = optimizer.optimum(coarse_phis)
    thetas = rng.uniform(0.0, 2 * math.pi, size=(len(coarse_phis), 100))
    kets = np.stack([np.cos(thetas / 2), np.sin(thetas / 2)], axis=-1).astype(complex)
    copies = cloner.clone_batch(cloner.isometry_batch(np.column_stack(coarse_coeffs)), kets)
    eta_x, eta_z = cloner.shrinking_factors(coarse_coeffs)
    m_expected = np.stack(
        [eta_x[:, None] * np.sin(thetas), np.zeros_like(thetas), eta_z[:, None] * np.cos(thetas)],
        axis=-1,
    )
    at_coarse = _at_phi(coarse_phis)
    copy_gap = np.abs(copies.copy1 - copies.copy2)
    results.append(_worst("copy 1 equals copy 2", copy_gap, _IDENTITY_BOUND, at_coarse))
    contraction = np.abs(linalg.bloch_vectors(copies.copy1) - m_expected)
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

    # --- perfect-cloning endpoints ----------------------------------------
    ends = np.array([0.0, _HALF_PI])
    end_f, _, _, *end_coeffs = optimizer.optimum(ends)
    perfect = list(np.abs(end_f - 1.0))
    states, _ = ensemble.family(ends[:1])
    at_zero = cloner.clone_batch(cloner.isometry_batch(np.column_stack(end_coeffs)[:1]), states)
    projectors = states[..., :, None] * states[..., None, :].conj()
    perfect.append(np.max(np.abs(at_zero.copy1 - projectors)))
    perfect.append(np.max(np.abs(at_zero.fidelities - 1.0)))
    where = [f"phi={phi:.6g}" for phi in ends] + ["phi=0", "phi=0"]
    results.append(_worst("perfect cloning at the endpoints", perfect, _IDENTITY_BOUND, where.__getitem__))

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
    searches = [optimizer.numeric_optimize(phi) for phi in coarse_phis]  # at DEFAULT_GRID_DENSITY
    oracle_f = np.abs([search.best_fidelity for search in searches] - coarse_f)
    oracle_c = np.abs([tuple(search.best_coeffs) for search in searches] - np.column_stack(coarse_coeffs))
    results.append(_worst("oracle fidelity agreement", oracle_f, _ORACLE_FIDELITY_BOUND, at_coarse))
    results.append(_worst("oracle coefficient agreement", oracle_c, _ORACLE_COEFF_BOUND, at_coarse))

    return results
