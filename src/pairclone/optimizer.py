"""Closed-form optimum of the cloning fidelity and an independent check.

Maximising the closed-form fidelity under a^2 + 2b^2 + c^2 = 1 gives,
with K(phi) = 1 / sqrt(sin^4 phi + cos^4 phi),

    a = (1 + K cos^2 phi) / 2
    b = K sin^2 phi / 2
    c = (1 - K cos^2 phi) / 2
    F = (1 + sqrt(sin^4 phi + cos^4 phi)) / 2

The grid-refinement search in :func:`numeric_optimize` maximises the same
objective over the constraint surface without using any of the formulas
above, so agreement between the two routes is a genuine check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloner import ClonerCoefficients
from .ensemble import check_angle

_SQRT_HALF = math.sqrt(0.5)

# Coarsest grid :func:`numeric_optimize` accepts.
MIN_GRID_DENSITY = 64


class ConvergenceError(RuntimeError):
    """Grid refinement stopped before reaching the requested tolerance."""

    def __init__(self, message: str, achieved_tolerance: float):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


@dataclass(frozen=True)
class NumericSearchReport:
    """Outcome of the derivative-free constrained maximisation."""

    best_coeffs: ClonerCoefficients
    best_fidelity: float
    evaluations: int
    achieved_tolerance: float


def _shape_factor(phi: float) -> float:
    # sin^4 + cos^4 >= 1/2 on the whole domain, so never singular
    return 1.0 / math.sqrt(math.sin(phi) ** 4 + math.cos(phi) ** 4)


def optimal_coefficients(phi: float) -> ClonerCoefficients:
    """Fidelity-maximising coefficients at angle ``phi``."""
    phi = check_angle(phi)
    k = _shape_factor(phi)
    cos2 = math.cos(phi) ** 2
    sin2 = math.sin(phi) ** 2
    return ClonerCoefficients(
        a=0.5 * (1.0 + cos2 * k),
        b=0.5 * sin2 * k,
        c=0.5 * (1.0 - cos2 * k),
    )


def optimal_fidelity(phi: float) -> float:
    """Maximum achievable copy fidelity at angle ``phi``."""
    phi = check_angle(phi)
    return 0.5 * (1.0 + math.sqrt(math.sin(phi) ** 4 + math.cos(phi) ** 4))


def optimal_shrinking(phi: float) -> tuple[float, float]:
    """Shrinking factors of the optimal cloner: (K sin^2 phi, K cos^2 phi).

    They satisfy eta_x^2 + eta_z^2 = 1 and eta_x(phi) = eta_z(pi/2 - phi).
    """
    phi = check_angle(phi)
    k = _shape_factor(phi)
    return math.sin(phi) ** 2 * k, math.cos(phi) ** 2 * k


def lagrange_residual(
    coeffs: ClonerCoefficients, multiplier: float, phi: float
) -> tuple[float, float, float, float]:
    """Residuals of the four stationarity equations of the constrained
    maximisation.  All four vanish at the closed-form optimum with the
    matching multiplier."""
    phi = check_angle(phi)
    a, b, c = coeffs.as_tuple()
    lam = float(multiplier)
    cos2 = math.cos(phi) ** 2
    sin2 = math.sin(phi) ** 2
    r1 = a * cos2 + b * sin2 - 2 * a * lam
    r2 = (a + c) * sin2 - 4 * b * lam
    r3 = -c * cos2 + b * sin2 - 2 * c * lam
    r4 = a * a + 2 * b * b + c * c - 1.0
    return r1, r2, r3, r4


def recover_multiplier(coeffs: ClonerCoefficients, phi: float) -> float | None:
    """Multiplier implied by the first stationarity equation (or the third
    when a vanishes).  Returns None when both a and c are zero, in which
    case no multiplier can be recovered and residual checks are skipped."""
    phi = check_angle(phi)
    a, b, c = coeffs.as_tuple()
    cos2 = math.cos(phi) ** 2
    sin2 = math.sin(phi) ** 2
    if a > 1e-9:
        return (a * cos2 + b * sin2) / (2 * a)
    if c > 1e-9:
        return (-c * cos2 + b * sin2) / (2 * c)
    return None


def numeric_optimize(
    phi: float,
    grid_density: int = 128,
    refine_tolerance: float = 1e-12,
    max_rounds: int = 60,
) -> NumericSearchReport:
    """Maximise the closed-form fidelity over the constraint surface by
    nested grid refinement, independently of the closed-form solution.

    The surface a^2 + 2b^2 + c^2 = 1 restricted to nonnegative
    coefficients is parametrised by two angles in [0, pi/2]:

        a = sin t cos u,   c = sin t sin u,   b = cos t / sqrt(2)

    Each round evaluates a (grid_density + 1)^2 grid, then shrinks the
    search window to a few grid spacings around the incumbent best and
    re-centres there.  A single round can fail to improve just because
    window clipping moved the nodes, so refinement stops only after three
    consecutive rounds improve by less than ``refine_tolerance`` (or the
    window collapses below resolvable size).  Results are deterministic:
    grids are fixed by (phi, grid_density) and ties resolve to the
    smallest (t, u).
    """
    phi = check_angle(phi)
    grid_density = int(grid_density)
    if grid_density < MIN_GRID_DENSITY:
        raise ValueError(
            f"grid_density must be at least {MIN_GRID_DENSITY}, got {grid_density}"
        )
    refine_tolerance = float(refine_tolerance)
    if not refine_tolerance > 0:
        raise ValueError("refine_tolerance must be positive")

    cos2 = math.cos(phi) ** 2
    sin2 = math.sin(phi) ** 2
    half_pi = math.pi / 2

    t_lo, t_hi = 0.0, half_pi
    u_lo, u_hi = 0.0, half_pi
    best_f = -math.inf
    best_t = best_u = 0.0
    evaluations = 0
    improvement = math.inf
    small_rounds = 0
    converged = False

    for round_index in range(max_rounds):
        ts = np.linspace(t_lo, t_hi, grid_density + 1)
        us = np.linspace(u_lo, u_hi, grid_density + 1)
        tt, uu = np.meshgrid(ts, us, indexing="ij")
        aa = np.sin(tt) * np.cos(uu)
        cc = np.sin(tt) * np.sin(uu)
        bb = np.cos(tt) * _SQRT_HALF
        ff = 0.5 + 0.5 * (aa * aa - cc * cc) * cos2 + bb * (aa + cc) * sin2
        evaluations += ff.size

        flat_index = int(np.argmax(ff))  # first max = smallest (t, u)
        row, col = divmod(flat_index, grid_density + 1)
        round_best = float(ff[row, col])
        if round_best > best_f:
            improvement = round_best - best_f if math.isfinite(best_f) else math.inf
            best_f = round_best
            best_t = float(ts[row])
            best_u = float(us[col])
        else:
            improvement = 0.0

        if round_index > 0:
            small_rounds = small_rounds + 1 if improvement < refine_tolerance else 0
            if small_rounds >= 3:
                converged = True
                break
        if max(t_hi - t_lo, u_hi - u_lo) < 1e-11:
            converged = True
            break

        # Shrink to a window of +-4 grid spacings around the incumbent.
        h_t = (t_hi - t_lo) / grid_density
        h_u = (u_hi - u_lo) / grid_density
        t_lo = max(0.0, best_t - 4 * h_t)
        t_hi = min(half_pi, best_t + 4 * h_t)
        u_lo = max(0.0, best_u - 4 * h_u)
        u_hi = min(half_pi, best_u + 4 * h_u)

    if not converged:
        raise ConvergenceError(
            f"no convergence after {max_rounds} rounds; last improvement "
            f"{improvement:.3e} (requested {refine_tolerance:.3e})",
            achieved_tolerance=improvement,
        )

    coeffs = ClonerCoefficients(
        a=math.sin(best_t) * math.cos(best_u),
        b=math.cos(best_t) * _SQRT_HALF,
        c=math.sin(best_t) * math.sin(best_u),
    )
    return NumericSearchReport(
        best_coeffs=coeffs,
        best_fidelity=best_f,
        evaluations=evaluations,
        achieved_tolerance=improvement,
    )
