"""Closed-form optimum of the cloning fidelity and an independent check.

Maximising the closed-form fidelity under a^2 + 2b^2 + c^2 = 1 gives,
with K(phi) = 1 / sqrt(sin^4 phi + cos^4 phi),

    a = (1 + K cos^2 phi) / 2
    b = K sin^2 phi / 2
    c = (1 - K cos^2 phi) / 2
    F = (1 + sqrt(sin^4 phi + cos^4 phi)) / 2

F is 1/2 plus a quadratic form in (a, b, c) and the constraint is
quadratic, so at every stationary point the Lagrange multiplier of
:func:`lagrange_residual` is lambda* = F - 1/2, which :func:`recover_multiplier` gives.

The grid-refinement search in :func:`numeric_optimize` maximises the same
objective over the constraint surface without using any of the formulas
above, so agreement between the two routes is a genuine check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cloner import ClonerCoefficients, constraint_defect, fidelity_closed_form
from .ensemble import angle_terms, check_angle
from .linalg import _integer

_SQRT_HALF = math.sqrt(0.5)

# Coarsest and finest grids :func:`numeric_optimize` accepts.  At the
# upper bound the cached first round (two (n + 1)^2 float64 arrays) takes
# about 67 MB.
MIN_GRID_DENSITY = 64
MAX_GRID_DENSITY = 2048
# The one default first-round grid: numeric_optimize, verify, sweep --oracle-grid.
DEFAULT_GRID_DENSITY = 256

# Refinement policy of :func:`numeric_optimize`.  Every round after the
# first evaluates _REFINE_INTERVALS intervals per axis.
_REFINE_TOLERANCE = 1e-12
_REFINE_INTERVALS = 64
_MAX_ROUNDS = 60


class ConvergenceError(RuntimeError):
    """Grid refinement hit its round cap before converging;
    ``achieved_tolerance`` is as in :class:`NumericSearchReport`."""

    def __init__(self, message: str, achieved_tolerance: float):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


@dataclass(frozen=True)
class NumericSearchReport:
    """Outcome of the derivative-free constrained maximisation.

    The first of ``rounds`` grids has (grid_density + 1)^2 nodes and each
    later one 65^2, so
    ``evaluations == (grid_density + 1) ** 2 + (rounds - 1) * 65 ** 2``.
    ``achieved_tolerance`` is the largest improvement of the incumbent
    fidelity over the final three rounds (inf while fewer than three ran).
    """

    best_coeffs: ClonerCoefficients
    best_fidelity: float
    evaluations: int
    achieved_tolerance: float
    rounds: int


def optimum(phis):
    """The closed-form optimum at angle ``phis``: (F, eta_x, eta_z, a, b, c),
    six floats for one angle or six (N,) arrays for an (N,) array, in the
    column order of the ``sweep`` CSV.

    eta_x = K sin^2 phi and eta_z = K cos^2 phi are the optimal cloner's
    shrinking factors; they satisfy eta_x^2 + eta_z^2 = 1 and
    eta_x(phi) = eta_z(pi/2 - phi).
    """
    sin2, cos2, root = angle_terms(phis)
    k = 1.0 / root  # root >= 1/sqrt(2) on the whole domain, so never singular
    eta_x, eta_z = sin2 * k, cos2 * k
    return 0.5 * (1.0 + root), eta_x, eta_z, 0.5 * (1.0 + eta_z), 0.5 * sin2 * k, 0.5 * (1.0 - eta_z)


def optimal_coefficients(phi: float) -> ClonerCoefficients:
    """Fidelity-maximising coefficients at angle ``phi``."""
    return ClonerCoefficients(*optimum(phi)[3:])


def optimal_fidelity(phi: float | np.ndarray) -> float | np.ndarray:
    """Maximum achievable copy fidelity at angle ``phi``, or at each angle
    of an (N,) array."""
    return optimum(phi)[0]


def optimal_shrinking(phi: float | np.ndarray) -> tuple:
    """Shrinking factors (eta_x, eta_z) of :func:`optimum`, two floats for
    one angle or two (N,) arrays for an (N,) array."""
    return optimum(phi)[1:3]


def lagrange_residual(coeffs, multiplier, phi):
    """Residuals of the four stationarity equations of the constrained
    maximisation, for coefficients that are a :class:`ClonerCoefficients`
    or three (N,) arrays a, b, c, with one multiplier and angle or an (N,)
    array of each.  All four vanish at the closed-form optimum with the
    multiplier of :func:`recover_multiplier`.  It validates the angles,
    not the coefficients."""
    a, b, c = coeffs
    sin2, cos2, _ = angle_terms(phi)
    r1 = a * cos2 + b * sin2 - 2 * a * multiplier
    r2 = (a + c) * sin2 - 4 * b * multiplier
    r3 = -c * cos2 + b * sin2 - 2 * c * multiplier
    return r1, r2, r3, constraint_defect(a, b, c)


def recover_multiplier(coeffs, phi):
    """lambda = F - 1/2 for :func:`lagrange_residual`, with F the
    :func:`~pairclone.cloner.fidelity_closed_form` of the same arguments (a
    float or an (N,) array).  On the constraint surface a r1 + b r2 + c r3 =
    2 (F - 1/2) - 2 lambda, so this is the only lambda that leaves the
    residual orthogonal to (a, b, c): lambda* at every stationary point."""
    return fidelity_closed_form(coeffs, phi) - 0.5


def _chart_terms(ts, us):
    """Angle-free terms (0.5 (a^2 - c^2), b (a + c)) of the objective at
    every node of the ``ts`` x ``us`` grid in the chart of
    :func:`numeric_optimize`: two (len(ts), len(us)) arrays.

    The chart is separable, so sin/cos are taken on the two axes only and
    broadcast.
    """
    sin_t = np.sin(ts)[:, None]
    bb = (np.cos(ts) * _SQRT_HALF)[:, None]
    aa = sin_t * np.cos(us)
    cc = sin_t * np.sin(us)
    return 0.5 * (aa * aa - cc * cc), (aa + cc) * bb


def _objective(terms, cos2, sin2) -> np.ndarray:
    """Objective at every node of a grid, from its :func:`_chart_terms`.

    With those terms this keeps the operation order of
      f = 0.5 + 0.5 (a^2 - c^2) cos2 + b (a + c) sin2
    (IEEE + and * are commutative, not associative), so every node is
    bit-identical to evaluating the formula on a full meshgrid.
    """
    half_diff, mixed = terms
    return half_diff * cos2 + 0.5 + mixed * sin2


@functools.lru_cache(maxsize=1)
def _first_round(grid_density: int) -> tuple:
    """Axis nodes (the same for t and u) and :func:`_chart_terms` of the
    first round at ``grid_density``, all read-only.

    They do not depend on the angle, so every search at this grid density
    reuses them.  Each command uses one grid density, so the cache keeps
    only the last one: two (n + 1)^2 float64 arrays.
    """
    ts = np.linspace(0.0, math.pi / 2, grid_density + 1)
    terms = _chart_terms(ts, ts)
    for array in (ts, *terms):
        array.flags.writeable = False
    return ts, terms


def check_grid_density(grid_density, name: str = "grid_density") -> int:
    """``grid_density`` as an int, if it is an integer in
    [MIN_GRID_DENSITY, MAX_GRID_DENSITY]; otherwise ValueError, whose
    message calls the value ``name``."""
    grid_density = _integer(grid_density, name)
    if not MIN_GRID_DENSITY <= grid_density <= MAX_GRID_DENSITY:
        raise ValueError(
            f"{name} must be between {MIN_GRID_DENSITY} and "
            f"{MAX_GRID_DENSITY}, got {grid_density}"
        )
    return grid_density


def numeric_optimize(phi: float, grid_density: int = DEFAULT_GRID_DENSITY) -> NumericSearchReport:
    """Maximise the closed-form fidelity over the constraint surface by
    nested grid refinement, independently of the closed-form solution.

    The surface a^2 + 2b^2 + c^2 = 1 restricted to nonnegative
    coefficients is parametrised by two angles in [0, pi/2]:

        a = sin t cos u,   c = sin t sin u,   b = cos t / sqrt(2)

    The first round evaluates a (grid_density + 1)^2 grid over the whole
    chart; each round then shrinks the search window to +-4 spacings of
    the grid it just evaluated around the incumbent best, and every later
    round evaluates a 65^2 grid (64 intervals) there, so
    ``evaluations == (grid_density + 1) ** 2 + (rounds - 1) * 65 ** 2``.
    A single round can fail to improve just because window clipping moved
    the nodes, or because its best node is already the nearest to the
    optimum, so refinement stops only after three consecutive rounds
    improve by less than 1e-12 on a grid whose spacing s has s^2 < 1e-12
    (or once the window collapses below 1e-11).  The first shrink
    keeps at most 8 / grid_density <= 1/8 of the width and each later one
    at most 8 / 64 = 1/8, so round r searches a window at most
    (pi/2) / 8^(r - 1) wide; that is below 1e-11 from r = 14 on, so the
    search ends within 14 rounds at any accepted grid and the 60-round cap
    only guards the loop.  At grid_density 64 every round has 64
    intervals.  Results are deterministic: grids are fixed by
    (phi, grid_density) and ties resolve to the smallest (t, u).

    The first round's grid does not depend on ``phi``: its angle-free
    terms are built by the first search at a grid density and reused by
    every later one at that density, until a search at another density
    replaces them (two (grid_density + 1)^2 float64 arrays, 1.06 MB at
    256 and 67 MB at 2048).
    """
    phi = check_angle(phi)  # one angle: angle_terms alone would take an array
    grid_density = check_grid_density(grid_density)

    sin2, cos2, _ = angle_terms(phi)
    half_pi = math.pi / 2
    ts, terms = _first_round(grid_density)
    us = ts
    intervals = grid_density

    t_lo, t_hi = 0.0, half_pi
    u_lo, u_hi = 0.0, half_pi
    best_f = -math.inf
    best_t = best_u = 0.0
    improvements = []  # per round; the first is inf

    for _ in range(_MAX_ROUNDS):
        ff = _objective(terms, cos2, sin2)

        flat_index = int(np.argmax(ff))  # first max = smallest (t, u)
        row, col = divmod(flat_index, intervals + 1)
        round_best = float(ff[row, col])
        improvements.append(max(round_best - best_f, 0.0))
        if round_best > best_f:
            best_f = round_best
            best_t = float(ts[row])
            best_u = float(us[col])

        # Small gains count only once this grid is fine enough: a node
        # can beat all its neighbours and still miss the optimum by
        # spacing^2 / 2 (the objective's Hessian norm is at most 2).
        achieved = max(improvements[-3:])
        h_t = (t_hi - t_lo) / intervals
        h_u = (u_hi - u_lo) / intervals
        converged = achieved < _REFINE_TOLERANCE and max(h_t, h_u) ** 2 < _REFINE_TOLERANCE
        if converged or max(t_hi - t_lo, u_hi - u_lo) < 1e-11:
            break

        # Shrink to a window of +-4 spacings of this round's grid around
        # the incumbent; the next round has _REFINE_INTERVALS intervals.
        t_lo = max(0.0, best_t - 4 * h_t)
        t_hi = min(half_pi, best_t + 4 * h_t)
        u_lo = max(0.0, best_u - 4 * h_u)
        u_hi = min(half_pi, best_u + 4 * h_u)
        intervals = _REFINE_INTERVALS
        ts = np.linspace(t_lo, t_hi, intervals + 1)
        us = np.linspace(u_lo, u_hi, intervals + 1)
        terms = _chart_terms(ts, us)
    else:
        raise ConvergenceError(
            f"no convergence after {_MAX_ROUNDS} rounds; largest improvement "
            f"of the last three {achieved:.3e} (requested < {_REFINE_TOLERANCE:.0e})",
            achieved_tolerance=achieved,
        )

    rounds = len(improvements)
    coeffs = ClonerCoefficients(
        a=math.sin(best_t) * math.cos(best_u),
        b=math.cos(best_t) * _SQRT_HALF,
        c=math.sin(best_t) * math.sin(best_u),
    )
    return NumericSearchReport(
        best_coeffs=coeffs,
        best_fidelity=best_f,
        evaluations=(grid_density + 1) ** 2 + (rounds - 1) * (_REFINE_INTERVALS + 1) ** 2,
        achieved_tolerance=achieved,
        rounds=rounds,
    )
