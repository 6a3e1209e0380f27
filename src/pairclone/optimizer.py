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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cloner import ClonerCoefficients, _unpack, constraint_defect, fidelity_closed_form
from .ensemble import angle_terms
from .linalg import _integer

_SQRT_HALF = math.sqrt(0.5)

# Coarsest and finest grids :func:`numeric_optimize` accepts.  At the
# upper bound the cached first round keeps 200,068 nodes in about 5 MB.
MIN_GRID_DENSITY = 64
MAX_GRID_DENSITY = 2048
# The one default first-round grid: numeric_optimize, verify, sweep --oracle-grid.
DEFAULT_GRID_DENSITY = 256

# Refinement policy of :func:`numeric_optimize`.  Every round after the
# first evaluates _REFINE_INTERVALS intervals per axis.
_REFINE_TOLERANCE = 1e-12
_REFINE_INTERVALS = 64
_BATCH = 13  # most searches per group; a group refines its searches in lockstep
_DOMINANCE_MARGIN = 1e-12  # fixed by the proof in _first_round


@dataclass(frozen=True)
class NumericSearchReport:
    """Outcome of the derivative-free constrained maximisation at one angle
    or, as (N,) arrays (``best_coeffs`` as three: a, b, c), at N angles.

    The first of ``rounds`` grids has (grid_density + 1)^2 nodes and each
    later one 65^2; ``evaluations`` is the Python int total of the call.
    It counts every node of every grid searched, although the first round
    rules out the nodes a neighbour beats without evaluating them.
    ``achieved_tolerance`` is the largest improvement of the incumbent
    fidelity over the final three rounds.
    """

    best_coeffs: ClonerCoefficients | tuple
    best_fidelity: float | np.ndarray
    evaluations: int
    achieved_tolerance: float | np.ndarray
    rounds: int | np.ndarray


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
    multiplier of :func:`recover_multiplier`.  It validates the angles and
    the count of coefficients, not their values."""
    a, b, c = _unpack(coeffs)
    sin2, cos2, _ = angle_terms(phi)
    r1 = a * cos2 + b * sin2 - 2 * a * multiplier
    r2 = (a + c) * sin2 - 4 * b * multiplier
    r3 = -c * cos2 + b * sin2 - 2 * c * multiplier
    return r1, r2, r3, constraint_defect(a, b, c)


def recover_multiplier(coeffs, phi, *, fidelity=None):
    """lambda = F - 1/2 for :func:`lagrange_residual`, with F the ``fidelity``
    given, else :func:`~pairclone.cloner.fidelity_closed_form` of the same
    arguments (a float or an (N,) array).  On the constraint surface a r1 +
    b r2 + c r3 = 2 (F - 1/2) - 2 lambda, so this is the only lambda that
    leaves the residual orthogonal to (a, b, c): lambda* at any stationary point.
    ``coeffs`` is read, and checked, only when no ``fidelity`` is given."""
    return (fidelity_closed_form(coeffs, phi) if fidelity is None else fidelity) - 0.5


def _chart_terms(ts, us, out=(None, None, None)):
    """Angle-free terms (0.5 (a^2 - c^2), b (a + c)) of the objective at
    every node of the ``ts`` x ``us`` grid in the chart of
    :func:`numeric_optimize`: two (..., len(ts), len(us)) arrays, in
    ``out[2]`` and ``out[0]`` if given (``out[1]`` is scratch).

    The chart is separable, so sin/cos are taken on the two axes only and
    their outer products formed, each entry one product.
    """
    sin_t = np.sin(ts)
    bb = (np.cos(ts) * _SQRT_HALF)[..., None]
    aa = np.einsum("...i,...j->...ij", sin_t, np.cos(us), out=out[0])
    cc = np.einsum("...i,...j->...ij", sin_t, np.sin(us), out=out[1])
    half_diff = np.multiply(aa, aa, out=out[2])
    mixed = np.multiply(np.add(aa, cc, out=aa), bb, out=aa)
    half_diff -= np.multiply(cc, cc, out=cc)
    return np.multiply(half_diff, 0.5, out=half_diff), mixed


def _objective(terms, cos2, sin2, out) -> np.ndarray:
    """Objective at every node of a grid, from its :func:`_chart_terms`,
    in ``out[0]`` (``out[1]`` is scratch).

    With those terms this keeps the operation order of
      f = 0.5 + 0.5 (a^2 - c^2) cos2 + b (a + c) sin2
    (IEEE + and * are commutative, not associative), so every node is
    bit-identical to evaluating the formula on a full meshgrid.
    """
    half_diff, mixed = terms
    ff = np.add(np.multiply(half_diff, cos2, out=out[0]), 0.5, out=out[0])
    return np.add(ff, np.multiply(mixed, sin2, out=out[1]), out=ff)


@functools.lru_cache(maxsize=1)
def _first_round(grid_density: int) -> tuple:
    """Axis nodes (the same for t and u) of the first round at
    ``grid_density``, the ascending row-major flat indices of the nodes it
    keeps and their :func:`_chart_terms` (T1, T2), all read-only.

    The objective 0.5 + T1 cos2 + T2 sin2 is linear in cos2, sin2 >= 0,
    which sum to 1 within a few ulps.  As |T1| <= 1/2, 0 <= T2 <= 1/2 and
    the objective is <= 1, each node's rounded objective is within 3u
    (u = 2^-53) of its exact value.  So a node that one of its 8 grid
    neighbours beats by at least _DOMINANCE_MARGIN in both terms is strictly
    below that neighbour at every angle: neither the best node nor tied
    with it.  Only the other nodes are kept (3,463 of 66,049 at grid 256),
    in row-major order, so argmax's first maximum is still the smallest
    (t, u).  None of this depends on the angle; each command uses one grid
    density, so the cache keeps only the last one.
    """
    n = grid_density + 1
    ts = np.linspace(0.0, math.pi / 2, n)
    terms = _chart_terms(ts, ts)
    beaten = np.zeros((n, n), dtype=bool)
    for dr, dc in itertools.product((-1, 0, 1), repeat=2):  # (0, 0) never beats itself
        # node (r, c) against its neighbour (r + dr, c + dc), where it exists
        node = slice(max(-dr, 0), n - max(dr, 0)), slice(max(-dc, 0), n - max(dc, 0))
        near = slice(max(dr, 0), n - max(-dr, 0)), slice(max(dc, 0), n - max(-dc, 0))
        beaten[node] |= ((terms[0][near] - terms[0][node] >= _DOMINANCE_MARGIN)
                         & (terms[1][near] - terms[1][node] >= _DOMINANCE_MARGIN))
    kept = np.flatnonzero(~beaten)
    terms = tuple(term.ravel()[kept] for term in terms)
    for array in (ts, kept, *terms):
        array.flags.writeable = False
    return ts, kept, terms


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


def numeric_optimize(phi: float | np.ndarray, grid_density: int = DEFAULT_GRID_DENSITY) -> NumericSearchReport:
    """Maximise the closed-form fidelity over the constraint surface by
    nested grid refinement, independently of the closed-form solution, at
    angle ``phi`` or at each angle of an (N,) array.

    The surface a^2 + 2b^2 + c^2 = 1 restricted to nonnegative
    coefficients is parametrised by two angles in [0, pi/2]:

        a = sin t cos u,   c = sin t sin u,   b = cos t / sqrt(2)

    The first round searches a (grid_density + 1)^2 grid over the whole
    chart, evaluating the nodes :func:`_first_round` keeps; each round
    then shrinks the search window to +-4 spacings of the grid it just
    searched around the incumbent best, and every later round evaluates
    a 65^2 grid (64 intervals) there.
    A single round can fail to improve just because window clipping moved
    the nodes, or because its best node is already the nearest to the
    optimum, so refinement stops only after three consecutive rounds
    improve by less than 1e-12 on a grid whose spacing s has s^2 < 1e-12
    (or once the window collapses below 1e-11).  The first shrink
    keeps at most 8 / grid_density <= 1/8 of the width and each later one
    at most 8 / 64 = 1/8, so round r searches a window at most
    (pi/2) / 8^(r - 1) wide; that is below 1e-11 from r = 14 on, so the
    collapse rule ends every search within 14 rounds at any accepted grid,
    whatever the objective's values: the incumbent is always a grid node
    and a NaN never replaces it.  At grid_density 64 every round has 64
    intervals.  Results are deterministic: grids are fixed by
    (phi, grid_density) and ties resolve to the smallest (t, u).

    The first round's grid does not depend on ``phi``: its kept nodes and
    their angle-free terms are built by the first search at a grid density
    and reused by every later one at that density, until a search at
    another density replaces them (85 KB at 256 and 4.8 MB at 2048).
    N searches run in ceil(N / 13) groups whose sizes differ by at most
    one, such as 12 + 13 for 25 angles.  A group runs its first rounds one
    by one, then its later rounds together, on plain arrays over the
    searches still running: the incumbent (f, t, u), the t and u spacings
    and the last three rounds' gains.  A round evaluates their windows as
    (m, 65, 65) arrays, in work arrays allocated once per call (two of the
    kept nodes' size, and 0.1 MB per search of the largest group: 1.3 MB
    at 13, 0.4 MB at 4), then drops the searches that finished.  Groups
    share nothing but those work arrays, so every search has the bits of a
    call at its angle.
    """
    single = np.ndim(phi) == 0
    sin2, cos2, _ = np.atleast_1d(*angle_terms(phi))
    grid_density = check_grid_density(grid_density)
    ts, kept, terms = _first_round(grid_density)
    half_pi, side = math.pi / 2, _REFINE_INTERVALS + 1
    # ceil(N / _BATCH) groups whose sizes differ by at most one
    total = len(sin2)
    groups = -(-total // _BATCH)
    first, work = np.empty((2, len(kept))), np.empty((3, -(-total // max(groups, 1)), side, side))
    reports = np.empty((total, 6))  # per search: best_f, achieved, rounds, a, b, c
    for j in range(groups):  # a group of searches, refined in lockstep
        live = np.arange(total * j // groups, total * (j + 1) // groups)
        best = np.empty((3, len(live)))  # the incumbent (f, t, u) of each search
        for k, i in enumerate(live):
            ff = _objective(terms, cos2[i], sin2[i], first)
            node = int(np.argmax(ff))  # first max = smallest (t, u)
            row, col = divmod(int(kept[node]), grid_density + 1)
            best[:, k] = ff[node], ts[row], ts[col]
        spacing = np.full((2, len(live)), half_pi / grid_density)  # of the last grid's t and u axes
        gains = np.full((3, len(live)), math.inf)  # of the last three rounds, at [round % 3]
        for rounds in itertools.count(2):
            # the window: +-4 spacings of the last grid around the incumbent
            reach = 4 * spacing
            lo, hi = np.maximum(best[1:] - reach, 0.0), np.minimum(best[1:] + reach, half_pi)
            spacing = (hi - lo) / _REFINE_INTERVALS
            # the t and u axes by np.linspace's operations, without its overhead
            axes = np.arange(side) * spacing[..., None] + lo[..., None]
            axes[..., -1] = hi
            k = np.arange(len(live))
            half_diff, mixed = _chart_terms(*axes, out=work[:, :len(k)])
            ff = _objective((half_diff, mixed), cos2[live, None, None], sin2[live, None, None],
                            (half_diff, work[1, :len(k)])).reshape(len(k), -1)
            flat = np.argmax(ff, axis=1)  # first max = smallest (t, u)
            round_best = ff[k, flat]
            gains[rounds % 3] = np.maximum(round_best - best[0], 0.0)
            row, col = np.divmod(flat, side)
            best = np.where(round_best > best[0], (round_best, axes[0, k, row], axes[1, k, col]), best)
            # Small gains count only once the grid is fine enough: a node can
            # beat its neighbours and still miss the optimum by spacing^2 / 2
            # (the Hessian norm is at most 2).  The window is 64 spacings wide.
            h, achieved = spacing.max(axis=0), gains.max(axis=0)
            done = (achieved < _REFINE_TOLERANCE) & (h**2 < _REFINE_TOLERANCE) | (h * _REFINE_INTERVALS < 1e-11)
            if not done.any():
                continue
            for i, f, t, u, g in zip(live[done], *best[:, done], achieved[done]):
                a, b, c = math.sin(t) * math.cos(u), math.cos(t) * _SQRT_HALF, math.sin(t) * math.sin(u)
                reports[i] = f, g, rounds, a, b, c
            live, best, spacing, gains = live[~done], best[:, ~done], spacing[:, ~done], gains[:, ~done]
            if not len(live):
                break

    evaluations = len(sin2) * (grid_density + 1) ** 2 + int((reports[:, 2] - 1).sum()) * side**2
    if single:
        best_f, achieved, rounds, a, b, c = reports[0].tolist()
        return NumericSearchReport(ClonerCoefficients(a, b, c), best_f, evaluations, achieved, int(rounds))
    best_f, achieved, rounds, a, b, c = reports.T
    return NumericSearchReport((a, b, c), best_f, evaluations, achieved, rounds.astype(int))
