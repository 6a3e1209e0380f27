"""The one-parameter family of four input states.

A single angle ``phi`` in [0, pi/2] fixes four pure qubit states forming
two orthogonal pairs.  All four Bloch vectors lie in the x-z plane at
angles +-phi and +-(pi - phi) from the z axis:

    m1 = ( sin phi, 0,  cos phi)      m2 = (-sin phi, 0,  cos phi)
    m3 = (-sin phi, 0, -cos phi)      m4 = ( sin phi, 0, -cos phi)

with state amplitudes written through alpha = cos(phi/2) and
beta = sin(phi/2):

    psi1 = (alpha,  beta)    psi2 = (alpha, -beta)
    psi3 = (beta, -alpha)    psi4 = (beta,  alpha)

The orthogonal pairs are {psi1, psi3} and {psi2, psi4}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _REAL_KINDS, _integer, _real

PHI_MIN = 0.0
PHI_MAX = math.pi / 2

# Endpoints where distinct labels collapse onto the same physical state.
_DEGENERACY_ATOL = 1e-12

# The two orthogonal pairs, as 1-based labels.
PAIRS = ((1, 3), (2, 4))


def check_angle(phi: float) -> float:
    """Validate ``phi`` in [0, pi/2] radians and return it as a float; a
    signed zero gives ``+0.0``, so ``-0.0`` reports exactly as ``0`` does."""
    phi = _real(phi, "angle")
    if phi < PHI_MIN or phi > PHI_MAX:
        raise ValueError(f"angle {phi} outside [0, pi/2]")
    return 0.0 if phi == 0 else phi


def angle_terms(phis):
    """(sin^2 phi, cos^2 phi, sqrt(sin^4 phi + cos^4 phi)): three floats
    for one angle (a number or a 0-d array), or three arrays of shape (N,)
    for an (N,) array.

    Every closed form in phi (the optimum, its fidelity and shrinking
    factors, the stationarity equations, the closed-form fidelity and the
    general fidelity for any overlap sums) starts from these and goes on
    with + - * / alone, so one body serves a float and an array with the
    same bits.
    Two rules keep it so.  Each sine and cosine comes from ``np.sin`` and
    ``np.cos`` with ``dtype=float``: numpy's float64 loops call the C
    library's ``sin`` and ``cos`` once per element, as ``math.sin`` and
    ``math.cos`` do, with SIMD dispatch on or off (NumPy 2.4.6), while a
    float16 or float32 array would otherwise run numpy's own loop for that
    dtype.  Each power comes from ``np.float_power``, whose one plain loop
    calls the C library's ``pow`` per element, as Python's float ``**``
    does; ``np.power`` squares by a product and takes other powers in SIMD
    code, and differs in the last bit at some angles.  Only the correctly
    rounded sum and square root are otherwise vectorised.  This is the one
    place that tells a float from an array, and it validates both: one
    angle with :func:`check_angle`, an array with a real number dtype and
    one vectorised range check (NaN fails it).
    """
    if not isinstance(phis, np.ndarray) or phis.ndim == 0:
        phi = check_angle(phis)
        sin, cos = math.sin(phi), math.cos(phi)
        return sin ** 2, cos ** 2, math.sqrt(sin ** 4 + cos ** 4)
    real = phis.dtype.kind in _REAL_KINDS  # numpy orders complex numbers by their real part
    if phis.ndim != 1 or not real or not ((phis >= PHI_MIN) & (phis <= PHI_MAX)).all():
        raise ValueError("angles must be an (N,) array of values in [0, pi/2]")
    sins, coss = np.sin(phis, dtype=float), np.cos(phis, dtype=float)
    return (np.float_power(sins, 2), np.float_power(coss, 2),
            np.sqrt(np.float_power(sins, 4) + np.float_power(coss, 4)))


@dataclass(frozen=True)
class FourStateEnsemble:
    """The four states and their Bloch vectors for one angle.

    ``states[i]`` holds the state labelled ``i + 1``; use :meth:`state`
    to index by the 1-based label used throughout the package.
    """

    phi: float
    states: tuple
    bloch: tuple
    degenerate: bool

    def state(self, label: int) -> np.ndarray:
        return self.states[_label_index(label)]

    def bloch_vector(self, label: int) -> np.ndarray:
        return self.bloch[_label_index(label)]


def _label_index(label) -> int:
    label = _integer(label, "state label")
    if label not in (1, 2, 3, 4):
        raise ValueError(f"state label must be 1..4, got {label}")
    return label - 1


def family(phis) -> tuple[np.ndarray, np.ndarray]:
    """States, shape (N, 4, 2), and Bloch vectors, shape (N, 4, 3), of the
    family at each of N angles.

    Batch kernel behind :func:`make_ensemble`: it validates nothing, so
    callers pass angles already checked to lie in [0, pi/2].
    """
    phis = np.asarray(phis, dtype=float)
    al, be = np.cos(phis / 2), np.sin(phis / 2)
    states = np.array([al, be, al, -be, be, -al, be, al], dtype=complex)
    s, c, zero = np.sin(phis), np.cos(phis), np.zeros_like(phis)
    bloch = np.array([s, zero, c, -s, zero, c, -s, zero, -c, s, zero, -c])
    # one entry per row, angles along the columns: transpose, then lay out in C order
    return np.ascontiguousarray(states.T).reshape(-1, 4, 2), np.ascontiguousarray(bloch.T).reshape(-1, 4, 3)


def make_ensemble(phi: float) -> FourStateEnsemble:
    """Build the four-state family at angle ``phi``.

    Amplitudes are stored exactly as real numbers (no phase freedom), so
    equality checks against the defining expressions are deterministic.
    """
    phi = check_angle(phi)
    states, bloch = family([phi])
    states.setflags(write=False)
    bloch.setflags(write=False)
    degenerate = (
        phi <= PHI_MIN + _DEGENERACY_ATOL or phi >= PHI_MAX - _DEGENERACY_ATOL
    )
    return FourStateEnsemble(
        phi=phi,
        states=tuple(states[0]),
        bloch=tuple(bloch[0]),
        degenerate=degenerate,
    )
