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

from .linalg import bloch_vectors

PHI_MIN = 0.0
PHI_MAX = math.pi / 2

# Endpoints where distinct labels collapse onto the same physical state.
_DEGENERACY_ATOL = 1e-12

# The two orthogonal pairs, as 1-based labels.
PAIRS = ((1, 3), (2, 4))
_FIRST = [i - 1 for i, _ in PAIRS]
_SECOND = [j - 1 for _, j in PAIRS]


def check_angle(phi: float) -> float:
    """Validate ``phi`` in [0, pi/2] radians and return it as a float."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError("angle must be finite")
    if phi < PHI_MIN or phi > PHI_MAX:
        raise ValueError(f"angle {phi} outside [0, pi/2]")
    return phi


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
        if label not in (1, 2, 3, 4):
            raise ValueError(f"state label must be 1..4, got {label}")
        return self.states[label - 1]

    def bloch_vector(self, label: int) -> np.ndarray:
        if label not in (1, 2, 3, 4):
            raise ValueError(f"state label must be 1..4, got {label}")
        return self.bloch[label - 1]


def family(phis) -> tuple[np.ndarray, np.ndarray]:
    """States, shape (N, 4, 2), and Bloch vectors, shape (N, 4, 3), of the
    family at each of N angles.

    Batch kernel behind :func:`make_ensemble`: it validates nothing, so
    callers pass angles already checked to lie in [0, pi/2].
    """
    phis = np.asarray(phis, dtype=float)
    al, be = np.cos(phis / 2), np.sin(phis / 2)
    states = np.stack(
        [
            np.stack([al, be], axis=-1),
            np.stack([al, -be], axis=-1),
            np.stack([be, -al], axis=-1),
            np.stack([be, al], axis=-1),
        ],
        axis=1,
    ).astype(complex)
    s, c, zero = np.sin(phis), np.cos(phis), np.zeros_like(phis)
    bloch = np.stack(
        [
            np.stack([s, zero, c], axis=-1),
            np.stack([-s, zero, c], axis=-1),
            np.stack([-s, zero, -c], axis=-1),
            np.stack([s, zero, -c], axis=-1),
        ],
        axis=1,
    )
    return states, bloch


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


def pair_overlaps(states) -> np.ndarray:
    """|<psi_i|psi_j>| for each pair (i, j) of :data:`PAIRS`, from states of
    shape (N, 4, 2) to shape (N, 2); it validates nothing."""
    return np.abs(np.sum(states[:, _FIRST].conj() * states[:, _SECOND], axis=-1))


def bloch_defects(states, bloch) -> np.ndarray:
    """|Bloch vector recomputed from the state projector - stored Bloch
    vector|, shape (N, 4, 3), for states (N, 4, 2) and Bloch vectors
    (N, 4, 3); it validates nothing, and a NaN anywhere stays in the
    result."""
    projectors = states[..., :, None] * states[..., None, :].conj()
    return np.abs(bloch_vectors(projectors) - bloch)
