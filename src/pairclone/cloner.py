"""Symmetric 1-to-2 cloning transformation and its figures of merit.

The cloner acts on (input qubit, blank qubit, two-dimensional ancilla)
and is fully determined by its action on the input basis:

    |0> |0> |X>  ->  a |00>|anc_a0> + b (|01> + |10>) |anc_b0> + c |11>|anc_c0>
    |1> |0> |X>  ->  a |11>|anc_a1> + b (|10> + |01>) |anc_b1> + c |00>|anc_c1>

with real coefficients a, b, c >= 0 constrained by a^2 + 2b^2 + c^2 = 1.
Sharing coefficients between the two columns makes the machine invariant
under relabelling |0> <-> |1>, which is what forces the four input states
of :mod:`pairclone.ensemble` to be cloned equally well.  Only the 8x2
restriction of the unitary to the physically used input subspace is ever
represented; any completion to a full unitary is irrelevant.

Subsystem order in the 8-dimensional output space is
(copy 1, copy 2, ancilla), big-endian, as in :mod:`pairclone.linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ensemble import angle_terms
from .linalg import (
    ATOL_INPUT,
    KET_0,
    KET_1,
    _density_operator,
    _integer,
    _real,
    _unit_ket,
    as_matrix,
    partial_trace,
    tensor,
)


class UnitarityError(ValueError):
    """Coefficients or ancilla choices incompatible with a norm-preserving map."""


def constraint_defect(a, b, c):
    """Signed deviation a^2 + 2b^2 + c^2 - 1, for floats or arrays."""
    return a * a + 2 * b * b + c * c - 1.0


@dataclass(frozen=True)
class ClonerCoefficients:
    """Real nonnegative amplitudes (a, b, c) with a^2 + 2b^2 + c^2 = 1.

    The constraint is exactly the condition that the cloning map extends
    to a unitary; violations beyond 1e-9 are rejected at construction.
    Iterating yields a, b, c, so ``a, b, c = coeffs`` unpacks it just as
    it unpacks three (N,) arrays.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = _real(getattr(self, name), f"coefficient {name}")
            if value < 0.0:
                raise ValueError(f"coefficient {name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)
        defect = self.constraint_defect
        if abs(defect) > ATOL_INPUT:
            raise UnitarityError(
                f"a^2 + 2b^2 + c^2 deviates from 1 by {defect:.3e}"
            )

    @property
    def constraint_defect(self) -> float:
        """Signed deviation a^2 + 2b^2 + c^2 - 1."""
        return constraint_defect(self.a, self.b, self.c)

    def __iter__(self):
        return iter((self.a, self.b, self.c))


@dataclass(frozen=True)
class AncillaAssignment:
    """The six ancilla kets attached to the cloner's six terms.

    ``anc_a0`` is the ancilla state multiplying the a-term of the input-0
    column, and so on.  All six must have norm 1 within 1e-12.
    """

    anc_a0: np.ndarray
    anc_b0: np.ndarray
    anc_c0: np.ndarray
    anc_a1: np.ndarray
    anc_b1: np.ndarray
    anc_c1: np.ndarray

    def __post_init__(self):
        for name in ("anc_a0", "anc_b0", "anc_c0", "anc_a1", "anc_b1", "anc_c1"):
            ket = _unit_ket(getattr(self, name), name, atol=1e-12)
            ket.setflags(write=False)
            object.__setattr__(self, name, ket)

    @classmethod
    def default(cls) -> "AncillaAssignment":
        """The overlap-maximising choice: (|0>, |1>, |0>) for the input-0
        column and (|1>, |0>, |1>) for the input-1 column."""
        return cls(
            anc_a0=KET_0.copy(),
            anc_b0=KET_1.copy(),
            anc_c0=KET_0.copy(),
            anc_a1=KET_1.copy(),
            anc_b1=KET_0.copy(),
            anc_c1=KET_1.copy(),
        )


def build_isometry(
    coeffs: ClonerCoefficients, ancilla: AncillaAssignment | None = None
) -> np.ndarray:
    """Assemble the 8x2 cloning isometry for the given coefficients.

    Column 0 is the image of input |0>, column 1 of input |1>.  The
    columns must come out orthonormal (that is the unitarity constraint
    restricted to the used subspace); a deviation beyond 1e-9, which can
    happen for non-default ancilla assignments, raises
    :class:`UnitarityError`.
    """
    isometry = np.ascontiguousarray(isometry_batch([tuple(coeffs)], ancilla)[0])
    gram_defect = float(np.abs(isometry.conj().T @ isometry - np.eye(2)).max())
    if gram_defect > ATOL_INPUT:
        raise UnitarityError(
            f"columns are not orthonormal (defect {gram_defect:.3e}); "
            "this ancilla assignment does not extend to a unitary"
        )
    return isometry


def apply_cloner(isometry, psi) -> np.ndarray:
    """Push a unit input ket through the cloner; returns the pure 8x8
    output density matrix on (copy 1, copy 2, ancilla)."""
    isometry = as_matrix(isometry, "isometry")
    if isometry.shape != (8, 2):
        raise ValueError(f"isometry must be 8x2, got shape {isometry.shape}")
    out = isometry @ _unit_ket(psi, "psi")
    return np.outer(out, out.conj())


def copy_state(rho_out, which_copy: int) -> np.ndarray:
    """Reduced 2x2 density operator of output copy 1 or 2."""
    index = _integer(which_copy, "which_copy")
    if index not in (1, 2):
        raise ValueError(f"which_copy must be 1 or 2, got {which_copy!r}")
    rho_out = as_matrix(rho_out, "rho_out")
    if rho_out.shape != (8, 8):
        raise ValueError(f"expected an 8x8 density matrix, got shape {rho_out.shape}")
    if abs(complex(np.trace(rho_out)) - 1.0) > ATOL_INPUT:
        raise ValueError("output density matrix trace is not 1")
    return partial_trace(rho_out, [2, 2, 2], keep=index - 1)


def fidelity(psi, rho) -> float:
    """Overlap <psi|rho|psi> of a unit ket with a 2x2 density operator.

    ``rho`` must be Hermitian and of trace one within 1e-9, as for
    :func:`~pairclone.linalg.bloch_from_density`.  The value is then real
    up to roundoff, and that imaginary residue is discarded.
    """
    psi = _unit_ket(psi, "psi")
    return complex(expectation(psi, _density_operator(rho))).real


def fidelity_closed_form(coeffs, phi):
    """Copy fidelity for the overlap-maximising ancilla choice:

        F = 1/2 + (a^2 - c^2) cos^2(phi) / 2 + b (a + c) sin^2(phi)

    for coefficients that are a :class:`ClonerCoefficients` or three (N,)
    arrays a, b, c, at one angle or an (N,) array of angles.  It validates
    the angles (:func:`ensemble.angle_terms`), not the coefficients.
    """
    a, b, c = coeffs
    sin2, cos2, _ = angle_terms(phi)
    return 0.5 + 0.5 * (a * a - c * c) * cos2 + b * (a + c) * sin2


def fidelity_general(coeffs, phi, overlaps):
    """Copy fidelity for the ancilla-overlap sums re_ab = Re<anc_a0|anc_b1>
    + Re<anc_b0|anc_a1> and re_bc = Re<anc_b0|anc_c1> + Re<anc_c0|anc_b1>:

        F = a^2 (alpha^4 + beta^4) + 2 c^2 alpha^2 beta^2 + b^2
            + alpha^2 beta^2 (2 a b re_ab + 2 b c re_bc)

    with alpha = cos(phi/2), beta = sin(phi/2), so alpha^2 beta^2 =
    sin^2(phi) / 4 and alpha^4 + beta^4 = 1 - sin^2(phi) / 2.  It drops the
    within-column overlaps, so it covers only ancillas that are the default
    assignment up to one common unitary and a phase on each ket.
    Coefficients are a :class:`ClonerCoefficients` or three (N,) arrays,
    overlaps two floats or two (N,) arrays, at one angle or an (N,) array
    of angles.  It validates the angles (:func:`ensemble.angle_terms`), not
    the coefficients or overlaps.  At the maximal overlaps (2.0, 2.0), those
    of the default assignment, it coincides with :func:`fidelity_closed_form`.
    """
    a, b, c = coeffs
    re_ab, re_bc = overlaps
    sin2, _, _ = angle_terms(phi)
    al2_be2 = 0.25 * sin2
    return (
        a * a * (1.0 - 0.5 * sin2)
        + 2 * c * c * al2_be2
        + b * b
        + al2_be2 * (2 * a * b * re_ab + 2 * b * c * re_bc)
    )


def shrinking_factors(coeffs):
    """Bloch-plane contraction factors (eta_x, eta_z) = (2b(a+c), a^2 - c^2)
    for coefficients that are a :class:`ClonerCoefficients` (two floats)
    or three (N,) arrays a, b, c (two arrays); it validates nothing.

    For any x-z-plane input with Bloch vector (m_x, 0, m_z), each output
    copy has Bloch vector (eta_x m_x, 0, eta_z m_z); both factors refer to
    the default ancilla assignment.
    """
    a, b, c = coeffs
    return 2 * b * (a + c), a * a - c * c


# --- batch kernel ------------------------------------------------------------
# The functions below act on stacks of N cloners at once and validate no
# per-angle input: validation happens once, in the constructors and public
# functions above, and callers pass arrays built from validated objects.
# Only the eight shared term kets go through :func:`tensor`, once per call.

# Immutable (frozen, read-only kets), so one instance serves every call.
_DEFAULT_ANCILLA = AncillaAssignment.default()

# The two-copy register ket of each term of each column, in the order
# (a, b, b', c) of the module docstring.
_REGISTERS = (
    ((KET_0, KET_0), (KET_0, KET_1), (KET_1, KET_0), (KET_1, KET_1)),
    ((KET_1, KET_1), (KET_1, KET_0), (KET_0, KET_1), (KET_0, KET_0)),
)


def _term_kets(ancilla: AncillaAssignment) -> np.ndarray:
    """The 8-dimensional ket (copy 1) (x) (copy 2) (x) ancilla of each term
    of each column, shape (2, 4, 8): eight three-factor products."""
    ancillas = (
        (ancilla.anc_a0, ancilla.anc_b0, ancilla.anc_b0, ancilla.anc_c0),
        (ancilla.anc_a1, ancilla.anc_b1, ancilla.anc_b1, ancilla.anc_c1),
    )
    return np.array(
        [
            [tensor(tensor(u, v), anc) for (u, v), anc in zip(registers, kets)]
            for registers, kets in zip(_REGISTERS, ancillas)
        ]
    )


def isometry_batch(coeffs, ancilla: AncillaAssignment | None = None) -> np.ndarray:
    """Isometries of shape (N, 8, 2) for coefficient rows (a, b, c) of
    shape (N, 3).

    Each column is summed as a v_a + b (v_b + v_b') + c v_c, the expansion
    in the module docstring in that order.  The eight term kets v are
    built once per call, shared by all N rows, so every matrix is bit for
    bit the one nested ``numpy.kron`` products give.
    """
    terms = _term_kets(_DEFAULT_ANCILLA if ancilla is None else ancilla)
    coeffs = np.asarray(coeffs, dtype=float)
    a, b, c = (coeffs[:, k, None, None] for k in range(3))
    columns = a * terms[:, 0] + b * (terms[:, 1] + terms[:, 2]) + c * terms[:, 3]
    return columns.transpose(0, 2, 1)


def expectation(states, rho) -> np.ndarray:
    """<psi|rho|psi> for kets of shape (..., 2) and operators of shape
    (..., 2, 2); complex, so callers can inspect the imaginary residue."""
    return np.einsum("...i,...ij,...j->...", states.conj(), rho, states)


class CopyBatch(NamedTuple):
    """Both output copies of K inputs through each of N cloners."""

    copy1: np.ndarray  # (N, K, 2, 2) reduced state of copy 1
    copy2: np.ndarray  # (N, K, 2, 2) reduced state of copy 2
    fidelities: np.ndarray  # (N, K) real <psi|copy1|psi>


def clone_batch(isometries, states) -> CopyBatch:
    """Push input kets of shape (N, K, 2) through isometries of shape
    (N, 8, 2) and reduce each pure output straight to its two 2x2 copies;
    the 8x8 output density matrices are never formed."""
    n, k = states.shape[:2]
    # out[n, k, i0, i1, i2]: amplitude on (copy 1, copy 2, ancilla)
    out = (states @ isometries.transpose(0, 2, 1)).reshape(n, k, 2, 2, 2)
    first = out.reshape(n, k, 2, 4)
    second = out.transpose(0, 1, 3, 2, 4).reshape(n, k, 2, 4)
    copy1 = first @ first.conj().swapaxes(-1, -2)
    copy2 = second @ second.conj().swapaxes(-1, -2)
    return CopyBatch(copy1, copy2, expectation(states, copy1).real)
