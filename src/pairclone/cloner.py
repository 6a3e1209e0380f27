"""Symmetric 1-to-2 cloning transformation and its figures of merit.

The cloner acts on (input qubit, blank qubit, two-dimensional ancilla)
and is fully determined by its action on the input basis:

    |0> |0> |X>  ->  a |00>|anc_a0> + b (|01> + |10>) |anc_b0> + c |11>|anc_c0>
    |1> |0> |X>  ->  a |11>|anc_a1> + b (|10> + |01>) |anc_b1> + c |00>|anc_c1>

with real coefficients a, b, c >= 0 constrained by a^2 + 2b^2 + c^2 = 1.
The isometry is built for one ancilla assignment only, the overlap-maximising
(anc_a0, anc_b0, anc_c0) = (|0>, |1>, |0>) and (anc_a1, anc_b1, anc_c1) =
(|1>, |0>, |1>); :func:`fidelity_general` gives the copy fidelity of others.
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
    _REAL_KINDS,
    _density_operator,
    _integer,
    _real,
    _unit_ket,
    as_matrix,
    partial_trace,
    tensor,
)


class UnitarityError(ValueError):
    """Coefficients incompatible with a norm-preserving map."""


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
            object.__setattr__(self, name, 0.0 if value == 0 else value)  # -0.0 reports as 0
        defect = self.constraint_defect
        if abs(defect) > ATOL_INPUT:
            raise UnitarityError(f"a^2 + 2b^2 + c^2 deviates from 1 by {defect:.3e}")

    @property
    def constraint_defect(self) -> float:
        """Signed deviation a^2 + 2b^2 + c^2 - 1."""
        return constraint_defect(self.a, self.b, self.c)

    def __iter__(self):
        return iter((self.a, self.b, self.c))


def _unpack(values, count: int = 3, rule: str = "coefficients must be three numbers a, b, c") -> tuple:
    """The ``count`` entries of ``values``, by default coefficients a, b, c, each a
    real number or a real (N,) array, all (N,) arrays of one length, else
    ValueError "``rule``, got ..."."""
    try:
        entries = tuple(values)
    except TypeError:
        entries = None
    if entries is None or len(entries) != count:
        got = type(values).__name__ if entries is None else f"{len(entries)} values"
        raise ValueError(f"{rule}, got {got}")
    length = None
    for entry in entries:
        if not isinstance(entry, float):  # a Python float or np.float64 needs no probe
            array = np.asarray(entry)  # a number is 0-d; only an ndarray may be (N,)
            if array.ndim > isinstance(entry, np.ndarray) or array.dtype.kind not in _REAL_KINDS:
                raise ValueError(f"{rule}, got {type(entry).__name__}")
            if array.ndim:
                if length is not None and len(array) != length:
                    raise ValueError(f"{rule}, got arrays of lengths {length} and {len(array)}")
                length = len(array)
    return entries


def _coefficients(coeffs) -> ClonerCoefficients:
    """``coeffs`` as is if it is a :class:`ClonerCoefficients`, else validated
    into one from exactly three numbers a, b, c."""
    return coeffs if isinstance(coeffs, ClonerCoefficients) else ClonerCoefficients(*_unpack(coeffs))


def build_isometry(coeffs) -> np.ndarray:
    """Assemble the 8x2 cloning isometry for the given coefficients.

    Column 0 is the image of input |0>, column 1 of input |1>.  ``coeffs``
    is a :class:`ClonerCoefficients` or three numbers validated into one, and
    its 1e-9 constraint is the one unitarity gate: the two columns have the
    disjoint supports {0, 3, 5, 6} and {1, 2, 4, 7}, so they are exactly
    orthogonal, and each has squared norm a^2 + 2b^2 + c^2.
    """
    coeffs = _coefficients(coeffs)
    return np.ascontiguousarray(isometry_batch([tuple(coeffs)])[0])


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
    reduced = partial_trace(rho_out, [2, 2, 2], keep=index - 1)  # rejects all but 8x8
    if abs(complex(np.trace(reduced)) - 1.0) > ATOL_INPUT:
        raise ValueError("output density matrix trace is not 1")
    return reduced


def fidelity(psi, rho) -> float:
    """Overlap <psi|rho|psi> of a unit ket with a 2x2 density operator.

    ``rho`` must be Hermitian and of trace one within 1e-9, as for
    :func:`~pairclone.linalg.bloch_from_density`.  The value is then real
    up to roundoff, and that imaginary residue is discarded.
    """
    psi = _unit_ket(psi, "psi")
    return complex(expectation(psi, _density_operator(rho)[0])).real


def fidelity_closed_form(coeffs, phi):
    """Copy fidelity for the overlap-maximising ancilla choice:

        F = 1/2 + (a^2 - c^2) cos^2(phi) / 2 + b (a + c) sin^2(phi)

    for coefficients that are a :class:`ClonerCoefficients` or three (N,)
    arrays a, b, c, at one angle or an (N,) array of angles.  It validates
    the angles (:func:`ensemble.angle_terms`) and the count and kind of coefficients.
    """
    a, b, c = _unpack(coeffs)
    sin2, cos2, _ = angle_terms(phi)
    return 0.5 + 0.5 * (a * a - c * c) * cos2 + b * (a + c) * sin2


def fidelity_general(coeffs, phi, overlaps):
    """Copy fidelity of the expansion in the module docstring with any six
    ancilla kets, through their overlap sums re_ab = Re<anc_a0|anc_b1>
    + Re<anc_b0|anc_a1> and re_bc = Re<anc_b0|anc_c1> + Re<anc_c0|anc_b1>:

        F = a^2 (alpha^4 + beta^4) + 2 c^2 alpha^2 beta^2 + b^2
            + alpha^2 beta^2 (2 a b re_ab + 2 b c re_bc)

    with alpha = cos(phi/2), beta = sin(phi/2), so alpha^2 beta^2 =
    sin^2(phi) / 4 and alpha^4 + beta^4 = 1 - sin^2(phi) / 2.  It drops the
    within-column overlaps, so it covers only ancillas that are the default
    assignment up to one common unitary and a phase on each ket.  The library
    builds no isometry for such an ancilla; the tests check the formula
    against :func:`clone_batch` on isometries of ``numpy.kron`` products.
    Coefficients are a :class:`ClonerCoefficients` or three (N,) arrays,
    overlaps two floats or two (N,) arrays, at one angle or an (N,) array
    of angles.  It validates the angles (:func:`ensemble.angle_terms`) and the
    count and kind of coefficients and overlaps.  At the maximal overlaps (2.0, 2.0),
    those of the default assignment, it coincides with :func:`fidelity_closed_form`.
    """
    a, b, c = _unpack(coeffs)
    re_ab, re_bc = _unpack(overlaps, 2, "overlaps must be two numbers re_ab, re_bc")
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
    or three (N,) arrays a, b, c (two arrays); it checks only their count and kind.

    For any x-z-plane input with Bloch vector (m_x, 0, m_z), each output
    copy has Bloch vector (eta_x m_x, 0, eta_z m_z); both factors refer to
    the default ancilla assignment.
    """
    a, b, c = _unpack(coeffs)
    return 2 * b * (a + c), a * a - c * c


# --- batch kernel ------------------------------------------------------------
# The functions below act on stacks of N cloners at once and validate no
# per-angle input: validation happens once, in the constructors and public
# functions above, and callers pass arrays built from validated objects.
# Only the eight shared term kets go through :func:`tensor`, once per call.

# The (copy 1, copy 2, ancilla) factors of each term of each column, in the
# order (a, b, b', c) of the module docstring.
_TERM_FACTORS = (
    ((KET_0, KET_0, KET_0), (KET_0, KET_1, KET_1), (KET_1, KET_0, KET_1), (KET_1, KET_1, KET_0)),
    ((KET_1, KET_1, KET_1), (KET_1, KET_0, KET_0), (KET_0, KET_1, KET_0), (KET_0, KET_0, KET_1)),
)


def _term_kets() -> np.ndarray:
    """The 8-dimensional ket (copy 1) (x) (copy 2) (x) ancilla of each term
    of each column, shape (2, 4, 8): eight three-factor products."""
    return np.array([[tensor(tensor(u, v), anc) for u, v, anc in column] for column in _TERM_FACTORS])


def isometry_batch(coeffs) -> np.ndarray:
    """Isometries of shape (N, 8, 2) for coefficient rows (a, b, c) of
    shape (N, 3).

    Each column is summed as a v_a + b (v_b + v_b') + c v_c, the expansion
    in the module docstring in that order.  The eight term kets v are
    built once per call, shared by all N rows, so every matrix is bit for
    bit the one nested ``numpy.kron`` products give.
    """
    terms = _term_kets()
    coeffs = np.asarray(coeffs, dtype=float)
    a, b, c = (coeffs[:, k, None, None] for k in range(3))
    columns = a * terms[:, 0] + b * (terms[:, 1] + terms[:, 2]) + c * terms[:, 3]
    return columns.transpose(0, 2, 1)


def expectation(states, rho) -> np.ndarray:
    """<psi|rho|psi> for kets of shape (..., 2) and operators of shape
    (..., 2, 2); complex, so callers can inspect the imaginary residue."""
    return np.einsum("...i,...ij,...j->...", states.conj(), rho, states)


class CopyBatch(NamedTuple):
    """Both output copies of K inputs through each of N cloners; each copy
    is an (N, K, 2, 2) view of angle-last (2, 2, K, N) memory."""

    copy1: np.ndarray  # (N, K, 2, 2) reduced state of copy 1
    copy2: np.ndarray  # (N, K, 2, 2) reduced state of copy 2
    fidelities: np.ndarray  # (N, K) real <psi|copy1|psi>


def clone_batch(isometries, states) -> CopyBatch:
    """Push input kets of shape (N, K, 2) through isometries of shape
    (N, 8, 2) and reduce each pure output straight to its two 2x2 copies;
    the 8x8 output density matrices are never formed.  Each copy is
    written angle-last and returned as an (N, K, 2, 2) view."""
    psi = np.ascontiguousarray(states.T)  # (2, K, N)
    v = np.ascontiguousarray(isometries.T)[:, :, None]  # (2, 8, 1, N)
    # out[i0, i1, i2, k, n]: amplitude on (copy 1, copy 2, ancilla).  With
    # the inputs on the trailing axes each step is one array operation.
    out = (v[0] * psi[0] + v[1] * psi[1]).reshape(2, 2, 2, *psi.shape[1:])
    bra = out.conj()
    copy1 = np.einsum("rbckn,sbckn->rskn", out, bra).transpose(3, 2, 0, 1)
    copy2 = np.einsum("arckn,asckn->rskn", out, bra).transpose(3, 2, 0, 1)
    return CopyBatch(copy1, copy2, expectation(psi.T, copy1).real)
