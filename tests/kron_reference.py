"""The cloning isometry written out term by term with ``numpy.kron``, for
any six ancilla kets, as a reference independent of ``pairclone.cloner``.

An ancilla is a tuple of six plain kets in the order (anc_a0, anc_b0,
anc_c0, anc_a1, anc_b1, anc_c1) of the expansion in the docstring of
``pairclone.cloner``.
"""

import numpy as np

BASIS = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))

# The overlap-maximising assignment, the only one the library builds.
DEFAULT_ANCILLA = (BASIS[0], BASIS[1], BASIS[0], BASIS[1], BASIS[0], BASIS[1])


def kron_isometry(coeffs, ancilla=DEFAULT_ANCILLA):
    """The 8x2 isometry term by term, as nested Kronecker products."""
    anc_a0, anc_b0, anc_c0, anc_a1, anc_b1, anc_c1 = ancilla

    def term(i0, i1, anc):
        return np.kron(np.kron(BASIS[i0], BASIS[i1]), anc)

    a, b, c = coeffs
    col0 = a * term(0, 0, anc_a0) + b * (term(0, 1, anc_b0) + term(1, 0, anc_b0)) + c * term(1, 1, anc_c0)
    col1 = a * term(1, 1, anc_a1) + b * (term(1, 0, anc_b1) + term(0, 1, anc_b1)) + c * term(0, 0, anc_c1)
    return np.stack([col0, col1], axis=1)


def rotated_ancilla(unitary, phases):
    """The default ancilla kets under one common unitary, each times its own
    phase: complex kets that still give an isometry."""
    return tuple(phase * (unitary @ ket) for phase, ket in zip(phases, DEFAULT_ANCILLA))


def overlap_sums(ancilla):
    """The overlap sums (re_ab, re_bc) of an ancilla, as
    ``pairclone.cloner.fidelity_general`` defines them."""
    anc_a0, anc_b0, anc_c0, anc_a1, anc_b1, anc_c1 = ancilla
    re_ab = np.vdot(anc_a0, anc_b1).real + np.vdot(anc_b0, anc_a1).real
    re_bc = np.vdot(anc_b0, anc_c1).real + np.vdot(anc_c0, anc_b1).real
    return float(re_ab), float(re_bc)
