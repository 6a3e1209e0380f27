"""Dense complex linear algebra for small fixed dimensions.

Everything in this package lives in Hilbert spaces of dimension 1, 2, 4
or 8 (one qubit in, three qubits out), so all arithmetic is exact dense
``complex128``.  Subsystem ordering is big-endian throughout: for three
qubits the basis index is ``i0*4 + i1*2 + i2``, matching nested
``numpy.kron`` with the first factor outermost.

Outside values pass one gate per kind, each rule written once: a real number
(:func:`_real`) is a finite int or float of NumPy dtype kind ``iuf`` or a 0-d
array of one, an integer (:func:`_integer`) what ``operator.index`` takes,
an array (:func:`as_matrix`) one of ints, floats or complex numbers, and a
unit ket (:func:`_unit_ket`) one of shape (2,) and norm 1 within 1e-9.  No
gate takes a bool or a string; only :func:`as_matrix` takes complex values.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Dimensions admitted for any vector or operator handled here.
ADMITTED_DIMS = (1, 2, 4, 8)

# Validation tolerance for caller-supplied data; self-consistency checks
# elsewhere use the tighter 1e-12.
ATOL_INPUT = 1e-9

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)

_REAL_KINDS = "iuf"  # NumPy dtype kinds of real numbers: int, unsigned int, float


def _real(value, name: str) -> float:
    """``value`` as a float if it is a real number, else ValueError naming ``name``."""
    array = np.asarray(value)
    if array.ndim or array.dtype.kind not in _REAL_KINDS:
        raise ValueError(f"{name} must be a real number, got {type(value).__name__}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite")
    return number


def _integer(value, name: str) -> int:
    """``value`` as an int, never truncated from 1.0 or read from True."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} takes integers only, got {value!r}") from None


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex array with finite entries and admitted axis lengths.

    Accepts 1-d arrays (kets) and 2-d arrays (operators) of numbers; bools,
    strings, NaN and Inf entries are rejected.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in _REAL_KINDS + "c":
        raise ValueError(f"{name} must hold numbers, got dtype {arr.dtype}")
    arr = arr.astype(complex, copy=False)
    if arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-d or 2-d, got ndim={arr.ndim}")
    for length in arr.shape:
        if length not in ADMITTED_DIMS:
            raise ValueError(
                f"{name} has axis length {length}; admitted lengths are {ADMITTED_DIMS}"
            )
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def _unit_ket(values, name: str, atol: float = ATOL_INPUT) -> np.ndarray:
    """``values`` as a 2-dimensional ket of norm 1 within ``atol``."""
    ket = as_matrix(values, name)
    if ket.shape != (2,):
        raise ValueError(f"{name} must be a 2-dimensional ket, got shape {ket.shape}")
    norm = float(np.linalg.norm(ket))
    if abs(norm - 1.0) > atol:
        raise ValueError(f"{name} has norm {norm}, expected 1")
    return ket


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the big-endian index convention.

    Row/column index pairs combine as ``(i_a, i_b) -> i_a * dim_b + i_b``,
    i.e. the first factor is the most significant digit.  Raises if any
    product axis length leaves the admitted set {1, 2, 4, 8}.  The result
    is bit for bit ``numpy.kron(a, b)``: the same entrywise products,
    arranged by one outer product and a reshape, which is several times
    faster than ``numpy.kron`` at these sizes.
    """
    a = as_matrix(a, "tensor operand a")
    b = as_matrix(b, "tensor operand b")
    if a.ndim != b.ndim:
        raise ValueError("tensor operands must both be vectors or both matrices")
    for la, lb in zip(a.shape, b.shape):
        if la * lb not in ADMITTED_DIMS:
            raise ValueError(
                f"tensor product axis length {la * lb} not in {ADMITTED_DIMS}"
            )
    product = np.multiply.outer(a, b)  # axes (a rows, [a cols,] b rows[, b cols])
    if a.ndim == 2:
        product = product.transpose(0, 2, 1, 3)
    return product.reshape([la * lb for la, lb in zip(a.shape, b.shape)])


def partial_trace(rho, dims, keep: int) -> np.ndarray:
    """Trace out all subsystems except ``keep``.

    ``dims`` lists the subsystem dimensions in big-endian order and must
    multiply to the dimension of ``rho``.  The trace of the result equals
    the trace of the input.
    """
    rho = as_matrix(rho, "rho")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"rho must be square, got shape {rho.shape}")
    dims = [_integer(d, "subsystem dimension") for d in dims]
    keep = _integer(keep, "keep")
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if total != rho.shape[0]:
        raise ValueError(
            f"subsystem dimensions {dims} multiply to {total}, "
            f"but rho has dimension {rho.shape[0]}"
        )
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep={keep} out of range for {len(dims)} subsystems")

    work = rho.reshape(tuple(dims) + tuple(dims))
    remaining = list(dims)
    for axis in sorted((k for k in range(len(dims)) if k != keep), reverse=True):
        work = np.trace(work, axis1=axis, axis2=axis + len(remaining))
        del remaining[axis]
    d = dims[keep]
    return work.reshape(d, d)


def density_from_bloch(m) -> np.ndarray:
    """Qubit density operator (identity + m . sigma) / 2.

    Accepts any real 3-vector of norm at most 1 (up to 1e-9 slack); pure
    states sit on the unit sphere, mixed states strictly inside.
    """
    m = np.asarray(m)
    if m.dtype.kind not in _REAL_KINDS:
        raise ValueError(f"Bloch vector must be real, got dtype {m.dtype}")
    m = m.astype(float)
    if m.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("Bloch vector contains NaN or Inf")
    norm = float(np.linalg.norm(m))
    if norm > 1.0 + ATOL_INPUT:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return 0.5 * (IDENTITY_2 + m[0] * SIGMA_X + m[1] * SIGMA_Y + m[2] * SIGMA_Z)


def _density_operator(rho) -> np.ndarray:
    """``rho`` as a 2x2 array if it is Hermitian and of trace one within 1e-9,
    else ValueError; shared by bloch_from_density and cloner.fidelity."""
    rho = as_matrix(rho, "rho")
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    herm_defect = float(np.abs(rho - rho.conj().T).max())
    if herm_defect > ATOL_INPUT:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    trace_defect = abs(complex(np.trace(rho)) - 1.0)
    if trace_defect > ATOL_INPUT:
        raise ValueError(f"matrix trace deviates from 1 by {trace_defect:.3e}")
    return rho


def bloch_from_density(rho) -> np.ndarray:
    """Bloch components Tr(rho sigma_k) of a 2x2 density operator.

    Inverts :func:`density_from_bloch`; the round trip is exact to 1e-12.
    Rejects input that is not Hermitian and trace one within 1e-9.
    """
    return bloch_vectors(_density_operator(rho))


def bloch_vectors(rho) -> np.ndarray:
    """Bloch components of a stack of 2x2 operators, shape (..., 2, 2) to
    (..., 3).  Batch kernel behind :func:`bloch_from_density`; it validates
    nothing, so callers pass operators they built themselves."""
    return np.stack(
        [
            (rho[..., 0, 1] + rho[..., 1, 0]).real,
            (rho[..., 1, 0] - rho[..., 0, 1]).imag,
            (rho[..., 0, 0] - rho[..., 1, 1]).real,
        ],
        axis=-1,
    )
