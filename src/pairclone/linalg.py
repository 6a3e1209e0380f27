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
:func:`density_from_bloch` reads each Bloch component through :func:`_real`.
Both norm bounds take ``math.hypot``, which squares nothing: a norm past the
largest float reads ``inf`` and is rejected, and nothing warns.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Dimensions admitted for any vector or operator handled here.
ADMITTED_DIMS = (1, 2, 4, 8)
_ADMITTED_LENGTHS = frozenset(ADMITTED_DIMS)  # the same, for one-call shape checks

# Validation tolerance for caller-supplied data; the ``verify`` identities
# are bounded at 1e-10 (``checks``).
ATOL_INPUT = 1e-9

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)

_REAL_KINDS = "iuf"  # NumPy dtype kinds of real numbers: int, unsigned int, float
_NUMBER_KINDS = _REAL_KINDS + "c"  # and complex


def _real(value, name: str) -> float:
    """``value`` as a float if it is a real number, else ValueError naming ``name``."""
    if not isinstance(value, float):  # a Python float or np.float64 needs no probe
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
    if arr.dtype.kind not in _NUMBER_KINDS:
        raise ValueError(f"{name} must hold numbers, got dtype {arr.dtype}")
    arr = arr.astype(complex, copy=False)
    if arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be 1-d or 2-d, got ndim={arr.ndim}")
    if not _ADMITTED_LENGTHS.issuperset(arr.shape):
        length = next(n for n in arr.shape if n not in _ADMITTED_LENGTHS)
        raise ValueError(f"{name} has axis length {length}; admitted lengths are {ADMITTED_DIMS}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def _unit_ket(values, name: str) -> np.ndarray:
    """``values`` as a 2-dimensional ket of norm 1 within 1e-9."""
    ket = as_matrix(values, name)
    if ket.shape != (2,):
        raise ValueError(f"{name} must be a 2-dimensional ket, got shape {ket.shape}")
    norm = math.hypot(*ket.real, *ket.imag)
    if abs(norm - 1.0) > ATOL_INPUT:
        raise ValueError(f"{name} has norm {norm}, expected 1")
    return ket


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the big-endian index convention.

    Row/column index pairs combine as ``(i_a, i_b) -> i_a * dim_b + i_b``,
    i.e. the first factor is the most significant digit.  Raises if any
    product axis length leaves the admitted set {1, 2, 4, 8}.  The result
    is bit for bit ``numpy.kron(a, b)``: the same entrywise products,
    arranged by one broadcast product and a reshape, which is several times
    faster than ``numpy.kron`` at these sizes.
    """
    a = as_matrix(a, "tensor operand a")
    b = as_matrix(b, "tensor operand b")
    if a.ndim != b.ndim:
        raise ValueError("tensor operands must both be vectors or both matrices")
    rows = len(a) * len(b)
    shape = (rows,) if a.ndim == 1 else (rows, a.shape[1] * b.shape[1])
    if not _ADMITTED_LENGTHS.issuperset(shape):
        length = next(n for n in shape if n not in _ADMITTED_LENGTHS)
        raise ValueError(f"tensor product axis length {length} not in {ADMITTED_DIMS}")
    # axes (a rows, b rows[, a cols, b cols])
    product = a[:, None] * b if a.ndim == 1 else a[:, None, :, None] * b[:, None]
    return product.reshape(shape)


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
    if min(dims, default=1) < 1:
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if total != rho.shape[0]:
        raise ValueError(
            f"subsystem dimensions {dims} multiply to {total}, "
            f"but rho has dimension {rho.shape[0]}"
        )
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep={keep} out of range for {len(dims)} subsystems")

    # Trace the other subsystems from the last one down, so the row axes in front of
    # each stay where they were; ``left`` counts the subsystems not yet traced.
    work, left = rho.reshape(tuple(dims) * 2), len(dims)
    for axis in range(len(dims) - 1, -1, -1):
        if axis != keep:
            work = np.trace(work, axis1=axis, axis2=axis + left)
            left -= 1
    d = dims[keep]
    return work.reshape(d, d)


def density_from_bloch(m) -> np.ndarray:
    """Qubit density operator (identity + m . sigma) / 2.

    Accepts any real 3-vector of norm at most 1 (up to 1e-9 slack); pure
    states sit on the unit sphere, mixed states strictly inside.
    """
    m = np.asarray(m)
    if m.shape != (3,):
        raise ValueError(f"Bloch vector must have shape (3,), got {m.shape}")
    x, y, z = [_real(v, "Bloch vector component") for v in m]
    norm = math.hypot(x, y, z)
    if norm > 1.0 + ATOL_INPUT:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def _density_operator(rho) -> tuple[np.ndarray, list]:
    """``rho`` as a 2x2 array, and its rows as lists of Python complex
    numbers, if it is Hermitian and of trace one within 1e-9, else
    ValueError; shared by bloch_from_density and cloner.fidelity."""
    rho = as_matrix(rho, "rho")
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    rows = rho.tolist()
    (r00, r01), (r10, r11) = rows
    herm_defect = max(abs(2 * r00.imag), abs(2 * r11.imag), abs(r01 - r10.conjugate()))
    if herm_defect > ATOL_INPUT:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    trace_defect = abs(r00 + r11 - 1.0)
    if trace_defect > ATOL_INPUT:
        raise ValueError(f"matrix trace deviates from 1 by {trace_defect:.3e}")
    return rho, rows


def bloch_from_density(rho) -> np.ndarray:
    """Bloch components Tr(rho sigma_k) of a 2x2 density operator.

    Inverts :func:`density_from_bloch`; the round trip is exact to 1e-12.
    Rejects input that is not Hermitian and trace one within 1e-9.
    """
    return np.array(_bloch_components(_density_operator(rho)[1]))


def _bloch_components(rows) -> tuple[float, float, float]:
    """Bloch components (x, y, z) of one 2x2 operator given as two rows of
    Python complex numbers.  Python's complex + and - act on the real and
    imaginary parts apart, as numpy's do, so these are the bits of
    :func:`bloch_vectors` without an array round trip."""
    (r00, r01), (r10, r11) = rows
    return (r01 + r10).real, (r10 - r01).imag, (r00 - r11).real


def bloch_vectors(rho) -> np.ndarray:
    """Bloch components of a stack of 2x2 operators, shape (..., 2, 2) to
    (..., 3).  Batch kernel behind :func:`bloch_from_density`; it validates
    nothing, so callers pass operators they built themselves."""
    bloch = np.empty(rho.shape[:-2] + (3,))
    bloch[..., 0] = (rho[..., 0, 1] + rho[..., 1, 0]).real
    bloch[..., 1] = (rho[..., 1, 0] - rho[..., 0, 1]).imag
    bloch[..., 2] = (rho[..., 0, 0] - rho[..., 1, 1]).real
    return bloch
