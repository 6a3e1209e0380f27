import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairclone.cloner import fidelity
from pairclone.linalg import (
    KET_0,
    KET_1,
    _bloch_components,
    as_matrix,
    bloch_from_density,
    bloch_vectors,
    density_from_bloch,
    partial_trace,
    tensor,
)

SELF_TOL = 1e-12

# Pauli-sum reference for the qubit operators
IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def ptrace_by_sorted_axes(rho, dims, keep):
    """Bit reference: the earlier partial trace, np.trace over the other
    subsystems in descending order, each time dropping one from a list."""
    work = rho.reshape(tuple(dims) + tuple(dims))
    remaining = list(dims)
    for axis in sorted((k for k in range(len(dims)) if k != keep), reverse=True):
        work = np.trace(work, axis1=axis, axis2=axis + len(remaining))
        del remaining[axis]
    d = dims[keep]
    return work.reshape(d, d)


def ptrace_by_index_summation(rho, dims, keep):
    """Independent partial-trace oracle: explicit index loops, no reshaping."""
    from itertools import product

    def flat(idx):
        f = 0
        for d, i in zip(dims, idx):
            f = f * d + i
        return f

    d_keep = dims[keep]
    rest_axes = [k for k in range(len(dims)) if k != keep]
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for i in range(d_keep):
        for j in range(d_keep):
            total = 0.0 + 0.0j
            for rest in product(*(range(dims[k]) for k in rest_axes)):
                idx_i = list(rest[:keep]) + [i] + list(rest[keep:])
                idx_j = list(rest[:keep]) + [j] + list(rest[keep:])
                total += rho[flat(idx_i), flat(idx_j)]
            out[i, j] = total
    return out


class TestTensor:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor(IDENTITY_2, IDENTITY_2), np.eye(4, dtype=complex))

    def test_basis_ket_bookkeeping(self):
        # (i_a, i_b) -> i_a * dim_b + i_b puts |0>|1> at index 1
        assert np.array_equal(tensor(KET_0, KET_1), np.array([0, 1, 0, 0], dtype=complex))

    def test_sigma_x_tensor_sigma_z_hand_expanded(self):
        # expanded by hand from the definition: blocks sigma_z scaled by
        # the entries of sigma_x
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        assert np.array_equal(tensor(SIGMA_X, SIGMA_Z), expected)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            c = rng.normal(size=(2,)) + 1j * rng.normal(size=(2,))
            left = tensor(tensor(a, b), c.reshape(2, 1))
            right = tensor(a, tensor(b, c.reshape(2, 1)))
            assert np.abs(left - right).max() <= SELF_TOL

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((2,), (2,)), ((4,), (2,)), ((2, 2), (2, 2)), ((4, 4), (2, 2)), ((2, 1), (4, 2))],
    )
    def test_bit_identical_to_numpy_kron(self, shape_a, shape_b):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
            b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
            a.real[rng.random(shape_a) < 0.3] = -0.0  # signed zeros must carry over
            b.imag[rng.random(shape_b) < 0.3] = 0.0
            assert tensor(a, b).tobytes() == np.kron(a, b).tobytes()
            assert tensor(a, b).shape == np.kron(a, b).shape

    def test_dimension_overflow_rejected(self):
        m8 = np.eye(8, dtype=complex)
        with pytest.raises(ValueError, match="not in"):
            tensor(m8, IDENTITY_2)

    def test_nan_rejected(self):
        bad = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError, match="NaN"):
            tensor(bad, IDENTITY_2)
        # entries must be numbers: strings are not parsed, bools not read as 0 and 1
        for not_numbers in (["1", "0"], [True, False]):
            with pytest.raises(ValueError, match="must hold numbers"):
                tensor(not_numbers, [1, 0])


ADMITTED = "(1, 2, 4, 8)"


# Every rejection branch of the two gates, with its whole message.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: as_matrix(["1", "0"], "m"), "m must hold numbers, got dtype <U1"),
        (lambda: as_matrix([True, False]), "matrix must hold numbers, got dtype bool"),
        (lambda: tensor([True, False], KET_0), "tensor operand a must hold numbers, got dtype bool"),
        (lambda: as_matrix(1.0, "m"), "m must be 1-d or 2-d, got ndim=0"),
        (lambda: as_matrix(np.zeros((2, 2, 2)), "m"), "m must be 1-d or 2-d, got ndim=3"),
        (lambda: as_matrix(np.zeros(3), "m"), f"m has axis length 3; admitted lengths are {ADMITTED}"),
        (lambda: as_matrix(np.zeros(0), "m"), f"m has axis length 0; admitted lengths are {ADMITTED}"),
        (lambda: as_matrix(np.zeros((3, 2)), "m"), f"m has axis length 3; admitted lengths are {ADMITTED}"),
        (lambda: as_matrix(np.zeros((2, 5)), "m"), f"m has axis length 5; admitted lengths are {ADMITTED}"),
        (lambda: as_matrix(np.zeros((16, 5)), "m"), f"m has axis length 16; admitted lengths are {ADMITTED}"),
        (lambda: tensor(KET_0, np.zeros(6)),
         f"tensor operand b has axis length 6; admitted lengths are {ADMITTED}"),
        (lambda: as_matrix([0.0, np.nan], "m"), "m contains NaN or Inf entries"),
        (lambda: as_matrix([[1.0, 0.0], [0.0, -np.inf]], "m"), "m contains NaN or Inf entries"),
        (lambda: tensor([np.inf, 0], KET_0), "tensor operand a contains NaN or Inf entries"),
        (lambda: tensor(KET_0, [complex(0, np.nan), 1]), "tensor operand b contains NaN or Inf entries"),
        (lambda: tensor(KET_0, IDENTITY_2), "tensor operands must both be vectors or both matrices"),
        (lambda: tensor(IDENTITY_2, KET_0), "tensor operands must both be vectors or both matrices"),
        (lambda: tensor(np.zeros(8), np.zeros(4)), f"tensor product axis length 32 not in {ADMITTED}"),
        (lambda: tensor(np.zeros((8, 1)), np.zeros((2, 1))), f"tensor product axis length 16 not in {ADMITTED}"),
        (lambda: tensor(np.zeros((1, 4)), np.zeros((1, 8))), f"tensor product axis length 32 not in {ADMITTED}"),
        (lambda: tensor(np.eye(8), np.zeros((2, 4))), f"tensor product axis length 16 not in {ADMITTED}"),
    ],
    ids=[
        "strings", "bools", "tensor-bools", "ndim-0", "ndim-3", "vector-length", "vector-empty",
        "row-length", "column-length", "row-named-first", "tensor-operand-length", "nan", "inf",
        "tensor-inf", "tensor-complex-nan", "vector-then-matrix", "matrix-then-vector",
        "product-vector", "product-rows", "product-columns", "product-rows-named-first",
    ],
)
def test_gate_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestPartialTrace:
    def test_product_state_factorises(self):
        rho_a = density_from_bloch([0.3, -0.2, 0.4])
        rho_b = density_from_bloch([0.0, 0.6, -0.1])
        joint = tensor(rho_a, rho_b)
        assert np.abs(partial_trace(joint, [2, 2], 0) - rho_a).max() <= SELF_TOL
        assert np.abs(partial_trace(joint, [2, 2], 1) - rho_b).max() <= SELF_TOL

    def test_maximally_entangled_reduces_to_mixed(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        reduced = partial_trace(rho, [2, 2], 0)
        assert np.abs(reduced - IDENTITY_2 / 2).max() <= SELF_TOL

    def test_random_three_qubit_against_index_summation(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho)
        for keep in range(3):
            fast = partial_trace(rho, [2, 2, 2], keep)
            slow = ptrace_by_index_summation(rho, [2, 2, 2], keep)
            assert np.abs(fast - slow).max() <= SELF_TOL
            assert abs(np.trace(fast) - 1.0) <= SELF_TOL

    @pytest.mark.parametrize("dims", [[2, 2, 2], [2, 4], [4, 2], [2, 1, 4], [1, 8], [8, 1]], ids=str)
    def test_bits_equal_the_sorted_axes_trace(self, dims):
        rng = np.random.default_rng(20261020)
        n = math.prod(dims)
        for _ in range(50):
            rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for keep in range(len(dims)):
                fast, slow = partial_trace(rho, dims, keep), ptrace_by_sorted_axes(rho, dims, keep)
                assert fast.shape == slow.shape and fast.tobytes() == slow.tobytes(), keep

    def test_trace_preserved_on_unnormalised_input(self):
        rng = np.random.default_rng(12)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = raw @ raw.conj().T
        reduced = partial_trace(rho, [2, 2], 1)
        assert abs(np.trace(reduced) - np.trace(rho)) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="multiply"):
            partial_trace(np.eye(8, dtype=complex), [2, 2], 0)
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4, dtype=complex), [2, 2], 2)
        # 2.9 x 2.2 would truncate to 2 x 2 and match a 4 x 4 rho
        with pytest.raises(ValueError, match="integers"):
            partial_trace(np.eye(4, dtype=complex), [2.9, 2.2], 0)
        with pytest.raises(ValueError, match="integers"):
            partial_trace(np.eye(4, dtype=complex), [2, 2], 0.5)
        with pytest.raises(ValueError, match="integers"):
            partial_trace(np.eye(4, dtype=complex), [2, 2], True)  # not subsystem 1
        with pytest.raises(ValueError, match="integers"):
            partial_trace(np.eye(4, dtype=complex), [True, 4], 0)


class TestBlochMaps:
    def test_north_pole(self):
        rho = density_from_bloch([0.0, 0.0, 1.0])
        assert np.abs(rho - np.outer(KET_0, KET_0.conj())).max() <= SELF_TOL

    def test_centre_is_maximally_mixed(self):
        assert np.abs(density_from_bloch([0, 0, 0]) - IDENTITY_2 / 2).max() <= SELF_TOL

    def test_xz_plane_density_matches_state_amplitudes(self):
        # the state (cos(phi/2), sin(phi/2)) has Bloch vector (sin phi, 0, cos phi)
        phi = np.pi / 3
        rho = density_from_bloch([np.sin(phi), 0.0, np.cos(phi)])
        psi = np.array([np.cos(phi / 2), np.sin(phi / 2)], dtype=complex)
        overlap = np.vdot(psi, rho @ psi).real
        assert abs(overlap - 1.0) <= SELF_TOL

    def test_norm_above_one_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            density_from_bloch([1.0, 1.0, 0.0])

    def test_complex_input_rejected(self):
        # an ndarray would otherwise lose its imaginary part with a warning;
        # strings and bools are not real numbers either
        not_real = (
            np.array([0.3 + 0.5j, 0.0, 0.0]),
            [0.3 + 0.5j, 0.0, 0.0],
            ["0.1", "0", "0"],
            [True, False, False],
        )
        for m in not_real:
            with pytest.raises(ValueError, match="real"):
                density_from_bloch(m)

    @pytest.mark.parametrize(
        "m",
        [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0], [[0.0], [0.0], [0.0]], [1e200, 0.0, 0.0]],
        ids=["nan", "inf", "shape-2", "shape-3x1", "squared-norm-overflows"],
    )
    def test_non_finite_or_misshapen_input_rejected(self, m):
        with pytest.raises(ValueError):
            density_from_bloch(m)

    def test_norm_gates_print_math_hypot(self):
        # Both norm gates take math.hypot, which squares nothing: seeded norms
        # from 1e-160 to 1e307, the entries 1.3e154 on an axis and [1e200, 0]
        # print its value in their messages, and a finite complex entry whose
        # modulus overflows reads inf.  None warns.
        rng = np.random.default_rng(20261026)
        exponents = [rng.uniform(-160, 150, 2000), rng.uniform(149.5, 150.5, 1000),
                     rng.uniform(150.5, math.log10(1.3e154), 1000), rng.uniform(math.log10(1.35e154), 307, 1000)]
        norms = 10.0 ** np.concatenate(exponents)
        reals = rng.normal(size=(len(norms), 3))
        kets = rng.normal(size=(len(norms), 2)) + 1j * rng.normal(size=(len(norms), 2))
        reals *= (norms / np.linalg.norm(reals, axis=1))[:, None]
        kets *= (norms / np.linalg.norm(kets, axis=1))[:, None]
        reals = np.vstack([reals, [[1.3e154, 0, 0], [0, 0, -1.3e154]]])
        kets = np.vstack([kets, [[1.3e154j, 0], [0, 1.3e154], [1e200, 0], [1.3e308 + 1.3e308j, 0]]])
        mixed = IDENTITY_2 / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in reals:
                norm = math.hypot(*m)
                if norm > 1.0 + 1e-9:
                    message = f"Bloch vector norm {norm} exceeds 1"
                    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                        density_from_bloch(m)
                else:
                    density_from_bloch(m)
            for ket in kets:
                norm = math.hypot(*ket.real, *ket.imag)
                message = f"psi has norm {norm}, expected 1"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    fidelity(ket, mixed)
            assert message == "psi has norm inf, expected 1"

    def test_south_pole_reads_back(self):
        rho = np.outer(KET_1, KET_1.conj())
        assert np.abs(bloch_from_density(rho) - np.array([0, 0, -1.0])).max() <= SELF_TOL

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            bloch_from_density(bad)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            bloch_from_density(np.eye(2, dtype=complex))

    def test_hermitian_check_reads_the_imaginary_bits_of_the_diagonal(self):
        # trace exactly 1, off-diagonal clean: only the diagonal is not real
        bad = np.diag([0.5 + 1e-6j, 0.5 - 1e-6j])
        with pytest.raises(ValueError, match="Hermitian"):
            bloch_from_density(bad)

    def test_density_bits_match_the_pauli_sum(self):
        # Every entry to the last bit; only the sign of a zero may differ
        # (m = (-0, 0, 0) gives an off-diagonal -0 where the sum gives +0).
        rng = np.random.default_rng(20261024)
        directions = rng.normal(size=(2000, 3))
        radii = rng.uniform(0.0, 1.0, size=(2000, 1)) ** (1 / 3)
        poles = np.concatenate([np.eye(3), -np.eye(3)])
        for m in np.concatenate([directions / np.linalg.norm(directions, axis=1)[:, None] * radii, poles]):
            pauli_sum = 0.5 * (IDENTITY_2 + m[0] * SIGMA_X + m[1] * SIGMA_Y + m[2] * SIGMA_Z)
            assert np.array_equal(density_from_bloch(m), pauli_sum), m

    def test_bloch_vectors_bits_match_the_stacked_components(self):
        rng = np.random.default_rng(20261025)
        rho = rng.normal(size=(50, 7, 2, 2)) + 1j * rng.normal(size=(50, 7, 2, 2))
        stacked = np.stack(
            [
                (rho[..., 0, 1] + rho[..., 1, 0]).real,
                (rho[..., 1, 0] - rho[..., 0, 1]).imag,
                (rho[..., 0, 0] - rho[..., 1, 1]).real,
            ],
            axis=-1,
        )
        assert bloch_vectors(rho).tobytes() == stacked.tobytes()

    def test_bloch_components_bits_match_bloch_vectors(self):
        # Seeded density operators with complex off-diagonals, each entry off
        # its Hermitian, trace-one value by up to 1e-10, so x and y read both
        # off-diagonals and z both diagonals.  The Python-complex read-out
        # and bloch_from_density equal the batch kernel to the last bit.
        rng = np.random.default_rng(20261027)
        directions = rng.normal(size=(20_000, 3))
        radii = rng.uniform(0.0, 1.0, size=(20_000, 1)) ** (1 / 3)
        m = directions / np.linalg.norm(directions, axis=1)[:, None] * radii
        rho = 0.5 * (IDENTITY_2 + np.einsum("nk,kij->nij", m, np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])))
        rho += 1e-10 * (rng.uniform(-1, 1, size=rho.shape) + 1j * rng.uniform(-1, 1, size=rho.shape))
        expected = bloch_vectors(rho)
        for rows, bloch in zip(rho.tolist(), expected):
            assert np.array(_bloch_components(rows)).tobytes() == bloch.tobytes(), rows
            assert bloch_from_density(np.array(rows)).tobytes() == bloch.tobytes(), rows

    @given(
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        ).filter(lambda m: m[0] ** 2 + m[1] ** 2 + m[2] ** 2 <= 1.0)
    )
    @settings(max_examples=100)
    def test_round_trip_on_unit_ball(self, m):
        recovered = bloch_from_density(density_from_bloch(np.array(m)))
        assert np.abs(recovered - np.array(m)).max() <= SELF_TOL

    @given(
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        ).filter(lambda m: m[0] ** 2 + m[1] ** 2 + m[2] ** 2 <= 1.0)
    )
    @settings(max_examples=100)
    def test_output_is_valid_density(self, m):
        rho = density_from_bloch(np.array(m))
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        low, high = np.linalg.eigvalsh(rho)
        assert low >= -1e-12
        assert high <= 1.0 + 1e-12
