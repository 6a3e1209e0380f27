import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairclone.linalg import (
    IDENTITY_2,
    KET_0,
    KET_1,
    SIGMA_X,
    SIGMA_Z,
    bloch_from_density,
    density_from_bloch,
    partial_trace,
    tensor,
)

SELF_TOL = 1e-12


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
