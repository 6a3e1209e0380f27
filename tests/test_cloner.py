import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairclone.cloner import (
    AncillaAssignment,
    ClonerCoefficients,
    UnitarityError,
    apply_cloner,
    build_isometry,
    clone_batch,
    copy_state,
    fidelity,
    fidelity_closed_form,
    fidelity_general,
    shrinking_factors,
)
from pairclone.ensemble import family, make_ensemble
from pairclone.linalg import KET_0, KET_1, bloch_from_density, density_from_bloch, tensor
from pairclone.optimizer import optimal_coefficients

TOL = 1e-12

CLASSICAL = ClonerCoefficients(a=1.0, b=0.0, c=0.0)


class _Float(float):
    """A float subclass, a real number like any float."""


def coeffs_from_surface_angles(t, u):
    """Exact point on the constraint surface a^2 + 2b^2 + c^2 = 1."""
    return ClonerCoefficients(
        a=math.sin(t) * math.cos(u),
        b=math.cos(t) / math.sqrt(2),
        c=math.sin(t) * math.sin(u),
    )


def simulate_copy_fidelity(coeffs, phi, label):
    ens = make_ensemble(phi)
    psi = ens.state(label)
    rho = apply_cloner(build_isometry(coeffs), psi)
    return fidelity(psi, copy_state(rho, 1))


class TestCoefficients:
    def test_constraint_enforced(self):
        with pytest.raises(UnitarityError):
            ClonerCoefficients(a=1.0, b=1.0, c=1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ClonerCoefficients(a=-1.0, b=0.0, c=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bad",
        [None, 1 + 0j, "0.5", True, np.complex128(0.3 + 1j), pytest.param(10**400, id="10**400"), np.bool_(True)],
    )
    def test_non_number_rejected(self, bad):
        with pytest.raises(ValueError, match="coefficient a must be a real number, got "):
            ClonerCoefficients(a=bad, b=0.0, c=0.0)

    def test_boundary_triples_accepted(self):
        ClonerCoefficients(a=1.0, b=0.0, c=0.0)
        ClonerCoefficients(a=0.0, b=0.0, c=1.0)
        ClonerCoefficients(a=0.0, b=math.sqrt(0.5), c=0.0)
        # NumPy scalars and 0-d arrays are real numbers, stored as floats
        numpy_kinds = ClonerCoefficients(a=np.float32(0.5), b=np.array(0.5), c=0.5)
        assert numpy_kinds == ClonerCoefficients(0.5, 0.5, 0.5)
        assert tuple(map(type, ClonerCoefficients(np.int64(1), 0, 0))) == (float, float, float)
        float_kinds = ClonerCoefficients(a=np.float64(0.5), b=_Float(0.5), c=np.array(0.5, dtype=np.float32))
        assert float_kinds == ClonerCoefficients(0.5, 0.5, 0.5)
        assert tuple(map(type, float_kinds)) == (float, float, float)

    def test_defect_reported(self):
        cc = ClonerCoefficients(a=0.5, b=0.5, c=0.5)
        assert abs(cc.constraint_defect) <= TOL


class TestIsometry:
    def test_classical_copier_columns(self):
        v = build_isometry(CLASSICAL)
        ket000 = tensor(tensor(KET_0, KET_0), KET_0)
        ket111 = tensor(tensor(KET_1, KET_1), KET_1)
        assert np.abs(v[:, 0] - ket000).max() <= TOL
        assert np.abs(v[:, 1] - ket111).max() <= TOL

    def test_columns_orthonormal_at_optimum(self):
        v = build_isometry(optimal_coefficients(math.pi / 4))
        gram = v.conj().T @ v
        assert np.abs(gram - np.eye(2)).max() <= TOL

    def test_copy_exchange_symmetry(self):
        # swapping the two copy subsystems permutes indices (i0,i1,i2) ->
        # (i1,i0,i2); both columns must be invariant
        v = build_isometry(optimal_coefficients(0.9))
        perm = [0, 1, 4, 5, 2, 3, 6, 7]
        assert np.abs(v[perm, :] - v).max() <= TOL

    def test_bad_ancilla_rejected(self):
        # all six ancilla kets equal makes the two columns overlap
        same = AncillaAssignment(
            anc_a0=KET_0, anc_b0=KET_0, anc_c0=KET_0,
            anc_a1=KET_0, anc_b1=KET_0, anc_c1=KET_0,
        )
        with pytest.raises(UnitarityError, match="orthonormal"):
            build_isometry(optimal_coefficients(0.7), same)

    def test_ancilla_norm_validated(self):
        # 1e200: the squared norm overflows, yet the gate still names the norm;
        # 1.3e308 + 1.3e308j: finite, with a modulus beyond the largest float
        for anc_a0 in ([2.0, 0.0], [1e200, 0.0], [1.3e308 + 1.3e308j, 0.0]):
            with pytest.raises(ValueError, match="norm"):
                AncillaAssignment(
                    anc_a0=np.array(anc_a0), anc_b0=KET_1, anc_c0=KET_0,
                    anc_a1=KET_1, anc_b1=KET_0, anc_c1=KET_1,
                )


class TestApplyAndReduce:
    def test_classical_copier_on_ket0(self):
        rho = apply_cloner(build_isometry(CLASSICAL), KET_0)
        ket000 = tensor(tensor(KET_0, KET_0), KET_0)
        assert np.abs(rho - np.outer(ket000, ket000.conj())).max() <= TOL

    def test_output_trace_one(self):
        v = build_isometry(optimal_coefficients(1.1))
        psi = np.array([0.6, 0.8], dtype=complex)
        rho = apply_cloner(v, psi)
        assert abs(np.trace(rho) - 1.0) <= TOL

    def test_non_unit_input_rejected(self):
        v = build_isometry(CLASSICAL)
        # 1e200: the squared norm overflows; 1.3e308 + 1.3e308j: so does the modulus
        for psi in ([1.0, 1.0], [1e200, 0.0], [1.3e308 + 1.3e308j, 0.0]):
            with pytest.raises(ValueError, match="norm"):
                apply_cloner(v, np.array(psi))

    def test_copies_share_reduced_state(self):
        v = build_isometry(optimal_coefficients(math.pi / 3))
        psi = make_ensemble(math.pi / 3).state(1)
        rho = apply_cloner(v, psi)
        assert np.abs(copy_state(rho, 1) - copy_state(rho, 2)).max() <= TOL

    def test_product_input_reduces_to_factor(self):
        rho_a = density_from_bloch([0.2, 0.1, -0.3])
        rho_b = density_from_bloch([0.0, 0.0, 0.5])
        rho_c = density_from_bloch([-0.4, 0.2, 0.0])
        joint = tensor(tensor(rho_a, rho_b), rho_c)
        assert np.abs(copy_state(joint, 1) - rho_a).max() <= TOL
        assert np.abs(copy_state(joint, 2) - rho_b).max() <= TOL

    def test_copy_bloch_vector_at_quarter_pi(self):
        # optimal cloner shrinks (sin, 0, cos) to (1/2, 0, 1/2) at pi/4
        v = build_isometry(optimal_coefficients(math.pi / 4))
        psi = make_ensemble(math.pi / 4).state(1)
        reduced = copy_state(apply_cloner(v, psi), 1)
        assert np.abs(bloch_from_density(reduced) - np.array([0.5, 0.0, 0.5])).max() <= TOL

    def test_invalid_copy_index(self):
        v = build_isometry(CLASSICAL)
        rho = apply_cloner(v, KET_0)
        with pytest.raises(ValueError, match="which_copy"):
            copy_state(rho, 3)
        with pytest.raises(ValueError, match="which_copy"):
            copy_state(rho, 1.0)
        with pytest.raises(ValueError, match="which_copy"):
            copy_state(rho, True)  # not copy 1
        assert np.array_equal(copy_state(rho, np.int64(2)), copy_state(rho, 2))

    def test_non_density_output_rejected(self):
        with pytest.raises(ValueError):
            copy_state(np.eye(4, dtype=complex) / 4, 1)
        with pytest.raises(ValueError, match="trace"):
            copy_state(np.eye(8, dtype=complex) / 4, 1)  # trace 2


class TestFidelity:
    def test_perfect_match(self):
        psi = np.array([0.6, 0.8j], dtype=complex)
        assert abs(fidelity(psi, np.outer(psi, psi.conj())) - 1.0) <= TOL

    def test_maximally_mixed(self):
        assert abs(fidelity(KET_0, np.eye(2) / 2) - 0.5) <= TOL

    def test_imaginary_residue_rejected(self):
        crooked = np.array([[0.5, 0.3j], [0.3j, 0.5]])
        psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity(psi, crooked)
        # <0|rho|0> = 1 is real, so only the Hermitian check catches this one
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity(KET_0, [[1, 1j], [0, 0]])

    def test_simulated_value_at_quarter_pi(self):
        # frozen: (1 + 1/sqrt(2)) / 2 = 0.8535533905932738
        value = simulate_copy_fidelity(optimal_coefficients(math.pi / 4), math.pi / 4, 1)
        assert abs(value - 0.8535533905932738) <= TOL


class TestClosedForm:
    def test_classical_copier_endpoints(self):
        assert abs(fidelity_closed_form(CLASSICAL, 0.0) - 1.0) <= TOL
        assert abs(fidelity_closed_form(CLASSICAL, math.pi / 2) - 0.5) <= TOL

    def test_optimum_at_quarter_pi(self):
        value = fidelity_closed_form(optimal_coefficients(math.pi / 4), math.pi / 4)
        assert abs(value - 0.8535533905932738) <= TOL

    def test_angle_validated(self):
        with pytest.raises(ValueError):
            fidelity_closed_form(CLASSICAL, -0.5)


def overlap_sums(ancilla):
    """The overlap sums (re_ab, re_bc) of an ancilla assignment, as
    :func:`fidelity_general` defines them."""
    re_ab = np.vdot(ancilla.anc_a0, ancilla.anc_b1).real + np.vdot(ancilla.anc_b0, ancilla.anc_a1).real
    re_bc = np.vdot(ancilla.anc_b0, ancilla.anc_c1).real + np.vdot(ancilla.anc_c0, ancilla.anc_b1).real
    return float(re_ab), float(re_bc)


class TestGeneralFormula:
    def test_term_isolation_without_overlaps(self):
        cc = ClonerCoefficients(a=0.8, b=0.0, c=0.6)
        phi = 0.9
        al2 = math.cos(phi / 2) ** 2
        be2 = math.sin(phi / 2) ** 2
        expected = cc.a**2 * (al2**2 + be2**2) + 2 * cc.c**2 * al2 * be2
        value = fidelity_general(cc, phi, (0.0, 0.0))
        assert abs(value - expected) <= TOL

    def test_maximal_overlaps_match_simulation(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            cc = coeffs_from_surface_angles(*rng.uniform(0, math.pi / 2, 2))
            phi = float(rng.uniform(0, math.pi / 2))
            simulated = simulate_copy_fidelity(cc, phi, 1)
            assert abs(fidelity_general(cc, phi, (2.0, 2.0)) - simulated) <= TOL

    def test_default_ancilla_realises_maximal_overlaps(self):
        assert overlap_sums(AncillaAssignment.default()) == (2.0, 2.0)

    def test_formula_misses_kernel_outside_its_domain(self):
        # a valid isometry whose within-column overlaps the formula drops:
        # the formula gives 0.849, the kernel 0.905 and 0.794
        x, phi = 0.4, 0.7
        rotated = AncillaAssignment(
            anc_a0=KET_0, anc_b0=np.array([math.sin(x), math.cos(x)]), anc_c0=KET_0,
            anc_a1=KET_1, anc_b1=np.array([math.cos(x), -math.sin(x)]), anc_c1=KET_1,
        )
        cc = optimal_coefficients(phi)
        states, _ = family([phi])
        simulated = clone_batch(build_isometry(cc, rotated)[None], states).fidelities
        formula = fidelity_general(cc, phi, overlap_sums(rotated))
        assert np.abs(simulated - formula).min() > 0.05

    def test_formula_matches_kernel_on_its_domain(self):
        # the default assignment up to a common unitary and a phase per ket
        rng = np.random.default_rng(23)
        default = AncillaAssignment.default()
        names = ("anc_a0", "anc_b0", "anc_c0", "anc_a1", "anc_b1", "anc_c1")
        for _ in range(200):
            unitary, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=6))
            ancilla = AncillaAssignment(**{
                name: phase * (unitary @ getattr(default, name))
                for name, phase in zip(names, phases)
            })
            cc = coeffs_from_surface_angles(*rng.uniform(0, math.pi / 2, 2))
            phi = float(rng.uniform(0, math.pi / 2))
            states, _ = family([phi])
            simulated = clone_batch(build_isometry(cc, ancilla)[None], states).fidelities
            formula = fidelity_general(cc, phi, overlap_sums(ancilla))
            assert np.abs(simulated - formula).max() <= TOL

    def test_at_quarter_pi_with_optimal_coefficients(self):
        value = fidelity_general(optimal_coefficients(math.pi / 4), math.pi / 4, (2.0, 2.0))
        assert abs(value - 0.8535533905932738) <= TOL


class TestShrinkingFactors:
    def test_classical_copier(self):
        assert shrinking_factors(CLASSICAL) == (0.0, 1.0)

    def test_optimal_at_quarter_pi(self):
        eta_x, eta_z = shrinking_factors(optimal_coefficients(math.pi / 4))
        assert abs(eta_x - 1 / math.sqrt(2)) <= TOL
        assert abs(eta_z - 1 / math.sqrt(2)) <= TOL

    def test_channel_contracts_bloch_plane(self):
        # any xz-plane pure state comes out with Bloch (eta_x mx, 0, eta_z mz)
        rng = np.random.default_rng(23)
        for _ in range(100):
            cc = coeffs_from_surface_angles(*rng.uniform(0, math.pi / 2, 2))
            v = build_isometry(cc)
            eta_x, eta_z = shrinking_factors(cc)
            theta = float(rng.uniform(0, 2 * math.pi))
            psi = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
            out = bloch_from_density(copy_state(apply_cloner(v, psi), 1))
            expected = np.array(
                [eta_x * math.sin(theta), 0.0, eta_z * math.cos(theta)]
            )
            assert np.abs(out - expected).max() <= TOL


class TestEnsembleFidelities:
    def test_four_fidelities_equal(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            cc = coeffs_from_surface_angles(*rng.uniform(0, math.pi / 2, 2))
            phi = float(rng.uniform(0, math.pi / 2))
            values = [simulate_copy_fidelity(cc, phi, label) for label in (1, 2, 3, 4)]
            assert max(values) - min(values) <= TOL

    def test_beta_sign_swap_relates_states_1_and_2(self):
        # states 1 and 2 differ only by the sign of the second amplitude
        cc = optimal_coefficients(0.8)
        assert abs(
            simulate_copy_fidelity(cc, 0.8, 1) - simulate_copy_fidelity(cc, 0.8, 2)
        ) <= TOL

    @given(
        st.floats(0.0, math.pi / 2, allow_nan=False),
        st.floats(0.0, math.pi / 2, allow_nan=False),
        st.floats(0.0, math.pi / 2, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_simulation_equals_closed_form(self, t, u, phi):
        cc = coeffs_from_surface_angles(t, u)
        assert abs(
            simulate_copy_fidelity(cc, phi, 1) - fidelity_closed_form(cc, phi)
        ) <= TOL
