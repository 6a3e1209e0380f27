import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kron_reference import DEFAULT_ANCILLA, kron_isometry, overlap_sums, rotated_ancilla

from pairclone.cloner import (
    ClonerCoefficients,
    UnitarityError,
    apply_cloner,
    build_isometry,
    clone_batch,
    constraint_defect,
    copy_state,
    fidelity,
    fidelity_closed_form,
    fidelity_general,
    isometry_batch,
    shrinking_factors,
)
from pairclone.ensemble import family, make_ensemble
from pairclone.linalg import KET_0, KET_1, bloch_from_density, density_from_bloch, tensor
from pairclone.optimizer import lagrange_residual, optimal_coefficients, recover_multiplier
from pairclone.report import build_clone_report

TOL = 1e-12

CLASSICAL = ClonerCoefficients(a=1.0, b=0.0, c=0.0)


class _Float(float):
    """A float subclass, a real number like any float."""


def _got(bad, count):
    """What the count gate names for ``bad``: the type of a value that is not
    a tuple, the length of a tuple of another count, else the type of the
    tuple's first entry that is not a float."""
    if not isinstance(bad, tuple):
        return type(bad).__name__
    if len(bad) != count:
        return f"{len(bad)} values"
    return next(type(entry).__name__ for entry in bad if not isinstance(entry, float))


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

    @pytest.mark.parametrize(
        "build",
        [
            build_isometry,
            lambda coeffs: build_clone_report(0.3, coeffs),
            lambda coeffs: fidelity_closed_form(coeffs, 0.3),
            lambda coeffs: fidelity_general(coeffs, 0.3, (2.0, 2.0)),
            shrinking_factors,
            lambda coeffs: lagrange_residual(coeffs, 0.3, 0.3),
            lambda coeffs: recover_multiplier(coeffs, 0.3),
        ],
        ids=["build_isometry", "build_clone_report", "fidelity_closed_form", "fidelity_general",
             "shrinking_factors", "lagrange_residual", "recover_multiplier"],
    )
    @pytest.mark.parametrize(
        "bad",
        [(0.6, 0.4), (0.6, 0.4, 0.1, 0.0), 0.5, np.array(0.5),
         # the right count of entries, but not real numbers or real (N,) arrays
         ("a", "b", "c"), "abc", (None, 0.5, 0.5), (0.6, True, 0.1), (0.6, 0.4, 0.1 + 0j),
         (np.array([[0.6]]), 0.4, 0.1), (np.array(["0.6"]), 0.4, 0.1), (0.6, 0.4, 10**400)],
        ids=repr,
    )
    def test_coefficients_must_be_three_numbers(self, build, bad):
        message = f"coefficients must be three numbers a, b, c, got {_got(bad, 3)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(bad)

    def test_real_entries_of_every_kind_accepted(self):
        # ints, NumPy scalars and 0-d arrays are real numbers; (N,) arrays of any real kind pass too
        exact = fidelity_closed_form((1.0, 0.0, 0.0), 0.3)
        assert fidelity_closed_form((1, np.float32(0.0), np.array(0.0)), 0.3) == exact
        batch = fidelity_closed_form((np.ones(2, dtype=int), np.zeros(2, dtype=np.float32), np.zeros(2)), np.full(2, 0.3))
        assert batch.tolist() == [exact, exact]
        general = fidelity_general((1, 0, 0), 0.3, (np.int64(2), np.array(2.0)))
        assert general == fidelity_general((1.0, 0.0, 0.0), 0.3, (2.0, 2.0))

    @pytest.mark.parametrize(
        "bad",
        [(2.0,), (2.0, 2.0, 2.0), 2.0, ("x", "y"), "xy", (2.0, True), (np.full((1, 1), 2.0), 2.0)],
        ids=repr,
    )
    def test_overlaps_must_be_two_numbers(self, bad):
        message = f"overlaps must be two numbers re_ab, re_bc, got {_got(bad, 2)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fidelity_general(CLASSICAL, 0.3, bad)

    def test_gram_bits_on_surface_draws(self):
        # The columns have the disjoint supports {0, 3, 5, 6} and {1, 2, 4, 7},
        # so the off-diagonal Gram entries are exactly 0 and each diagonal entry
        # is a^2 + 2b^2 + c^2 up to roundoff: the 1e-9 constraint of
        # ClonerCoefficients is the only unitarity gate build_isometry needs.
        t, u = np.random.default_rng(25).uniform(0, math.pi / 2, size=(2, 20000))
        a, b, c = np.sin(t) * np.cos(u), np.cos(t) / math.sqrt(2), np.sin(t) * np.sin(u)
        coeffs = np.vstack([np.column_stack([a, b, c]), tuple(CLASSICAL)])
        isometries = isometry_batch(coeffs)
        gram = isometries.conj().transpose(0, 2, 1) @ isometries
        assert np.all(gram[:, 0, 1] == 0) and np.all(gram[:, 1, 0] == 0)
        expected = 1.0 + constraint_defect(*coeffs.T)
        diagonal = gram[:, [0, 1], [0, 1]]
        assert np.all(np.abs(diagonal - expected[:, None]) <= 4 * np.spacing(expected)[:, None])
        with pytest.raises(UnitarityError, match="deviates from 1"):
            build_isometry((1.0, 1.0, 1.0))


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
        assert overlap_sums(DEFAULT_ANCILLA) == (2.0, 2.0)

    def test_formula_misses_kernel_outside_its_domain(self):
        # a valid isometry whose within-column overlaps the formula drops:
        # the formula gives 0.849, the kernel 0.905 and 0.794
        x, phi = 0.4, 0.7
        rotated = (
            KET_0, np.array([math.sin(x), math.cos(x)]), KET_0,
            KET_1, np.array([math.cos(x), -math.sin(x)]), KET_1,
        )
        cc = optimal_coefficients(phi)
        states, _ = family([phi])
        simulated = clone_batch(kron_isometry(cc, rotated)[None], states).fidelities
        formula = fidelity_general(cc, phi, overlap_sums(rotated))
        assert np.abs(simulated - formula).min() > 0.05

    def test_formula_matches_kernel_on_its_domain(self):
        # the default assignment up to a common unitary and a phase per ket
        rng = np.random.default_rng(23)
        for _ in range(200):
            unitary, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            ancilla = rotated_ancilla(unitary, np.exp(1j * rng.uniform(0, 2 * math.pi, size=6)))
            cc = coeffs_from_surface_angles(*rng.uniform(0, math.pi / 2, 2))
            phi = float(rng.uniform(0, math.pi / 2))
            states, _ = family([phi])
            simulated = clone_batch(kron_isometry(cc, ancilla)[None], states).fidelities
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
