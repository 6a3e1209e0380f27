import math

import numpy as np
import pytest

from pairclone.ensemble import PAIRS, check_angle, family, make_ensemble
from pairclone.linalg import bloch_from_density

TOL = 1e-12
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


class _Float(float):
    """A float subclass, a real number like any float."""


@pytest.mark.filterwarnings("error")  # a bad angle raises at once, it never warns
def test_angle_bounds():
    assert check_angle(0.0) == 0.0
    assert check_angle(math.pi / 2) == math.pi / 2
    with pytest.raises(ValueError):
        check_angle(-0.01)
    with pytest.raises(ValueError):
        check_angle(math.pi / 2 + 0.01)
    with pytest.raises(ValueError):
        check_angle(math.nan)
    with pytest.raises(ValueError, match="angle must be a real number, got NoneType"):
        check_angle(None)
    # no parsing from text, no bool as 1, no dropped imaginary part, no OverflowError
    for bad in ["0.5", True, np.complex128(0.3 + 1j), 10**400]:
        with pytest.raises(ValueError, match="angle must be a real number, got "):
            check_angle(bad)
    with pytest.raises(ValueError, match="^angle must be a real number, got bool$"):
        check_angle(np.bool_(False))
    # float instances (np.float64, a subclass) skip the 0-d array probe, other kinds take it
    for good in [np.float32(0.5), np.int64(1), np.array(0.5), np.float64(0.5), _Float(0.5),
                 np.array(0.25, dtype=np.float32)]:
        phi = check_angle(good)
        assert type(phi) is float and phi == float(good)
    with pytest.raises(ValueError):
        make_ensemble(-0.01)


@pytest.mark.parametrize("zero", [-0.0, np.float64(-0.0), np.array(-0.0)], ids=["float", "float64", "0-d"])
def test_signed_zero_angle_is_positive_zero(zero):
    # as ClonerCoefficients does for a coefficient: -0.0 gives +0.0
    assert math.copysign(1.0, check_angle(zero)) == 1.0
    ensemble = make_ensemble(zero)
    assert math.copysign(1.0, ensemble.phi) == 1.0
    expected = make_ensemble(0.0)
    for got, want in zip(ensemble.bloch + ensemble.states, expected.bloch + expected.states):
        assert got.tobytes() == want.tobytes()


def test_phi_zero_pairs_collapse():
    ens = make_ensemble(0.0)
    assert ens.degenerate
    assert np.abs(ens.state(1) - np.array([1, 0])).max() <= TOL
    assert np.abs(ens.state(2) - np.array([1, 0])).max() <= TOL
    # states 3 and 4 are |1> up to a sign
    for label in (3, 4):
        assert abs(abs(ens.state(label)[1]) - 1.0) <= TOL
        assert abs(ens.state(label)[0]) <= TOL
    assert np.abs(ens.bloch_vector(1) - np.array([0, 0, 1.0])).max() <= TOL
    assert np.abs(ens.bloch_vector(3) - np.array([0, 0, -1.0])).max() <= TOL


def test_phi_half_pi_equatorial():
    ens = make_ensemble(math.pi / 2)
    assert ens.degenerate
    assert np.abs(ens.state(1) - np.array([1, 1]) / math.sqrt(2)).max() <= TOL
    assert np.abs(ens.bloch_vector(1) - np.array([1.0, 0, 0])).max() <= TOL
    assert np.abs(ens.bloch_vector(2) - np.array([-1.0, 0, 0])).max() <= TOL


def test_overlap_within_pair_of_labels_1_and_2():
    # <psi1|psi2> = alpha^2 - beta^2 = cos(phi); at phi = pi/4 this is 1/sqrt(2)
    ens = make_ensemble(math.pi / 4)
    overlap = complex(np.vdot(ens.state(1), ens.state(2)))
    assert abs(overlap - math.cos(math.pi / 4)) <= TOL
    assert abs(abs(complex(np.vdot(ens.state(1), ens.state(4)))) - 1 / math.sqrt(2)) <= TOL


def test_grid_invariants():
    for phi in np.linspace(0, math.pi / 2, 1000):
        ens = make_ensemble(float(phi))
        s, c = math.sin(phi), math.cos(phi)
        expected = [(s, c), (-s, c), (-s, -c), (s, -c)]
        for label in (1, 2, 3, 4):
            psi = ens.state(label)
            assert abs(np.linalg.norm(psi) - 1.0) <= TOL
            mx, my, mz = ens.bloch_vector(label)
            assert my == 0.0
            ex, ez = expected[label - 1]
            assert abs(mx - ex) <= TOL and abs(mz - ez) <= TOL
            assert np.abs(bloch_from_density(np.outer(psi, psi.conj())) - ens.bloch_vector(label)).max() <= TOL
        for i, j in ((1, 3), (2, 4)):
            assert abs(complex(np.vdot(ens.state(i), ens.state(j)))) <= TOL


def test_relabel_symmetry():
    # swapping the basis kets maps state i to state 5-i up to a global sign
    for phi in np.linspace(0, math.pi / 2, 50):
        ens = make_ensemble(float(phi))
        for label in (1, 2, 3, 4):
            flipped = SIGMA_X @ ens.state(label)
            partner = ens.state(5 - label)
            assert abs(abs(complex(np.vdot(flipped, partner))) - 1.0) <= TOL


def test_orthogonal_pairs():
    # the pairing is {1, 3} and {2, 4} at every angle, endpoints included
    assert PAIRS == ((1, 3), (2, 4))
    for phi, degenerate in ((0.6, False), (0.0, True)):
        ens = make_ensemble(phi)
        assert ens.phi == phi
        assert ens.degenerate is degenerate
        for i, j in PAIRS:
            assert abs(complex(np.vdot(ens.state(i), ens.state(j)))) <= TOL


def test_family_is_the_docstring_tables_byte_for_byte():
    rng = np.random.default_rng(5)
    phis = np.concatenate([[0.0, math.pi / 4, math.pi / 2], rng.uniform(0, math.pi / 2, 200)])
    al, be = np.cos(phis / 2), np.sin(phis / 2)
    s, c = np.sin(phis), np.cos(phis)
    states = np.empty((len(phis), 4, 2), dtype=complex)
    bloch = np.zeros((len(phis), 4, 3))
    table = [((al, be), (s, c)), ((al, -be), (-s, c)), ((be, -al), (-s, -c)), ((be, al), (s, -c))]
    for k, ((up, down), (x, z)) in enumerate(table):  # psi_k+1 and m_k+1
        states[:, k, 0], states[:, k, 1] = up, down
        bloch[:, k, 0], bloch[:, k, 2] = x, z
    # the (N,) array of the verify grid, and the one-angle list of build_clone_report
    cases = [(phis, slice(None))] + [([float(phi)], slice(k, k + 1)) for k, phi in enumerate(phis[:5])]
    for angles, rows in cases:
        got_states, got_bloch = family(angles)
        assert (got_states.shape, got_states.dtype) == (states[rows].shape, states.dtype)
        assert (got_bloch.shape, got_bloch.dtype) == (bloch[rows].shape, bloch.dtype)
        assert got_states.flags.c_contiguous and got_bloch.flags.c_contiguous
        assert got_states.tobytes() == states[rows].tobytes()
        assert got_bloch.tobytes() == bloch[rows].tobytes()


def test_states_are_read_only():
    ens = make_ensemble(0.5)
    with pytest.raises(ValueError):
        ens.state(1)[0] = 9.0


def test_bad_label_rejected():
    ens = make_ensemble(0.5)
    with pytest.raises(ValueError):
        ens.state(0)
    with pytest.raises(ValueError):
        ens.bloch_vector(5)
    for bad in [True, 1.0]:  # neither read as label 1
        with pytest.raises(ValueError, match="state label"):
            ens.state(bad)
        with pytest.raises(ValueError, match="state label"):
            ens.bloch_vector(bad)
    assert ens.state(np.int64(2)) is ens.state(2)
