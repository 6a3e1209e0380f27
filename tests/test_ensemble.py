import math

import numpy as np
import pytest

from pairclone.ensemble import (
    PAIRS,
    bloch_defects,
    check_angle,
    family,
    make_ensemble,
    pair_overlaps,
)
from pairclone.linalg import SIGMA_X, bloch_from_density

TOL = 1e-12


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
    for good in [np.float32(0.5), np.int64(1), np.array(0.5)]:
        phi = check_angle(good)
        assert type(phi) is float and phi == float(good)
    with pytest.raises(ValueError):
        make_ensemble(-0.01)


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
        for i, j in ((1, 3), (2, 4)):
            assert abs(complex(np.vdot(ens.state(i), ens.state(j)))) <= TOL
        assert np.max(bloch_defects(np.array([ens.states]), np.array([ens.bloch]))) <= TOL


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
        assert np.max(pair_overlaps(np.array([ens.states]))) <= TOL


def test_batch_helpers_match_the_scalar_functions():
    phis = np.linspace(0, math.pi / 2, 37)
    states, bloch = family(phis)
    overlaps = pair_overlaps(states)
    defects = bloch_defects(states, bloch)
    assert overlaps.shape == (37, 2) and defects.shape == (37, 4, 3)
    assert np.max(overlaps) <= TOL
    for n, phi in enumerate(phis):
        ens = make_ensemble(float(phi))
        for (i, j), overlap in zip(PAIRS, overlaps[n]):
            assert abs(overlap - abs(np.vdot(ens.state(i), ens.state(j)))) <= 1e-16
        for label in (1, 2, 3, 4):
            psi = ens.state(label)
            recomputed = bloch_from_density(np.outer(psi, psi.conj()))
            expected = np.abs(recomputed - ens.bloch_vector(label))
            assert np.abs(defects[n, label - 1] - expected).max() <= 1e-16
    bloch[3, 1, 2] = math.nan
    assert math.isnan(np.max(bloch_defects(states, bloch)))


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
    got_states, got_bloch = family(phis)
    assert (got_states.shape, got_states.dtype) == (states.shape, states.dtype)
    assert (got_bloch.shape, got_bloch.dtype) == (bloch.shape, bloch.dtype)
    assert got_states.tobytes() == states.tobytes()
    assert got_bloch.tobytes() == bloch.tobytes()


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
