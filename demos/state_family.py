"""Tour of the four-state input family.

One angle phi in [0, pi/2] fixes four pure qubit states: two orthogonal
pairs whose Bloch vectors fan out symmetrically around the z axis in the
x-z plane.  This script prints the family at a few angles, including the
degenerate endpoints where the pairs collapse.

Run:  python demos/state_family.py
"""

import math

import numpy as np

from pairclone import make_ensemble
from pairclone.ensemble import PAIRS

np.set_printoptions(precision=6, suppress=True)


def show(phi, title):
    print("=" * 64)
    print(f"{title}   (phi = {phi:.6f} rad)")
    print("=" * 64)
    ens = make_ensemble(phi)
    alpha, beta = ens.state(1).real  # state 1 is (alpha, beta)
    print(f"alpha = cos(phi/2) = {alpha:.6f}")
    print(f"beta  = sin(phi/2) = {beta:.6f}")
    print()
    for label in (1, 2, 3, 4):
        psi = ens.state(label)
        m = ens.bloch_vector(label)
        print(f"  state {label}:  amplitudes ({psi[0].real:+.6f}, {psi[1].real:+.6f})"
              f"   Bloch ({m[0]:+.6f}, {m[1]:+.6f}, {m[2]:+.6f})")
    print()
    overlaps = [abs(complex(np.vdot(ens.state(i), ens.state(j)))) for i, j in PAIRS]
    print(f"  orthogonal pairs: {PAIRS[0]} and {PAIRS[1]}"
          f"  (|overlaps| {overlaps[0]:.1e}, {overlaps[1]:.1e})")
    if ens.degenerate:
        print("  note: degenerate endpoint, distinct labels describe the same state")
    overlap_12 = complex(np.vdot(ens.state(1), ens.state(2))).real
    print(f"  overlap <state1|state2> = {overlap_12:+.6f}  (equals cos(phi))")
    print()


show(0.0, "endpoint: both pairs collapse onto the poles")
show(math.pi / 8, "generic angle")
show(math.pi / 4, "maximally spread pairs (the four-state key-distribution set)")
show(math.pi / 2, "endpoint: both pairs collapse onto the equator axis")

print("Across the whole range the two pairs stay orthogonal while the")
print("angle between the pairs changes, which is exactly the knob the")
print("cloning optimisation responds to.")
