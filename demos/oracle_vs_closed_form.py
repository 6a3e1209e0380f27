"""Pit the derivative-free grid search against the closed-form optimum.

The search knows nothing about the analytic solution: it parametrises the
constraint surface a^2 + 2b^2 + c^2 = 1 with two angles and refines a grid
until improvements dry up.  Agreement with the closed form at every angle
is therefore an independent confirmation of the optimisation.  One call
runs the search at all nine angles.

Run:  python demos/oracle_vs_closed_form.py
"""

import math

import numpy as np

from pairclone import numeric_optimize, optimal_coefficients, optimal_fidelity

phis = np.linspace(0.0, math.pi / 2, 9)
search = numeric_optimize(phis, grid_density=128)
exact = optimal_fidelity(phis)
gaps = np.abs(search.best_fidelity - exact)
closed = np.array([tuple(optimal_coefficients(phi)) for phi in phis.tolist()])
coeff_gaps = np.abs(np.column_stack(search.best_coeffs) - closed)

print(f"{'phi':>9} {'closed form':>14} {'grid search':>14} {'|gap|':>10} {'rounds':>7} {'last gain':>10}")
print("-" * 69)
columns = phis, exact, search.best_fidelity, gaps, search.rounds, search.achieved_tolerance
for phi, f_exact, f_search, gap, rounds, gain in zip(*columns):
    print(f"{phi:9.6f} {f_exact:14.12f} {f_search:14.12f} {gap:10.2e} {rounds:7d} {gain:10.1e}")
print("-" * 69)
print(f"worst fidelity gap:    {gaps.max():.3e}")
print(f"worst coefficient gap: {coeff_gaps.max():.3e}")
print(f"evaluations, all nine searches: {search.evaluations}")
print()
print("'last gain' is each search's largest improvement over its last three rounds.")
quarter = 4  # phis[4] = pi/4
print(f"best coefficients at pi/4: a = {search.best_coeffs[0][quarter]:.9f}, "
      f"b = {search.best_coeffs[1][quarter]:.9f}, c = {search.best_coeffs[2][quarter]:.9f}")
