"""Pit the derivative-free grid search against the closed-form optimum.

The search knows nothing about the analytic solution: it parametrises the
constraint surface a^2 + 2b^2 + c^2 = 1 with two angles and refines a grid
until improvements dry up.  Agreement with the closed form at every angle
is therefore an independent confirmation of the optimisation.

Run:  python demos/oracle_vs_closed_form.py
"""

import math

import numpy as np

from pairclone import numeric_optimize, optimal_coefficients, optimal_fidelity

print(f"{'phi':>9} {'closed form':>14} {'grid search':>14} {'|gap|':>10} {'evals':>8}")
print("-" * 60)
worst_gap = 0.0
worst_coeff_gap = 0.0
for phi in np.linspace(0.0, math.pi / 2, 9):
    phi = float(phi)
    exact = optimal_fidelity(phi)
    search = numeric_optimize(phi, grid_density=128)
    gap = abs(search.best_fidelity - exact)
    worst_gap = max(worst_gap, gap)
    closed = optimal_coefficients(phi)
    worst_coeff_gap = max(
        worst_coeff_gap,
        abs(search.best_coeffs.a - closed.a),
        abs(search.best_coeffs.b - closed.b),
        abs(search.best_coeffs.c - closed.c),
    )
    print(f"{phi:9.6f} {exact:14.12f} {search.best_fidelity:14.12f} "
          f"{gap:10.2e} {search.evaluations:8d}")

print("-" * 60)
print(f"worst fidelity gap:    {worst_gap:.3e}")
print(f"worst coefficient gap: {worst_coeff_gap:.3e}")
print()
print("The search also reports its own convergence data:")
report = numeric_optimize(math.pi / 4, grid_density=128)
print(f"  at pi/4: {report.evaluations} evaluations, "
      f"largest improvement of the last three rounds {report.achieved_tolerance:.1e}")
print(f"  best coefficients: a = {report.best_coeffs.a:.9f}, "
      f"b = {report.best_coeffs.b:.9f}, c = {report.best_coeffs.c:.9f}")
