"""Per-angle diagnostic bundle combining simulation and closed forms.

Everything redundant is computed twice on purpose: fidelities come from
simulating the cloning isometry and from the closed formula, and the
shrinking factors come from the coefficient expressions and from pushing
probe states through the simulated channel.  A report whose paired values
disagree is the fastest way to spot a convention bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloner import (
    ClonerCoefficients,
    build_isometry,
    clone_batch,
    fidelity_closed_form,
    shrinking_factors,
)
from .ensemble import check_angle, family
from .linalg import KET_0, bloch_vectors
from .optimizer import lagrange_residual, optimum, recover_multiplier

# Channel contraction is measured on probe states: |+> reads off the x
# factor, |0> the z factor.
_KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
_PROBES = np.stack([_KET_PLUS, KET_0])


@dataclass(frozen=True)
class CloneReport:
    phi: float
    coeffs: ClonerCoefficients
    used_closed_form_optimum: bool
    input_bloch: tuple
    simulated_fidelities: tuple
    formula_fidelity: float
    best_possible_fidelity: float
    formula_eta: tuple
    simulated_eta: tuple
    residuals: tuple
    multiplier: float | None


def build_clone_report(
    phi: float, coeffs: ClonerCoefficients | None = None
) -> CloneReport:
    """Clone all four ensemble states at ``phi`` and collect every figure
    of merit, formula and simulation side by side.

    With ``coeffs`` omitted the closed-form optimal coefficients are used.
    """
    phi = check_angle(phi)
    used_optimum = coeffs is None
    best_fidelity, _, _, *best = optimum(phi)
    if coeffs is None:
        coeffs = ClonerCoefficients(*best)

    states, bloch = family([phi])
    bloch.setflags(write=False)
    inputs = np.concatenate([states, _PROBES[None]], axis=1)  # (1, 6, 2)
    copies = clone_batch(build_isometry(coeffs)[None], inputs)
    fidelities = copies.fidelities[0, :4]
    x_probe, z_probe = bloch_vectors(copies.copy1[0, 4:])
    simulated_eta = (float(x_probe[0]), float(z_probe[2]))

    multiplier = recover_multiplier(coeffs, phi)
    if multiplier is None:
        residuals = (math.nan, math.nan, math.nan, coeffs.constraint_defect)
    else:
        residuals = lagrange_residual(coeffs, multiplier, phi)

    return CloneReport(
        phi=phi,
        coeffs=coeffs,
        used_closed_form_optimum=used_optimum,
        input_bloch=tuple(bloch[0]),
        simulated_fidelities=tuple(float(f) for f in fidelities),
        formula_fidelity=fidelity_closed_form(coeffs, phi),
        best_possible_fidelity=best_fidelity,
        formula_eta=shrinking_factors(coeffs),
        simulated_eta=simulated_eta,
        residuals=tuple(residuals),
        multiplier=multiplier,
    )


def format_clone_report(report: CloneReport) -> str:
    """Render a report as the human-readable block printed by the CLI."""
    lines = []
    lines.append(f"angle phi = {report.phi:.12g} rad")
    source = "closed-form optimum" if report.used_closed_form_optimum else "user override"
    a, b, c = report.coeffs
    lines.append(f"coefficients ({source}): a={a:.12g}  b={b:.12g}  c={c:.12g}")
    lines.append(f"constraint defect a^2+2b^2+c^2-1 = {report.coeffs.constraint_defect:.3e}")
    lines.append("input Bloch vectors:")
    for label, m in enumerate(report.input_bloch, start=1):
        lines.append(f"  state {label}: ({m[0]: .12g}, {m[1]: .12g}, {m[2]: .12g})")
    lines.append("simulated copy fidelities:")
    for label, f in enumerate(report.simulated_fidelities, start=1):
        lines.append(f"  state {label}: {f:.12g}")
    lines.append(f"closed-form fidelity:      {report.formula_fidelity:.12g}")
    lines.append(f"best possible at this phi: {report.best_possible_fidelity:.12g}")
    ex_f, ez_f = report.formula_eta
    ex_s, ez_s = report.simulated_eta
    lines.append(f"shrinking factors (formula):   eta_x={ex_f:.12g}  eta_z={ez_f:.12g}")
    lines.append(f"shrinking factors (simulated): eta_x={ex_s:.12g}  eta_z={ez_s:.12g}")
    if report.multiplier is None:
        lines.append("stationarity residuals: skipped (a = c = 0, no multiplier)")
    else:
        r1, r2, r3, r4 = report.residuals
        lines.append(f"stationarity multiplier: {report.multiplier:.12g}")
        lines.append(
            "stationarity residuals: "
            f"{r1:.3e}  {r2:.3e}  {r3:.3e}  {r4:.3e}"
        )
    return "\n".join(lines)
