"""Optimal symmetric 1-to-2 cloning of two orthogonal qubit pairs.

The library builds the four-state input family parametrised by one angle,
assembles the symmetric cloning isometry, simulates it with exact dense
density-matrix arithmetic, and cross-checks every closed-form quantity
(optimal coefficients, fidelity, shrinking factors) against both the
simulation and an independent grid-search maximiser.
"""

from .checks import CheckResult, run_checks
from .cloner import (
    AncillaAssignment,
    ClonerCoefficients,
    OverlapSet,
    UnitarityError,
    apply_cloner,
    build_isometry,
    copy_state,
    fidelity,
    fidelity_closed_form,
    fidelity_general,
    shrinking_factors,
)
from .ensemble import FourStateEnsemble, make_ensemble
from .linalg import (
    bloch_from_density,
    density_from_bloch,
    partial_trace,
    tensor,
)
from .optimizer import (
    ConvergenceError,
    NumericSearchReport,
    lagrange_residual,
    numeric_optimize,
    optimal_coefficients,
    optimal_fidelity,
    optimal_shrinking,
    recover_multiplier,
)
from .report import CloneReport, build_clone_report, format_clone_report

__version__ = "0.1.0"

__all__ = [
    "AncillaAssignment",
    "CheckResult",
    "CloneReport",
    "ClonerCoefficients",
    "ConvergenceError",
    "FourStateEnsemble",
    "NumericSearchReport",
    "OverlapSet",
    "UnitarityError",
    "apply_cloner",
    "bloch_from_density",
    "build_clone_report",
    "build_isometry",
    "copy_state",
    "density_from_bloch",
    "fidelity",
    "fidelity_closed_form",
    "fidelity_general",
    "format_clone_report",
    "lagrange_residual",
    "make_ensemble",
    "numeric_optimize",
    "optimal_coefficients",
    "optimal_fidelity",
    "optimal_shrinking",
    "partial_trace",
    "recover_multiplier",
    "run_checks",
    "shrinking_factors",
    "tensor",
]
