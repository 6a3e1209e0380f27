"""Correctness checks on each workload's CLI output, independent of pairclone.

Nothing here imports pairclone: every expected value is recomputed from
the paper's closed forms with numpy, and every tolerance is pinned here
rather than read back from the program.  Each checker returns how many of
the call's items failed, so a checker failure feeds ``failed_frac``.
"""

from __future__ import annotations

import io
import math
import re

import numpy as np

# Fixed acceptance bounds (ROADMAP aim 3); never loosened to make a change pass.
IDENTITY_TOL = 1e-10
ORACLE_FIDELITY_TOL = 1e-8
ORACLE_COEFF_TOL = 1e-4
# Two .12g renderings of the same number differ by at most one unit in the
# 12th digit; for values in [0, 1] that is 1e-12.
PRINTED_TOL = 1.5e-12
RECOMPUTE_TOL = 1e-11

_IDENTITIES = (
    "ensemble unit norms",
    "ensemble pair orthogonality",
    "ensemble y components vanish",
    "ensemble Bloch pattern",
    "ensemble relabel symmetry",
    "optimal coefficient constraint",
    "isometry columns orthonormal",
    "four fidelities equal",
    "simulation matches optimal fidelity",
    "optimal fidelity consistency chain",
    "shrinking factor identities",
    "shrinking reflection symmetry",
    "stationarity residuals",
    "copy 1 equals copy 2",
    "channel Bloch contraction map",
    "general formula at maximal overlaps",
    "overlaps below maximum never help",
    "partial trace of product states",
    "Bloch round trip",
    "perfect cloning at the endpoints",
)
VERIFY_TOLERANCES = {
    **{name: IDENTITY_TOL for name in _IDENTITIES},
    # The minimum is located on a 15709-point grid over [0, pi/2].
    "fidelity minimum at pi/4": (math.pi / 2) / 15708,
    "oracle fidelity agreement": ORACLE_FIDELITY_TOL,
    "oracle coefficient agreement": ORACLE_COEFF_TOL,
}

_PROPERTY_LINE = re.compile(
    r"^\[(PASS|FAIL)\] (.+): max deviation (\S+) \(tolerance (\S+), worst at .*\)$"
)


def _finite_float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_verify(call, rc, out: str, err: str) -> int:
    """One verify run: every pinned property is printed once, with a
    finite deviation within its pinned tolerance, and the printed
    tolerance is not looser than the pinned one."""
    if rc != 0:
        return 1
    seen = {}
    lines = out.splitlines()
    for line in lines[:-1]:
        match = _PROPERTY_LINE.match(line)
        if match is None or match.group(2) in seen:
            return 1
        seen[match.group(2)] = match
    if set(seen) != set(VERIFY_TOLERANCES):
        return 1
    for name, match in seen.items():
        pinned = VERIFY_TOLERANCES[name]
        deviation = _finite_float(match.group(3))
        printed = _finite_float(match.group(4))
        if match.group(1) != "PASS" or deviation is None or printed is None:
            return 1
        # The tolerance is printed to two digits, so allow its rounding.
        if deviation > pinned or printed > pinned * 1.05:
            return 1
    total = len(VERIFY_TOLERANCES)
    return 0 if lines[-1] == f"{total} of {total} properties passed" else 1


def closed_form_optimum(phi):
    """Columns (fidelity, eta_x, eta_z, a, b, c) of the optimal cloner."""
    sin2, cos2 = np.sin(phi) ** 2, np.cos(phi) ** 2
    root = np.sqrt(sin2 * sin2 + cos2 * cos2)
    k = 1.0 / root
    return (
        0.5 * (1.0 + root),
        sin2 * k,
        cos2 * k,
        0.5 * (1.0 + cos2 * k),
        0.5 * sin2 * k,
        0.5 * (1.0 - cos2 * k),
    )


def _close(printed, expected, tol=RECOMPUTE_TOL) -> bool:
    return abs(printed - expected) <= tol * max(1.0, abs(expected))


def _labelled(line: str, key: str) -> float | None:
    match = re.search(rf"{key}=(\S+)", line)
    return _finite_float(match.group(1)) if match else None


def check_clone(call, rc, out: str, err: str) -> int:
    """One clone report.  Off-surface coefficients must exit 1 with a
    message; otherwise the four simulated fidelities must equal the
    closed-form line, simulated and formula shrinking factors must agree,
    and both must match the closed forms recomputed here."""
    if call.reject:
        rejected = rc == 1 and not out and err.startswith("error: coefficient override rejected")
        return 0 if rejected else 1
    if rc != 0:
        return 1
    lines = out.splitlines()
    try:
        phi = _finite_float(lines[0].split("=")[1].split()[0])
        coeff_line = lines[1]
        fidelities = [_finite_float(line.split(":")[1]) for line in lines[9:13]]
        formula_f = _finite_float(lines[13].split(":")[1])
        best_f = _finite_float(lines[14].split(":")[1])
        eta_lines = lines[15:17]
    except IndexError:
        return 1
    if not (
        lines[8] == "simulated copy fidelities:"
        and lines[13].startswith("closed-form fidelity:")
        and lines[15].startswith("shrinking factors (formula):")
        and lines[16].startswith("shrinking factors (simulated):")
    ):
        return 1
    coeffs = tuple(_labelled(coeff_line, key) for key in ("a", "b", "c"))
    etas = [_labelled(line, key) for line in eta_lines for key in ("eta_x", "eta_z")]
    values = [phi, formula_f, best_f, *coeffs, *fidelities, *etas]
    if any(v is None for v in values):
        return 1

    optimum = closed_form_optimum(call.phi)
    if call.coeffs is None:
        expected_coeffs, source = optimum[3:], "closed-form optimum"
    else:
        expected_coeffs, source = call.coeffs, "user override"
    a, b, c = expected_coeffs
    sin2, cos2 = math.sin(call.phi) ** 2, math.cos(call.phi) ** 2
    expected_f = 0.5 + 0.5 * (a * a - c * c) * cos2 + b * (a + c) * sin2
    expected_eta = (2 * b * (a + c), a * a - c * c)
    ok = (
        f"({source})" in coeff_line
        and _close(phi, call.phi)
        and all(_close(p, e) for p, e in zip(coeffs, expected_coeffs))
        and all(abs(f - formula_f) <= PRINTED_TOL for f in fidelities)
        and _close(formula_f, expected_f)
        and _close(best_f, float(optimum[0]))
        and formula_f <= best_f + PRINTED_TOL
        and abs(etas[0] - etas[2]) <= PRINTED_TOL
        and abs(etas[1] - etas[3]) <= PRINTED_TOL
        and _close(etas[0], expected_eta[0])
        and _close(etas[1], expected_eta[1])
    )
    return 0 if ok else 1


def _sweep_range(argv) -> tuple[float, float, int]:
    args = dict(zip(argv[1::2], argv[2::2]))
    return float(args["--phi-min"]), float(args["--phi-max"]), int(args["--steps"])


def check_csv(call, rc, out: str, err: str) -> int:
    """A sweep CSV: every row is recomputed from the closed forms, and an
    oracle column, when present, must lie within 1e-8 of fidelity_opt.
    Returns the number of bad rows; all rows fail if the table is
    malformed or the call did not succeed."""
    oracle = "--with-oracle" in call.argv
    header = "phi,fidelity_opt,eta_x,eta_z,a,b,c" + (",numeric_fidelity" if oracle else "")
    if rc != 0 or not out.startswith(header + "\n"):
        return call.items
    try:
        table = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        return call.items
    lo, hi, steps = _sweep_range(call.argv)
    if table.shape != (steps, header.count(",") + 1):
        return call.items
    phi = np.linspace(lo, hi, steps)
    expected = np.column_stack((phi, *closed_form_optimum(phi)))
    # Relative for large values; the absolute floor covers c near zero,
    # where recomputing 1 - K cos^2 phi in another order loses digits.
    bad = ~(np.abs(table[:, :7] - expected) <= RECOMPUTE_TOL * np.abs(expected) + 1e-15).all(axis=1)
    if oracle:
        bad |= ~(np.abs(table[:, 7] - table[:, 1]) <= ORACLE_FIDELITY_TOL)
    return int(bad.sum())


CHECKERS = {
    "verify": check_verify,
    "clone": check_clone,
    "oracle": check_csv,
    "sweep": check_csv,
}
