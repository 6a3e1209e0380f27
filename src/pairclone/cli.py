"""Command-line front end: sweep, clone, verify.

Angles are given in radians; fraction literals like ``pi/4`` or ``3pi/8``
are accepted anywhere an angle is expected.  Exit codes: 0 success,
1 verification or constraint failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from .checks import run_checks
from .cloner import ClonerCoefficients, UnitarityError
from .ensemble import PHI_MAX, PHI_MIN
from .optimizer import check_grid_density, numeric_optimize, optimum
from .report import build_clone_report, format_clone_report

# Largest --steps of sweep and verify.  At the cap a whole command peaked at
# 40 MB resident for sweep (its rows are written block by block) and 51 MB
# for verify (each block of angles keeps only its worst angle per property),
# with Python 3.11, numpy 2.4.6.
MAX_STEPS = 1_000_000

# Sweep rows per array call and per write, which bounds its working memory.
_SWEEP_BLOCK = 4096

_PI_LITERAL = re.compile(
    r"^\s*([0-9]*\.?[0-9]*)\s*\*?\s*pi\s*(?:/\s*([0-9]+\.?[0-9]*))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Parse a radian value, accepting ``pi``-fraction literals.

    Examples: ``0.7853``, ``pi/4``, ``3pi/8``, ``0.5*pi``.  A signed zero
    such as ``-0.0`` gives ``+0.0``, so it reports exactly as ``0`` does.
    """
    match = _PI_LITERAL.match(text)
    if match:
        coef = float(match.group(1)) if match.group(1) else 1.0
        denom = float(match.group(2)) if match.group(2) else 1.0
        if denom == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        return coef * math.pi / denom
    value = float(text)
    return 0.0 if value == 0 else value


def _angle_argument(text: str) -> float:
    try:
        return parse_angle(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _coeffs_argument(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated values: a,b,c")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return a, b, c


def _tolerance_argument(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _check_steps(args, parser) -> None:
    if not 2 <= args.steps <= MAX_STEPS:
        parser.error(f"--steps must be between 2 and {MAX_STEPS}, got {args.steps}")


def _check_oracle_grid(args, parser) -> None:
    try:
        check_grid_density(args.oracle_grid, "--oracle-grid")
    except ValueError as exc:
        parser.error(str(exc))


def _fmt(value: float) -> str:
    return f"{value:.12g}"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    Reuse is safe: ``parse_args`` returns a new namespace on every call, the
    type converters keep no state, and the range checks read their bounds
    when they run.  It is built on first use, not at import, so importing
    the package stays as cheap as before.
    """
    parser = argparse.ArgumentParser(
        prog="pairclone",
        description="Optimal 1-to-2 cloning of two orthogonal qubit pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="tabulate optimum vs angle as CSV")
    sweep.add_argument("--phi-min", type=_angle_argument, default=0.0)
    sweep.add_argument("--phi-max", type=_angle_argument, default=math.pi / 2)
    sweep.add_argument("--steps", type=int, default=50)
    sweep.add_argument("--out", default="-", help="output path (default: stdout)")
    sweep.add_argument(
        "--with-oracle",
        action="store_true",
        help="append a grid-search fidelity column as an independent check",
    )
    sweep.add_argument(
        "--oracle-grid",
        type=int,
        default=256,
        help="grid density of the first refinement round, used with --with-oracle",
    )

    clone = sub.add_parser("clone", help="inspect one angle in detail")
    clone.add_argument("phi", type=_angle_argument)
    clone.add_argument(
        "--coeffs",
        type=_coeffs_argument,
        default=None,
        metavar="a,b,c",
        help="override the closed-form optimal coefficients",
    )

    verify = sub.add_parser("verify", help="run every library invariant")
    verify.add_argument("--steps", type=int, default=1000, help="phi grid size")
    verify.add_argument(
        "--tolerance",
        type=_tolerance_argument,
        default=1e-10,
        help="bound for closed-form identities; the oracle gets 100x this",
    )
    verify.add_argument(
        "--oracle-grid", type=int, default=256, help="grid density of the first refinement round"
    )

    return parser


def _write_sweep(args, handle) -> None:
    """Write the sweep CSV to ``handle``, one block of rows at a time."""
    header = "phi,fidelity_opt,eta_x,eta_z,a,b,c"
    if args.with_oracle:
        header += ",numeric_fidelity"
    handle.write(header + "\n")
    row = ",".join(["%.12g"] * (header.count(",") + 1)) + "\n"
    phis = np.linspace(args.phi_min, args.phi_max, args.steps)
    for start in range(0, len(phis), _SWEEP_BLOCK):
        block = phis[start:start + _SWEEP_BLOCK]
        columns = [column.tolist() for column in (block, *optimum(block))]
        if args.with_oracle:
            columns.append([
                numeric_optimize(phi, grid_density=args.oracle_grid).best_fidelity
                for phi in columns[0]
            ])
        handle.write("".join([row % values for values in zip(*columns)]))


def _cmd_sweep(args, parser) -> int:
    if not (PHI_MIN <= args.phi_min < args.phi_max <= PHI_MAX):
        parser.error("required: 0 <= phi-min < phi-max <= pi/2")
    _check_steps(args, parser)
    if args.with_oracle:
        _check_oracle_grid(args, parser)

    if args.out == "-":
        _write_sweep(args, sys.stdout)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            _write_sweep(args, handle)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {args.steps} rows to {args.out} "
        f"(phi from {_fmt(args.phi_min)} to {_fmt(args.phi_max)})"
    )
    return 0


def _cmd_clone(args, parser) -> int:
    if not PHI_MIN <= args.phi <= PHI_MAX:
        parser.error("phi must lie in [0, pi/2]")
    coeffs = None
    if args.coeffs is not None:
        a, b, c = args.coeffs
        try:
            coeffs = ClonerCoefficients(a=a, b=b, c=c)
        except UnitarityError as exc:
            print(f"error: coefficient override rejected: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: invalid coefficients: {exc}", file=sys.stderr)
            return 1
    report = build_clone_report(args.phi, coeffs)
    print(format_clone_report(report))
    return 0


def _cmd_verify(args, parser) -> int:
    _check_steps(args, parser)
    _check_oracle_grid(args, parser)
    results = run_checks(
        grid=args.steps,
        tolerance=args.tolerance,
        oracle_grid=args.oracle_grid,
    )
    failures = 0
    for result in results:
        print(result.line())
        if not result.passed:
            failures += 1
    total = len(results)
    print(f"{total - failures} of {total} properties passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"sweep": _cmd_sweep, "clone": _cmd_clone, "verify": _cmd_verify}[args.command]
    try:
        code = command(args, parser)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # The reader closed stdout early, as ``head`` does.  Point stdout
        # at devnull so the interpreter's final flush prints nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
