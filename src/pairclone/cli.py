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
from .cloner import UnitarityError
from .ensemble import check_angle
from .optimizer import DEFAULT_GRID_DENSITY, check_grid_density, numeric_optimize, optimum
from .report import build_clone_report, format_clone_report

# Largest --steps of sweep and verify.  At the cap a whole command peaked at
# 40 MB resident for sweep (its rows are written block by block; 39.9-40.1 MB
# in three runs with the array writer, 40.1-40.4 MB with the per-row loop)
# and 51 MB for verify (each block of angles keeps only its worst angle per
# property), with Python 3.11, numpy 2.4.6.
MAX_STEPS = 1_000_000

# Sweep rows per array call and per write, which bounds its working memory.
_SWEEP_BLOCK = 4096

# Sweep blocks of at least this many rows are written by _csv_text, smaller
# ones by the per-row % loop, which costs less below it: at 7 columns both
# took 58 us for 32 rows, the loop 41 us against 86 us for 16 and the
# kernel 67 us against 113 us for 64 (timeit, best of 7).
_CSV_TEXT_ROWS = 32

# Values per array pass of _csv_text.  Its float64 temporaries then stay at
# 64 KiB, under glibc's 128 KiB mmap threshold, and are reused from the heap
# instead of being mapped and faulted in afresh: a 4096-row block took 410
# minor page faults instead of 966, and 25% less time.
_CSV_CHUNK = 8192

# [number [*]] pi [/ number]: a '*' needs the number before it
_PI_LITERAL = re.compile(
    r"^\s*(?:([0-9]+\.?[0-9]*|\.[0-9]+)\s*\*?\s*)?pi\s*(?:/\s*([0-9]+\.?[0-9]*))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Parse a radian value, accepting ``pi``-fraction literals.

    Examples: ``0.7853``, ``pi/4``, ``3pi/8``, ``0.5*pi``.
    """
    match = _PI_LITERAL.match(text)
    if match:
        coef = float(match.group(1)) if match.group(1) else 1.0
        denom = float(match.group(2)) if match.group(2) else 1.0
        if denom == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        return coef * math.pi / denom
    return float(text)


def _angle_argument(text: str) -> float:
    try:
        return check_angle(parse_angle(text))
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


def _check_steps(args, parser) -> None:
    if not 2 <= args.steps <= MAX_STEPS:
        parser.error(f"--steps must be between 2 and {MAX_STEPS}, got {args.steps}")


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
        default=DEFAULT_GRID_DENSITY,
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

    return parser


@functools.cache
def _csv_tables() -> tuple:
    """(digit words, prefix words, powers of ten) of :func:`_csv_text`, built
    on first use.

    Digit word g + 10000 is the four ASCII digits of g and word g the same
    with its trailing zeros replaced by NUL.  Prefix word i holds what comes
    before the twelve digits at exponent e = i - 4, right-aligned in 8 bytes
    (e = 0 gets its leading digit and point later); power i is 10^(15 - i).
    """
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chars = (digits + 48).astype(np.uint8)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    stripped = np.where(trailing, 0, chars).astype(np.uint8)
    words = np.concatenate([stripped, chars]).view(np.uint32).ravel()
    prefixes = np.frombuffer(
        b"\0\0\0" b"0.000" b"\0\0\0\0" b"0.00" b"\0\0\0\0\0" b"0.0" b"\0\0\0\0\0\0" b"0."
        b"\0\0\0\0\0\0\0\0" b"\0\0\0\0\0\0" b"10",
        np.uint64,
    )
    return words, prefixes, np.array([1e15, 1e14, 1e13, 1e12, 1e11, 1e10])


def _split(v):
    """Dekker's split of ``v`` into two halves of at most 26 bits each."""
    t = v * 134217729.0  # 2^27 + 1
    high = t - (t - v)
    return high, v - high


def _round_scaled(x, p):
    """x * p rounded to the nearest integer, ties to even, exactly.

    p is a power of ten up to 10^15, an exact double.  n = rint(hi) of the
    rounded product hi is right unless hi - n is +-0.5: hi and n are
    multiples of ulp(hi), so otherwise |hi - n| <= 0.5 - ulp(hi), and the
    product's rounding error is at most ulp(hi) / 2.  At +-0.5 Dekker's
    exact product hi + lo says by the sign of lo which way it rounds; lo = 0
    is a true tie, which rint breaks to even, as ``%`` does.
    """
    hi = x * p
    n = np.rint(hi)
    d = hi - n
    tie = np.flatnonzero(np.abs(d) == 0.5)
    if tie.size:
        xh, xl = _split(x[tie])
        ph, pl = _split(p[tie])
        lo = ((xh * ph - hi[tie]) + xh * pl + xl * ph) + xl * pl
        n[tie] += np.sign(lo) * (np.sign(lo) == np.sign(d[tie]))
    return n


def _csv_words(x, out) -> np.ndarray:
    """Write each value of ``x`` with 1e-4 <= x < 10 as ``"%.12g" % x`` into
    the first five words of its row of ``out``, NUL-padded; returns the mask
    of those values, the rows of the others are left undefined.

    At exponent e, "%.12g" prints n = x * 10^(11 - e) rounded to an integer
    of twelve digits, with trailing zeros stripped.
    """
    words, prefixes, powers = _csv_tables()
    fixed = (x >= 1e-4) & (x < 10.0)
    x = np.where(fixed, x, 1.0)
    index = (x >= 1e-3).astype(np.intp)  # e + 4
    index += x >= 1e-2
    index += x >= 1e-1
    index += x >= 1.0
    n = _round_scaled(x, powers[index])
    off = np.flatnonzero((n < 1e11) | (n >= 1e12))  # rounding carried into the next exponent
    if off.size:
        index[off] += np.where(n[off] >= 1e12, 1, -1)
        n[off] = _round_scaled(x[off], powers[index[off]])
    lead = np.floor(n / 1e11)
    units = index >= 4  # e = 0 prints "d.", and e = 1 only "10"
    frac = np.where(units, (n - lead * 1e11) * 10, n)  # the twelve digits after the prefix
    high = np.floor(frac / 1e4)
    g2 = frac - high * 1e4
    g0 = np.floor(high / 1e4)
    g1 = high - g0 * 1e4
    out.view(np.uint64)[:, 0] = prefixes[index]
    # a group is printed plain if a later group is nonzero, else stripped
    out[:, 4] = words[g2.astype(np.intp)]
    g2 = g2 != 0
    g1 += 1e4 * g2
    out[:, 3] = words[g1.astype(np.intp)]
    g0 += 1e4 * ((g1 != 0) | g2)
    out[:, 2] = words[g0.astype(np.intp)]
    byte = out.view(np.uint8)
    np.copyto(byte[:, 6], lead + 48, casting="unsafe", where=units)
    np.copyto(byte[:, 7], 46, where=units & (frac != 0))  # "." unless the digits are all zero
    return fixed


def _csv_text(values: np.ndarray) -> str:
    """The CSV rows of a row-major (rows, cols) float block, each value
    written as ``"%.12g" % value``, byte for byte.

    Each value takes 24 bytes, six uint32 words: two prefix words, three
    digit words and a separator word, padded with NUL, which one
    ``translate`` removes.  Values outside [1e-4, 10) take their 20 bytes
    from ``%`` itself.
    """
    rows, cols = values.shape
    out = np.empty((rows, cols, 6), np.uint32)
    out[:, :, 5] = np.frombuffer(b",\0\0\0" * (cols - 1) + b"\n\0\0\0", np.uint32)
    flat = out.reshape(-1, 6)
    x = values.ravel()
    for start in range(0, x.size, _CSV_CHUNK):
        fixed = _csv_words(x[start:start + _CSV_CHUNK], flat[start:start + _CSV_CHUNK])
        if not fixed.all():
            other = np.flatnonzero(~fixed) + start
            text = np.array(["%.12g" % value for value in x[other].tolist()], dtype="S20")
            flat[other, :5] = text.view(np.uint32).reshape(-1, 5)
    return out.tobytes().translate(None, b"\0").decode("ascii")


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
        columns = [block, *optimum(block)]
        if args.with_oracle:
            columns.append(numeric_optimize(block, grid_density=args.oracle_grid).best_fidelity)
        if len(block) >= _CSV_TEXT_ROWS:
            handle.write(_csv_text(np.column_stack(columns)))
        else:
            columns = [column.tolist() for column in columns]
            handle.write("".join([row % values for values in zip(*columns)]))


def _cmd_sweep(args, parser) -> int:
    if not args.phi_min < args.phi_max:
        parser.error("required: phi-min < phi-max")
    _check_steps(args, parser)
    if args.with_oracle:
        try:
            check_grid_density(args.oracle_grid, "--oracle-grid")
        except ValueError as exc:
            parser.error(str(exc))

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
    try:
        report = build_clone_report(args.phi, args.coeffs)
    except UnitarityError as exc:
        print(f"error: coefficient override rejected: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: invalid coefficients: {exc}", file=sys.stderr)
        return 1
    print(format_clone_report(report))
    return 0


def _cmd_verify(args, parser) -> int:
    _check_steps(args, parser)
    results = run_checks(grid=args.steps)
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
