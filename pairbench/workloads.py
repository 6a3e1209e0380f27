"""Seeded inputs for the four benchmark workloads.

Each workload is a fixed list of ``pairclone`` command lines, one pass.
The seed decides the angles, sub-ranges and coefficients; it never
changes how much work a pass holds, so two seeds give passes of the same
size and the run-to-run spread measures the program, not the inputs.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify", "clone", "oracle", "sweep")
DEFAULT_SEED = 1

# Clone calls per pass by kind: closed-form optimum, on-surface --coeffs,
# off-surface --coeffs (rejected with exit code 1).  Exactly one in ten
# is rejected, so every seed does the same work.
CLONE_KINDS = {"optimum": 140, "coeffs": 40, "off": 20}
ORACLE_ROWS = 40  # oracle solves per pass, split over short sweep --with-oracle calls
ORACLE_ROWS_PER_CALL = 4
ORACLE_GRID = 256
SWEEP_ROWS = 50_000

# SHA-256 of the sweep CSV at DEFAULT_SEED.  Every later commit must
# reproduce it byte for byte; the sweep workload checks it on every run.
SWEEP_SHA256 = "cc2d523d6a5cf8865798ecfa75ad1c5607a5949de7d795fd9cdfc6df40f7ef55"

# Angle texts with exact values: the endpoints and pi-fraction literals.
PI_LITERALS = {
    "0": 0.0,
    "pi/8": math.pi / 8,
    "pi/6": math.pi / 6,
    "pi/4": math.pi / 4,
    "3pi/8": 3 * math.pi / 8,
    "pi/2": math.pi / 2,
}

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the checker needs to judge it.

    ``items`` is how many workload items the call completes: one verify
    run, one clone report, or one CSV row.
    """

    argv: tuple
    items: int = 1
    phi: float | None = None
    coeffs: tuple | None = None
    reject: bool = False


def load_pairclone(root: Path):
    """Import ``pairclone`` and its CLI from ``root/src`` and from nowhere else."""
    package = (root / "src" / "pairclone").resolve()
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no pairclone sources under {root / 'src'}")
    sys.path.insert(0, str(package.parent))
    import pairclone
    import pairclone.cli

    if Path(pairclone.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported pairclone from {pairclone.__file__}, not {package}")
    return pairclone


def generate(workload: str, seed: int) -> list[Call]:
    """The calls of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return [Call(("verify",))]
    if workload == "clone":
        return _clone_calls(rng)
    if workload == "oracle":
        return _oracle_calls(rng)
    if workload == "sweep":
        return [_sweep_call(rng)]
    raise ValueError(f"unknown workload {workload!r}")


def _surface_point(rng: random.Random) -> tuple:
    # The same two-angle chart the oracle searches: a^2 + 2b^2 + c^2 = 1.
    t, u = rng.uniform(0.0, _HALF_PI), rng.uniform(0.0, _HALF_PI)
    return (math.sin(t) * math.cos(u), math.cos(t) / math.sqrt(2), math.sin(t) * math.sin(u))


def _clone_calls(rng: random.Random) -> list[Call]:
    kinds = [kind for kind, count in CLONE_KINDS.items() for _ in range(count)]
    rng.shuffle(kinds)
    calls = []
    for kind in kinds:
        if kind == "optimum" and rng.random() < 0.1:
            text = rng.choice(sorted(PI_LITERALS))
            phi = PI_LITERALS[text]
        else:
            phi = rng.uniform(0.0, _HALF_PI)
            text = repr(phi)
        if kind == "optimum":
            calls.append(Call(("clone", text), phi=phi))
            continue
        coeffs = _surface_point(rng)
        if kind == "off":
            scale = 1.0 + rng.uniform(0.01, 0.5)
            coeffs = tuple(scale * x for x in coeffs)
        argv = ("clone", text, "--coeffs", ",".join(repr(x) for x in coeffs))
        calls.append(Call(argv, phi=phi, coeffs=coeffs, reject=kind == "off"))
    return calls


def _oracle_calls(rng: random.Random) -> list[Call]:
    # The oracle's cost per angle varies (6 or 7 refinement rounds, mixed
    # irregularly over [0, pi/2]).  Wide sub-ranges with a fixed number of
    # rows make every call sample that mix alike, so per-item latency does
    # not depend on the seed.
    calls = []
    for _ in range(ORACLE_ROWS // ORACLE_ROWS_PER_CALL):
        width = rng.uniform(0.3, 0.6)
        lo = rng.uniform(0.0, _HALF_PI - width)
        hi = min(lo + width, _HALF_PI)
        argv = (
            "sweep", "--phi-min", repr(lo), "--phi-max", repr(hi),
            "--steps", str(ORACLE_ROWS_PER_CALL), "--with-oracle", "--oracle-grid", str(ORACLE_GRID),
        )
        calls.append(Call(argv, items=ORACLE_ROWS_PER_CALL))
    return calls


def _sweep_call(rng: random.Random) -> Call:
    lo = rng.uniform(0.0, math.pi / 4)
    hi = min(rng.uniform(lo + math.pi / 8, _HALF_PI), _HALF_PI)
    argv = ("sweep", "--phi-min", repr(lo), "--phi-max", repr(hi), "--steps", str(SWEEP_ROWS))
    return Call(argv, items=SWEEP_ROWS)
