"""Acceptance suite: every release criterion, one test each.

Criteria 2-9 read the named results of one default ``pairclone verify``
run, captured as it passes through ``cli.run_checks``, and hold each
deviation at its pinned bound; criterion 10 reads that run's exit code and
output.  Criterion 1 and the pi/4 shrinking factors are direct single-point
assertions.  Each test prints a one-line verdict (visible with
``pytest -s``); the asserts carry the actual bounds.
"""

import io
import math
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from pairclone import build_clone_report, cli, optimal_shrinking
from pairclone.cli import main as cli_main


@pytest.fixture(scope="module")
def verify_run():
    """One ``cli.main(["verify"])`` call: its exit code, its stdout and
    every property's result by name."""
    results = []
    run_checks = cli.run_checks

    def recording_run_checks(*args, **kwargs):
        returned = run_checks(*args, **kwargs)
        results.extend(returned)
        return returned

    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(stdout):
        patch.setattr(cli, "run_checks", recording_run_checks)
        code = cli_main(["verify"])
    return SimpleNamespace(code=code, out=stdout.getvalue(), checks={r.name: r for r in results})


@pytest.fixture(scope="module")
def checks(verify_run):
    """Every verify property at the defaults, by name."""
    return verify_run.checks


def report(line):
    print(line)


def test_criterion_1_bb84_point():
    """Simulated fidelity at phi = pi/4 equals (1 + 1/sqrt(2))/2 for all
    four states, within 1e-12."""
    expected = (1 + 1 / math.sqrt(2)) / 2
    fids = build_clone_report(math.pi / 4).simulated_fidelities
    assert len(fids) == 4
    worst = max(abs(f - expected) for f in fids)
    assert worst <= 1e-12, f"worst deviation {worst:.3e}"
    report(f"[PASS] criterion 1: four simulated fidelities at pi/4 match "
           f"(1 + 1/sqrt(2))/2 to {worst:.2e} <= 1e-12")


def test_criterion_2_closed_form_equals_simulation(checks):
    """On a 1000-point grid the simulated fidelities of both copies match
    the closed-form optimum within 1e-12 and agree pairwise within 1e-12."""
    formula = checks["simulation matches optimal fidelity"].deviation
    pairwise = checks["four fidelities equal"].deviation
    assert formula <= 1e-12, f"formula mismatch {formula:.3e}"
    assert pairwise <= 1e-12, f"pairwise spread {pairwise:.3e}"
    report(f"[PASS] criterion 2: closed form vs simulation {formula:.2e}, "
           f"pairwise spread {pairwise:.2e}, both <= 1e-12")


def test_criterion_3_unitarity(checks):
    """Optimal coefficients satisfy the constraint and the isometry has
    orthonormal columns, both within 1e-12 across the 1000-point grid."""
    constraint = checks["optimal coefficient constraint"].deviation
    gram = checks["isometry columns orthonormal"].deviation
    assert constraint <= 1e-12, f"constraint defect {constraint:.3e}"
    assert gram <= 1e-12, f"isometry defect {gram:.3e}"
    report(f"[PASS] criterion 3: constraint defect {constraint:.2e}, "
           f"isometry defect {gram:.2e}, both <= 1e-12")


def test_criterion_4_oracle_optimality(checks):
    """The grid-search maximiser (grid 256) reproduces the optimal fidelity
    within 1e-8 and the optimal coefficients within 1e-4 on a 25-point
    grid."""
    gap_f = checks["oracle fidelity agreement"].deviation
    gap_c = checks["oracle coefficient agreement"].deviation
    assert gap_f <= 1e-8, f"fidelity gap {gap_f:.3e}"
    assert gap_c <= 1e-4, f"coefficient gap {gap_c:.3e}"
    report(f"[PASS] criterion 4: oracle fidelity gap {gap_f:.2e} <= 1e-8, "
           f"coefficient gap {gap_c:.2e} <= 1e-4")


def test_criterion_5_stationarity(checks):
    """All four stationarity residuals vanish (< 1e-10) at the closed-form
    solution on the 1000-point grid."""
    worst = checks["stationarity residuals"].deviation
    assert worst < 1e-10, f"residual {worst:.3e}"
    report(f"[PASS] criterion 5: stationarity residuals {worst:.2e} < 1e-10")


def test_criterion_6_shrinking_identities(checks):
    """Shrinking factors satisfy their identities, take the value 1/sqrt(2)
    at pi/4, and predict all three Bloch components of both copies of
    25 x 100 Haar-random complex states, all within 1e-12."""
    identities = checks["shrinking factor identities"].deviation
    reflection = checks["shrinking reflection symmetry"].deviation
    channel = checks["channel Bloch contraction map"].deviation
    point = max(abs(eta - 1 / math.sqrt(2)) for eta in optimal_shrinking(math.pi / 4))
    assert identities <= 1e-12, f"identity deviation {identities:.3e}"
    assert reflection <= 1e-12, f"reflection deviation {reflection:.3e}"
    assert point <= 1e-12, f"pi/4 value off by {point:.3e}"
    assert channel <= 1e-12, f"channel map deviation {channel:.3e}"
    report(f"[PASS] criterion 6: eta identities {max(identities, reflection, point):.2e}, "
           f"channel map {channel:.2e}, all <= 1e-12")


def test_criterion_7_worst_case_at_quarter_pi(checks):
    """The fidelity minimum over [0, pi/2] sits within one 1e-4 grid step
    of pi/4."""
    minimum = checks["fidelity minimum at pi/4"]
    assert minimum.tolerance <= 1e-4, f"grid step {minimum.tolerance:.3e}"
    assert minimum.deviation <= minimum.tolerance, f"argmin off by {minimum.deviation:.3e}"
    report(f"[PASS] criterion 7: fidelity minimum at {minimum.worst_at}, "
           f"|argmin - pi/4| = {minimum.deviation:.2e} <= step {minimum.tolerance:.2e}")


def test_criterion_8_perfect_cloning_limits(checks):
    """Fidelity is exactly 1 at both endpoints, and there each copy's fidelity
    is 1 and copy 1 reproduces each input density matrix entrywise, within 1e-12."""
    worst = checks["perfect cloning at the endpoints"].deviation
    assert worst <= 1e-12, f"endpoint deviation {worst:.3e}"
    report(f"[PASS] criterion 8: endpoint fidelity and exact copy deviation "
           f"{worst:.2e} <= 1e-12")


def test_criterion_9_general_formula_consistency(checks):
    """At maximal overlaps the general fidelity matches the closed form for
    1000 random feasible inputs; overlaps below maximum never increase the
    fidelity."""
    match = checks["general formula at maximal overlaps"].deviation
    gain = checks["overlaps below maximum never help"].deviation
    assert match <= 1e-12, f"formula mismatch {match:.3e}"
    assert gain == 0.0, f"sub-maximal overlaps gained {gain:.3e}"
    report(f"[PASS] criterion 9: general formula mismatch {match:.2e} <= 1e-12, "
           f"max gain from sub-maximal overlaps {gain:.2e} <= 0")


def test_criterion_10_cli_reproducibility(capsys, verify_run):
    """The sweep command reproduces the three special fidelities and the
    verify command exits 0 with default settings."""
    assert cli_main(["sweep", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    fidelities = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
    assert fidelities == ["1", "0.853553390593", "1"]

    assert verify_run.code == 0
    assert "[FAIL]" not in verify_run.out
    report("[PASS] criterion 10: sweep fidelity column {1, 0.853553390593, 1} "
           "and verify exit code 0")
