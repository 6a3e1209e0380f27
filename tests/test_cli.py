import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from pairclone import cli, optimizer
from pairclone.cli import MAX_STEPS, main, parse_angle
from pairclone.optimizer import (
    MAX_GRID_DENSITY,
    numeric_optimize,
    optimal_coefficients,
    optimal_fidelity,
    optimal_shrinking,
)


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of one call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.5", 0.5),
            ("pi", math.pi),
            ("pi/4", math.pi / 4),
            ("3pi/8", 3 * math.pi / 8),
            ("PI/2", math.pi / 2),
            ("0.5*pi", math.pi / 2),
        ],
    )
    def test_accepted(self, text, expected):
        assert abs(parse_angle(text) - expected) <= 1e-15

    def test_rejected(self):
        with pytest.raises(ValueError):
            parse_angle("pi/0")
        with pytest.raises(ValueError):
            parse_angle("two pi")

    def test_signed_zero_is_positive(self):
        assert math.copysign(1.0, parse_angle("-0.0")) == 1.0


class TestSweep:
    def test_three_point_fidelity_column(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,fidelity_opt,eta_x,eta_z,a,b,c"
        fidelities = [line.split(",")[1] for line in lines[1:]]
        assert fidelities == ["1", "0.853553390593", "1"]

    def test_two_steps_gives_endpoints_only(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "2")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[1] == "1" for row in rows)

    def test_file_output_deterministic(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        argv = ["sweep", "--steps", "11", "--out", str(target)]
        assert main(argv) == 0
        first = target.read_bytes()
        assert main(argv) == 0
        second = target.read_bytes()
        assert first == second
        summary = capsys.readouterr().out
        assert "11 rows" in summary

    def test_negative_zero_phi_min_reports_as_zero(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        runs = []
        for text in ("-0.0", "0"):
            argv = ["sweep", "--steps", "3", "--phi-min", text, "--out", str(target)]
            runs.append((*run_cli(capsys, *argv), target.read_bytes()))
        assert runs[0] == runs[1]
        assert "(phi from 0 to " in runs[0][1]

    def test_rows_revalidate_on_parse(self, tmp_path):
        target = tmp_path / "sweep.csv"
        assert main(["sweep", "--steps", "40", "--out", str(target)]) == 0
        lines = target.read_text().strip().splitlines()
        for line in lines[1:]:
            phi, f, eta_x, eta_z, a, b, c = (float(x) for x in line.split(","))
            assert 0.5 <= f <= 1.0
            assert abs(a * a + 2 * b * b + c * c - 1.0) <= 1e-9
            assert abs(eta_x**2 + eta_z**2 - 1.0) <= 1e-9
            assert abs(eta_x - 2 * b * (a + c)) <= 1e-9
            assert abs(eta_z - (a * a - c * c)) <= 1e-9

    def test_oracle_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--steps", "4", "--with-oracle", "--oracle-grid", "64"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].endswith(",numeric_fidelity")
        for line in lines[1:]:
            fields = line.split(",")
            assert abs(float(fields[1]) - float(fields[7])) <= 1e-8

    def test_invalid_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--phi-min", "1.0", "--phi-max", "0.5"])
        assert excinfo.value.code == 2

    def test_too_few_steps_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--steps", "1"])
        assert excinfo.value.code == 2

    def test_coarse_oracle_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--steps", "3", "--with-oracle", "--oracle-grid", "10"])
        assert excinfo.value.code == 2
        assert "--oracle-grid" in capsys.readouterr().err

    def test_oracle_grid_ignored_without_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "3", "--oracle-grid", "10")
        assert code == 0
        assert out.splitlines()[0] == "phi,fidelity_opt,eta_x,eta_z,a,b,c"

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--steps", "3", "--out", "/no/such/dir/out.csv"
        )
        assert code == 1
        assert "cannot write" in err


    @pytest.mark.parametrize(
        "argv",
        [
            ["--steps", str(cli._SWEEP_BLOCK + 1)],
            ["--phi-min", "0.0123", "--phi-max", "1.5", "--steps", "20000"],
            ["--steps", "5", "--with-oracle", "--oracle-grid", "64"],
        ],
        ids=["one-row-past-a-block", "sub-range", "oracle"],
    )
    def test_text_equals_per_row_scalar_loop(self, capsys, argv):
        args = cli._build_parser().parse_args(["sweep", *argv])
        lines = ["phi,fidelity_opt,eta_x,eta_z,a,b,c" + (",numeric_fidelity" if args.with_oracle else "")]
        for phi in np.linspace(args.phi_min, args.phi_max, args.steps):
            phi = float(phi)
            coeffs = optimal_coefficients(phi)
            fields = [phi, optimal_fidelity(phi), *optimal_shrinking(phi), *coeffs]
            if args.with_oracle:
                fields.append(numeric_optimize(phi, grid_density=args.oracle_grid).best_fidelity)
            lines.append(",".join(f"{value:.12g}" for value in fields))
        code, out, _ = run_cli(capsys, "sweep", *argv)
        assert code == 0
        assert out == "\n".join(lines) + "\n"


class TestClone:
    def test_quarter_pi_report(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "pi/4")
        assert code == 0
        assert out.count("0.853553390593") >= 5  # four fidelities plus formula
        assert "0.707106781187" in out

    def test_zero_angle(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "0")
        assert code == 0
        assert "eta_x=0" in out
        assert "eta_z=1" in out

    def test_coefficient_override(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "0.3", "--coeffs", "1,0,0")
        assert code == 0
        assert "0.956333903727" in out
        assert "user override" in out

    def test_constraint_violating_override_rejected(self, capsys):
        code, _, err = run_cli(capsys, "clone", "0.3", "--coeffs", "1,1,1")
        assert code == 1
        assert "deviates from 1" in err

    def test_negative_override_rejected(self, capsys):
        code, _, err = run_cli(capsys, "clone", "0.3", "--coeffs=-1,0,0")
        assert code == 1
        assert "nonnegative" in err

    def test_out_of_range_angle_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["clone", "2.0"])
        assert excinfo.value.code == 2

    def test_negative_zero_reports_as_zero(self, capsys):
        assert run_cli(capsys, "clone", "--", "-0.0") == run_cli(capsys, "clone", "0")


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--steps", "50", "--oracle-grid", "64"
        )
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert "properties passed" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--steps",
            "30",
            "--tolerance",
            "1e-18",
            "--oracle-grid",
            "64",
        )
        assert code == 1
        assert "[FAIL]" in out

    def test_bad_tolerance_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--tolerance", "-1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--steps", "30", "--oracle-grid", "64", "--tolerance", value])
        assert excinfo.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_coarse_oracle_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--steps", "30", "--oracle-grid", "10"])
        assert excinfo.value.code == 2
        assert "--oracle-grid" in capsys.readouterr().err

    def test_nan_deviation_fails_closed(self, capsys, monkeypatch):
        exact = optimizer.optimum
        monkeypatch.setattr(
            optimizer, "optimum", lambda phis: (np.full(len(phis), math.nan), *exact(phis)[1:])
        )
        code, out, _ = run_cli(capsys, "verify", "--steps", "50", "--oracle-grid", "64")
        assert code == 1
        assert "[FAIL] simulation matches optimal fidelity" in out

    def test_perturbed_closed_form_fails(self, capsys, monkeypatch):
        exact = optimizer.optimum
        monkeypatch.setattr(optimizer, "optimum", lambda phis: (exact(phis)[0] + 1e-6, *exact(phis)[1:]))
        code, out, _ = run_cli(capsys, "verify", "--steps", "50", "--oracle-grid", "64")
        assert code == 1
        assert "[FAIL] simulation matches optimal fidelity" in out


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_oracle_grid_upper_bound(capsys, monkeypatch, command):
    # the oracle is stubbed, so neither grid below is ever allocated
    grids = []
    monkeypatch.setattr(
        cli, "run_checks", lambda oracle_grid, **_: grids.append(oracle_grid) or []
    )
    monkeypatch.setattr(
        cli,
        "numeric_optimize",
        lambda phi, grid_density: grids.append(grid_density) or SimpleNamespace(best_fidelity=1.0),
    )
    argv = [command, "--steps", "2"] + (["--with-oracle"] if command == "sweep" else [])

    code, _, _ = run_cli(capsys, *argv, "--oracle-grid", str(MAX_GRID_DENSITY))
    assert code == 0
    assert grids and set(grids) == {MAX_GRID_DENSITY}

    grids.clear()
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--oracle-grid", str(MAX_GRID_DENSITY + 1)])
    assert excinfo.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert f"--oracle-grid must be between 64 and {MAX_GRID_DENSITY}" in message
    assert grids == []


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_steps_upper_bound(capsys, monkeypatch, command):
    # run_checks and linspace are stubbed, so no grid of the cap's size is built
    sizes = []
    monkeypatch.setattr(cli, "run_checks", lambda grid, **_: sizes.append(grid) or [])
    linspace = np.linspace
    monkeypatch.setattr(
        cli.np, "linspace", lambda lo, hi, num: sizes.append(num) or linspace(lo, hi, 2)
    )

    code, _, _ = run_cli(capsys, command, "--steps", str(MAX_STEPS))
    assert code == 0
    assert sizes == [MAX_STEPS]

    sizes.clear()
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--steps", str(MAX_STEPS + 1)])
    assert excinfo.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert f"--steps must be between 2 and {MAX_STEPS}, got {MAX_STEPS + 1}" in message
    assert sizes == []


def test_reused_parser_matches_a_fresh_one(capsys):
    calls = [
        ["verify", "--steps", "1"],
        ["clone", "0.3", "--coeffs", "1,1,1"],
        ["clone", "pi/4"],
        ["sweep", "--steps", "3"],
    ]
    parser = cli._build_parser()
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert cli._build_parser() is parser
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in reused] == [2, 1, 0, 0]
    assert reused == fresh


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pairclone", "sweep", "--steps", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "phi,fidelity_opt,eta_x,eta_z,a,b,c"


def test_closed_stdout_exits_1_without_traceback():
    # a reader that stops early, as ``head -1`` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "pairclone", "sweep", "--steps", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "phi,fidelity_opt,eta_x,eta_z,a,b,c\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, "")
