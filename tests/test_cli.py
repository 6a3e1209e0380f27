import inspect
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairclone import cli, optimizer
from pairclone.cli import MAX_STEPS, main, parse_angle
from pairclone.optimizer import (
    DEFAULT_GRID_DENSITY,
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
            # phi = 0 and c, eta_x and b below 1e-4 put values of %'s own inside an array-written block
            ["--phi-min", "0", "--phi-max", "0.2", "--steps", "64"],
        ],
        ids=["one-row-past-a-block", "sub-range", "oracle", "from-zero"],
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
        assert out.split("\n") == lines + [""]  # a list diff reports a failing case in seconds


def _per_row(values) -> str:
    return "".join(",".join("%.12g" % value for value in row) + "\n" for row in values.tolist())


def _decimal_ties() -> list:
    """Every double x in [1e-4, 10) whose x * 10^(11 - e) ends in exactly .5,
    e being its decimal exponent: x = j / 2^(12 - e) for odd j."""
    ties = []
    for e in range(-4, 1):
        scale = 2.0 ** (12 - e)
        ties += [j / scale for j in range(1, 10 * int(scale), 2) if 10.0**e <= j / scale < 10.0 ** (e + 1)]
    return ties


class TestCsvText:
    """``cli._csv_text`` writes every value as ``"%.12g" % value`` does."""

    def assert_exact(self, values, cols=1):
        values = np.asarray(values, dtype=float).reshape(-1, cols)
        text = cli._csv_text(values)
        assert text.endswith("\n")
        assert text.splitlines() == _per_row(values).splitlines()  # a list diff names the first bad row

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(1e-4, 10.0)),
            min_size=1,
            max_size=60,
        )
    )
    def test_finite_doubles(self, values):
        self.assert_exact(values)

    def test_every_decimal_tie(self):
        # a product that is exactly n + 1/2 rounds half to even, as % does
        ties = _decimal_ties()
        assert len(ties) == 23_033
        self.assert_exact(ties)

    def test_products_that_round_to_a_half(self):
        # x * 10^(11 - e) rounds to n + 1/2 without being it: the exact
        # product's low part decides, never rint alone
        x = 10.0 ** np.random.default_rng(32).uniform(-4.0, 1.0, 400_000)
        hi = x * 10.0 ** (11 - np.floor(np.log10(x)))
        halfway = x[np.abs(hi - np.rint(hi)) == 0.5]
        assert halfway.size >= 10
        self.assert_exact(halfway)

    def test_forty_ulps_around_powers_of_ten(self):
        offsets = np.arange(-40, 41)
        for k in range(-5, 2):
            self.assert_exact((np.float64(10.0**k).view(np.int64) + offsets).view(np.float64))

    def test_carries_into_the_next_exponent(self):
        self.assert_exact(
            [9.9999999999995, 9.99999999999949, 0.99999999999995, 0.099999999999995,
             0.0099999999999995, 0.00099999999999995, 0.000099999999999995, 1.0000000000005, 2.5]
        )

    def test_values_outside_the_array_range(self):
        self.assert_exact([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 1e-4, 10.0, -0.5, 1e300, 1e-5, 123.456])

    def test_rows_and_columns(self):
        values = np.random.default_rng(32).uniform(0.0, 1.0, (3 * cli._CSV_CHUNK // 7 + 5, 7))
        values[::97, 3] = 0.0
        self.assert_exact(values, cols=7)

    @pytest.mark.parametrize(
        "steps", [cli._CSV_TEXT_ROWS - 1, cli._CSV_TEXT_ROWS, cli._SWEEP_BLOCK + 1], ids=repr
    )
    def test_both_writers_give_the_same_text(self, capsys, monkeypatch, steps):
        argv = ["sweep", "--phi-min", "0", "--phi-max", "1.5", "--steps", str(steps)]
        texts = {}
        for rows in (cli._CSV_TEXT_ROWS, 1, MAX_STEPS + 1):  # as shipped, all arrays, all per row
            monkeypatch.setattr(cli, "_CSV_TEXT_ROWS", rows)
            code, texts[rows], _ = run_cli(capsys, *argv)
            assert code == 0
        assert len(set(texts.values())) == 1


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

    def test_negative_zero_override_reports_as_zero(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "0.7", "--coeffs", "0,0.7071067811865476,-0")
        assert code == 0
        assert "a=0  b=0.707106781187  c=0\n" in out

    def test_out_of_range_angle_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["clone", "2.0"])
        assert excinfo.value.code == 2

    def test_negative_zero_reports_as_zero(self, capsys):
        assert run_cli(capsys, "clone", "--", "-0.0") == run_cli(capsys, "clone", "0")


@pytest.mark.parametrize("text", ["2.0", "-0.1", "nan", "inf", "1e400", "pi/0"])
@pytest.mark.parametrize(
    "argv,name",
    [(["clone"], "phi"), (["sweep", "--phi-min"], "--phi-min"), (["sweep", "--phi-max"], "--phi-max")],
    ids=["clone", "phi-min", "phi-max"],
)
def test_bad_angle_is_usage_error_naming_its_argument(capsys, argv, name, text):
    code, out, err = run_cli(capsys, *argv, text)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"argument {name}:" in err.splitlines()[-1]


@pytest.mark.parametrize("text", ["0.6,0.4", "0.6,0.4,0.1,0", "a,b,c"], ids=["two", "four", "not-numbers"])
def test_malformed_coeffs_is_usage_error(capsys, text):
    code, out, err = run_cli(capsys, "clone", "0.3", "--coeffs", text)
    assert code == 2
    assert out == ""
    usage, message = err.splitlines()
    assert usage.startswith("usage: pairclone clone ")
    assert message.startswith("pairclone clone: error: argument --coeffs: ")


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--steps", "50")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert "properties passed" in out

    # the bounds and the oracle grid are fixed, so no option may set them
    @pytest.mark.parametrize(
        "option", [["--tolerance", "1e-5"], ["--oracle-grid", "64"]], ids=["tolerance", "oracle-grid"]
    )
    def test_bound_options_are_usage_errors(self, capsys, monkeypatch, option):
        monkeypatch.setattr(cli, "run_checks", lambda **_: pytest.fail("verify ran"))
        code, out, err = run_cli(capsys, "verify", *option)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: pairclone")
        assert f"unrecognized arguments: {' '.join(option)}" in err

    def test_nan_deviation_fails_closed(self, capsys, monkeypatch):
        exact = optimizer.optimum
        monkeypatch.setattr(
            optimizer, "optimum", lambda phis: (np.full(len(phis), math.nan), *exact(phis)[1:])
        )
        code, out, _ = run_cli(capsys, "verify", "--steps", "50")
        assert code == 1
        assert "[FAIL] simulation matches optimal fidelity" in out

    def test_perturbed_closed_form_fails(self, capsys, monkeypatch):
        exact = optimizer.optimum
        monkeypatch.setattr(optimizer, "optimum", lambda phis: (exact(phis)[0] + 1e-6, *exact(phis)[1:]))
        code, out, _ = run_cli(capsys, "verify", "--steps", "50")
        assert code == 1
        assert "[FAIL] simulation matches optimal fidelity" in out


def test_one_default_oracle_grid(capsys, monkeypatch):
    # numeric_optimize's default, sweep --oracle-grid's default and verify's grid
    assert inspect.signature(numeric_optimize).parameters["grid_density"].default == DEFAULT_GRID_DENSITY
    assert cli._build_parser().parse_args(["sweep"]).oracle_grid == DEFAULT_GRID_DENSITY
    calls = []  # the oracle is stubbed, so its two checks fail
    stub = SimpleNamespace(best_fidelity=np.zeros(25), best_coeffs=(np.zeros(25),) * 3)
    monkeypatch.setattr(optimizer, "numeric_optimize", lambda phi, **kw: calls.append((phi, kw)) or stub)
    run_cli(capsys, "verify", "--steps", "2")
    # one call of all 25 searches, at the signature default
    assert len(calls) == 1 and calls[0][0].shape == (25,) and calls[0][1] == {}


@pytest.mark.parametrize("command", ["sweep"])  # the commands that take --oracle-grid
def test_oracle_grid_upper_bound(capsys, monkeypatch, command):
    # the oracle is stubbed, so neither grid below is ever allocated
    grids = []
    monkeypatch.setattr(
        cli,
        "numeric_optimize",
        lambda phis, grid_density: grids.append(grid_density) or SimpleNamespace(best_fidelity=np.ones(len(phis))),
    )
    argv = [command, "--steps", "2", "--with-oracle"]

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
