"""Self-tests of the benchmark: seeded inputs, checkers, span arithmetic.

    python3 -m pytest pairbench

The checker tests start from real pairclone output and inject one fault
each; a checker that misses it would let a wrong program pass.
"""

from __future__ import annotations

import pytest

import checkers
import run
import tracing
import workloads
from tracing import Span

pairclone = workloads.load_pairclone(run.ROOT)


def cli(*argv) -> tuple:
    return run.invoke(pairclone, argv)


@pytest.mark.parametrize("workload", ["clone", "oracle", "sweep"])
def test_inputs_are_deterministic_per_seed_and_seeds_differ(workload):
    first = workloads.generate(workload, 3)
    assert first == workloads.generate(workload, 3)
    other = workloads.generate(workload, 4)
    assert first != other
    # Every seed does the same amount of work.
    assert sum(c.items for c in first) == sum(c.items for c in other)
    assert sum(c.reject for c in first) == sum(c.reject for c in other)


def test_every_generated_call_passes_its_checker():
    for workload in ("clone", "oracle"):
        for call in workloads.generate(workload, 5)[:30]:
            assert checkers.CHECKERS[workload](call, *cli(*call.argv)) == 0, call.argv


def _perturb_field(text: str, row: int, column: int, delta: float) -> str:
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[column] = f"{float(fields[column]) + delta:.12g}"
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def test_sweep_checker_flags_a_row_off_by_1e_6():
    call = workloads.Call(("sweep", "--phi-min", "0.1", "--phi-max", "1.3", "--steps", "200"), items=200)
    rc, out, err = cli(*call.argv)
    assert checkers.check_csv(call, rc, out, err) == 0
    assert checkers.check_csv(call, rc, _perturb_field(out, 17, 1, 1e-6), err) == 1
    assert checkers.check_csv(call, rc, out.replace("\n", "\n0,", 1), err) == 200


def test_oracle_checker_flags_a_row_off_by_1e_6():
    argv = ("sweep", "--phi-min", "0.2", "--phi-max", "0.7", "--steps", "3", "--with-oracle")
    call = workloads.Call(argv, items=3)
    rc, out, err = cli(*argv)
    assert checkers.check_csv(call, rc, out, err) == 0
    assert checkers.check_csv(call, rc, _perturb_field(out, 2, 7, 1e-6), err) == 1


@pytest.fixture(scope="module")
def verify_output():
    return cli("verify", "--steps", "20")


def test_verify_checker_flags_a_nan_deviation(verify_output):
    rc, out, err = verify_output
    call = workloads.Call(("verify",))
    assert checkers.check_verify(call, rc, out, err) == 0
    lines = out.splitlines()
    head, _, rest = lines[3].partition("max deviation ")
    lines[3] = head + "max deviation nan " + rest.split(" ", 1)[1]
    assert checkers.check_verify(call, rc, "\n".join(lines) + "\n", err) == 1


def test_verify_checker_flags_a_missing_or_loosened_property(verify_output):
    rc, out, err = verify_output
    call = workloads.Call(("verify",))
    lines = out.splitlines()
    assert checkers.check_verify(call, rc, "\n".join(lines[1:]) + "\n", err) == 1
    loosened = out.replace("(tolerance 1.0e-10,", "(tolerance 1.0e-06,", 1)
    assert checkers.check_verify(call, rc, loosened, err) == 1


def test_clone_checker_flags_one_mismatched_fidelity():
    call = workloads.Call(("clone", "pi/4"), phi=workloads.PI_LITERALS["pi/4"])
    rc, out, err = cli(*call.argv)
    assert checkers.check_clone(call, rc, out, err) == 0
    lines = out.split("\n")
    label, value = lines[10].split(": ")
    lines[10] = f"{label}: {float(value) + 1e-9:.12g}"
    assert checkers.check_clone(call, rc, "\n".join(lines), err) == 1


def test_clone_checker_requires_rejection_off_the_surface():
    call = workloads.Call(("clone", "0.4", "--coeffs", "0.9,0.3,0.3"), phi=0.4,
                          coeffs=(0.9, 0.3, 0.3), reject=True)
    rc, out, err = cli(*call.argv)
    assert rc == 1
    assert checkers.check_clone(call, rc, out, err) == 0
    assert checkers.check_clone(call, 0, "angle phi = 0.4 rad\n", "") == 1


def _span(span_id, parent, start, end, name="cli.main"):
    return Span(span_id, parent, name, start, end, 0, True, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 3.5, 6.0),  # overlaps span 1
        _span(4, 0, 9.0, 12.0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_records_nested_calls_and_restores_the_modules():
    tracer = tracing.Tracer()
    original = pairclone.cloner.tensor
    patches = tracer.install()
    try:
        rc, _, _ = cli("clone", "pi/4")
    finally:
        tracing.uninstall(patches)
    assert rc == 0
    assert pairclone.cloner.tensor is original
    names = {span.id: span.name for span in tracer.spans}
    chain = {(names.get(span.parent), span.name) for span in tracer.spans}
    assert (None, "cli.main") in chain
    assert ("cli.main", "report.build_clone_report") in chain
    assert ("report.build_clone_report", "cloner.build_isometry") in chain
    assert ("cloner.build_isometry", "linalg.tensor") in chain
    assert min(tracing.self_times(tracer.spans)) >= 0.0
    summary = tracing.summarize_pass(tracer.spans)
    assert summary["linalg.tensor"]["calls"] == 16  # 8 three-factor products
    assert summary["cli.main"]["calls"] == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 101)) == (90, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
