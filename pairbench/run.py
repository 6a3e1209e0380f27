"""pairclone benchmark: run one workload and print its metrics.

    python3 pairbench/run.py --workload clone --seed 1 --seconds 25 --trace 0

Run from the root of a pairclone checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Every call goes in-process
through ``pairclone.cli.main`` with stdout captured in memory, one pass
after another (a closed loop with one client), until ``--seconds`` have
passed.  Every output is checked by ``checkers``.  The last line of
stdout is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  See README.md for the metrics.
"""

import os

# Pin BLAS to one thread before numpy is imported, here and in the set-up
# probes that inherit this environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

import checkers  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
SPANS_DIR = ROOT / ".pairbench"


def invoke(pairclone, argv) -> tuple:
    """One CLI call in-process: (exit code, stdout, stderr).  A raised
    exception gives exit code None and the traceback as stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = pairclone.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_pass(pairclone, calls, tracer=None, gauge=None) -> tuple:
    """Every call once, with gauge slices between calls when due.
    Returns the pass time (the sum of the call times) and, per call,
    (seconds, exit code, stdout, stderr)."""
    results = []
    for index, call in enumerate(calls):
        if tracer is not None:
            tracer.item = index
        t0 = perf_counter()
        rc, out, err = invoke(pairclone, call.argv)
        results.append((perf_counter() - t0, rc, out, err))
        if gauge is not None and gauge.due():
            gauge.sample()
    return sum(result[0] for result in results), results


def tail(samples) -> tuple:
    """The highest percentile with at least ten samples above it, as
    (value, percentile, sample count); the maximum when there are ten
    samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n


def setup_seconds(workload: str, seed: int, gauge) -> list:
    """Fresh interpreter to first timed item, several times: the probe
    imports pairclone and generates the inputs, then reports ready.
    Returns (raw seconds, factor to the reference speed) per probe."""
    timings = []
    for _ in range(SETUP_PROBES):
        mark = gauge.mark()
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            ready = child.stdout.readline()
            seconds = perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or not ready.strip():
            raise SystemExit(f"error: set-up probe failed with exit code {child.returncode}")
        timings.append((seconds, gauge.factor_since(mark)))
    return timings


def git_commit(root: Path) -> str:
    """The commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, pairclone) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pairclone": pairclone.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": git_commit(ROOT),
    }


class Run:
    """Passes of one workload, with the check of every output."""

    def __init__(self, pairclone, workload: str, calls: list):
        self.pairclone = pairclone
        self.calls = calls
        self.check = checkers.CHECKERS[workload]
        self.attempted = 0
        self.failed = 0
        # Per call, the last output checked and its verdict.  Passes repeat
        # the same calls, so an output equal to the last one needs no
        # second check.
        self._checked = [None] * len(calls)

    def one_pass(self, tracer=None, gauge=None) -> tuple:
        seconds, results = run_pass(self.pairclone, self.calls, tracer, gauge)
        item_seconds = []
        for index, (call, (dt, rc, out, err)) in enumerate(zip(self.calls, results)):
            item_seconds.append(dt / call.items)
            self.attempted += call.items
            last = self._checked[index]
            if last is None or last[0] != (rc, out, err):
                last = self._checked[index] = ((rc, out, err), self.check(call, rc, out, err))
            self.failed += min(call.items, last[1])
        return seconds, item_seconds

    def check_pinned_sweep(self) -> None:
        """The sweep CSV at the default seed must match its pinned hash."""
        call = workloads.generate("sweep", workloads.DEFAULT_SEED)[0]
        rc, out, _ = invoke(self.pairclone, call.argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        self.attempted += 1
        if rc != 0 or digest != workloads.SWEEP_SHA256:
            print(f"sweep CSV at seed {workloads.DEFAULT_SEED} has SHA-256 {digest}, "
                  f"pinned {workloads.SWEEP_SHA256}")
            self.failed += 1


def end_to_end(run: Run, args) -> dict:
    """Timings are reported at the reference host speed (see speed.py);
    the table also prints them raw."""
    gauge = speed.Gauge()
    setup = setup_seconds(args.workload, args.seed, gauge)
    run.one_pass()  # warm-up: caches and lazy imports; checked but not timed
    passes, items = [], []
    deadline = perf_counter() + args.seconds
    while True:
        mark = gauge.mark()
        seconds, item_seconds = run.one_pass(gauge=gauge)
        scale = gauge.factor_since(mark)
        passes.append((seconds, scale))
        items.extend((item, scale) for item in item_seconds)
        if perf_counter() >= deadline:
            break
    items_per_pass = sum(call.items for call in run.calls)
    tail_s, tail_pct, samples = tail(item for item, _ in items)
    print(f"{len(passes)} passes of {items_per_pass} items; {len(gauge.samples)} gauge "
          f"slices, host speed {gauge.host_speed():.3f} of reference")

    def figures(scaled: bool) -> dict:
        def median(pairs) -> float:
            return statistics.median(value * scale if scaled else value for value, scale in pairs)

        wall = median(passes)
        return {
            "setup_s": (median(setup), "s"),
            "wall_s": (wall, "s"),
            "items_per_s": (items_per_pass / wall, "1/s"),
            "item_p50_ms": (median(items) * 1e3, "ms"),
        }

    for name, (value, unit) in figures(scaled=False).items():
        print(f"{'raw ' + name:44} {value:16.6f} {unit}")
    # Printed, not bounded: on a shared host the ten slowest items of a
    # run are set by other tenants more than by the program.
    print(f"{'raw item_tail_ms':44} {tail_s * 1e3:16.6f} ms "
          f"(p{tail_pct:.2f} of {samples} item samples)")
    metrics = figures(scaled=True)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(run: Run, args) -> dict:
    """Untraced and traced passes alternate, so drift hits both alike;
    per-layer figures come from the traced ones only."""
    run.one_pass()  # warm-up
    plain, traced, summaries = [], [], []
    last_spans = []
    deadline = perf_counter() + args.seconds
    while not traced or perf_counter() < deadline:
        plain.append(run.one_pass()[0])
        tracer = tracing.Tracer()
        patches = tracer.install()
        try:
            traced.append(run.one_pass(tracer)[0])
        finally:
            tracing.uninstall(patches)
        summaries.append(tracing.summarize_pass(tracer.spans))
        last_spans = tracer.spans
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    tracing.write_spans(spans_path, last_spans)
    overhead = statistics.median(traced) - statistics.median(plain)
    wall = statistics.median(traced)
    print(f"{len(traced)} traced and {len(plain)} untraced passes; "
          f"traced wall_s {wall:.4f}, untraced {statistics.median(plain):.4f}, "
          f"spans of the last traced pass in {spans_path.relative_to(ROOT)}")
    print(f"{'function':38} {'calls':>8} {'self_s':>9} {'share':>6} {'p50_us':>9} failed")
    for name in tracing.TRACED:
        row = {k: statistics.median(s[name][k] for s in summaries) for k in summaries[0][name]}
        print(f"{name:38} {row['calls']:8.0f} {row['self_s']:9.4f} "
              f"{100 * row['self_s'] / wall:5.1f}% {row['p50_us']:9.1f} {row['failed']:6.0f}")
    return tracing.per_layer_metrics(summaries, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pairclone = workloads.load_pairclone(ROOT)
    run = Run(pairclone, args.workload, workloads.generate(args.workload, args.seed))
    print("env " + json.dumps(environment(args, pairclone), sort_keys=True))

    metrics = per_layer(run, args) if args.trace else end_to_end(run, args)
    if args.workload == "sweep":
        run.check_pinned_sweep()
    failed_frac = run.failed / run.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name:44} {value:16.6f} {unit}")
    print(f"{'failed_frac':44} {failed_frac:16.6f} ratio ({run.failed} of {run.attempted} items)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
