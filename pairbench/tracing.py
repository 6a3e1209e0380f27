"""Per-layer spans recorded from outside the program.

The tracer rebinds, in the running process only, every pairclone module
attribute that refers to one of the public functions in ``TRACED``, so a
call is recorded whichever module it comes from (``cloner.tensor`` and
``linalg.tensor`` are the same function).  No source file changes.  Spans
stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter
from typing import NamedTuple

TRACED = (
    "linalg.tensor",
    "linalg.partial_trace",
    "linalg.bloch_from_density",
    "ensemble.make_ensemble",
    "cloner.build_isometry",
    "cloner.apply_cloner",
    "cloner.copy_state",
    "cloner.fidelity",
    "cloner.fidelity_closed_form",
    "cloner.shrinking_factors",
    "optimizer.numeric_optimize",
    "optimizer.optimal_coefficients",
    "optimizer.optimal_fidelity",
    "optimizer.optimal_shrinking",
    "optimizer.recover_multiplier",
    "optimizer.lagrange_residual",
    "report.build_clone_report",
    "report.format_clone_report",
    "checks.run_checks",
    "cli.main",
)

# Work counted from a traced function's return value: (metric, counter).
COUNTS = {
    "optimizer.numeric_optimize": ("evaluations", lambda report: report.evaluations),
    "checks.run_checks": ("properties", len),
}


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a top-level span
    name: str
    start: float
    end: float
    item: int  # index of the CLI call within its pass
    ok: bool  # False when the call raised
    count: int  # work counted from the result, see COUNTS


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = -1
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            ok = False
            count = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                if counter is not None:
                    count = counter(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = Span(span_id, parent, name, start, end, self.item, ok, count)

        return traced

    def install(self, package_name: str = "pairclone") -> list:
        """Rebind every module attribute that refers to a traced function.
        Returns the patches, to hand to :func:`uninstall`."""
        modules = [
            module for key, module in sys.modules.items()
            if key == package_name or key.startswith(package_name + ".")
        ]
        patches = []
        for name in TRACED:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"{package_name}.{module_name}"], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patches.append((module, key, original))
        return patches


def uninstall(patches: list) -> None:
    for module, key, original in patches:
        setattr(module, key, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover, so overlapping or out-of-interval children never count
    twice and no self time is negative."""
    children: dict = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def summarize_pass(spans: list) -> dict:
    """Per traced function, over one pass: calls, self seconds, median
    call duration, failed calls, inclusive seconds and counted work."""
    selfs = self_times(spans)
    by_name = {name: [] for name in TRACED}
    for span, self_s in zip(spans, selfs):
        by_name[span.name].append((span, self_s))
    summary = {}
    for name, entries in by_name.items():
        durations = [span.end - span.start for span, _ in entries]
        summary[name] = {
            "calls": len(entries),
            "self_s": sum(self_s for _, self_s in entries),
            "p50_us": statistics.median(durations) * 1e6 if durations else 0.0,
            "failed": sum(not span.ok for span, _ in entries),
            "incl_s": sum(durations),
            "count": sum(span.count for span, _ in entries),
        }
    return summary


def per_layer_metrics(summaries: list, overhead_s: float) -> dict:
    """The per_layer metrics of BENCHMARK.json: medians over traced passes
    of each per-pass figure, plus the tracing overhead per pass."""
    def median(name, key):
        return statistics.median(s[name][key] for s in summaries)

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (median(name, "calls"), "count")
        metrics[f"{name}.self_s"] = (median(name, "self_s"), "s")
        metrics[f"{name}.p50_us"] = (median(name, "p50_us"), "us")
        metrics[f"{name}.failed"] = (median(name, "failed"), "count")
    for name, (metric, _) in COUNTS.items():
        metrics[f"{name}.{metric}"] = (median(name, "count"), "count")
    rates = [
        s["optimizer.numeric_optimize"]["count"] / s["optimizer.numeric_optimize"]["incl_s"]
        if s["optimizer.numeric_optimize"]["incl_s"] > 0 else 0.0
        for s in summaries
    ]
    metrics["optimizer.numeric_optimize.evals_per_s"] = (statistics.median(rates), "1/s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def write_spans(path, spans: list) -> None:
    """Write spans as CSV, times in seconds from the first span's start."""
    origin = min((span.start for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,parent,name,start_s,end_s,item,ok,count\n")
        for s in spans:
            handle.write(
                f"{s.id},{s.parent},{s.name},{s.start - origin:.9f},{s.end - origin:.9f},"
                f"{s.item},{int(s.ok)},{s.count}\n"
            )
