"""Run the benchmark repeatedly and report each metric's median and spread.

    python3 pairbench/repeat.py --runs 10 [--workloads clone,oracle] [--trace 1]
                                [--record pairbench/trajectory.json --label NAME]

Each run is ``run.py`` in a fresh process with its own seed (1, 2, ...).
For every metric it prints the median, the quartiles and the spread,
(Q3 - Q1) / median, next to the bound from BENCHMARK.json; a spread above
a third of the bound is flagged.  ``--record`` appends the medians,
quartiles and environment to a trajectory file as one point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(environment, final JSON object) of one benchmark run."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="trajectory file to append a point to")
    parser.add_argument("--label", default="", help="name of the trajectory point")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = list(range(1, args.runs + 1))
    point = {"label": args.label, "seeds": seeds, "seconds": args.seconds, "trace": args.trace,
             "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in seeds:
            env, result = one_run(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        point["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed")}
        summary = point["workloads"][workload] = {}
        for name, (unit, series) in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = " over bound/3" if bound is not None and not spread <= bound / 3 else ""
            # The spread of setup_s is not bounded, only its median.
            steady = steady and (not flag or name == "setup_s")
            summary[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3}
            print(f"{workload:7} {name:44} {median:14.6g} {unit:6} "
                  f"spread {spread:7.2%} bound {bound}{flag}  "
                  + " ".join(f"{v:.4g}" for v in series))
    if args.record:
        points = json.loads(args.record.read_text()) if args.record.exists() else []
        args.record.write_text(json.dumps(points + [point], indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
