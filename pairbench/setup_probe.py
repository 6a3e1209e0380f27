"""Set-up probe: import pairclone, generate one workload's inputs, say ready.

    python3 pairbench/setup_probe.py <workload> <seed>

``run.py`` starts this in a fresh interpreter and times it up to the
ready line; that time is the ``setup_s`` metric.
"""

import sys
from pathlib import Path

import workloads

workloads.load_pairclone(Path(__file__).resolve().parent.parent)
calls = workloads.generate(sys.argv[1], int(sys.argv[2]))
print(f"ready {len(calls)} calls", flush=True)
