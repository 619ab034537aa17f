#!/usr/bin/env python3
"""Check that the benchmark's exact counts repeat between two traced runs.

    python3 perfbench/check_determinism.py

For each workload the benchmark runs twice with ``--trace 1`` and seed 1.
The node counts, psi calls and changes, and multisets yielded must be
identical; the script prints them and exits 1 if any differs or a run
reports incorrect outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 1
EXACT_COUNTS = (
    "core.multisets_yielded",
    "kernels.nodes",
    "search.oracle_nodes",
    "compression.psi_calls",
    "compression.psi_changed",
)


def traced_counts(workload: str) -> tuple[bool, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    return result["correct"], {name: result["metrics"][name]["value"] for name in EXACT_COUNTS}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first_ok, first = traced_counts(workload)
        second_ok, second = traced_counts(workload)
        same = first == second
        ok = ok and same and first_ok and second_ok
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} {first}")
        if not same:
            print(f"{workload}: second run {second}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
