"""Self-test of the benchmark: its exact counts repeat, and seeds change inputs.

    python3 perfbench/selftest.py

For every workload, runs the traced benchmark twice with seed 0 and once with
seed 1, each for one round.  Every count metric (simplices, calls, bytes,
matrix orders, bars) must be identical between the two seed-0 runs.  Seed 1
must generate different inputs but the same simplex counts.  Exits 1 on any
mismatch or failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import OUT_ROOT, ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SIMPLEX_COUNTS = ("simplicial.simplices.d0", "simplicial.simplices.d1", "simplicial.simplices.d2")


def traced_run(workload: str, seed: int) -> tuple:
    """Exact-count metrics and input digest of one traced benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed checks")
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "B")}
    report = json.loads((OUT_ROOT / f"{workload}-seed{seed}" / "result-trace1.json").read_text())
    return counts, report["digest"]


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        first, digest0 = traced_run(workload, 0)
        again, digest0_again = traced_run(workload, 0)
        other, digest1 = traced_run(workload, 1)
        changed = sorted(k for k in first if first[k] != again.get(k))
        if changed or digest0 != digest0_again:
            problems.append(f"{workload}: seed 0 repeated with different counts {changed}")
        if digest1 == digest0:
            problems.append(f"{workload}: seed 1 generated the same inputs as seed 0")
        moved = [k for k in SIMPLEX_COUNTS if first[k] != other[k]]
        if moved:
            problems.append(f"{workload}: seed 1 changed simplex counts {moved}")
        print(f"{workload}: {len(first)} counts repeat exactly; seed 1 inputs {digest1} "
              f"vs seed 0 {digest0}; simplices {[first[k] for k in SIMPLEX_COUNTS]}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
