"""topophase benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload window_sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Each workload run is one fresh worker process (``perfbench/workloads.py``),
so ``peak_rss_mb`` and ``setup_s`` belong to that workload.  Set-up is timed
from process start to inputs ready, in several fresh processes, and reported
as their median.  With ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json`` are reported; with ``--trace 1`` the per-layer metrics,
taken from spans around the library's public functions.  Human-readable lines
come first; the last stdout line is one JSON object.  Everything the run
writes goes under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import OUT_ROOT, ROOT, WORKLOADS

WORKER = Path(__file__).resolve().parent / "workloads.py"
SETUP_RUNS = 5
DEADLINE_S = 170.0  # one workload run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    """Caller's environment with every BLAS thread count capped at nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        threads = min(nproc, int(current)) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(threads)
    return env


def spawn(args: list, env: dict, deadline: float) -> dict:
    """Run one worker; its JSON result plus ``setup_s`` from process start."""
    started = time.time()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_wall"] - started
    return result


def tail_percentile(samples: list):
    """Highest whole percentile with at least ten samples above it (nearest rank).

    Returns (percentile, value), or None with ten samples or fewer.
    """
    n = len(samples)
    if n <= 10:
        return None
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(samples)[rank - 1]


def run_workload(name: str, seed: int, seconds: float, trace: int, catalogue: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [spawn(common + ["--setup-only"], env, deadline) for _ in range(SETUP_RUNS - 1)]
    main = spawn(common + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline)
    setup_values = [s["setup_s"] for s in setups] + [main["setup_s"]]
    if len({s["digest"] for s in setups + [main]}) != 1:
        raise BenchError(f"{name}: set-up produced different inputs for one seed")

    samples = main["samples"] or [main["elapsed_s"] / max(1, main["passes"])]
    if trace:
        layers = main.get("layers")
        if layers is None:
            raise BenchError(f"{name}: traced run produced no layer metrics")
        values = layers
    else:
        values = {
            "run_s": statistics.median(samples),
            "setup_s": statistics.median(setup_values),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    missing = sorted(set(catalogue) - set(values))
    if missing:
        raise BenchError(f"{name}: no value for metric(s) {', '.join(missing)}")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in catalogue.items()}

    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_values": setup_values, **main, "metrics": metrics}
    (OUT_ROOT / f"{name}-seed{seed}" / f"result-trace{trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    _print_summary(report, samples)
    return report


def _print_summary(report: dict, samples: list) -> None:
    name, env = report["workload"], report["env"]
    print(f"{name} seed={report['seed']} trace={report['trace']} inputs={report['digest']}")
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile with 10 samples above it"
    print(f"  run_s: median {statistics.median(samples):.4f} s, {tail_text} "
          f"({len(samples)} samples)")
    if report["trace"]:
        print(f"  traced run_s: median {statistics.median(report['traced_samples']):.4f} s "
              f"({len(report['traced_samples'])} samples)")
        for key, metric in report["metrics"].items():
            print(f"  {key}: {metric['value']} {metric['unit']}")
    else:
        print(f"  setup_s: median {statistics.median(report['setup_values']):.4f} s "
              f"(of {len(report['setup_values'])} fresh processes)")
        print(f"  peak_rss_mb: {report['peak_rss_mb']:.1f} MB")
    print(f"  checks_failed: {report['checks_failed']} of {report['checks_attempted']}")
    for message in report["failures"]:
        print(f"    FAILED: {message}")
    print(f"  env: blas={env['blas']} blas_threads={env['blas_threads']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="topophase benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "topophase" / "__init__.py").is_file():
        print(f"error: no topophase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    catalogue = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    OUT_ROOT.mkdir(exist_ok=True)
    reports = []
    try:
        for name in names:
            reports.append(run_workload(name, args.seed, seconds, args.trace, catalogue))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    attempted = sum(r["checks_attempted"] for r in reports)
    failed = sum(r["checks_failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
