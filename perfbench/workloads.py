"""Benchmark worker: sets up one workload, times its body, checks its outputs.

Run by ``perfbench/run.py``, one fresh process per workload run, so that
import time, set-up time and peak memory belong to that workload alone:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workloads.py --workload NAME --seed N --setup-only

Set-up (importing ``topophase`` from ``src/`` and generating the seeded
inputs) happens before anything else; its end is reported as a wall-clock
timestamp so the parent can time set-up from process start.  The last line on
stdout is one JSON object with the samples, check counts, peak memory and, in
a traced run, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_name

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".perfbench_out"

# Attributes the library resolves at call time, plus the benchmark's own call
# sites; wrapping them all catches every call a workload makes.
TRACE_SITES = (
    ("phase", "build_cloud"),
    ("phase", "vr_filtration"),
    ("cli", "vr_filtration"),
    ("simplicial", "vr_filtration"),
    ("persistence", "boundary_matrix"),
    ("simplicial", "boundary_matrix"),
    ("dirac", "boundary_dense_at"),
    ("persistence", "reduce"),
    ("persistence", "betti_oracle"),
    ("persistence", "bottleneck"),
    ("dirac", "restricted_boundary"),
    ("dirac", "persistent_laplacian"),
    ("dirac", "betti_from_laplacian"),
    ("dirac", "dirac_operator"),
    ("dirac", "spectrum"),
    ("phase", "sweep"),
    ("cli", "main"),
)

COUNT_NAMES = (
    "simplicial.simplices.d0",
    "simplicial.simplices.d1",
    "simplicial.simplices.d2",
    "simplicial.boundary_dense_at.bytes",
    "persistence.bars",
    "dirac.laplacian_order",
    "dirac.operator_order",
)

COUNTERS = {
    "simplicial.vr_filtration": lambda fc: {
        f"simplicial.simplices.d{k}": fc.count_dim(k) for k in range(3)
    },
    "simplicial.boundary_dense_at": lambda m: {
        "simplicial.boundary_dense_at.bytes": m.shape[0] * m.shape[1] * 8
    },
    "persistence.reduce": lambda d: {"persistence.bars": len(d.bars)},
    "dirac.persistent_laplacian": lambda lap: {"dirac.laplacian_order": lap.shape[0]},
    "dirac.dirac_operator": lambda op: {"dirac.operator_order": op.matrix.shape[0]},
}

PROBE_EPS = (0.6, 0.75)


class Checks:
    """Tally of correctness checks; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def noisy_circle(np, rng, n: int, radius: float = 1.0, sigma: float = 0.05):
    """n evenly spaced angles under a random rotation, plus Gaussian noise."""
    theta = 2.0 * np.pi * (np.arange(n) + rng.random()) / n
    clean = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    return clean + rng.normal(0.0, sigma, size=(n, 2))


class WindowSweep:
    """96 small window complexes: per-call overhead and small-matrix cost."""

    name = "window_sweep"
    n_lambdas = 96
    probes = ((1, 0.4, 0.8), (0, 0.02, 0.04))
    expected = {(1, 0.4, 0.8): 0, (0, 0.02, 0.04): 1}
    halfwidth = 8

    def __init__(self, lib, np, seed: int, workdir: Path):
        self.lib = lib
        rng = np.random.default_rng(seed)
        lmin = -0.95 + 0.01 * rng.random()
        step = 0.02
        self.config = lib.phase.ScanConfig(
            lambda_min=lmin,
            lambda_max=lmin + (self.n_lambdas - 1) * step,
            step=step,
            window_halfwidth=self.halfwidth,
            max_dim=2,
            jobs=1,
            intervals=self.probes,
        )
        self.lambdas = self.config.lambdas()
        self.spot_centers = sorted(int(i) for i in rng.choice(self.n_lambdas, 3, replace=False))
        self.digest = _digest(self.lambdas)

    def run(self):
        return self.lib.phase.sweep(self.config)

    def check(self, report, checks: Checks) -> None:
        keys = {self.lib.phase.probe_key(*p): v for p, v in self.expected.items()}
        checks.expect(len(report.betti) == self.n_lambdas,
                      f"sweep has {len(report.betti)} entries, expected {self.n_lambdas}")
        checks.expect(all(b == keys for b in report.betti),
                      "some entry differs from k1 = 0, k0 = 1")
        checks.expect(report.kernel_dims == report.betti, "kernel dims differ from Betti values")
        checks.expect(report.transitions == (), f"unexpected transitions {report.transitions}")

    def final_checks(self, report, checks: Checks) -> None:
        """Rebuild a few windows and compare the rank oracle with the report."""
        lib = self.lib
        cloud = lib.statecloud.build_cloud(
            self.lambdas, lib.statecloud.SSHChain(n_sites=4), lib.statecloud.ssh_observables(4))
        n = len(self.lambdas)
        for center in self.spot_centers:
            lo, hi = max(0, center - self.halfwidth), min(n, center + self.halfwidth + 1)
            fc = lib.simplicial.vr_filtration(cloud.points[lo:hi], max_dim=2)
            for probe, value in self.expected.items():
                oracle = lib.persistence.betti_oracle(fc, *probe)
                got = report.betti[center][lib.phase.probe_key(*probe)]
                checks.expect(oracle == value == got,
                              f"window {center} probe {probe}: oracle {oracle}, sweep {got}")


class SpectralCircle:
    """One large dense Laplacian/Dirac problem, driven through the CLI.

    The circle's noise is drawn once, from a fixed stream; the seed rotates
    that circle and shuffles its point order.  The chords of an evenly
    sampled 40-gon lie within 0.025 of both distance thresholds (1.2 and 1.5),
    so fresh noise per seed would move the edge and triangle counts at the
    probe scales, and with them the cubic-cost problem size, by tens of
    percent from seed to seed.
    """

    name = "spectral_circle"
    n_points = 40
    noise_seed = 0

    def __init__(self, lib, np, seed: int, workdir: Path):
        self.lib = lib
        self.np = np
        base = noisy_circle(np, np.random.default_rng(self.noise_seed), self.n_points)
        rng = np.random.default_rng(seed)
        angle = 2.0 * np.pi * rng.random()
        rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        points = (base @ rotation.T)[rng.permutation(self.n_points)]
        self.csv_path = workdir / "cloud.csv"
        self.out_path = workdir / "spectrum.json"
        cloud = lib.statecloud.StateCloud(points, np.arange(self.n_points, dtype=float), ("x", "y"))
        lib.statecloud.cloud_to_csv(cloud, self.csv_path)
        self.argv = ["dirac", "--cloud", str(self.csv_path), "--k", "1",
                     "--eps", str(PROBE_EPS[0]), "--eps2", str(PROBE_EPS[1]),
                     "--out", str(self.out_path)]
        self.digest = _digest(points)

    def run(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.lib.cli.main(self.argv)
        return code, stdout.getvalue()

    def check(self, result, checks: Checks) -> None:
        code, stdout = result
        checks.expect(code == 0, f"dirac exited {code}")
        checks.expect(stdout == "kernel dimension: 1\n", f"dirac printed {stdout!r}")
        try:
            payload = json.loads(self.out_path.read_text())
            ev = self.np.asarray(payload["eigenvalues"], dtype=float)
        except (OSError, ValueError, KeyError) as err:
            checks.expect(False, f"spectrum JSON unreadable: {err}")
            return
        finally:
            self.out_path.unlink(missing_ok=True)  # the next pass must write its own
        scale = max(1.0, float(self.np.max(self.np.abs(ev)))) if ev.size else 1.0
        checks.expect(payload.get("xi") == 0.0 and ev.size > 0
                      and float(self.np.max(self.np.abs(ev + ev[::-1]))) <= 1e-8 * scale,
                      "spectrum is not symmetric about 0")

    def final_checks(self, result, checks: Checks) -> None:
        """Bars and the rank oracle agree with the CLI's kernel on the same cloud."""
        lib = self.lib
        fc = lib.simplicial.vr_filtration(lib.statecloud.cloud_from_csv(self.csv_path), max_dim=2)
        bars = lib.persistence.persistent_betti(lib.persistence.reduce(fc), 1, *PROBE_EPS)
        oracle = lib.persistence.betti_oracle(fc, 1, *PROBE_EPS)
        checks.expect(bars == oracle == 1, f"bars {bars}, oracle {oracle}, expected 1")


class BarcodeCircles:
    """Three n=60 full 2-skeleta: VR construction and Z2 reduction, no spectra."""

    name = "barcode_circles"
    n_points = 60
    n_clouds = 3

    def __init__(self, lib, np, seed: int, workdir: Path):
        self.lib = lib
        rng = np.random.default_rng(seed)
        self.clouds = [noisy_circle(np, rng, self.n_points) for _ in range(self.n_clouds)]
        self.digest = _digest(*self.clouds)

    def run(self):
        simplicial, persistence = self.lib.simplicial, self.lib.persistence
        bars, oracles, diagrams = [], [], []
        for points in self.clouds:
            fc = simplicial.vr_filtration(points, max_dim=2)
            diagram = persistence.reduce(fc)
            bars.append(persistence.persistent_betti(diagram, 1, *PROBE_EPS))
            oracles.append(persistence.betti_oracle(fc, 1, *PROBE_EPS))
            diagrams.append(diagram)
        distances = [persistence.bottleneck(a, b, k)
                     for a, b in zip(diagrams, diagrams[1:]) for k in (0, 1)]
        return bars, oracles, distances

    def check(self, result, checks: Checks) -> None:
        bars, oracles, distances = result
        for i, (b, o) in enumerate(zip(bars, oracles)):
            checks.expect(b == o == 1, f"circle {i}: bars {b}, oracle {o}, expected 1")
        for d in distances:
            checks.expect(0.0 <= d < float("inf"), f"bottleneck distance {d}")

    def final_checks(self, result, checks: Checks) -> None:
        pass


WORKLOADS = {w.name: w for w in (WindowSweep, SpectralCircle, BarcodeCircles)}


def _load_library():
    """Import topophase from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    from topophase import cli, dirac, persistence, phase, simplicial, statecloud

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"topophase imported from {cli.__file__}, not {src}")
    lib = argparse.Namespace(cli=cli, dirac=dirac, persistence=persistence, phase=phase,
                             simplicial=simplicial, statecloud=statecloud)
    return lib, np


def _blas_threads(np):
    """Live thread count of numpy's bundled OpenBLAS, or None if not found."""
    base = Path(np.__file__).resolve().parent
    for lib_path in sorted(glob.glob(str(base.parent / "numpy.libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def _timed_pass(workload, checks: Checks, tracer=None, sites=()):
    """Run the body once; returns (output, seconds) or (None, None) if it raised."""
    scope = tracer.traced_pass(sites) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            out = workload.run()
    except Exception as err:  # a raising body is a failed check, and the run goes on
        traceback.print_exc(file=sys.stderr)
        checks.expect(False, f"timed body raised {type(err).__name__}: {err}")
        return None, None
    elapsed = time.perf_counter() - start
    workload.check(out, checks)
    return out, elapsed


def measure(workload, seconds: float, checks: Checks, tracer=None, sites=()) -> dict:
    """Repeat rounds until the next one would overrun ``seconds``.

    A round is one untraced pass, followed in a traced run by one traced pass.
    Untraced runs make at least three rounds, traced runs at least one.
    """
    min_rounds = 1 if tracer is not None else 3
    untraced, traced, rounds = [], [], []
    last = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        out, dt = _timed_pass(workload, checks)
        if dt is not None:
            untraced.append(dt)
            last = out
        if tracer is not None:
            out, dt = _timed_pass(workload, checks, tracer, sites)
            if dt is not None:
                traced.append(dt)
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(rounds) > seconds:
            break
    if last is not None:
        workload.final_checks(last, checks)
    return {"samples": untraced, "traced_samples": traced, "elapsed_s": elapsed,
            "passes": len(rounds)}


def layer_metrics(tracer, sites, traced_samples, samples, checks: Checks) -> dict:
    """Per-layer metrics: medians of times over traced passes, exact counts."""
    totals = tracer.layer_totals()
    names = sorted({layer_name(getattr(m, a)) for m, a in sites})
    metrics = {}
    for name in names:
        for field in ("s", "self_s"):
            metrics[f"{name}.{field}"] = statistics.median(
                p.get(name, {}).get(field, 0.0) for p in totals)
    calls = [{name: p.get(name, {}).get("calls", 0) for name in names} for p in totals]
    counts = [{key: c.get(key, 0) for key in COUNT_NAMES} for c in tracer.counts]
    checks.expect(all(c == calls[0] for c in calls) and all(c == counts[0] for c in counts),
                  "call counts or layer counts differ between traced passes")
    metrics.update({f"{name}.calls": n for name, n in calls[0].items()})
    metrics.update(counts[0])
    metrics["trace.overhead_s"] = statistics.median(traced_samples) - statistics.median(samples)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUT_ROOT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    lib, np = _load_library()
    workload = WORKLOADS[args.workload](lib, np, args.seed, workdir)
    ready_wall = time.time()
    result = {"ready_wall": ready_wall, "digest": workload.digest}
    if not args.setup_only:
        checks = Checks()
        tracer = sites = None
        if args.trace:
            modules = vars(lib)
            sites = [(modules[m], a) for m, a in TRACE_SITES]
            tracer = Tracer(COUNTERS)
        result.update(measure(workload, args.seconds, checks, tracer, sites or ()))
        if tracer is not None and result["samples"] and result["traced_samples"]:
            result["layers"] = layer_metrics(tracer, sites, result["traced_samples"],
                                             result["samples"], checks)
            tracer.write(workdir / "spans.jsonl")
        result.update({
            "checks_attempted": checks.attempted,
            "checks_failed": checks.failed,
            "failures": checks.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(np),
        })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
