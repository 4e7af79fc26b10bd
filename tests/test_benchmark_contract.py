"""What the benchmark in ``perfbench/`` reads from the library.

``perfbench/workloads.py`` wraps the functions named in ``TRACE_SITES`` at
their module attributes, counts bars with ``len(d.bars)`` and builds its
window sweep with ``ScanConfig(jobs=1)``.  The benchmark's files change only
together with a new baseline, so the dense Dirac reference it still traces
(``restricted_boundary``, ``dirac_operator``, ``spectrum``) and
``ScanConfig.jobs`` stay in the library until then.  These tests fail when
the library drops a name the benchmark needs, or when a window sweep's
Laplacian calls change; they run one traced pass of one workload, not the
benchmark.
"""

import argparse
import importlib
from pathlib import Path

import numpy as np
import pytest

import topophase as tp
from topophase import cli, dirac, persistence, phase, simplicial, statecloud

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


@pytest.fixture
def lib():
    """The modules the benchmark hands its workloads."""
    return argparse.Namespace(cli=cli, dirac=dirac, persistence=persistence, phase=phase,
                              simplicial=simplicial, statecloud=statecloud)


def test_trace_sites_resolve_to_callables(workloads):
    for module, attr in workloads.TRACE_SITES:
        target = getattr(importlib.import_module(f"topophase.{module}"), attr, None)
        assert callable(target), f"topophase.{module}.{attr}"


def test_bar_counter_counts_every_bar(workloads):
    diagram = tp.reduce(tp.vr_filtration(np.random.default_rng(0).random((12, 2)), max_dim=2))
    assert len(diagram.bars) == len(diagram.dims)
    assert workloads.COUNTERS["persistence.reduce"](diagram) == {"persistence.bars": len(diagram.dims)}


def test_every_workload_sets_up(workloads, lib, tmp_path):
    # WindowSweep constructs ScanConfig(..., jobs=1); SpectralCircle writes its cloud CSV
    set_up = {name: workload(lib, np, 0, tmp_path) for name, workload in workloads.WORKLOADS.items()}
    assert set_up["window_sweep"].config.jobs == 1


def test_window_sweep_traces_the_laplacian_sites(workloads, lib, tmp_path):
    # each of the 96 windows counts both probes' kernels with persistent_kernel_dim: simplex
    # degrees certify the k = 1 probe (a full simplex, L_1 = m I) with no Laplacian formed, and
    # the k = 0 probe (kernel 1) forms the window's order-m graph Laplacian and takes its eigenvalues
    sweep = workloads.WindowSweep(lib, np, 0, tmp_path)
    tracer = workloads.Tracer(workloads.COUNTERS)
    modules = vars(lib)
    with tracer.traced_pass([(modules[m], attr) for m, attr in workloads.TRACE_SITES]):
        sweep.run()
    layers = tracer.layer_totals()[0]
    assert layers["dirac.persistent_laplacian"]["calls"] == 96
    assert layers["dirac.betti_from_laplacian"]["calls"] == 96
    assert tracer.counts[0]["dirac.laplacian_order"] == 1560


def test_window_sweep_forms_no_k1_laplacian(workloads, lib, tmp_path, monkeypatch):
    # every window's k = 1 probe is certified from simplex degrees: each Laplacian formed,
    # and each eigensolve, is a window's k = 0 graph Laplacian
    sweep = workloads.WindowSweep(lib, np, 0, tmp_path)
    formed, solved = [], []
    real_lap, real_eigvalsh = dirac.persistent_laplacian, np.linalg.eigvalsh

    def laplacian(*args):
        lap = real_lap(*args)
        formed.append((args[1], len(lap)))
        return lap

    def eigvalsh(a):
        solved.append(len(a))
        return real_eigvalsh(a)

    monkeypatch.setattr(dirac, "persistent_laplacian", laplacian)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    sweep.run()
    assert {k for k, _ in formed} == {0}
    assert solved == [order for _, order in formed]
    assert len(solved) == 96
