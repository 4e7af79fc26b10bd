"""What the benchmark in ``perfbench/`` reads from the library.

``perfbench/workloads.py`` wraps the functions named in ``TRACE_SITES`` at
their module attributes, counts bars with ``len(d.bars)`` and builds its
window sweep with ``ScanConfig(jobs=1)``.  The benchmark's files change only
together with a new baseline, so the dense Dirac reference it still traces
(``restricted_boundary``, ``dirac_operator``, ``spectrum``,
``persistent_laplacian``, ``betti_from_laplacian``) and ``ScanConfig.jobs``
stay in the library until then.  These tests fail when the library drops a
name the benchmark needs; they do not run the benchmark.
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


def test_trace_sites_resolve_to_callables(workloads):
    for module, attr in workloads.TRACE_SITES:
        target = getattr(importlib.import_module(f"topophase.{module}"), attr, None)
        assert callable(target), f"topophase.{module}.{attr}"


def test_bar_counter_counts_every_bar(workloads):
    diagram = tp.reduce(tp.vr_filtration(np.random.default_rng(0).random((12, 2)), max_dim=2))
    assert len(diagram.bars) == len(diagram.dims)
    assert workloads.COUNTERS["persistence.reduce"](diagram) == {"persistence.bars": len(diagram.dims)}


def test_every_workload_sets_up(workloads, tmp_path):
    # WindowSweep constructs ScanConfig(..., jobs=1); SpectralCircle writes its cloud CSV
    lib = argparse.Namespace(cli=cli, dirac=dirac, persistence=persistence, phase=phase,
                             simplicial=simplicial, statecloud=statecloud)
    set_up = {name: workload(lib, np, 0, tmp_path) for name, workload in workloads.WORKLOADS.items()}
    assert set_up["window_sweep"].config.jobs == 1
