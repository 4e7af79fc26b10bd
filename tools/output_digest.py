"""One digest over the outputs of sweeps, diagrams, spectra and kernel counts.

Run it once per checkout and compare the lines; equal lines mean the outputs
below are byte-identical between the two source trees:

    PYTHONPATH=<checkout>/src python3 tools/output_digest.py

It prints ``<count> <sha256>``: the number of outputs and the SHA-256 of
their texts, in order.  The outputs are

- ``report_to_json`` of window sweeps over the benchmark's grid (96 lambdas,
  step 0.02, from -0.95 + 0.01 * ``default_rng(seed).random()``) at seeds
  0-9, halfwidths 0, 3 and 8 and ``max_dim`` 1-3, each run plain and with
  kept diagrams and spectra (xi = 0.3), with the probes of ``PROBES`` whose
  degree is below ``max_dim``;
- one 48-lambda global sweep;
- ``diagram_to_json(reduce(...))`` of three seeded 60-point noisy circles;
- ``spectrum_to_json`` of ``dirac_spectrum`` on a seeded 40-point circle;
- 600 kernel counts ``betti_from_laplacian(persistent_laplacian(...))`` on
  seeded random clouds;
- window sweeps past the windows' point counts: the grid above at seeds
  0-9, halfwidths 0 and 1 and ``max_dim`` 12, plain and kept, with every
  probe of ``PROBES``;
- ``diagram_to_json(reduce(...))`` of five seeded points at ``max_dim`` 12.

A sweep that raises contributes its exception's type and message instead.
It uses numpy and the standard library only and takes about two minutes on
a 2-vCPU machine.
"""

from __future__ import annotations

import hashlib

import numpy as np

import topophase as tp
from topophase import dirac, persistence, phase

PROBES = ((1, 0.4, 0.8), (0, 0.02, 0.04), (0, 0.001, 0.01), (1, 0.01, 0.02), (2, 0.01, 0.03))
N_LAMBDAS = 96
STEP = 0.02


def noisy_circle(rng, n: int, sigma: float = 0.05) -> np.ndarray:
    """n evenly spaced angles on the unit circle under a random rotation, plus Gaussian noise."""
    theta = 2.0 * np.pi * (np.arange(n) + rng.random()) / n
    return np.column_stack([np.cos(theta), np.sin(theta)]) + rng.normal(0.0, sigma, size=(n, 2))


def sweep_texts(n_lambdas: int, seed: int, **fields) -> list:
    """The report's JSON, plus its kept diagrams and spectra; the exception's text if the sweep raises."""
    lmin = -0.95 + 0.01 * np.random.default_rng(seed).random()
    config = tp.ScanConfig(lambda_min=lmin, lambda_max=lmin + (n_lambdas - 1) * STEP, step=STEP, **fields)
    try:
        report = phase.sweep(config)
    except (ValueError, RuntimeError) as err:
        return [f"{type(err).__name__}: {err}"]
    texts = [phase.report_to_json(report)]
    for diagram in report.diagrams or ():
        texts.append(persistence.diagram_to_json(diagram))
    for spectra in report.spectra or ():
        texts.append(repr(sorted(spectra.items())))
    return texts


def outputs():
    """Every output, in a fixed order; each is one text or a list of texts."""
    for seed in range(10):
        for halfwidth in (0, 3, 8):
            for max_dim in (1, 2, 3):
                probes = tuple(p for p in PROBES if p[0] < max_dim)
                for kept in (False, True):
                    yield sweep_texts(N_LAMBDAS, seed, window_halfwidth=halfwidth, max_dim=max_dim,
                                      intervals=probes, keep_diagrams=kept, keep_spectra=kept,
                                      xi=0.3 if kept else 0.0)
    yield sweep_texts(48, 0, cloud_mode=phase.GLOBAL, max_dim=2, intervals=PROBES[:2])
    rng = np.random.default_rng(2024)
    for _ in range(3):
        yield persistence.diagram_to_json(tp.reduce(tp.vr_filtration(noisy_circle(rng, 60), max_dim=2)))
    circle = tp.vr_filtration(noisy_circle(np.random.default_rng(40), 40), eps_max=0.75, max_dim=2)
    evals, _ = tp.dirac_spectrum(circle, 1, 0.6, 0.75)
    yield dirac.spectrum_to_json(1, 0.6, 0.75, 0.0, evals)
    rng = np.random.default_rng(600)
    for _ in range(200):
        n = int(rng.integers(3, 13))
        fc = tp.vr_filtration(rng.random((n, int(rng.integers(1, 4)))), max_dim=3)
        for k in (0, 1, 2):
            e1, e2 = sorted(rng.uniform(0.0, 1.1 * fc.eps_max, size=2))
            yield str(dirac.betti_from_laplacian(dirac.persistent_laplacian(fc, k, e1, e2)))
    for seed in range(10):
        for halfwidth in (0, 1):
            for kept in (False, True):
                yield sweep_texts(N_LAMBDAS, seed, window_halfwidth=halfwidth, max_dim=12, intervals=PROBES,
                                  keep_diagrams=kept, keep_spectra=kept, xi=0.3 if kept else 0.0)
    yield persistence.diagram_to_json(tp.reduce(tp.vr_filtration(np.random.default_rng(5).random((5, 2)),
                                                                 max_dim=12)))


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for output in outputs():
        for text in [output] if isinstance(output, str) else output:
            digest.update(text.encode())
            digest.update(b"\0")
        count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
