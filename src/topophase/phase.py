"""Parameter sweeps: per-lambda clouds, Betti/spectral probes, transitions.

A sweep builds the expectation cloud over a lambda grid, forms one Vietoris-
Rips filtration per lambda (a sliding window of neighboring sweep points, or
one global cloud), evaluates every probe interval both by barcode counting
and by persistent-Laplacian kernel dimension, and reports each adjacent
lambda pair where any probe value changes.

Window filtrations come as disjoint unions of consecutive windows, cut from
one banded complex per block of 2 * window_halfwidth + 1 centres
(``simplicial._window_unions``), so a sweep holds at most one block's
complex however many lambdas it has.  Each union is reduced once
(``persistence._bars``); every window's persistent Betti numbers for a probe
are one ``bincount`` of the bars' windows, and a kept diagram is its
window's share of the bars.  A global sweep is the union of one complex.
Kernels are counted per window by ``dirac.persistent_kernel_dim`` (or by
``dirac.dirac_spectrum`` when spectra are kept), without reading the bars:
a probe of degree k >= 1 with no k-simplex born between its scales is
certified empty from simplex degrees when the Gershgorin discs allow, and
any other probe counts ``dirac.betti_from_laplacian`` of
``dirac.persistent_laplacian``.  A sweep stops at the first window and
probe whose two counts differ.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import dirac as _dirac
from . import persistence as _persistence
from .simplicial import (_check_dense, _check_max_dim, _check_probe, _is_number, _window_unions, _WindowUnion,
                         vr_filtration)
from .statecloud import (
    DEFAULT_GAP_TOL,
    SSHChain,
    build_cloud,
    haar_unitary,
    ssh_observables,
)

WINDOW = "window"
GLOBAL = "global"

# accepted values per ScanConfig annotation, and their name in error messages; a bool is no number
_FIELD_TYPES = {"float": (numbers.Real, "a number"), "int": (numbers.Integral, "an integer"),
                "str": (str, "a string"), "bool": (bool, "true or false"), "tuple": ((list, tuple), "a list")}


class ConsistencyError(RuntimeError):
    """Barcode and spectral detectors disagree; the report is defective."""


def probe_key(k: int, eps1: float, eps2: float) -> str:
    return f"k{k}_{eps1:g}_{eps2:g}"


@dataclass(frozen=True)
class ScanConfig:
    """Sweep definition: model, lambda grid, windowing, and probe intervals.

    Each field must have its annotated type, and a numeric field takes any
    number of its kind, numpy's too, but not a bool; it is stored as a Python
    int or float, and a float field must be finite.  A probe (k, eps1, eps2)
    needs an integer degree 0 <= k < ``max_dim`` and scales 0 <= eps1 <= eps2
    (``simplicial._check_probe``), and no two probes may share a report key.
    ``max_dim`` must be an integer >= 0.  A complex stores no dimension past
    its first empty one, so any ``max_dim`` past the number of lambdas gives
    the probe values of that number, in its time.
    A ``window_halfwidth`` of n - 1 or more gives every one of the n lambdas the
    whole cloud, and is swept as n - 1.  ``jobs`` is validated (>= 1) and kept
    for compatibility; sweeps run serially whatever its value.
    """

    lambda_min: float
    lambda_max: float
    step: float
    model: str = "ssh"
    n_sites: int = 4
    v: float = 1.0
    w: float = 1.0
    cloud_mode: str = WINDOW
    window_halfwidth: int = 3
    intervals: tuple = ((1, 0.4, 0.8),)
    max_dim: int = 2
    xi: float = 0.0
    gap_tol: float = DEFAULT_GAP_TOL
    jobs: int = 1
    keep_diagrams: bool = False
    keep_spectra: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            accepted, wanted = _FIELD_TYPES[f.type]
            if not isinstance(value, accepted) or (isinstance(value, bool) and f.type != "bool"):
                raise ValueError(f"config field {f.name!r} must be {wanted}, got {value!r}")
            if f.type == "int":
                value = int(value)
            elif f.type == "float":
                try:
                    value = float(value)
                except OverflowError:  # an integer past the float range, refused as not finite below
                    value = -math.inf if value < 0 else math.inf
            object.__setattr__(self, f.name, value)
        if not all(isinstance(x, (list, tuple)) and len(x) == 3
                   and all(map(_is_number, x))
                   for x in self.intervals):
            raise ValueError("config field 'intervals' must be a list of [k, eps1, eps2] numbers")
        if self.model != "ssh":
            raise ValueError(f"unknown model {self.model!r}")
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if not self.lambda_min <= self.lambda_max:
            raise ValueError("lambda_min must not exceed lambda_max")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not np.isfinite((self.lambda_max - self.lambda_min) / self.step):
            raise ValueError(f"step {self.step!r} gives no finite number of lambda steps "
                             f"from {self.lambda_min!r} to {self.lambda_max!r}")
        _check_dense(self._n_steps() + 1, 1, "lambda grid")
        if self.cloud_mode not in (WINDOW, GLOBAL):
            raise ValueError(f"cloud_mode must be {WINDOW!r} or {GLOBAL!r}")
        if self.window_halfwidth < 0:
            raise ValueError("window_halfwidth must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        try:
            intervals = tuple(_check_probe(self.max_dim, k, e1, e2) for k, e1, e2 in self.intervals)
        except ValueError as err:
            raise ValueError(f"intervals: {err}") from None
        if not intervals:
            raise ValueError("at least one probe interval is required")
        seen = {}
        for probe in intervals:
            key = probe_key(*probe)
            if key in seen:
                raise ValueError(f"intervals: probes {seen[key]} and {probe} share the report key {key!r}")
            seen[key] = probe
        object.__setattr__(self, "intervals", intervals)
        _check_max_dim(self.max_dim)

    def _n_steps(self) -> int:
        span = self.lambda_max - self.lambda_min
        n_steps = int(round(span / self.step))
        if abs(self.lambda_min + n_steps * self.step - self.lambda_max) > 1e-9 * self.step:
            n_steps = int(np.floor(span / self.step + 1e-12))
        return n_steps

    def lambdas(self) -> np.ndarray:
        n_steps = self._n_steps()
        if n_steps == 0:
            return np.array([self.lambda_min])
        grid = np.linspace(self.lambda_min, self.lambda_min + n_steps * self.step, n_steps + 1)
        return np.round(grid, 12) + 0.0  # kill accumulated fp noise; -0.0 -> 0.0

    def probe_keys(self) -> list:
        return [probe_key(*probe) for probe in self.intervals]


@dataclass(frozen=True)
class PhaseScanReport:
    """Per-lambda probe values plus the detected transition brackets.

    ``betti`` and ``kernel_dims`` hold one dict per entry (probe key -> int);
    in window mode entries align with ``lambdas``, in global mode there is a
    single entry for the whole sweep.  ``diagrams`` and ``spectra`` are kept
    in memory only when the config asks for them.
    """

    config: ScanConfig
    lambdas: tuple
    betti: tuple
    kernel_dims: tuple
    transitions: tuple
    diagrams: tuple | None = None
    spectra: tuple | None = None

    def entry_lambdas(self) -> tuple:
        return self.lambdas if self.config.cloud_mode == WINDOW else (None,)


def _probe_union(union, config: ScanConfig, lambdas) -> list:
    """Barcode and per-probe detector values for every window of a ``_WindowUnion``.

    The union is reduced once and each probe's persistent Betti numbers are
    counted for all its windows at once; kernels are counted per window, and
    the first one that differs from its window's bars raises
    ``ConsistencyError`` naming the window's entry in ``lambdas``.
    """
    bars = _persistence._bars(union)
    counts = [_persistence._betti_counts(union, bars, *probe).tolist() for probe in config.intervals]
    results = []
    for w, (filtration, lam) in enumerate(zip(union.windows, lambdas)):
        betti = {}
        kernels = {}
        spectra = {} if config.keep_spectra else None
        for (k, e1, e2), count in zip(config.intervals, counts):
            key = probe_key(k, e1, e2)
            betti[key] = count[w]
            if spectra is None:
                kernels[key] = _dirac.persistent_kernel_dim(filtration, k, e1, e2)
            else:
                evals, kernels[key] = _dirac.dirac_spectrum(filtration, k, e1, e2, xi=config.xi)
                spectra[key] = [float(x) for x in evals]
            if kernels[key] != betti[key]:
                raise ConsistencyError(
                    f"barcode/spectral disagreement at lambda={lam!r}, probe {key}: "
                    f"persistent Betti {betti[key]} vs Laplacian kernel {kernels[key]}"
                )
        diagram = _persistence._diagram(union, bars, w) if config.keep_diagrams else None
        results.append((betti, kernels, diagram, spectra))
    return results


def _detect(lambdas, betti_dicts, keys):
    transitions = []
    for i in range(len(betti_dicts) - 1):
        changed = tuple(key for key in keys if betti_dicts[i][key] != betti_dicts[i + 1][key])
        if changed:
            transitions.append((float(lambdas[i]), float(lambdas[i + 1]), changed))
    return tuple(transitions)


def _sweep_cloud(config: ScanConfig, unitary=None):
    """Expectation cloud of the config's model over its lambda grid, in the frame of ``unitary``."""
    model = SSHChain(n_sites=config.n_sites, v=config.v, w=config.w)
    observables = ssh_observables(config.n_sites)
    if unitary is not None:
        observables = observables.conjugated(unitary)
    return build_cloud(config.lambdas(), model, observables, gap_tol=config.gap_tol, unitary=unitary)


def sweep(config: ScanConfig, unitary=None) -> PhaseScanReport:
    """Run the scan; raises naming the offending lambda on degeneracy.

    Windows at the sweep boundaries are truncated, not dropped, so endpoint
    lambdas keep comparable entries across runs.  Every probe is evaluated by
    both detectors, and the first barcode/kernel disagreement raises
    ``ConsistencyError`` instead of entering the report.
    """
    cloud = _sweep_cloud(config, unitary)
    lambdas = cloud.params

    if config.cloud_mode == GLOBAL:
        unions = [_WindowUnion.of(vr_filtration(cloud.points, eps_max=None, max_dim=config.max_dim))]
        entry_lambdas = [None]
    else:
        unions = _window_unions(cloud.points, config.window_halfwidth, config.max_dim)
        entry_lambdas = [float(x) for x in lambdas]

    results = []
    for union in unions:
        results += _probe_union(union, config, entry_lambdas[len(results):])
        del union  # free it before the next union is built

    betti = tuple(r[0] for r in results)
    kernels = tuple(r[1] for r in results)
    transitions = _detect(entry_lambdas, betti, config.probe_keys())
    return PhaseScanReport(
        config=config,
        lambdas=tuple(float(x) for x in lambdas),
        betti=betti,
        kernel_dims=kernels,
        transitions=transitions,
        diagrams=tuple(r[2] for r in results) if config.keep_diagrams else None,
        spectra=tuple(r[3] for r in results) if config.keep_spectra else None,
    )


def continuity_check(report: PhaseScanReport, exclude=None) -> bool:
    """True when Betti vectors are constant on each side of ``exclude``.

    ``exclude`` is an open lambda interval (lo, hi) or None to require a
    globally constant report.
    """
    lams = report.entry_lambdas()
    if exclude is None:
        groups = [list(range(len(report.betti)))]
    else:
        lo, hi = exclude
        left = [i for i, lam in enumerate(lams) if lam is not None and lam <= lo]
        right = [i for i, lam in enumerate(lams) if lam is not None and lam >= hi]
        groups = [left, right]
    for group in groups:
        if len(group) < 2:
            continue
        first = report.betti[group[0]]
        if any(report.betti[i] != first for i in group[1:]):
            return False
    return True


def unitary_conjugate_scan(config: ScanConfig, seed) -> PhaseScanReport:
    """Sweep with states U psi and observables U O U^dagger for a seeded U."""
    u = haar_unitary(config.n_sites, seed)
    return sweep(config, unitary=u)


# -- report serialization ------------------------------------------------------

def config_from_dict(payload: dict) -> ScanConfig:
    """Build a ``ScanConfig`` from parsed JSON; a malformed payload raises ``ValueError`` naming the field."""
    if not isinstance(payload, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(payload) - {f.name for f in fields(ScanConfig)})
    if unknown:
        raise ValueError(f"unknown config field {unknown[0]!r}")
    for required in (f.name for f in fields(ScanConfig) if f.default is MISSING):
        if required not in payload:
            raise ValueError(f"missing config field {required!r}")
    return ScanConfig(**payload)


def report_to_json(report: PhaseScanReport) -> str:
    entries = []
    for lam, b, kd in zip(report.entry_lambdas(), report.betti, report.kernel_dims):
        entries.append({
            "lambda": lam,
            "betti": dict(sorted(b.items())),
            "kernel_dims": dict(sorted(kd.items())),
        })
    payload = {
        "config": asdict(report.config),
        "entries": entries,
        "transitions": [
            {"left": left, "right": right, "probes": list(probes)}
            for left, right, probes in report.transitions
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def report_from_json(text: str) -> PhaseScanReport:
    payload = json.loads(text)
    config = config_from_dict(payload["config"])
    entries = payload["entries"]
    lambdas = tuple(e["lambda"] for e in entries if e["lambda"] is not None)
    if config.cloud_mode == GLOBAL:
        lambdas = tuple(float(x) for x in config.lambdas())
    betti = tuple({k: int(v) for k, v in e["betti"].items()} for e in entries)
    kernels = tuple({k: int(v) for k, v in e["kernel_dims"].items()} for e in entries)
    transitions = tuple(
        (t["left"], t["right"], tuple(t["probes"])) for t in payload["transitions"]
    )
    return PhaseScanReport(
        config=config,
        lambdas=lambdas,
        betti=betti,
        kernel_dims=kernels,
        transitions=transitions,
    )
