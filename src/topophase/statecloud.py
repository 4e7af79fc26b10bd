"""Tight-binding chains, ground states, and observable-expectation point clouds.

A parameterized Hamiltonian family is mapped to a cloud of points in R^m by
evaluating a fixed set of Hermitian observables in the ground state at each
parameter value.  The resulting ``StateCloud`` is the geometric input for the
filtration / persistence machinery in the sibling modules.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .simplicial import _check_dense

HERMITICITY_TOL = 1e-12
DEFAULT_GAP_TOL = 1e-9
EXPECTATION_IMAG_TOL = 1e-12

_GAUGE_CUTOFF = 1e-10


class InvalidModelError(ValueError):
    """Model parameters that do not define a valid chain."""


class DegenerateGroundStateError(ValueError):
    """Two lowest eigenvalues closer than the configured gap tolerance."""

    def __init__(self, gap: float, tol: float, lam: float | None = None):
        self.gap = gap
        self.tol = tol
        self.lam = lam
        where = "" if lam is None else f" at lambda={lam:.10g}"
        super().__init__(
            f"degenerate ground state{where}: gap {gap:.3e} below tolerance {tol:.3e}"
        )


def is_hermitian(matrix, tol: float = HERMITICITY_TOL) -> bool:
    """True when ``matrix`` equals its conjugate transpose within ``tol``."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return float(np.max(np.abs(a - a.conj().T))) <= tol if a.size else True


def _require_hermitian(matrix, name: str = "matrix") -> np.ndarray:
    a = np.asarray(matrix)
    if not is_hermitian(a):
        raise ValueError(f"{name} is not Hermitian within {HERMITICITY_TOL:g}")
    return a


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Normalized pure state with the energy of the eigenpair it came from."""

    amplitudes: np.ndarray
    energy: float

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size == 0:
            raise ValueError("amplitudes must be a non-empty vector")
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: sum |a_i|^2 = {norm_sq!r}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class ObservableSet:
    """Labelled family of same-dimension Hermitian observables, held as read-only copies."""

    matrices: tuple
    labels: tuple

    def __post_init__(self):
        self._freeze(copy=True)

    @classmethod
    def _owned(cls, matrices: tuple, labels: tuple) -> "ObservableSet":
        """The set of ``matrices`` themselves, made read-only; no other reference to them may remain."""
        obs = object.__new__(cls)
        object.__setattr__(obs, "matrices", matrices)
        object.__setattr__(obs, "labels", labels)
        obs._freeze(copy=False)
        return obs

    def _freeze(self, copy: bool) -> None:
        mats = tuple(np.asarray(m) for m in self.matrices)
        labels = tuple(str(s) for s in self.labels)
        if not mats:
            raise ValueError("observable set is empty")
        if len(mats) != len(labels):
            raise ValueError("labels and matrices differ in length")
        dim = mats[0].shape[0]
        for label, m in zip(labels, mats):
            if m.shape != (dim, dim):
                raise ValueError(f"observable {label!r} has shape {m.shape}, expected ({dim}, {dim})")
            _require_hermitian(m, f"observable {label!r}")
        frozen = []
        for m in mats:
            if copy:
                m = m.copy()
            m.flags.writeable = False
            frozen.append(m)
        object.__setattr__(self, "matrices", tuple(frozen))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def __len__(self) -> int:
        return len(self.matrices)

    def conjugated(self, unitary) -> "ObservableSet":
        """The set {U O U^dagger} under a fixed unitary U."""
        u = np.asarray(unitary, dtype=complex)
        return ObservableSet(tuple(u @ m @ u.conj().T for m in self.matrices), self.labels)


@dataclass(frozen=True, eq=False)
class StateCloud:
    """Ordered points in R^m, one per parameter value, tagged with labels."""

    points: np.ndarray
    params: np.ndarray
    labels: tuple

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        par = np.asarray(self.params, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, m) array")
        if par.shape != (pts.shape[0],):
            raise ValueError("params length must match the number of points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(par)):
            raise ValueError("params must be finite")
        if np.any(np.diff(par) <= 0):
            raise ValueError("params must be strictly increasing")
        labels = tuple(str(s) for s in self.labels)
        if len(labels) != pts.shape[1]:
            raise ValueError("one label per point coordinate is required")
        pts.flags.writeable = False
        par.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "params", par)
        object.__setattr__(self, "labels", labels)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class SSHChain:
    """Open chain with staggered nearest-neighbor hopping v + (-1)^i * lambda * w."""

    n_sites: int = 4
    v: float = 1.0
    w: float = 1.0

    def __post_init__(self):
        if self.n_sites < 2:
            raise InvalidModelError(f"n_sites must be >= 2, got {self.n_sites}")

    def hamiltonian(self, lam: float) -> np.ndarray:
        return build_ssh_hamiltonian(lam, self.v, self.w, self.n_sites)


def build_ssh_hamiltonian(lam: float, v: float = 1.0, w: float = 1.0, n_sites: int = 4) -> np.ndarray:
    """Single-particle matrix of the staggered-hopping open chain.

    Bond (i, i+1), with sites counted from 1, carries amplitude
    ``v + (-1)**i * lam * w``.  The result is real symmetric tridiagonal.
    """
    if n_sites < 2:
        raise InvalidModelError(f"n_sites must be >= 2, got {n_sites}")
    h = np.zeros((n_sites, n_sites))
    for i in range(1, n_sites):
        amp = v + (-1) ** i * lam * w
        h[i - 1, i] = h[i, i - 1] = amp
    return h


def ground_state(hamiltonian, gap_tol: float = DEFAULT_GAP_TOL) -> QuantumState:
    """Lowest eigenpair of a Hermitian matrix, gauge-fixed and normalized.

    The gauge makes the first amplitude of magnitude above 1e-10 positive
    real, so the output is unique (and bit-reproducible) for a gapped input.

    Raises
    ------
    DegenerateGroundStateError
        If the two smallest eigenvalues are within ``gap_tol``.
    ValueError
        If ``gap_tol`` is not finite and positive.
    """
    if not 0.0 < gap_tol < np.inf:
        raise ValueError(f"gap_tol must be finite and > 0, got {gap_tol!r}")
    h = _require_hermitian(hamiltonian, "hamiltonian")
    evals, evecs = np.linalg.eigh(h)
    if h.shape[0] >= 2:
        gap = float(evals[1] - evals[0])
        if gap < gap_tol:
            raise DegenerateGroundStateError(gap, gap_tol)
    vec = np.asarray(evecs[:, 0], dtype=complex)
    vec = vec / np.linalg.norm(vec)
    for c in vec:
        if abs(c) > _GAUGE_CUTOFF:
            vec = vec * (abs(c) / c)
            break
    return QuantumState(vec, float(evals[0]))


def ssh_observables(n_sites: int = 4) -> ObservableSet:
    """Site densities plus real/imaginary nearest-neighbor correlation parts.

    Ordering: the ``n`` densities first, then for each bond (i, i+1) the real
    part ``c_i^+ c_j + c_j^+ c_i`` followed by the imaginary part
    ``i (c_i^+ c_j - c_j^+ c_i)``; ``n`` densities + 2(n-1) correlations total.
    Raises ``ValueError`` before building anything if the stack of 3n - 2
    complex n x n matrices would exceed ``simplicial.DENSE_LIMIT_BYTES``.
    """
    if n_sites < 2:
        raise InvalidModelError(f"n_sites must be >= 2, got {n_sites}")
    _check_dense((3 * n_sites - 2) * n_sites, n_sites, "stack of observables", itemsize=16)
    mats = []
    labels = []
    for i in range(n_sites):
        m = np.zeros((n_sites, n_sites), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
        labels.append(f"n{i + 1}")
    for i in range(n_sites - 1):
        re = np.zeros((n_sites, n_sites), dtype=complex)
        re[i, i + 1] = re[i + 1, i] = 1.0
        im = np.zeros((n_sites, n_sites), dtype=complex)
        im[i, i + 1] = 1.0j
        im[i + 1, i] = -1.0j
        mats.append(re)
        labels.append(f"re{i + 1}_{i + 2}")
        mats.append(im)
        labels.append(f"im{i + 1}_{i + 2}")
    return ObservableSet._owned(tuple(mats), tuple(labels))  # no copy: nothing else holds them


def expectation(state: QuantumState, observable) -> float:
    """Real expectation value <psi|O|psi>; rejects a large imaginary residue."""
    o = np.asarray(observable)
    if o.ndim != 2 or o.shape != (state.dim, state.dim):
        raise ValueError(f"observable shape {o.shape} does not match state dimension {state.dim}")
    val = complex(np.vdot(state.amplitudes, o @ state.amplitudes))
    if abs(val.imag) >= EXPECTATION_IMAG_TOL:
        raise ValueError(f"expectation value has imaginary residue {val.imag:.3e}; observable not Hermitian enough")
    return float(val.real)


def phi_map(state: QuantumState, observables: ObservableSet) -> np.ndarray:
    """Point in R^m whose i-th coordinate is the i-th observable expectation."""
    return np.array([expectation(state, o) for o in observables.matrices])


def build_cloud(lambdas, model: SSHChain, observables: ObservableSet,
                gap_tol: float = DEFAULT_GAP_TOL, unitary=None) -> StateCloud:
    """One expectation-vector point per parameter value, in sweep order.

    ``unitary`` optionally replaces every ground state psi by U psi; pair it
    with ``observables.conjugated(U)`` to realize a conjugated frame.

    Raises
    ------
    DegenerateGroundStateError
        Naming the offending lambda when any ground state is degenerate.
    """
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("lambdas must be a non-empty 1-d sequence")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("lambdas must be strictly increasing")
    u = None if unitary is None else np.asarray(unitary, dtype=complex)
    points = np.empty((lams.size, len(observables)))
    for row, lam in enumerate(lams):
        try:
            state = ground_state(model.hamiltonian(lam), gap_tol=gap_tol)
        except DegenerateGroundStateError as err:
            raise DegenerateGroundStateError(err.gap, err.tol, lam=float(lam)) from None
        if u is not None:
            state = QuantumState(u @ state.amplitudes, state.energy)
        points[row] = phi_map(state, observables)
    return StateCloud(points, lams, observables.labels)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary from a seeded generator (QR with phase fix)."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def cloud_csv_text(cloud: StateCloud) -> str:
    """``lambda,<label_1>,...,<label_m>`` rows at full double precision."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["lambda", *cloud.labels])
    for lam, point in zip(cloud.params, cloud.points):
        writer.writerow([f"{lam:.17g}", *[f"{x:.17g}" for x in point]])
    return buf.getvalue()


def cloud_to_csv(cloud: StateCloud, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(cloud_csv_text(cloud))


def cloud_from_csv(path) -> StateCloud:
    """Parse a cloud CSV; malformed rows are reported with their row number."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError("empty cloud CSV: missing header")
    header = rows[0]
    if len(header) < 2 or header[0] != "lambda":
        raise ValueError("row 1: header must be 'lambda,<label_1>,...'")
    labels = tuple(header[1:])
    if len(rows) < 2:
        raise ValueError("empty cloud CSV: no data rows")
    params = []
    points = []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"row {idx}: expected {len(header)} fields, got {len(row)}")
        try:
            values = [float(x) for x in row]
        except ValueError:
            raise ValueError(f"row {idx}: non-numeric field") from None
        params.append(values[0])
        points.append(values[1:])
    return StateCloud(np.array(points), np.array(params), labels)
