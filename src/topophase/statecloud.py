"""Tight-binding chains, ground states, and observable-expectation point clouds.

A parameterized Hamiltonian family is mapped to a cloud of points in R^m by
evaluating a fixed set of Hermitian observables in the ground state at each
parameter value: one contraction of the observables' (m, n, n) stack with the
state.  The resulting ``StateCloud`` is the geometric input for the
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
        if not abs(norm_sq - 1.0) <= 1e-12:  # also refuses a NaN norm
            raise ValueError(f"state not normalized: sum |a_i|^2 = {norm_sq!r}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class ObservableSet:
    """Labelled Hermitian observables as one read-only (m, n, n) complex stack.

    Each matrix of ``matrices``, any iterable, is copied into the stack as it is
    read, so a set built from a generator peaks at the stack plus one matrix.  A
    stack above ``simplicial.DENSE_LIMIT_BYTES`` is refused before it is allocated.
    """

    matrices: np.ndarray
    labels: tuple

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        stack = None
        for i, m in enumerate(self.matrices):
            m = np.asarray(m)
            if stack is None:
                n = m.shape[0] if m.ndim else 0
                _check_dense(len(labels) * n, n, "stack of observables", itemsize=16)
                stack = np.empty((len(labels), n, n), dtype=complex)
            if i == len(stack):
                raise ValueError("labels and matrices differ in length")
            if m.shape != stack.shape[1:]:
                raise ValueError(f"observable {labels[i]!r} has shape {m.shape}, expected {stack.shape[1:]}")
            stack[i] = m
            _require_hermitian(stack[i], f"observable {labels[i]!r}")
        if stack is None:
            raise ValueError("observable set is empty")
        if i + 1 != len(stack):
            raise ValueError("labels and matrices differ in length")
        stack.flags.writeable = False
        object.__setattr__(self, "matrices", stack)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def __len__(self) -> int:
        return len(self.matrices)

    def conjugated(self, unitary) -> "ObservableSet":
        """The set {U O U^dagger} under a fixed unitary U, as one batched product."""
        u = np.asarray(unitary, dtype=complex)
        return ObservableSet(u @ self.matrices @ u.conj().T, self.labels)


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
    terms = [(i, i, 1.0, f"n{i + 1}") for i in range(n_sites)]
    terms += [(i, i + 1, a, f"{part}{i + 1}_{i + 2}")
              for i in range(n_sites - 1) for part, a in (("re", 1.0), ("im", 1.0j))]

    def matrix(i, j, a):  # the Hermitian matrix with a at (i, j) and conj(a) at (j, i)
        m = np.zeros((n_sites, n_sites), dtype=complex)
        m[i, j] = a
        m[j, i] = np.conj(a)
        return m

    return ObservableSet((matrix(i, j, a) for i, j, a, _ in terms), [label for *_, label in terms])


def _expectations(stack: np.ndarray, state: QuantumState) -> np.ndarray:
    """<psi|O_i|psi> for every matrix O_i of an (m, n, n) stack, by two matrix-vector products."""
    if stack.shape[1:] != (state.dim, state.dim):
        raise ValueError(f"observable shape {stack.shape[1:]} does not match state dimension {state.dim}")
    a = state.amplitudes
    vals = (stack.reshape(-1, state.dim) @ a).reshape(len(stack), state.dim) @ a.conj()
    worst = vals.imag[np.argmax(np.abs(vals.imag))]
    if abs(worst) >= EXPECTATION_IMAG_TOL:
        raise ValueError(f"expectation value has imaginary residue {worst:.3e}; observable not Hermitian enough")
    return vals.real


def expectation(state: QuantumState, observable) -> float:
    """Real expectation value <psi|O|psi>; rejects a large imaginary residue."""
    return float(_expectations(np.asarray(observable)[None], state)[0])


def phi_map(state: QuantumState, observables: ObservableSet) -> np.ndarray:
    """Point in R^m whose i-th coordinate is the i-th observable expectation."""
    return _expectations(observables.matrices, state)


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
