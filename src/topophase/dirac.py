"""Persistent Laplacians and Dirac spectra, computed from the Laplacian alone.

All spectral objects use real coefficients.  The persistent Laplacian of a
scale pair (eps, eps') is L_k = d_k^T d_k + M M^T, where d_k is the boundary
operator at scale eps and M is the boundary of (k+1)-chains at eps' restricted
to those whose boundary lies in the scale-eps complex; its kernel dimension is
the persistent Betti number.  L_k reads the (k+1)-simplices, so every entry
point refuses k outside 0 <= k < max_dim, and scales outside
0 <= eps <= eps' (``simplicial._check_probe``).

Two identities keep that computation small:

- Schur complement (Memoli, Wan, Wang, "Persistent Laplacians", arXiv
  2012.02808).  Split the rows of the scale-eps' boundary B into those of
  the k-simplices of K_eps (R1) and the rest (R2).  The restricted domain is
  null(R2), so M M^T = R1 R1^T - R1 R2^T (R2 R2^T)^+ R2 R1^T: the Schur
  complement U_KK - U_KR U_RR^+ U_RK of the Gram matrix U = B B^T, of order
  n_k(eps').  U is scattered from the (k+1)-simplices' facet array
  (``boundary_matrix``) with one ``np.bincount`` (entry (i, j) sums
  (-1)^(a+b) over the simplices with facet i at position a and facet j at
  position b), U_RR^+ comes from one ``eigh`` and d = n_{k+1}(eps') -
  rank U_RR.  Neither B nor a null-space basis is formed.
- Bipartite Dirac spectrum.  The Dirac operator couples C_{k-1} (+) the
  restricted (k+1)-domain (size p = n_{k-1} + d) with C_k (size q = n_k)
  through X = [d_k; M^T], and X^T X = L_k.  With mu the eigenvalues of L_k,
  its spectrum is +-sqrt(xi^2 + mu) over min(p, q) of them, plus -xi with
  multiplicity p - q or +xi with multiplicity q - p (the q - p smallest mu
  are then structural zeros).  ``dirac_spectrum`` returns it, with the
  kernel dimension, from one eigensolve of the order-q Laplacian; the mu
  it counts as kernel are set to 0, so those modes come out as exactly
  +-xi.

``restricted_boundary`` (the dense null-space basis, from an SVD) and
``dirac_operator`` (the full three-block matrix) still assemble dense
matrices from ``boundary_dense_at``, which is defined for every k >= 0, so
neither treats k = 0 apart; with ``spectrum`` they are the independent
reference the tests check the Schur and closed-form paths against.

``betti_from_laplacian`` is the one kernel count of a Laplacian, for sweeps
and tests alike: Gershgorin discs that prove the kernel empty spare it the
eigensolve, and otherwise it counts eigenvalues as ``dirac_spectrum`` does.

Components.  ``persistent_kernel_dim`` is the kernel count of a probe, for
sweeps.  Every vertex of a Vietoris-Rips complex is born at 0, so at k = 0
R2 is empty and L_0 is the graph Laplacian of the eps' 1-skeleton, whose
kernel is its number of connected components (Chung, "Spectral Graph
Theory", 1997): ``_component_counts`` counts them, with no matrix formed.

Degree discs.  When k >= 1 and no k-simplex is born in (eps, eps'], R2 is
empty and L_k is the integral Hodge Laplacian d_k^T d_k + B B^T at eps'
(Goldberg, "Combinatorial Laplacians of simplicial complexes", 2002).  With
u_i the (k+1)-cofaces of k-simplex i born by eps' and c_f the k-simplices
born by eps that contain the (k-1)-face f, one ``bincount`` of each facet
array gives its Gershgorin discs exactly:

- L_ii = (k+1) + u_i;
- |L_ij| = 1 exactly when i and j share a (k-1)-face but no (k+1)-coface,
  as the down and up terms cancel on a shared coface (dd = 0), so the
  absolute row sum is L_ii + sum_{f in i} (c_f - 1) - (k+1) u_i =
  sum_{f in i} c_f - k u_i;
- the lower edge of disc i is 2(k+1) + (k+2) u_i - sum_{f in i} c_f.

The dense L_k of that case is exact in floats, so these integers are the
numbers ``betti_from_laplacian`` would test: if they clear its certificate
(``_discs_clear``) the count is 0 with no matrix formed.  Only a probe of
degree k >= 1 whose R2 is nonempty or whose discs do not clear makes
``persistent_kernel_dim`` count ``betti_from_laplacian(persistent_laplacian(...))``.

Tolerances are module constants: ``NULLSPACE_TOL`` is the relative cutoff
for the rank of R2 (on its singular values in ``restricted_boundary``, on
the eigenvalues of U_RR in the Schur path), ``RANK_TOL`` the relative
kernel cutoff on Laplacian eigenvalues, ``CERTIFICATE_MARGIN`` the factor
by which a certified empty kernel clears that cutoff, and ``SYMMETRY_TOL``
the symmetry check of ``spectrum``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .simplicial import (FilteredComplex, _check_dense, _check_probe, _WindowUnion, boundary_dense_at,
                         boundary_matrix)

NULLSPACE_TOL = 1e-10
RANK_TOL = 1e-9
CERTIFICATE_MARGIN = 100.0  # a certified empty kernel clears an upper bound on the cutoff 100-fold
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PersistentBoundary:
    """Boundary of restricted (k+1)-chains, mapped into scale-eps k-chains.

    ``domain_basis`` holds an orthonormal basis (columns) of the chains in
    C_{k+1}(K_eps') whose boundary is supported on K_eps; ``matrix`` is the
    boundary operator expressed on that basis.
    """

    k: int  # chain dimension of the domain (the k+1 of L_k)
    eps: float
    eps_prime: float
    matrix: np.ndarray
    domain_basis: np.ndarray

    @property
    def domain_dim(self) -> int:
        return self.domain_basis.shape[1]


@dataclass(frozen=True, eq=False)
class DiracOperator:
    """Symmetric block operator coupling (k-1)-, k-, and restricted (k+1)-chains."""

    k: int
    eps: float
    eps_prime: float
    xi: float
    matrix: np.ndarray
    block_dims: tuple

    def middle_block(self, power: np.ndarray | None = None) -> np.ndarray:
        """Middle diagonal block of ``power`` (default: the operator itself)."""
        m = self.matrix if power is None else power
        n1, n2, _ = self.block_dims
        return m[n1:n1 + n2, n1:n1 + n2]


def restricted_boundary(complex_: FilteredComplex, k_plus_1: int, eps: float,
                        eps_prime: float) -> PersistentBoundary:
    """Restrict the (k+1)-boundary at eps' to chains with boundary inside K_eps.

    Rows of the scale-eps' boundary are split into those indexing k-simplices
    of K_eps (R1) and the rest (R2); the domain basis spans null(R2) and the
    returned matrix is R1 composed with that basis; 1 <= k_plus_1 <= max_dim.
    """
    k, eps, eps_prime = _check_probe(complex_.max_dim, k_plus_1 - 1, eps, eps_prime)
    k_plus_1 = k + 1
    n_rows_eps = complex_.count_at(k, eps)
    full = boundary_dense_at(complex_, k_plus_1, eps_prime)
    n_cols = full.shape[1]
    r1 = full[:n_rows_eps, :]
    r2 = full[n_rows_eps:, :]
    if n_cols == 0:
        basis = np.zeros((0, 0))
    elif r2.shape[0] == 0:
        basis = np.eye(n_cols)
    else:
        _, svals, vh = np.linalg.svd(r2)
        basis = vh[int(np.sum(svals > NULLSPACE_TOL * svals[0])):].conj().T
    return PersistentBoundary(
        k=k_plus_1,
        eps=eps,
        eps_prime=eps_prime,
        matrix=r1 @ basis,
        domain_basis=basis,
    )


def _schur_laplacian(complex_: FilteredComplex, k: int, eps: float, eps_prime: float) -> tuple:
    """L_k through the Schur complement of U = B B^T, and p = n_{k-1}(eps) + d.

    d is the restricted-domain dimension, so p is the order of the Dirac
    operator's block on C_{k-1} (+) the restricted (k+1)-domain.

    Raises ``ValueError`` unless 0 <= k < max_dim and 0 <= eps <= eps', or
    before allocating if U, the Laplacian or the down boundary would exceed
    ``DENSE_LIMIT_BYTES``.
    """
    k, eps, eps_prime = _check_probe(complex_.max_dim, k, eps, eps_prime)
    n_k = complex_.count_at(k, eps)
    n_up = complex_.count_at(k, eps_prime)
    n_down = complex_.count_at(k - 1, eps)
    _check_dense(n_up, n_up)
    _check_dense(n_down, n_k)
    facets = boundary_matrix(complex_, k + 1)[:complex_.count_at(k + 1, eps_prime)]
    width = facets.shape[1] if len(facets) else 0  # no (k+1)-simplex scatters nothing, whatever k is
    signs = (-1.0) ** np.add.outer(np.arange(width), np.arange(width))
    pairs = facets[:, :width, None] * n_up + facets[:, None, :width]
    gram = np.bincount(pairs.ravel(), weights=np.tile(signs.ravel(), len(facets)),
                       minlength=n_up * n_up).reshape(n_up, n_up)
    gram = gram.astype(float, copy=False)  # bincount gives int64 when there are no facets
    lap = gram[:n_k, :n_k]  # updated in place: U is not needed again
    domain_dim = len(facets)
    if n_up > n_k:  # R2 is empty when every k-simplex born by eps' is born by eps
        evals, evecs = np.linalg.eigh(gram[n_k:, n_k:])
        keep = evals > NULLSPACE_TOL * evals.max(initial=0.0)
        w = gram[:n_k, n_k:] @ (evecs[:, keep] / np.sqrt(evals[keep]))
        lap -= w @ w.T
        domain_dim -= int(np.count_nonzero(keep))
    if k > 0:
        bk = boundary_dense_at(complex_, k, eps)
        lap += bk.T @ bk
    sym = lap + lap.T
    sym *= 0.5
    return sym, n_down + domain_dim


def persistent_laplacian(complex_: FilteredComplex, k: int, eps: float, eps_prime: float) -> np.ndarray:
    """Positive-semidefinite persistent Laplacian on k-chains of K_eps; needs 0 <= k < max_dim."""
    return _schur_laplacian(complex_, k, eps, eps_prime)[0]


def dirac_operator(complex_: FilteredComplex, k: int, eps: float, eps_prime: float,
                   xi: float = 0.0) -> DiracOperator:
    """Assemble the three-block symmetric operator for the (eps, eps') pair.

    Off-diagonal blocks are the scale-eps k-boundary and the restricted
    (k+1)-boundary; the xi term subtracts xi * diag(P_{k-1}, -P_k, P_{k+1})
    acting as identities on the three strata.
    """
    k, eps, eps_prime = _check_probe(complex_.max_dim, k, eps, eps_prime)
    down = boundary_dense_at(complex_, k, eps)
    n1, n2 = down.shape
    up = restricted_boundary(complex_, k + 1, eps, eps_prime)
    d = up.domain_dim
    size = n1 + n2 + d
    mat = np.zeros((size, size))
    mat[:n1, n1:n1 + n2] = down
    mat[n1:n1 + n2, :n1] = down.T
    mat[n1:n1 + n2, n1 + n2:] = up.matrix
    mat[n1 + n2:, n1:n1 + n2] = up.matrix.T
    shift = np.concatenate([np.full(n1, -xi), np.full(n2, xi), np.full(d, -xi)])
    mat[np.diag_indices(size)] += shift
    return DiracOperator(
        k=k,
        eps=eps,
        eps_prime=eps_prime,
        xi=float(xi),
        matrix=mat,
        block_dims=(n1, n2, d),
    )


def dirac_spectrum(complex_: FilteredComplex, k: int, eps: float, eps_prime: float,
                   xi: float = 0.0) -> tuple:
    """Ascending Dirac spectrum and Laplacian kernel dimension, one eigensolve.

    Equals ``spectrum(dirac_operator(...).matrix)`` and
    ``betti_from_laplacian(persistent_laplacian(...))`` without assembling
    either dense operator: the spectrum follows from the eigenvalues of L_k
    in closed form (see the module docstring).
    """
    lap, p = _schur_laplacian(complex_, k, eps, eps_prime)
    evals = np.linalg.eigvalsh(lap)
    kernel = _kernel_dim(evals)
    # kernel modes are zero, not round-off: they come out as exactly +-xi
    mu = np.clip(evals, 0.0, None)
    mu[:kernel] = 0.0
    q = mu.size
    if p >= q:
        flat = np.full(p - q, -xi)
    else:
        # rank L_k <= p: the q - p smallest eigenvalues are structural zeros
        flat = np.full(q - p, xi)
        mu = mu[q - p:]
    pairs = np.sqrt(xi * xi + mu)
    return np.sort(np.concatenate([-pairs, flat, pairs])), kernel


def spectrum(matrix) -> np.ndarray:
    """Ascending eigenvalues (full multiplicity) of a real symmetric matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectrum requires a square matrix")
    if m.size:
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(m)


def _kernel_dim(evals: np.ndarray) -> int:
    """Eigenvalues (ascending, of a PSD matrix) below ``RANK_TOL`` times the top one."""
    if evals.size == 0:
        return 0
    top = max(1.0, float(evals[-1]))
    if float(evals[0]) < -1e-8 * top:
        raise ValueError(f"matrix is not PSD: min eigenvalue {evals[0]:.3e}")
    return int(np.sum(evals < RANK_TOL * top))


def betti_from_laplacian(laplacian) -> int:
    """Kernel dimension of a symmetric PSD matrix: eigenvalues below a relative cutoff.

    The matrix must be square and symmetric; symmetry is not checked, as
    ``eigvalsh``, which reads one triangle, does not check it either.  The
    Gershgorin discs come first (``_discs_clear``): if they prove the kernel
    empty there is no spectrum; otherwise the eigenvalues decide.
    """
    lap = np.asarray(laplacian, dtype=float)
    if lap.size == 0:
        return 0
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError("betti_from_laplacian requires a square matrix")
    if _discs_clear(lap.diagonal(), np.abs(lap).sum(axis=1)):
        return 0
    return _kernel_dim(np.linalg.eigvalsh(lap))


def _discs_clear(diagonal: np.ndarray, row_sums: np.ndarray) -> bool:
    """The Gershgorin certificate of an empty kernel, from the diagonal and absolute row sums.

    r, the largest row sum, bounds the top eigenvalue, so c = ``RANK_TOL`` *
    max(1, r) is at least the kernel cutoff; the kernel is empty when every
    disc lies above ``CERTIFICATE_MARGIN`` * c, which holds vacuously for no rows.
    """
    floor = CERTIFICATE_MARGIN * RANK_TOL * max(1.0, float(row_sums.max(initial=0.0)))
    return float((2.0 * diagonal - row_sums).min(initial=np.inf)) > floor


def persistent_kernel_dim(complex_: FilteredComplex, k: int, eps: float, eps_prime: float) -> int:
    """Persistent Betti number as a Laplacian kernel: ``betti_from_laplacian(persistent_laplacian(...))``.

    At k = 0 it counts connected components (``_component_counts``).
    When k >= 1 and no k-simplex is born in (eps, eps'], R2 is empty and L_k
    is the integral Hodge Laplacian d_k^T d_k + B B^T at eps', whose
    Gershgorin discs follow from simplex degrees (see the module docstring);
    if they clear ``betti_from_laplacian``'s certificate the count is 0 and
    no matrix is formed.  Every other probe counts the dense Laplacian.
    Needs 0 <= k < max_dim and 0 <= eps <= eps'.
    """
    k, eps, eps_prime = _check_probe(complex_.max_dim, k, eps, eps_prime)
    if k == 0:
        return int(_component_counts(_WindowUnion.of(complex_), eps, eps_prime)[0])
    if (complex_.count_at(k, eps) == complex_.count_at(k, eps_prime)
            and _discs_clear(*_degree_discs(complex_, k, eps, eps_prime))):
        return 0
    return betti_from_laplacian(persistent_laplacian(complex_, k, eps, eps_prime))


def _component_counts(union: _WindowUnion, eps: float, eps_prime: float) -> np.ndarray:
    """The k = 0 persistent kernel of every window of a union: its components at eps' born by eps.

    One pass over the union's edges born by eps': every root that shares an
    edge with a smaller root hooks to the smallest such root, and pointer
    jumping flattens the trees, until every edge lies in one tree.  As
    parent[i] <= i, each root is its component's first vertex, which has its
    earliest birth (vertex births ascend within a window), so the roots born
    by eps are the components at eps' that persist from eps.
    """
    births = union.births[0]
    window = np.repeat(np.arange(len(union.windows)), np.diff(union.offsets[0]))
    edges = (np.compress(union.births[1] <= eps_prime, union.facets[1], axis=0) if len(union.births) > 1
             else np.empty((0, 2), dtype=np.intp))  # a complex may store no edge dimension
    a, b = edges.T
    parent = np.arange(len(births))
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        ra, rb = ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))  # parent[i] <= i, so no cycle forms
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
    return np.bincount(window[(births <= eps) & (parent == np.arange(len(births)))], minlength=len(union.windows))


def _degree_discs(complex_: FilteredComplex, k: int, eps: float, eps_prime: float) -> tuple:
    """Integer diagonal and absolute row sums of L_k, from simplex degrees alone.

    Valid for a checked probe with k >= 1 and R2 empty (every k-simplex born
    by eps' is born by eps); see the module docstring.
    """
    n_k = complex_.count_at(k, eps)
    faces = boundary_matrix(complex_, k)[:n_k]
    cofaces = boundary_matrix(complex_, k + 1)[:complex_.count_at(k + 1, eps_prime)]
    up = np.bincount(cofaces.ravel(), minlength=n_k)  # u_i: (k+1)-cofaces born by eps'
    face_degrees = np.bincount(faces.ravel())[faces].sum(axis=1)  # sum of c_f over the faces f of i
    return k + 1 + up, face_degrees - k * up


def qpe_distribution(eigenvalues, l: int, m_register: int, p: int) -> float:
    """Phase-estimation outcome probability for a list of eigenvalues.

    Evaluates P(p) = (1/N) sum over eigenvalues of
    sin^2(pi l lam) / (M^2 sin^2(pi (l lam - p) / M)), with the removable
    singularity at l lam = p (mod M) resolved to 1 by its limit.
    """
    if m_register < 1:
        raise ValueError("M must be >= 1")
    if not 0 <= p < m_register:
        raise ValueError(f"p must satisfy 0 <= p < M, got p={p}, M={m_register}")
    evals = np.asarray(eigenvalues, dtype=float)
    if evals.ndim != 1 or evals.size == 0:
        raise ValueError("eigenvalues must be a non-empty 1-d sequence")
    total = 0.0
    for lam in evals:
        # reduce (l*lam - p)/M modulo 1; the formula only depends on the residue
        x = (l * lam - p) / m_register
        r = x - round(x)
        if r == 0.0:
            total += 1.0
        else:
            num = np.sin(np.pi * m_register * r) ** 2
            den = (m_register * np.sin(np.pi * r)) ** 2
            total += num / den
    return float(total / evals.size)


def spectrum_to_json(k: int, eps: float, eps_prime: float, xi: float, eigenvalues) -> str:
    payload = {
        "k": int(k),
        "eps": float(eps),
        "eps_prime": float(eps_prime),
        "xi": float(xi),
        "eigenvalues": [float(v) for v in np.asarray(eigenvalues, dtype=float)],
    }
    return json.dumps(payload, indent=2) + "\n"
