"""Persistent Laplacians and Dirac spectra, computed from the Laplacian alone.

All spectral objects use real coefficients.  The persistent Laplacian of a
scale pair (eps, eps') is L_k = d_k^T d_k + M M^T, where d_k is the boundary
operator at scale eps and M is the boundary of (k+1)-chains at eps' restricted
to those whose boundary lies in the scale-eps complex; its kernel dimension is
the persistent Betti number.

Two identities keep that computation small:

- Schur complement (Memoli, Wan, Wang, "Persistent Laplacians", arXiv
  2012.02808).  Split the rows of the scale-eps' boundary into those of the
  k-simplices of K_eps (R1) and the rest (R2).  The restricted domain is
  null(R2), so with V_r an orthonormal basis of the row space of R2,
  M M^T = R1 R1^T - (R1 V_r)(R1 V_r)^T.  A thin SVD of R2 gives V_r; the
  null-space basis is never formed.
- Bipartite Dirac spectrum.  The Dirac operator couples C_{k-1} (+) the
  restricted (k+1)-domain (size p = n_{k-1} + d) with C_k (size q = n_k)
  through X = [d_k; M^T], and X^T X = L_k.  With mu the eigenvalues of L_k,
  its spectrum is +-sqrt(xi^2 + mu) over min(p, q) of them, plus -xi with
  multiplicity p - q or +xi with multiplicity q - p (the q - p smallest mu
  are then structural zeros).  ``dirac_spectrum`` returns it, with the
  kernel dimension, from one eigensolve of the order-q Laplacian; the mu
  it counts as kernel are set to 0, so those modes come out as exactly
  +-xi.

``restricted_boundary`` (the dense null-space basis) and ``dirac_operator``
(the full three-block matrix) still assemble dense matrices; with
``spectrum`` they are the reference the tests check the Schur and
closed-form paths against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .simplicial import FilteredComplex, boundary_dense_at

NULLSPACE_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-9
SYMMETRY_TOL = 1e-10
DENSE_LIMIT_BYTES = 2 ** 28  # largest dense float64 matrix _schur_laplacian will allocate


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
                        eps_prime: float, null_tol: float = NULLSPACE_TOL) -> PersistentBoundary:
    """Restrict the (k+1)-boundary at eps' to chains with boundary inside K_eps.

    Rows of the scale-eps' boundary are split into those indexing k-simplices
    of K_eps (R1) and the rest (R2); the domain basis spans null(R2) and the
    returned matrix is R1 composed with that basis.
    """
    if eps > eps_prime:
        raise ValueError(f"eps ({eps}) must be <= eps_prime ({eps_prime})")
    k = k_plus_1 - 1
    if k < 0:
        raise ValueError("k_plus_1 must be >= 1")
    n_rows_eps = complex_.count_at(k, eps)
    if k_plus_1 > complex_.max_dim:
        full = np.zeros((complex_.count_at(k, eps_prime), 0))
    else:
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
        basis = vh[_numerical_rank(svals, null_tol):].conj().T
    return PersistentBoundary(
        k=k_plus_1,
        eps=float(eps),
        eps_prime=float(eps_prime),
        matrix=r1 @ basis,
        domain_basis=basis,
    )


def _numerical_rank(svals: np.ndarray, null_tol: float) -> int:
    """Number of singular values (descending) above ``null_tol`` times the largest."""
    cutoff = null_tol * (svals[0] if svals.size else 0.0)
    return int(np.sum(svals > cutoff))


def _check_dense(n_rows: int, n_cols: int) -> None:
    """Refuse a dense float64 matrix larger than ``DENSE_LIMIT_BYTES``."""
    if n_rows * n_cols * 8 > DENSE_LIMIT_BYTES:
        raise ValueError(f"a dense {n_rows}x{n_cols} matrix ({n_rows * n_cols * 8 / 2 ** 20:.0f} MB) "
                         f"exceeds the {DENSE_LIMIT_BYTES // 2 ** 20} MB limit of the spectral layer")


def _schur_laplacian(complex_: FilteredComplex, k: int, eps: float, eps_prime: float,
                     null_tol: float) -> tuple:
    """L_k through the Schur identity, and the restricted-domain dimension d.

    Raises ``ValueError`` before allocating if the Laplacian or a boundary
    would exceed ``DENSE_LIMIT_BYTES``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    n_k = complex_.count_at(k, eps)
    _check_dense(n_k, n_k)
    _check_dense(complex_.count_at(k - 1, eps), n_k)
    if k < complex_.max_dim:
        _check_dense(complex_.count_at(k, eps_prime), complex_.count_at(k + 1, eps_prime))
    if k == 0:
        lap = np.zeros((n_k, n_k))
    else:
        bk = boundary_dense_at(complex_, k, eps)
        lap = bk.T @ bk
    domain_dim = 0
    if k < complex_.max_dim:
        full = boundary_dense_at(complex_, k + 1, eps_prime)
        r1 = full[:n_k, :]
        _, svals, vh = np.linalg.svd(full[n_k:, :], full_matrices=False)
        rank = _numerical_rank(svals, null_tol)
        w = r1 @ vh[:rank].T
        lap = lap + r1 @ r1.T - w @ w.T
        domain_dim = full.shape[1] - rank
    return 0.5 * (lap + lap.T), domain_dim


def persistent_laplacian(complex_: FilteredComplex, k: int, eps: float, eps_prime: float,
                         null_tol: float = NULLSPACE_TOL) -> np.ndarray:
    """Positive-semidefinite persistent Laplacian on k-chains of K_eps."""
    if eps > eps_prime:
        raise ValueError(f"eps ({eps}) must be <= eps_prime ({eps_prime})")
    if complex_.count_at(k, eps) == 0:
        return np.zeros((0, 0))
    return _schur_laplacian(complex_, k, eps, eps_prime, null_tol)[0]


def dirac_operator(complex_: FilteredComplex, k: int, eps: float, eps_prime: float,
                   xi: float = 0.0, null_tol: float = NULLSPACE_TOL) -> DiracOperator:
    """Assemble the three-block symmetric operator for the (eps, eps') pair.

    Off-diagonal blocks are the scale-eps k-boundary and the restricted
    (k+1)-boundary; the xi term subtracts xi * diag(P_{k-1}, -P_k, P_{k+1})
    acting as identities on the three strata.
    """
    if eps > eps_prime:
        raise ValueError(f"eps ({eps}) must be <= eps_prime ({eps_prime})")
    n2 = complex_.count_at(k, eps)
    if k == 0:
        n1 = 0
        down = np.zeros((0, n2))
    else:
        down = boundary_dense_at(complex_, k, eps)
        n1 = down.shape[0]
    up = restricted_boundary(complex_, k + 1, eps, eps_prime, null_tol=null_tol)
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
        eps=float(eps),
        eps_prime=float(eps_prime),
        xi=float(xi),
        matrix=mat,
        block_dims=(n1, n2, d),
    )


def dirac_spectrum(complex_: FilteredComplex, k: int, eps: float, eps_prime: float,
                   xi: float = 0.0, rank_tol: float = DEFAULT_RANK_TOL) -> tuple:
    """Ascending Dirac spectrum and Laplacian kernel dimension, one eigensolve.

    Equals ``spectrum(dirac_operator(...).matrix)`` and
    ``betti_from_laplacian(persistent_laplacian(...))`` without assembling
    either dense operator: the spectrum follows from the eigenvalues of L_k
    in closed form (see the module docstring).
    """
    if eps > eps_prime:
        raise ValueError(f"eps ({eps}) must be <= eps_prime ({eps_prime})")
    lap, domain_dim = _schur_laplacian(complex_, k, eps, eps_prime, NULLSPACE_TOL)
    evals = np.linalg.eigvalsh(lap)
    kernel = _kernel_dim(evals, rank_tol)
    # kernel modes are zero, not round-off: they come out as exactly +-xi
    mu = np.clip(evals, 0.0, None)
    mu[:kernel] = 0.0
    p = complex_.count_at(k - 1, eps) + domain_dim
    q = mu.size
    if p >= q:
        flat = np.full(p - q, -xi)
    else:
        # rank L_k <= p: the q - p smallest eigenvalues are structural zeros
        flat = np.full(q - p, xi)
        mu = mu[q - p:]
    pairs = np.sqrt(xi * xi + mu)
    return np.sort(np.concatenate([-pairs, flat, pairs])), kernel


def spectrum(matrix, sym_tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Ascending eigenvalues (full multiplicity) of a real symmetric matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectrum requires a square matrix")
    if m.size:
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > sym_tol * scale:
            raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(m)


def _kernel_dim(evals: np.ndarray, rank_tol: float) -> int:
    """Eigenvalues (ascending, of a PSD matrix) below ``rank_tol`` times the top one."""
    if evals.size == 0:
        return 0
    top = max(1.0, float(evals[-1]))
    if float(evals[0]) < -1e-8 * top:
        raise ValueError(f"matrix is not PSD: min eigenvalue {evals[0]:.3e}")
    return int(np.sum(evals < rank_tol * top))


def betti_from_laplacian(laplacian, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Kernel dimension of a PSD matrix: eigenvalues below a relative cutoff."""
    lap = np.asarray(laplacian, dtype=float)
    if lap.size == 0:
        return 0
    return _kernel_dim(np.linalg.eigvalsh(lap), rank_tol)


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
