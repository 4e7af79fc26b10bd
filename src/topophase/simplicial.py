"""Vietoris-Rips filtrations and boundary operators of their chain complexes.

Scale convention: a simplex is present at scale eps when all pairwise vertex
distances are at most 2*eps, so the stored birth equals half the simplex
diameter.  Filtration order is (birth, dimension, lexicographic vertices).

Boundary core: a ``FilteredComplex`` maps facets to indices once, at
construction, into one (n_k, k+1) integer array per dimension k >= 1; entry
[j, i] is the dimension-(k-1) index of the facet of k-simplex j that omits
vertex position i.  ``boundary_matrix`` and ``boundary_dense_at`` read it;
the sign, (-1)^i over the reals and 1 over Z2, follows from the position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

Z2 = "Z2"
REAL = "real"


@dataclass(frozen=True)
class Simplex:
    """Vertex tuple (strictly increasing) with its birth scale."""

    vertices: tuple
    birth: float

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Simplices in filtration order plus the metric data that produced them."""

    simplices: tuple
    n_points: int
    max_dim: int
    distance_matrix: np.ndarray
    eps_max: float
    _by_dim: tuple = field(repr=False, default=())
    _births: np.ndarray = field(repr=False, default=None)
    _births_by_dim: tuple = field(repr=False, default=())
    _facets: tuple = field(repr=False, default=())

    def __post_init__(self):
        by_dim = [[] for _ in range(self.max_dim + 1)]
        for gi, s in enumerate(self.simplices):
            by_dim[s.dim].append(gi)
        births = np.array([s.birth for s in self.simplices], dtype=float)
        verts = [np.array([self.simplices[gi].vertices for gi in idx], dtype=np.int64).reshape(len(idx), k + 1)
                 for k, idx in enumerate(by_dim)]
        facets = [None] + [_facet_indices(lo, hi, self.n_points) for lo, hi in zip(verts, verts[1:])]
        object.__setattr__(self, "_by_dim", tuple(tuple(idx) for idx in by_dim))
        object.__setattr__(self, "_births", births)
        object.__setattr__(self, "_births_by_dim", tuple(births[np.array(idx, dtype=int)] for idx in by_dim))
        object.__setattr__(self, "_facets", tuple(facets))

    def __len__(self) -> int:
        return len(self.simplices)

    def count_dim(self, k: int) -> int:
        """Number of k-simplices in the whole filtration."""
        return len(self._by_dim[k]) if 0 <= k <= self.max_dim else 0

    def count_at(self, k: int, eps: float) -> int:
        """Number of k-simplices with birth <= eps (a prefix in dimension k)."""
        if not 0 <= k <= self.max_dim:
            return 0
        return int(np.searchsorted(self._births_by_dim[k], eps, side="right"))

    def simplices_of_dim(self, k: int) -> list:
        return [self.simplices[gi] for gi in self._by_dim[k]]

    def births_of_dim(self, k: int) -> np.ndarray:
        return self._births_by_dim[k]


def _facet_indices(lower: np.ndarray, upper: np.ndarray, n_points: int) -> np.ndarray:
    """Entry [j, i]: row of ``lower`` equal to row j of ``upper`` without column i.

    Rows match through base-``n_points`` keys, Python integers where int64 could overflow.
    """
    k = lower.shape[1]
    dtype = np.int64 if n_points ** k < 2 ** 63 else object
    place = np.array([n_points ** p for p in range(k - 1, -1, -1)], dtype=dtype)
    keys = lower.astype(dtype) @ place
    order = np.argsort(keys, kind="stable")
    sorted_keys = np.append(keys[order], n_points ** k)  # sentinel above every key
    out = np.empty(upper.shape, dtype=np.intp)
    for i in range(k + 1):
        facet_keys = np.delete(upper, i, axis=1).astype(dtype) @ place
        pos = np.searchsorted(sorted_keys, facet_keys)
        if np.any(sorted_keys[pos] != facet_keys):
            raise ValueError(f"a {k}-simplex has a facet that is not in the complex")
        out[:, i] = order[pos]
    out.flags.writeable = False
    return out


def vr_filtration(cloud, eps_max: float | None = None, max_dim: int = 2) -> FilteredComplex:
    """Vietoris-Rips filtration of a point cloud (or anything with ``.points``).

    Contains every simplex of dimension <= ``max_dim`` whose birth (half its
    diameter) is at most ``eps_max``; the default ``eps_max`` is half the
    cloud diameter, at which the complex is a full simplex up to ``max_dim``.
    Duplicate points are legal (zero distances allowed).
    """
    pts = np.asarray(getattr(cloud, "points", cloud), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("cloud must contain at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("cloud coordinates must be finite")
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    if eps_max is None:
        eps_max = float(dist.max()) / 2.0
    elif eps_max < 0:
        raise ValueError("eps_max must be >= 0")
    thresh = 2.0 * eps_max

    neighbors = [[j for j in range(i + 1, n) if dist[i, j] <= thresh] for i in range(n)]
    found = []

    def expand(verts, cand, birth):
        found.append((birth, verts))
        if len(verts) == max_dim + 1:
            return
        for pos, v in enumerate(cand):
            b = max(birth, max(dist[u, v] for u in verts) / 2.0)
            expand(verts + (v,), [w for w in cand[pos + 1:] if dist[v, w] <= thresh], b)

    for i in range(n):
        expand((i,), neighbors[i], 0.0)

    found.sort(key=lambda item: (item[0], len(item[1]), item[1]))
    simplices = tuple(Simplex(verts, birth) for birth, verts in found)
    dist.flags.writeable = False
    return FilteredComplex(simplices, n, max_dim, dist, float(eps_max))


def complex_at_scale(complex_: FilteredComplex, eps: float) -> list:
    """Global indices of all simplices with birth <= eps (monotone in eps)."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return list(range(int(np.searchsorted(complex_._births, eps, side="right"))))


def _dense(rows: np.ndarray, n_rows: int, field: str) -> np.ndarray:
    """Column j holds the facets ``rows[j]``, signed (-1)^i over the reals, 1 over Z2."""
    signs = (-1) ** np.arange(rows.shape[1]) if field == REAL else 1
    out = np.zeros((n_rows, len(rows)), dtype=float if field == REAL else np.int8)
    out[rows, np.arange(len(rows))[:, None]] = signs
    return out


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Boundary operator as the complex's read-only facet array ``rows`` (see the module docstring)."""

    k: int
    field: str
    n_rows: int
    n_cols: int
    rows: np.ndarray

    def dense(self) -> np.ndarray:
        return _dense(self.rows, self.n_rows, self.field)


def boundary_matrix(complex_: FilteredComplex, k: int, field: str = Z2) -> BoundaryMatrix:
    """Boundary operator from k-chains to (k-1)-chains: a view of the complex's facet array."""
    if field not in (Z2, REAL):
        raise ValueError(f"field must be {Z2!r} or {REAL!r}")
    if not 1 <= k <= complex_.max_dim:
        raise ValueError(f"k must satisfy 1 <= k <= max_dim ({complex_.max_dim}), got {k}")
    return BoundaryMatrix(
        k=k,
        field=field,
        n_rows=complex_.count_dim(k - 1),
        n_cols=complex_.count_dim(k),
        rows=complex_._facets[k],
    )


def boundary_dense_at(complex_: FilteredComplex, k: int, eps: float) -> np.ndarray:
    """Real boundary matrix of the subcomplex at scale eps.

    Because same-dimension simplices are ordered by birth, the scale-eps
    operator is the leading block of the full one; only that block is
    filled (a k-simplex born by eps has all its facets born by eps).
    """
    n_rows = complex_.count_at(k - 1, eps)
    n_cols = complex_.count_at(k, eps)
    if not n_cols:
        return np.zeros((n_rows, 0))
    return _dense(boundary_matrix(complex_, k, REAL).rows[:n_cols], n_rows, REAL)


def filtration_jsonl(complex_: FilteredComplex) -> str:
    """One JSON object per simplex, in filtration order, for cross-tool diffs."""
    lines = [
        json.dumps({"vertices": list(s.vertices), "birth": s.birth})
        for s in complex_.simplices
    ]
    return "\n".join(lines) + "\n"
