"""Vietoris-Rips filtrations and boundary operators of their chain complexes.

Scale convention: a simplex is present at scale eps when all pairwise vertex
distances are at most 2*eps, so the stored birth equals half the simplex
diameter.  Filtration order is (birth, dimension, lexicographic vertices).

Array-backed complex: a ``FilteredComplex`` stores, per dimension k, one
(n_k, k+1) vertex array and one births array, each ordered by (birth,
vertices).  ``vr_filtration`` fills them one dimension at a time: the
(k+1)-simplices are the nonzero entries of the AND of the upper-triangular
adjacency rows of each k-simplex's vertices.  These arrays are the only
form of the complex: reduction, the rank oracle and the spectral layer read
them, and ``len(complex_)`` counts all dimensions together.

Boundary core: a ``FilteredComplex`` maps facets to indices once, at
construction, into one (n_k, k+1) integer array per dimension k >= 1; entry
[j, i] is the dimension-(k-1) index of the facet of k-simplex j that omits
vertex position i.  ``boundary_matrix`` returns it, and it is the only
boundary object: reduction and the rank oracle read it as Z2 columns, the
spectral layer scatters its Gram matrix from it, and ``boundary_dense_at``
is the one dense form, real with sign (-1)^i at position i (its absolute
value is the Z2 matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DENSE_LIMIT_BYTES = 2 ** 28  # largest dense array vr_filtration or the spectral layer will allocate


def _check_dense(n_rows: int, n_cols: int, what: str = "matrix", itemsize: int = 8) -> None:
    """Refuse a dense ``n_rows`` x ``n_cols`` array larger than ``DENSE_LIMIT_BYTES``."""
    size = n_rows * n_cols * itemsize
    if size > DENSE_LIMIT_BYTES:
        raise ValueError(f"a dense {n_rows}x{n_cols} {what} ({size / 2 ** 20:.0f} MB) "
                         f"exceeds the {DENSE_LIMIT_BYTES // 2 ** 20} MB limit")


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Per-dimension vertex and births arrays plus the metric data that produced them.

    ``vertices[k]`` is an (n_k, k+1) integer array of strictly increasing
    vertex rows and ``births[k]`` their births, both ordered by (birth,
    vertices); ``max_dim`` is ``len(vertices) - 1``.
    """

    vertices: tuple
    births: tuple
    n_points: int
    distance_matrix: np.ndarray
    eps_max: float
    _facets: tuple = field(repr=False, default=())

    def __post_init__(self):
        if len(self.vertices) != len(self.births) or not self.vertices:
            raise ValueError("need one vertex array and one births array per dimension, from 0")
        verts = tuple(_read_only(np.asarray(v, dtype=np.intp).reshape(len(v), k + 1))
                      for k, v in enumerate(self.vertices))
        births = tuple(_read_only(np.asarray(b, dtype=float)) for b in self.births)
        if any(len(v) != len(b) for v, b in zip(verts, births)):
            raise ValueError("each dimension needs one birth per simplex")
        facets = [None] + [_facet_indices(lo, hi, self.n_points) for lo, hi in zip(verts, verts[1:])]
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "births", births)
        object.__setattr__(self, "_facets", tuple(facets))

    @property
    def max_dim(self) -> int:
        return len(self.vertices) - 1

    def __len__(self) -> int:
        return sum(len(b) for b in self.births)

    def count_dim(self, k: int) -> int:
        """Number of k-simplices in the whole filtration."""
        return len(self.births[k]) if 0 <= k <= self.max_dim else 0

    def count_at(self, k: int, eps: float) -> int:
        """Number of k-simplices with birth <= eps (a prefix in dimension k)."""
        if not 0 <= k <= self.max_dim:
            return 0
        return int(np.searchsorted(self.births[k], eps, side="right"))


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
    Duplicate points are legal (zero distances allowed).  Raises
    ``ValueError`` before allocating an array above ``DENSE_LIMIT_BYTES``.
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
    _check_dense(n * n, pts.shape[1], "array of pairwise differences")
    _check_dense(n, n, "distance matrix")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    if eps_max is None:
        eps_max = float(dist.max()) / 2.0
    elif not eps_max >= 0:
        raise ValueError("eps_max must be >= 0")
    adjacency = np.triu(dist <= 2.0 * eps_max, k=1)
    verts = [np.arange(n, dtype=np.intp)[:, None]]
    births = [np.zeros(n)]
    for k in range(max_dim):
        lower = verts[-1]
        # candidates adjacent to every vertex of a k-simplex and above its last one
        _check_dense(len(lower), n, f"array of {k + 1}-simplex candidates", itemsize=1)
        common = adjacency[lower[:, 0]]
        for c in range(1, k + 1):
            common &= adjacency[lower[:, c]]
        _check_dense(np.count_nonzero(common), k + 2, f"array of {k + 1}-simplex vertices")
        rows, top = np.nonzero(common)
        parents = lower[rows]
        upper = np.column_stack([parents, top])
        birth = np.maximum(births[-1][rows], dist[parents, top[:, None]].max(axis=1) / 2.0)
        order = np.lexsort((*upper.T[::-1], birth))
        verts.append(upper[order])
        births.append(birth[order])
    dist.flags.writeable = False
    return FilteredComplex(tuple(verts), tuple(births), n, dist, float(eps_max))


def boundary_matrix(complex_: FilteredComplex, k: int) -> np.ndarray:
    """Boundary operator from k-chains to (k-1)-chains: the complex's read-only facet array."""
    if not 1 <= k <= complex_.max_dim:
        raise ValueError(f"k must satisfy 1 <= k <= max_dim ({complex_.max_dim}), got {k}")
    return complex_._facets[k]


def boundary_dense_at(complex_: FilteredComplex, k: int, eps: float) -> np.ndarray:
    """Real boundary matrix of the subcomplex at scale eps, for any k >= 0.

    Column j has sign (-1)^i at row ``boundary_matrix(complex_, k)[j, i]``.
    Because same-dimension simplices are ordered by birth, the scale-eps
    operator is the leading block of the full one; only that block is
    filled (a k-simplex born by eps has all its facets born by eps).  The
    shape is (0, n_0) at k = 0 and (n_{k-1}, 0) above ``max_dim``.
    """
    n_rows = complex_.count_at(k - 1, eps)
    n_cols = complex_.count_at(k, eps)
    out = np.zeros((n_rows, n_cols))
    if n_rows and n_cols:
        facets = boundary_matrix(complex_, k)[:n_cols]
        out[facets, np.arange(n_cols)[:, None]] = (-1.0) ** np.arange(k + 1)
    return out
