"""Vietoris-Rips filtrations and boundary operators of their chain complexes.

Scale convention: a simplex is present at scale eps when all pairwise vertex
distances are at most 2*eps, so the stored birth equals half the simplex
diameter.  Filtration order is (birth, dimension, lexicographic vertices).

Array-backed complex: a ``FilteredComplex`` stores, per dimension k, one
(n_k, k+1) vertex array and one births array, each ordered by (birth,
vertices).  ``vr_filtration`` fills them one dimension at a time: the
(k+1)-simplices are the nonzero entries of the AND, over a k-simplex's
vertices, of their rows of the strictly upper-triangular adjacency.  These
arrays are the only form of the complex: reduction, the rank oracle and the
spectral layer read them, and ``len(complex_)`` counts all dimensions
together.

Generation order: as in Ripser (Bauer, 2021), each dimension is generated in
lexicographic order and never sorted by vertices.  The k-simplices are kept
in lexicographic order while the (k+1)-simplices are built from them, so the
nonzero entries, by parent and then by top vertex, come out in lexicographic
order too.  A simplex's birth is the largest birth of its facets (half the
distance for an edge).  It is carried as a level, the index of that value
among the distinct edge births, in the narrowest unsigned integer type that
holds it.  One stable argsort of the levels, a radix sort at 16 bits or
fewer, gives the (birth, vertices) order, because tied births keep their
lexicographic order.  The facets come from the same loop.  The facet without
the top vertex is the parent row.  The facet without vertex i of the parent
is facet i of the parent plus the top vertex, so its lexicographic index is
found by ``searchsorted`` of (that facet's index * n + top) among the
dimension's keys (parent index * n + top), which increase in lexicographic
order.  Every simplex's faces are in the complex, so every search hits.  The
lower dimension's inverse filtration permutation maps these indices into
filtration order.  This loop is the only source of a complex's facets.

Window sweeps: the complex of a window [lo, hi) of consecutive points at its
default ``eps_max`` is the full simplex on those points, so every window is
an induced subcomplex of one banded complex, the simplices whose vertex
indices span at most the window width.  ``_window_unions`` builds that band
once per block of windows with the same clique loop as ``vr_filtration``,
as the clique complex of the band graph (an edge between points at most
the window width apart, whatever their distance), and cuts out the disjoint
union of the block's windows: per dimension, one (windows, band rows) mask
lists the union's rows window-major, shifts their vertices by each window's
lo and renumbers their facets by one prefix sum of the lower dimension's
mask.  Each window is a contiguous segment of the union, in its own (birth,
vertices) order, and its ``FilteredComplex`` is slices of the union's
arrays, byte-identical to ``vr_filtration(points[lo:hi])``.  A block is cut
into equal runs of consecutive windows, the last one shorter: a run is as
many of the block's largest window as fit ``DENSE_LIMIT_BYTES //
_UNION_SHARE``, one window at least, so the budget never refuses a sweep.

Boundary core: a ``FilteredComplex`` holds one (n_k, k+1) integer facet
array per dimension k >= 1, from the clique loop; entry [j, i] is the
dimension-(k-1) index of the facet of k-simplex j that omits vertex position
i.  ``boundary_matrix`` returns it, and it is the only boundary object:
reduction and the rank oracle read it as Z2 columns, the spectral layer
scatters its Gram matrix from it, and ``boundary_dense_at`` is the one dense
form, real with sign (-1)^i at position i (its absolute value is the Z2
matrix).

Degrees: a complex built to ``max_dim`` has no (max_dim + 1)-simplices, so
no degree-``max_dim`` cycle ever bounds.  As in Ripser (Bauer, 2021), degree
k is answered only for 0 <= k < ``max_dim``, from the (k+1)-skeleton.  A
probe (k, eps1, eps2) also needs scales 0 <= eps1 <= eps2.  ``_check_probe``
is that rule for every consumer of a complex and for ``ScanConfig``;
``_check_scales``, its scale half, serves the diagram readers, which take
whatever degrees a diagram holds.  Every such check takes numbers only
(``_is_number``): a bool, numpy's included, or a string is refused, not
read as 1 or parsed.  ``max_dim`` is a field: the clique loop stops after
the first empty dimension (by dimension n on n points), and past the stored
dimensions ``count_dim`` and ``count_at`` read 0 and ``boundary_matrix`` is
empty, so every detector reads 0 there and a large ``max_dim`` costs nothing.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

DENSE_LIMIT_BYTES = 2 ** 28  # largest dense array vr_filtration or the spectral layer will allocate
_UNION_SHARE = 16  # a union of window complexes takes at most DENSE_LIMIT_BYTES // _UNION_SHARE


def _check_dense(n_rows: int, n_cols: int, what: str = "matrix", itemsize: int = 8) -> None:
    """Refuse a dense ``n_rows`` x ``n_cols`` array larger than ``DENSE_LIMIT_BYTES``."""
    size = n_rows * n_cols * itemsize
    if size > DENSE_LIMIT_BYTES:
        raise ValueError(f"a dense {n_rows}x{n_cols} {what} ({size / 2 ** 20:.0f} MB) "
                         f"exceeds the {DENSE_LIMIT_BYTES // 2 ** 20} MB limit")


def _is_number(value) -> bool:
    """True for a real number, numpy's included; a bool (numpy's too), a string or None is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)  # np.bool_ is not Real


def _is_integer(value) -> bool:
    """True for a number equal to an integer in the float range; a fraction, NaN, inf or bool is not."""
    try:
        return _is_number(value) and float(value).is_integer()
    except OverflowError:  # an integer past the float range
        return False


def _check_scales(eps1: float, eps2: float) -> tuple:
    """Probe scales as floats; refuses all but numbers 0 <= eps1 <= eps2.

    So NaN, a bool, a string and an integer past the float range are refused.
    """
    if not (_is_number(eps1) and _is_number(eps2)):
        raise ValueError(f"probe scales must satisfy 0 <= eps1 <= eps2, got ({eps1!r}, {eps2!r})")
    try:
        eps1, eps2 = float(eps1), float(eps2)
    except OverflowError:
        raise ValueError("probe scales must satisfy 0 <= eps1 <= eps2, "
                         "got an integer past the float range") from None
    if not 0.0 <= eps1 <= eps2:
        raise ValueError(f"probe scales must satisfy 0 <= eps1 <= eps2, got ({eps1}, {eps2})")
    return eps1, eps2


def _check_max_dim(max_dim: int) -> int:
    """``max_dim`` as an int; refuses all but an integer >= 0."""
    if not (_is_integer(max_dim) and max_dim >= 0):
        raise ValueError(f"max_dim must be an integer >= 0, got {max_dim!r}")
    return int(max_dim)


def _check_probe(max_dim: int, k: int, eps1: float, eps2: float) -> tuple:
    """A probe (k, eps1, eps2) on a complex built to ``max_dim``, as (int, float, float).

    Refuses scales outside 0 <= eps1 <= eps2 (``_check_scales``) and all but
    an integer degree 0 <= k < ``max_dim``: degree k reads the (k+1)-simplices.
    """
    eps1, eps2 = _check_scales(eps1, eps2)
    if not (_is_integer(k) and 0 <= k < max_dim):
        raise ValueError(f"probe degree must be an integer 0 <= k < max_dim ({max_dim}), "
                         f"got ({k}, {eps1}, {eps2}): degree k reads the (k+1)-simplices")
    return int(k), eps1, eps2


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Per-dimension vertex and births arrays plus the metric data that produced them.

    ``vertices[k]`` is an (n_k, k+1) integer array of strictly increasing
    vertex rows and ``births[k]`` their births, both ordered by (birth,
    vertices), for the dimensions the clique loop built: to ``max_dim`` or to
    the first empty one.  Instances come from ``vr_filtration`` or a window
    sweep, whose clique loop also gives the facet arrays (see the module
    docstring).
    """

    vertices: tuple
    births: tuple
    n_points: int
    distance_matrix: np.ndarray
    eps_max: float
    max_dim: int
    _facets: tuple = field(repr=False)

    def __post_init__(self):
        if len(self.vertices) != len(self.births) or not 0 < len(self.vertices) <= self.max_dim + 1:
            raise ValueError("need a vertex array and a births array per dimension, from 0 to max_dim at most")
        verts = tuple(_read_only(np.asarray(v, dtype=np.intp).reshape(len(v), k + 1))
                      for k, v in enumerate(self.vertices))
        births = tuple(_read_only(np.asarray(b, dtype=float)) for b in self.births)
        if any(len(v) != len(b) for v, b in zip(verts, births)):
            raise ValueError("each dimension needs one birth per simplex")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "births", births)
        object.__setattr__(self, "_facets", tuple(self._facets))

    def __len__(self) -> int:
        return sum(len(b) for b in self.births)

    def count_dim(self, k: int) -> int:
        """Number of k-simplices in the whole filtration."""
        return len(self.births[k]) if 0 <= k < len(self.births) else 0

    def count_at(self, k: int, eps: float) -> int:
        """Number of k-simplices with birth <= eps (a prefix in dimension k)."""
        if not 0 <= k < len(self.births):
            return 0
        return int(np.searchsorted(self.births[k], eps, side="right"))


def _points(cloud) -> np.ndarray:
    """A cloud's coordinates (or ``cloud.points``) as a non-empty, finite 2-d float array."""
    pts = np.asarray(getattr(cloud, "points", cloud), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("cloud must contain at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("cloud coordinates must be finite")
    return pts


def _distances(pts: np.ndarray) -> np.ndarray:
    """Read-only symmetric Euclidean distance matrix with a zero diagonal.

    A pair's distance depends only on its two points, not on the other rows,
    so the distances of a run of points are a block of a longer run's.
    """
    n = pts.shape[0]
    _check_dense(n * n, pts.shape[1], "array of pairwise differences")
    _check_dense(n, n, "distance matrix")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    dist.flags.writeable = False
    return dist


def _cliques(dist: np.ndarray, adjacency: np.ndarray, max_dim: int) -> tuple:
    """Vertex, births and facet arrays, per dimension, of the clique complex of ``adjacency``.

    ``adjacency`` is the strictly upper-triangular edge mask.  A k-simplex's
    candidates, an (n_k, n) array, are the vertices adjacent to every vertex
    of the simplex, so above its last one.  Each dimension is built
    in lexicographic order and put in (birth, vertices) order by one stable
    sort of its birth levels, and its facet arrays come from the same loop
    (see the module docstring).  The loop stops after the first empty
    dimension: every dimension above it is empty too, and is not built.
    """
    n = len(dist)
    lex = [np.arange(n, dtype=np.intp)]  # vertex columns of the current dimension, lexicographic
    rank = lex[0]  # filtration index of each lexicographic row
    verts, births, facets = [lex[0][:, None]], [np.zeros(n)], [None]
    for k in range(max_dim):
        _check_dense(len(lex[0]), n, f"array of {k + 1}-simplex candidates", itemsize=1)
        common = adjacency[lex[0]]
        for col in lex[1:]:
            common &= adjacency[col]
        _check_dense(np.count_nonzero(common), k + 2, f"array of {k + 1}-simplex vertices")
        rows, top = np.divmod(np.flatnonzero(common), n)  # by parent, then by top vertex
        del common
        # lex_facets[i]: lexicographic index of the facet without vertex i, the last one the parent
        if k == 0:  # values: the distinct edge births; level: a birth as an index into values
            values, level = np.unique(dist[rows, top] / 2.0, return_inverse=True)
            level = level.astype(np.min_scalar_type(max(len(values) - 1, 0)))
            lex_facets = [top, rows]
        else:
            lex_facets = [np.searchsorted(keys, np.take(f, rows) * n + top) for f in lex_facets]
            lex_facets.append(rows)
            level = functools.reduce(np.maximum, (np.take(level, f) for f in lex_facets))
        order = np.argsort(level, kind="stable")  # a radix sort; tied births stay lexicographic
        births.append(np.take(values, np.take(level, order)))
        vert = np.empty((len(order), k + 2), dtype=np.intp)
        parent = np.take(rows, order)
        for i, col in enumerate(lex):
            vert[:, i] = np.take(col, parent)
        vert[:, k + 1] = np.take(top, order)
        del parent
        verts.append(vert)
        facet = np.empty_like(vert)
        for i, f in enumerate(lex_facets):
            facet[:, i] = np.take(rank, np.take(f, order))
        facet.flags.writeable = False
        facets.append(facet)
        if not len(order):  # so is every higher dimension
            break
        if k + 1 < max_dim:  # what the next dimension reads
            keys = rows * n + top  # increasing; below n_k * n, far inside int64
            lex = [np.take(col, rows) for col in lex] + [top]
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
    return verts, births, facets


def vr_filtration(cloud, eps_max: float | None = None, max_dim: int = 2) -> FilteredComplex:
    """Vietoris-Rips filtration of a point cloud (or anything with ``.points``).

    Contains every simplex of dimension <= ``max_dim`` whose birth (half its
    diameter) is at most ``eps_max``; the default ``eps_max`` is half the
    cloud diameter, at which the complex is a full simplex up to ``max_dim``.
    Duplicate points are legal (zero distances allowed).  n points span no
    simplex above dimension n - 1, so any ``max_dim`` past n stores what n
    stores.  Raises ``ValueError`` for a ``max_dim`` that is not an integer
    >= 0 (an integral float is taken), an ``eps_max`` that is not a number
    >= 0 in the float range, and before allocating an array above
    ``DENSE_LIMIT_BYTES``.
    """
    pts = _points(cloud)
    n = pts.shape[0]
    max_dim = _check_max_dim(max_dim)
    dist = _distances(pts)
    if eps_max is None:
        eps_max = float(dist.max()) / 2.0
    elif not (_is_number(eps_max) and eps_max >= 0):
        raise ValueError(f"eps_max must be >= 0, got {eps_max!r}")
    try:
        eps_max = float(eps_max)
    except OverflowError:
        raise ValueError("eps_max must be >= 0, got an integer past the float range") from None
    adjacency = np.triu(dist <= 2.0 * eps_max, k=1)
    verts, births, facets = _cliques(dist, adjacency, max_dim)
    return FilteredComplex(tuple(verts), tuple(births), n, dist, eps_max, max_dim, _facets=tuple(facets))


@dataclass(frozen=True, eq=False)
class _WindowUnion:
    """The disjoint union of consecutive windows' complexes, window-major.

    Window w's k-simplices are rows ``offsets[k][w]:offsets[k][w + 1]`` of
    ``births[k]`` and ``facets[k]`` (k >= 1; union indices into dimension
    k - 1), in its own (birth, vertices) order.  ``windows[w]`` is its
    ``FilteredComplex``, whose arrays are slices of the union's, with facets
    numbered within the window.
    """

    births: tuple
    facets: tuple
    offsets: tuple
    windows: tuple

    @classmethod
    def of(cls, complex_: FilteredComplex) -> "_WindowUnion":
        """One complex as a union of one window."""
        return cls(complex_.births, complex_._facets,
                   tuple(np.array([0, len(b)]) for b in complex_.births), (complex_,))


def _window_unions(cloud, halfwidth: int, max_dim: int):
    """Every sliding window's complex, in order, as ``_WindowUnion``s of consecutive windows.

    The window of centre c is [c - halfwidth, c + halfwidth + 1), cut to the
    cloud.  A window's complex is the full simplex on its points, so it is
    the induced subcomplex of the band: every simplex whose vertex indices
    span at most 2 * halfwidth.  Centres are taken in blocks of
    2 * halfwidth + 1; each block builds the band over its 4 * halfwidth + 1
    points once (distances, cliques, facet indices) and cuts its windows'
    unions out of it, in equal runs priced by its largest window against a
    byte budget read at call time, so what is held at once does not grow
    with the cloud's length.  Every window's arrays equal the ones
    ``vr_filtration`` builds: renumbering by -lo keeps the (birth, vertices)
    order, and a pair's distance does not depend on the other points.
    """
    pts = _points(cloud)
    n = pts.shape[0]
    max_dim = _check_max_dim(max_dim)
    halfwidth = min(halfwidth, n - 1)  # from n - 1 on, every window is the whole cloud
    block = 2 * halfwidth + 1
    for first in range(0, n, block):
        base, end = max(0, first - halfwidth), min(n, first + block + halfwidth)
        m = end - base
        dist = _distances(pts[base:end])
        band = np.triu(np.tril(np.ones((m, m), dtype=bool), 2 * halfwidth), 1)
        verts, births, facets = _cliques(dist, band, max_dim)
        centres = np.arange(first, min(n, first + block))
        lo = np.maximum(centres - halfwidth, 0) - base
        hi = np.minimum(centres + halfwidth + 1, n) - base
        # a window of s points has comb(s, k + 1) k-simplices at 5 (k + 1) + 4 eight-byte entries
        # each in the union, and adds a mask byte and a prefix-sum entry per band simplex
        cost = sum(9 * len(b) + 8 * (5 * (k + 1) + 4) * math.comb(int((hi - lo).max()), k + 1)
                   for k, b in enumerate(births))
        run = max(1, DENSE_LIMIT_BYTES // _UNION_SHARE // cost)
        for start in range(0, len(lo), run):
            yield _band_union(verts, births, facets, dist, lo[start:start + run], hi[start:start + run],
                              max_dim)


def _band_union(verts: list, births: list, facets: list, dist: np.ndarray,
                lo: np.ndarray, hi: np.ndarray, max_dim: int) -> _WindowUnion:
    """The disjoint union of the full-simplex complexes on points [lo[w], hi[w]) of a band.

    Per dimension, a (windows, band rows) mask selects each window's
    simplices; its nonzero entries, window-major, list the union's rows, so
    each window's rows are contiguous and in band order.  A facet's union
    index is the number of selected entries before it in the lower
    dimension's flattened mask: one prefix sum renumbers every window's
    facets at once.  Window w keeps the union's dimensions 0 .. hi[w] -
    lo[w], as ``vr_filtration`` of its points to ``max_dim`` stores them.
    """
    u_births, u_facets, offsets, local_verts, local_facets = [], [None], [], [], [None]
    index = None
    for k, (v, b) in enumerate(zip(verts, births)):
        inside = (v[:, 0] >= lo[:, None]) & (v[:, -1] < hi[:, None])  # rows are increasing
        win, row = np.nonzero(inside)
        offset = np.zeros(len(lo) + 1, dtype=np.intp)
        np.cumsum(np.count_nonzero(inside, axis=1), out=offset[1:])
        offsets.append(offset)
        vert = np.take(v, row, axis=0)
        vert -= np.take(lo, win)[:, None]
        local_verts.append(vert)
        u_births.append(_read_only(np.take(b, row)))
        if k:
            flat = np.take(facets[k], row, axis=0)
            flat += (win * len(verts[k - 1]))[:, None]  # entries of the lower mask, flattened
            union = np.take(index, flat)
            local = np.subtract(union, np.take(offsets[k - 1], win)[:, None], out=flat)
            u_facets.append(_read_only(union))
            local_facets.append(_read_only(local))
        if k < len(verts) - 1:
            index = np.cumsum(inside.ravel())
            index -= 1
    windows = []
    bounds = [o.tolist() for o in offsets]
    for w, (a, z) in enumerate(zip(lo.tolist(), hi.tolist())):
        rows = [slice(o[w], o[w + 1]) for o in bounds[:z - a + 1]]
        sub = dist[a:z, a:z]
        windows.append(FilteredComplex(
            tuple(v[r] for v, r in zip(local_verts, rows)), tuple(b[r] for b, r in zip(u_births, rows)),
            z - a, sub, float(sub.max()) / 2.0, max_dim,
            _facets=(None,) + tuple(f[r] for f, r in zip(local_facets[1:], rows[1:]))))
    return _WindowUnion(tuple(u_births), tuple(u_facets), tuple(offsets), tuple(windows))


def boundary_matrix(complex_: FilteredComplex, k: int) -> np.ndarray:
    """Boundary operator from k-chains to (k-1)-chains: the complex's read-only facet array.

    Past the stored dimensions it is an empty read-only (0, k+1) array.
    """
    if not 1 <= k <= complex_.max_dim:
        raise ValueError(f"k must satisfy 1 <= k <= max_dim ({complex_.max_dim}), got {k}")
    if k >= len(complex_._facets):
        return _read_only(np.empty((0, k + 1), dtype=np.intp))
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
