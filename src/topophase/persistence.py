"""Persistent homology via persistent cohomology with clearing over Z2.

Produces barcodes / persistence diagrams with half-open [birth, death) bars,
an independent rank-based persistent-Betti oracle for cross-checking, and an
exact bottleneck distance between diagrams.

Degrees: as in Ripser (Bauer, 2021), ``reduce`` reports degrees 0 ..
max_dim - 1, each read from the next dimension, and refuses ``max_dim`` < 1;
diagram readers take whatever degrees a diagram holds.  Both Betti detectors
refuse scales outside 0 <= eps1 <= eps2, ``betti_oracle`` also a degree
outside 0 <= k < max_dim (``simplicial._check_probe``).

Reduction: for k = 0 .. max_dim - 1 the coboundary columns of the
k-simplices are reduced last simplex first; a column's pivot is its earliest
cofacet.  A k-simplex that was a pivot row in dimension k - 1 is cleared:
its column is never built.  By the duality of de Silva, Morozov and
Vejdemo-Johansson ("Dualities in persistent (co)homology", 2011) the pairs
equal those of the boundary-matrix reduction.  The cofacet lists come from
inverting the (k+1)-simplices' facet array (read through
``boundary_matrix``) with one stable argsort of keys cast to the narrowest
integer type that holds them, which numpy sorts by radix.  A column j is
apparent when it is the latest facet of its earliest cofacet c (Bauer,
"Ripser", 2021): no column after j has c in its coboundary, so c is free
when j is reached and the pair (j, c) is found before the loop, with numpy,
for all such columns at once.  The loop visits the other columns and holds
only the one it reduces, as boolean flags over the rows from its first pivot
to the dimension's last row; the pivot is the first set flag.  Adding a column
flips the flags of its rows: an apparent column, or one paired with no
addition, is its slice of the cofacet array, and a column the loop reduced is
the index array of rows it was reduced to, kept when it is paired.

Disjoint unions: one core, ``_bars``, reduces a ``simplicial._WindowUnion``
(the births and facet indices per dimension of a disjoint union of
complexes, each component's simplices a contiguous segment of every
dimension in its own filtration order), and ``_betti_counts`` and
``_diagram`` read each component's share of its bars; ``reduce`` passes one
complex as the union of one, and a window sweep passes a block of windows.
The result is each component's own reduction.
A simplex's cofacets lie in its own component, so the union's coboundary
matrix is block-diagonal: no column addition crosses components, the
apparent-pair test and clearing act column by column, and the last-first
order restricted to a component is that component's order.  So the union's
pairing restricted to a component is the component's pairing, and a
component's diagram is its share of the union's bars.  The reduction needs
no component boundaries: every column added to a working column lies in its
component, so no flag past the component's last row is ever set.

Diagram: a ``PersistenceDiagram`` stores its bars as three read-only arrays
(``dims``, ``births``, ``deaths``) ordered by (dim, birth, death).  Persistent
Betti numbers and the bottleneck distance read the arrays; JSON, text and SVG
output read ``bars``, the same values as ``(dim, birth, death)`` tuples.
Every diagram is over Z2: the JSON form records ``"field": "Z2"``, and
reading refuses any other field.

Rank oracle: a boundary matrix and its transpose have the same rank, so the
oracle eliminates rows, one int bitset per (k-1)-simplex with bit j set for
each k-simplex j it bounds.  The rows are packed from ``boundary_matrix``
into a uint8 array (``np.bitwise_or.at``), checked against
``DENSE_LIMIT_BYTES`` first, and read as one integer each.  With n1 the
k-simplices born by eps1, the rows of the (k+1)-boundary at eps2 split into
R1, those n1 rows, and R2, the later k-simplices, as in the Schur Laplacian.
A boundary lying in C_k(K_eps1) is a cycle there, so Z_k(K_eps1) meets
B_k(K_eps2) in the boundaries whose R2 part is zero, of dimension
rank d_{k+1}(eps2) - rank R2.  Hence beta = n1 - rank d_k(eps1)
- rank d_{k+1}(eps2) + rank R2.  Eliminating the R2 rows first and then the
R1 rows into the same pivot table gives rank R2 and then rank d_{k+1}(eps2),
so the three ranks take two eliminations, and no null-space basis is built.

Bottleneck: at a candidate delta a point is far when its half-length (its
L-infinity distance to the diagonal) exceeds delta.  The two diagrams, each
with the other's diagonal copies, match perfectly at cost <= delta exactly
when some matching of P1 to P2 along edges of cost <= delta covers every far
point of both: a near point left over goes to the diagonal, and the leftover
diagonal copies pair with each other.  By the Mendelsohn-Dulmage theorem
(1958) such a matching exists iff the far points of P1 can all be matched
into P2 and the far points of P2 into P1, so each step of the binary search
over the candidate costs is two saturation checks on the rows and columns of
``cost <= delta``, with no diagonal vertices.  As in Hera (Kerber, Morozov
and Nigmetov, "Geometry helps to compare persistence diagrams", 2017), the
cost is in building and searching each step's graph.  So the rows of
``cost`` and of its transpose are argsorted once, into Python lists.  At
each delta a far point's neighbours are then a prefix of its list, cheapest
first, cut at the count of its costs <= delta.  A saturation check first
matches greedily: each far point, fewest neighbours first, takes its first
free neighbour.  It then searches Kuhn's augmenting paths only from the
points still unmatched.  The answer stays exact whatever matching the search
starts from: if some matching covers every far point, its symmetric
difference with the current one holds an augmenting path from each far point
left unmatched (Berge, 1957), so a point with none answers no.
The difference array and the neighbour lists are checked against
``DENSE_LIMIT_BYTES`` before any of them is allocated.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .simplicial import (FilteredComplex, _check_dense, _check_probe, _check_scales, _is_integer, _is_number,
                         _WindowUnion, boundary_matrix)

INF = math.inf


@dataclass(frozen=True, eq=False, init=False)
class PersistenceDiagram:
    """Bars as read-only ``dims``, ``births`` and ``deaths`` arrays, plus reduction bookkeeping.

    The arrays hold one entry per bar, ordered by (dim, birth, death); an
    essential bar has death ``inf``.  The arrays may be passed in any order.
    Dims of a non-integer dtype (floats, bools), a negative dim, a NaN value,
    a non-finite or negative birth, or a death below its birth raise
    ``ValueError``.
    Zero-length pairs are dropped from the bars but tallied per dimension in
    ``dropped_zero_bars`` so creator/destroyer counts stay auditable.
    """

    dims: np.ndarray
    births: np.ndarray
    deaths: np.ndarray
    max_dim: int
    n_points: int
    dropped_zero_bars: dict

    def __init__(self, max_dim=0, n_points=0, dropped_zero_bars=None, *,
                 dims=(), births=(), deaths=()):
        dims = np.asarray(dims)
        if dims.size and dims.dtype.kind not in "iu":  # a cast would store 1.5 or True as dim 1
            raise ValueError(f"bar dim must be an integer, got dims of dtype {dims.dtype}")
        dims = dims.astype(np.intp, copy=False)
        births = np.asarray(births, dtype=float)
        deaths = np.asarray(deaths, dtype=float)
        if not dims.ndim == 1 or not dims.shape == births.shape == deaths.shape:
            raise ValueError("dims, births and deaths must be 1-d arrays of one length")
        invalid = (dims < 0) | ~np.isfinite(births) | (births < 0) | np.isnan(deaths) | (deaths < births)
        if invalid.any():
            i = int(np.argmax(invalid))
            raise ValueError(f"invalid bar [{births[i]}, {deaths[i]}) in dim {dims[i]}: a dim must be "
                             ">= 0, a birth finite and >= 0, a death not NaN and >= its birth")
        order = np.lexsort((deaths, births, dims))
        for name, values in (("dims", dims), ("births", births), ("deaths", deaths)):
            values = values[order]
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "max_dim", max_dim)
        object.__setattr__(self, "n_points", n_points)
        object.__setattr__(self, "dropped_zero_bars", dict(dropped_zero_bars or {}))

    @property
    def bars(self) -> tuple:
        """Every bar as a ``(dim, birth, death)`` tuple, in (dim, birth, death) order."""
        return tuple(zip(self.dims.tolist(), self.births.tolist(), self.deaths.tolist()))

    def _in_dim(self, k: int):
        """Births and deaths of the degree-k bars (views, ordered by birth); k must be an integer >= 0."""
        if not (_is_integer(k) and k >= 0):  # a k between degrees would read the next one's bars
            raise ValueError(f"k must be >= 0 and an integer, got {k}")
        lo, hi = np.searchsorted(self.dims, (k, k + 1))
        return self.births[lo:hi], self.deaths[lo:hi]


def _cofacets(facets: np.ndarray, n_k: int):
    """Cofacet rows of every k-simplex: those of simplex j are ``rows[starts[j]:starts[j + 1]]``.

    ``facets`` is the (k+1)-simplices' facet array.  One stable argsort of
    its entries groups them by facet and keeps each group in ascending
    cofacet order; on keys of the narrowest integer type that holds n_k - 1
    a stable sort is a radix sort.
    """
    flat = facets.ravel()
    starts = np.zeros(n_k + 1, dtype=np.intp)
    np.cumsum(np.bincount(flat, minlength=n_k), out=starts[1:])
    rows = np.argsort(flat.astype(np.min_scalar_type(n_k - 1)), kind="stable")
    rows //= facets.shape[1]
    return starts, rows


def _reduce_coboundaries(starts, rows, latest, cleared):
    """Reduce one dimension's coboundary columns, last simplex first, skipping ``cleared``.

    ``latest[c]`` is the latest facet of cofacet row c.  Returns the paired
    columns, their pivot rows and the columns that reduce to zero.  An
    apparent column, the latest facet of its earliest cofacet, pairs with
    that cofacet before the loop; the loop visits the other columns, holds
    the one it reduces as flags from its first pivot to the dimension's last
    row, and keeps the rows of each column it reduced as an index array.
    """
    nonempty = starts[1:] > starts[:-1]
    columns = np.flatnonzero(~cleared & nonempty)
    first = rows[starts[columns]]
    apparent = latest[first] == columns
    owner = dict(zip(first[apparent].tolist(), columns[apparent].tolist()))  # pivot row -> column
    reduced: dict = {}  # column -> its rows after reduction, for columns the loop reduced
    starts = starts.tolist()
    paired, pivots, zero = [], [], []
    rest = ~apparent
    for j, piv in zip(columns[rest][::-1].tolist(), first[rest][::-1].tolist()):
        if piv in owner:
            low = piv  # flag i of the column is row low + i
            col = np.zeros(len(latest) - low, dtype=bool)
            col[rows[starts[j]:starts[j + 1]] - low] = True
            while piv in owner:
                other = owner[piv]
                added = reduced.get(other)
                if added is None:  # a column the loop did not reduce is its cofacet rows
                    added = rows[starts[other]:starts[other + 1]]
                col[added - low] ^= True
                piv += int(col[piv - low:].argmax())
                if not col[piv - low]:
                    piv = None
            if piv is None:
                zero.append(j)
                continue
            reduced[j] = np.flatnonzero(col) + low
        owner[piv] = j
        paired.append(j)
        pivots.append(piv)
    return (np.concatenate([columns[apparent], np.asarray(paired, dtype=np.intp)]),
            np.concatenate([first[apparent], np.asarray(pivots, dtype=np.intp)]),
            np.concatenate([np.flatnonzero(~cleared & ~nonempty), np.asarray(zero, dtype=np.intp)]))


def _bars(union: _WindowUnion) -> list:
    """Creator index and death of every bar, zero-length ones included, per degree it reads.

    Entry k is (creators, deaths): the union's k-simplices that create a
    bar, ascending, and where each bar dies, ``inf`` for an essential one.
    Degree k reads dimension k + 1, so the entries run over the union's
    dimensions but its last, and stop at its first empty dimension: no
    degree past it has a bar.
    """
    births, facets = union.births, union.facets
    bars = []
    pivots = np.empty(0, dtype=np.intp)
    for k in range(len(births) - 1):
        if not len(births[k]):
            break
        cleared = np.zeros(len(births[k]), dtype=bool)
        cleared[pivots] = True
        latest = functools.reduce(np.maximum, facets[k + 1].T)  # faster than max(axis=1) on k + 2 columns
        paired, pivots, zero = _reduce_coboundaries(*_cofacets(facets[k + 1], len(births[k])), latest, cleared)
        death = np.full(len(births[k]), np.nan)
        death[paired] = births[k + 1][pivots]
        death[zero] = INF
        creators = np.flatnonzero(~cleared)  # every column not cleared is paired or zero
        bars.append((creators, death[creators]))
    return bars


def _diagram(union: _WindowUnion, bars: list, w: int) -> PersistenceDiagram:
    """Diagram of window w of the union, its share of the union's ``_bars``, to the window's ``max_dim``."""
    dims, bar_births, bar_deaths = [], [], []
    dropped: dict = {}
    for k, (creators, deaths) in enumerate(bars):
        offsets = union.offsets[k]
        lo, hi = np.searchsorted(creators, (offsets[w], offsets[w + 1]))
        birth, death = union.births[k][creators[lo:hi]], deaths[lo:hi]
        kept = death > birth
        if not kept.all():
            dropped[k] = int(np.count_nonzero(~kept))
            birth, death = birth[kept], death[kept]
        bar_births.append(birth)
        bar_deaths.append(death)
        dims.append(np.full(len(birth), k))
    window = union.windows[w]
    return PersistenceDiagram(
        max_dim=window.max_dim,
        n_points=window.n_points,
        dropped_zero_bars=dropped,
        dims=np.concatenate(dims),
        births=np.concatenate(bar_births),
        deaths=np.concatenate(bar_deaths),
    )


def reduce(complex_: FilteredComplex) -> PersistenceDiagram:
    """Persistent cohomology with clearing (see the module docstring).

    The diagram holds degrees 0 .. max_dim - 1 (``max_dim`` >= 1), equal to
    those of the standard boundary-matrix reduction of the same filtration
    order.  Output is deterministic given that order.
    """
    if complex_.max_dim < 1:
        raise ValueError(f"reduce needs max_dim >= 1, got {complex_.max_dim}")
    union = _WindowUnion.of(complex_)
    return _diagram(union, _bars(union), 0)


def persistent_betti(diagram: PersistenceDiagram, k: int, eps1: float, eps2: float) -> int:
    """Bars of degree k spanning [eps1, eps2]: birth <= eps1 and death > eps2."""
    eps1, eps2 = _check_scales(eps1, eps2)
    births, deaths = diagram._in_dim(k)
    return int(np.count_nonzero((births <= eps1) & (deaths > eps2)))


def _betti_counts(union: _WindowUnion, bars: list, k: int, eps1: float, eps2: float) -> np.ndarray:
    """``persistent_betti`` of every window of the union, from its ``_bars``; 0 past them."""
    if k >= len(bars):
        return np.zeros(len(union.windows), dtype=np.intp)
    creators, deaths = bars[k]
    spanning = creators[(union.births[k][creators] <= eps1) & (deaths > eps2)]
    offsets = union.offsets[k]
    return np.bincount(np.searchsorted(offsets, spanning, side="right") - 1, minlength=len(offsets) - 1)


# -- independent oracle: persistent Betti numbers by Z2 rank computations ----

def _gf2_eliminate(vectors, pivots: dict) -> int:
    """Eliminate int-bitset ``vectors`` into ``pivots`` (top bit -> vector); returns the rank gained."""
    rank = 0
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                rank += 1
                break
            v ^= p
    return rank


def _z2_rows(complex_: FilteredComplex, k: int, eps: float) -> list:
    """Z2 rows of the k-boundary of the subcomplex at scale eps, one int bitset per (k-1)-simplex.

    Bit j of row r is set when (k-1)-simplex r is a facet of k-simplex j.  The
    bits are packed into a uint8 array, one row per (k-1)-simplex born by eps,
    and each row is read as one little-endian integer.
    """
    if k == 0:  # a vertex bounds nothing
        return []
    facets = boundary_matrix(complex_, k)[:complex_.count_at(k, eps)]
    n_rows, width = complex_.count_at(k - 1, eps), -(-len(facets) // 8)
    _check_dense(n_rows, width, f"array of packed Z2 {k}-boundary rows", itemsize=1)
    packed = np.zeros((n_rows, width), dtype=np.uint8)
    cols = np.arange(len(facets))
    bits = (1 << (cols & 7)).astype(np.uint8)
    np.bitwise_or.at(packed, (facets, (cols >> 3)[:, None]), bits[:, None])
    data = packed.tobytes()
    return [int.from_bytes(data[r * width:(r + 1) * width], "little") for r in range(n_rows)]


def betti_oracle(complex_: FilteredComplex, k: int, eps1: float, eps2: float) -> int:
    """Rank-based persistent Betti number over Z2 (no reduction involved).

    With n1 the k-simplices born by eps1 and R2 the rows of the (k+1)-boundary
    at eps2 on the later k-simplices, beta = n1 - rank d_k(eps1)
    - rank d_{k+1}(eps2) + rank R2 (see the module docstring).  Raises
    ``ValueError`` for k outside [0, max_dim), scales outside
    0 <= eps1 <= eps2 or rows above ``DENSE_LIMIT_BYTES``.
    """
    k, eps1, eps2 = _check_probe(complex_.max_dim, k, eps1, eps2)
    n1 = complex_.count_at(k, eps1)
    rows = _z2_rows(complex_, k + 1, eps2)
    pivots: dict = {}
    _gf2_eliminate(rows[n1:], pivots)  # gains rank R2
    bounded = _gf2_eliminate(rows[:n1], pivots)  # gains rank d_{k+1}(eps2) - rank R2
    return n1 - _gf2_eliminate(_z2_rows(complex_, k, eps1), {}) - bounded


# -- bottleneck distance ------------------------------------------------------

def _saturates(adj, n_right) -> bool:
    """Can every left vertex ``i`` be matched into ``adj[i]``?

    A greedy pass first gives each left vertex, fewest neighbours first, its
    first free neighbour.  Kuhn's augmenting paths are then searched only
    from the left vertices still unmatched, each depth-first on an explicit
    stack, so a path may be as long as the graph.  The first vertex without
    one answers no (see the module docstring).
    """
    match_v = [-1] * n_right
    unmatched = []
    for root in sorted(range(len(adj)), key=lambda u: len(adj[u])):
        for v in adj[root]:
            if match_v[v] == -1:
                match_v[v] = root
                break
        else:
            unmatched.append(root)
    for root in unmatched:
        seen = [False] * n_right
        stack, path = [iter(adj[root])], []
        while stack:
            for v in stack[-1]:
                if not seen[v]:
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen[v] = True
            path.append(v)
            if match_v[v] == -1:
                u = root
                for pv in path:
                    match_v[pv], u = u, match_v[pv]
                break
            stack.append(iter(adj[match_v[v]]))
        else:
            return False
    return True


def _finite_bottleneck(p1: np.ndarray, p2: np.ndarray) -> float:
    """Exact bottleneck between finite-point diagrams, given as (n, 2) [birth, death] arrays.

    The least candidate delta at which both far sets saturate (see the module
    docstring).  Each point's neighbours are sorted by cost once, so at any
    delta they are a prefix of its list, cheapest first.  Raises
    ``ValueError`` before allocating above ``DENSE_LIMIT_BYTES``.
    """
    n1, n2 = len(p1), len(p2)
    _check_dense(n1 * n2, 2, "array of bar differences")
    # per side, a Python list of neighbours: an 8-byte pointer and a 28-byte int per entry
    _check_dense(n1, n2, "list of neighbours by cost", itemsize=36)
    diag1 = (p1[:, 1] - p1[:, 0]) / 2.0
    diag2 = (p2[:, 1] - p2[:, 0]) / 2.0
    cost = np.abs(p1[:, None, :] - p2[None, :, :]).max(axis=2)  # L-infinity, n1 x n2
    grid = np.unique(np.concatenate(([0.0], diag1, diag2, cost.ravel())))
    by_cost1 = np.argsort(cost, axis=1).tolist()
    by_cost2 = np.argsort(cost.T, axis=1).tolist()

    def far_prefixes(by_cost, counts, far):
        return [row[:c] for row, c in itertools.compress(zip(by_cost, counts.tolist()), far.tolist())]

    def feasible(delta):
        near = cost <= delta
        return (_saturates(far_prefixes(by_cost1, np.count_nonzero(near, axis=1), diag1 > delta), n2)
                and _saturates(far_prefixes(by_cost2, np.count_nonzero(near, axis=0), diag2 > delta), n1))

    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(grid[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(grid[lo])


def bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram, k: int) -> float:
    """Exact bottleneck distance between degree-k parts of two diagrams.

    Infinite bars must match infinite bars (on birth); diagrams with unequal
    infinite-bar counts are infinitely far apart.
    """
    (births1, deaths1), (births2, deaths2) = d1._in_dim(k), d2._in_dim(k)
    inf1, inf2 = deaths1 == INF, deaths2 == INF
    if np.count_nonzero(inf1) != np.count_nonzero(inf2):
        return INF
    inf_part = float(np.max(np.abs(births1[inf1] - births2[inf2]), initial=0.0))
    fin1 = np.column_stack([births1[~inf1], deaths1[~inf1]])
    fin2 = np.column_stack([births2[~inf2], deaths2[~inf2]])
    return max(inf_part, _finite_bottleneck(fin1, fin2))


# -- serialization and rendering ----------------------------------------------

def diagram_to_json(diagram: PersistenceDiagram) -> str:
    payload = {
        "field": "Z2",
        "bars": [
            {"dim": k, "birth": b, "death": (None if d == INF else d)}
            for k, b, d in diagram.bars
        ],
        "metadata": {
            "max_dim": diagram.max_dim,
            "n_points": diagram.n_points,
            "dropped_zero_bars": {str(k): v for k, v in sorted(diagram.dropped_zero_bars.items())},
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _read_number(value, what: str, integer: bool = False):
    """A diagram file's number as a float, or as an int if ``integer``; ``TypeError`` for any other value."""
    if not (_is_integer(value) if integer else _is_number(value)):
        raise TypeError(f"{what} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else float(value)


def diagram_from_json(text: str) -> PersistenceDiagram:
    """Parse ``diagram_to_json`` output; malformed structure or invalid bar values raise ``ValueError``.

    Dims and metadata must be integers and bar values numbers (``true`` and
    ``"0.5"`` are neither), a number past the float range is malformed, and
    every diagram is over Z2, so a ``"field"`` other than ``"Z2"`` is refused
    too.
    """
    payload = json.loads(text)
    try:
        if payload.get("field", "Z2") != "Z2":
            raise ValueError(f"diagram field must be 'Z2', got {payload['field']!r}")
        bars, meta = payload["bars"], payload.get("metadata", {})
        dims = [_read_number(b["dim"], "bar dim", integer=True) for b in bars]
        births = [_read_number(b["birth"], "bar birth") for b in bars]
        deaths = [INF if b["death"] is None else _read_number(b["death"], "bar death") for b in bars]
        max_dim = _read_number(meta.get("max_dim", max(dims, default=0)), "max_dim", integer=True)
        n_points = _read_number(meta.get("n_points", 0), "n_points", integer=True)
        dropped = {int(k): _read_number(v, "dropped zero-bar count", integer=True)
                   for k, v in meta.get("dropped_zero_bars", {}).items()}
    except (KeyError, TypeError, AttributeError, OverflowError) as err:
        raise ValueError(f"malformed diagram ({type(err).__name__}: {err})") from None
    return PersistenceDiagram(max_dim=max_dim, n_points=n_points, dropped_zero_bars=dropped,
                              dims=dims, births=births, deaths=deaths)


def render_text(diagram: PersistenceDiagram) -> str:
    """One line per bar, ``dim k: [b, d)``, sorted by (dim, birth)."""
    lines = []
    for k, b, d in diagram.bars:
        death = "inf" if d == INF else f"{d:.12g}"
        lines.append(f"dim {k}: [{b:.12g}, {death})")
    return "\n".join(lines) + ("\n" if lines else "")


def render_svg(diagram: PersistenceDiagram, width: int = 720) -> str:
    """Static barcode rendering: horizontal bars grouped by dimension."""
    bars = diagram.bars
    finite_ends = [d for _, _, d in bars if d != INF] + [b for _, b, _ in bars]
    x_max = max(finite_ends, default=1.0)
    x_max = x_max * 1.1 if x_max > 0 else 1.0
    bar_h, gap, left, top = 6, 4, 60, 24
    dims = sorted({k for k, _, _ in bars})
    rows = []
    y = top
    scale = (width - left - 20) / x_max

    def sx(value):
        return left + value * scale

    for dim in dims:
        rows.append(
            f'<text x="4" y="{y + bar_h}" font-size="11" font-family="monospace">dim {dim}</text>'
        )
        for _, birth, death in (b for b in bars if b[0] == dim):
            x0 = sx(birth)
            x1 = sx(death) if death != INF else width - 12
            rows.append(
                f'<line x1="{x0:.2f}" y1="{y + bar_h / 2:.2f}" x2="{x1:.2f}" '
                f'y2="{y + bar_h / 2:.2f}" stroke="#1f6f9f" stroke-width="{bar_h - 2}" />'
            )
            if death == INF:
                rows.append(
                    f'<text x="{width - 11}" y="{y + bar_h}" font-size="9" font-family="monospace">&#8734;</text>'
                )
            y += bar_h + gap
        y += gap
    height = y + 30
    axis_y = height - 18
    ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        val = frac * x_max
        ticks.append(
            f'<line x1="{sx(val):.2f}" y1="{axis_y - 3}" x2="{sx(val):.2f}" y2="{axis_y + 3}" stroke="#333" />'
            f'<text x="{sx(val):.2f}" y="{axis_y + 14}" font-size="9" text-anchor="middle" '
            f'font-family="monospace">{val:.3g}</text>'
        )
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{left}" y1="{axis_y}" x2="{width - 12}" y2="{axis_y}" stroke="#333" />',
        *ticks,
        *rows,
        "</svg>",
    ]
    return "\n".join(svg) + "\n"
