"""Persistent homology via boundary-matrix reduction over Z2.

Produces barcodes / persistence diagrams with half-open [birth, death) bars,
an independent rank-based persistent-Betti oracle for cross-checking, and an
exact bottleneck distance between diagrams.

The reduction and the oracle read the complex's facet arrays through
``boundary_matrix`` and turn each facet row, when they reach it, into a Z2
column held as an int bitset (bit r set for facet row r).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field

from .simplicial import Z2, FilteredComplex, boundary_matrix

INF = math.inf


@dataclass(frozen=True, order=True)
class Bar:
    """Half-open persistence interval [birth, death) in homology degree dim."""

    dim: int
    birth: float
    death: float

    def __post_init__(self):
        if self.birth < 0 or self.death < self.birth:
            raise ValueError(f"invalid bar [{self.birth}, {self.death}) in dim {self.dim}")

    @property
    def finite(self) -> bool:
        return self.death != INF

    @property
    def length(self) -> float:
        return self.death - self.birth


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of bars grouped by dimension, plus reduction bookkeeping.

    Zero-length pairs are dropped from ``bars`` but tallied per dimension in
    ``dropped_zero_bars`` so creator/destroyer counts stay auditable.
    """

    bars: tuple
    field: str = Z2
    max_dim: int = 0
    n_points: int = 0
    dropped_zero_bars: dict = dataclass_field(default_factory=dict)

    def bars_in_dim(self, k: int) -> list:
        return [b for b in self.bars if b.dim == k]

    def infinite_bars(self, k: int) -> list:
        return [b for b in self.bars if b.dim == k and not b.finite]

    def as_multiset(self) -> tuple:
        return tuple(sorted((b.dim, b.birth, b.death) for b in self.bars))


def _z2_column(facets) -> int:
    """One boundary column over Z2 as an int bitset: bit r set per facet row r."""
    bits = 0
    for r in facets.tolist():
        bits |= 1 << r
    return bits


def reduce(complex_: FilteredComplex) -> PersistenceDiagram:
    """Standard column reduction with the clearing (twist) optimization.

    Dimensions are processed top-down; a simplex paired as a pivot row while
    reducing dimension k+1 is a known creator, so its own column is skipped.
    Output is deterministic given the filtration order.
    """
    max_dim = complex_.max_dim
    births = complex_.births
    bars = []
    dropped: dict = {}
    cleared = [set() for _ in range(max_dim + 1)]

    for k in range(max_dim, 0, -1):
        pivots: dict = {}
        for j, row in enumerate(boundary_matrix(complex_, k, Z2).rows):
            if j in cleared[k]:
                continue
            col = _z2_column(row)
            while col:
                piv = col.bit_length() - 1
                other = pivots.get(piv)
                if other is None:
                    break
                col ^= other
            if col:
                pivots[piv] = col
                cleared[k - 1].add(piv)
                birth = float(births[k - 1][piv])
                death = float(births[k][j])
                if death > birth:
                    bars.append(Bar(k - 1, birth, death))
                else:
                    dropped[k - 1] = dropped.get(k - 1, 0) + 1
            else:
                bars.append(Bar(k, float(births[k][j]), INF))

    for i in range(complex_.count_dim(0)):
        if i not in cleared[0]:
            bars.append(Bar(0, float(births[0][i]), INF))

    bars.sort()
    return PersistenceDiagram(
        bars=tuple(bars),
        field=Z2,
        max_dim=max_dim,
        n_points=complex_.n_points,
        dropped_zero_bars=dropped,
    )


def persistent_betti(diagram: PersistenceDiagram, k: int, eps1: float, eps2: float) -> int:
    """Bars of degree k spanning [eps1, eps2]: birth <= eps1 and death > eps2."""
    if eps1 > eps2:
        raise ValueError(f"eps1 ({eps1}) must be <= eps2 ({eps2})")
    return sum(1 for b in diagram.bars if b.dim == k and b.birth <= eps1 and b.death > eps2)


# -- independent oracle: persistent Betti numbers by Z2 rank computations ----

def _gf2_rank(vectors) -> int:
    pivots: dict = {}
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


def _gf2_nullspace(columns) -> list:
    """Combinations (bitmasks over column indices) spanning the null space."""
    pivots: dict = {}
    null = []
    for j, v in enumerate(columns):
        combo = 1 << j
        while v:
            h = v.bit_length() - 1
            entry = pivots.get(h)
            if entry is None:
                pivots[h] = (v, combo)
                break
            v ^= entry[0]
            combo ^= entry[1]
        else:
            null.append(combo)
    return null


def _z2_columns(complex_: FilteredComplex, k: int, eps: float) -> list:
    """Z2 bitset columns of the k-boundary of the subcomplex at scale eps."""
    if not 1 <= k <= complex_.max_dim:
        return []
    facets = boundary_matrix(complex_, k, Z2).rows[:complex_.count_at(k, eps)]
    return [_z2_column(row) for row in facets]


def betti_oracle(complex_: FilteredComplex, k: int, eps1: float, eps2: float) -> int:
    """Rank-based persistent Betti number over Z2 (no reduction involved).

    Computes dim Z_k(K_eps1) - dim(Z_k(K_eps1) intersect B_k(K_eps2)) by
    Gaussian elimination, with dim(A intersect B) = dim A + dim B - dim(A+B).
    Intended for small complexes.
    """
    if eps1 > eps2:
        raise ValueError(f"eps1 ({eps1}) must be <= eps2 ({eps2})")
    n_k_eps1 = complex_.count_at(k, eps1)
    if n_k_eps1 == 0:
        return 0
    if k == 0:
        cycles = [1 << j for j in range(n_k_eps1)]
    else:
        cycles = _gf2_nullspace(_z2_columns(complex_, k, eps1))
    dim_z = len(cycles)
    boundaries = _z2_columns(complex_, k + 1, eps2)
    dim_b = _gf2_rank(list(boundaries))
    dim_zb = _gf2_rank(cycles + boundaries)
    return dim_z - (dim_z + dim_b - dim_zb)


# -- bottleneck distance ------------------------------------------------------

def _linf(p, q) -> float:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def _matchable(n1, n2, adj, limit) -> bool:
    """Kuhn's augmenting paths: does a perfect matching of size ``limit`` exist?

    Each path is searched depth-first on an explicit stack, so it may be as long as the graph.
    """
    match_v = [-1] * n2
    matched = 0
    for root in range(n1):
        seen = [False] * n2
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
                matched += 1
                break
            stack.append(iter(adj[match_v[v]]))
    return matched == limit


def _finite_bottleneck(p1, p2) -> float:
    """Exact bottleneck between finite-point diagrams, diagonal allowed."""
    n1, n2 = len(p1), len(p2)
    if n1 == 0 and n2 == 0:
        return 0.0
    diag1 = [(p[1] - p[0]) / 2.0 for p in p1]
    diag2 = [(q[1] - q[0]) / 2.0 for q in p2]
    candidates = {0.0}
    candidates.update(diag1)
    candidates.update(diag2)
    for p in p1:
        for q in p2:
            candidates.add(_linf(p, q))
    grid = sorted(candidates)

    size = n1 + n2  # U = p1 + dummies(p2), V = p2 + dummies(p1)

    def feasible(delta):
        adj = [[] for _ in range(size)]
        for i, p in enumerate(p1):
            for j, q in enumerate(p2):
                if _linf(p, q) <= delta:
                    adj[i].append(j)
            if diag1[i] <= delta:
                adj[i].append(n2 + i)
        for j in range(n2):
            u = n1 + j
            if diag2[j] <= delta:
                adj[u].append(j)
            adj[u].extend(range(n2, n2 + n1))  # dummy-dummy matches are free
        return _matchable(size, size, adj, size)

    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(grid[mid]):
            hi = mid
        else:
            lo = mid + 1
    return grid[lo]


def bottleneck(d1: PersistenceDiagram, d2: PersistenceDiagram, k: int) -> float:
    """Exact bottleneck distance between degree-k parts of two diagrams.

    Infinite bars must match infinite bars (on birth); diagrams with unequal
    infinite-bar counts are infinitely far apart.
    """
    bars1 = d1.bars_in_dim(k)
    bars2 = d2.bars_in_dim(k)
    inf1 = sorted(b.birth for b in bars1 if not b.finite)
    inf2 = sorted(b.birth for b in bars2 if not b.finite)
    if len(inf1) != len(inf2):
        return INF
    inf_part = max((abs(a - b) for a, b in zip(inf1, inf2)), default=0.0)
    fin1 = [(b.birth, b.death) for b in bars1 if b.finite]
    fin2 = [(b.birth, b.death) for b in bars2 if b.finite]
    return max(inf_part, _finite_bottleneck(fin1, fin2))


# -- serialization and rendering ----------------------------------------------

def diagram_to_json(diagram: PersistenceDiagram) -> str:
    payload = {
        "field": diagram.field,
        "bars": [
            {"dim": b.dim, "birth": b.birth, "death": (None if not b.finite else b.death)}
            for b in diagram.bars
        ],
        "metadata": {
            "max_dim": diagram.max_dim,
            "n_points": diagram.n_points,
            "dropped_zero_bars": {str(k): v for k, v in sorted(diagram.dropped_zero_bars.items())},
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def diagram_from_json(text: str) -> PersistenceDiagram:
    payload = json.loads(text)
    bars = tuple(
        sorted(
            Bar(int(b["dim"]), float(b["birth"]), INF if b["death"] is None else float(b["death"]))
            for b in payload["bars"]
        )
    )
    meta = payload.get("metadata", {})
    return PersistenceDiagram(
        bars=bars,
        field=payload.get("field", Z2),
        max_dim=int(meta.get("max_dim", max((b.dim for b in bars), default=0))),
        n_points=int(meta.get("n_points", 0)),
        dropped_zero_bars={int(k): int(v) for k, v in meta.get("dropped_zero_bars", {}).items()},
    )


def render_text(diagram: PersistenceDiagram) -> str:
    """One line per bar, ``dim k: [b, d)``, sorted by (dim, birth)."""
    lines = []
    for b in sorted(diagram.bars):
        death = "inf" if not b.finite else f"{b.death:.12g}"
        lines.append(f"dim {b.dim}: [{b.birth:.12g}, {death})")
    return "\n".join(lines) + ("\n" if lines else "")


def render_svg(diagram: PersistenceDiagram, width: int = 720) -> str:
    """Static barcode rendering: horizontal bars grouped by dimension."""
    bars = sorted(diagram.bars)
    finite_ends = [b.death for b in bars if b.finite] + [b.birth for b in bars]
    x_max = max(finite_ends, default=1.0)
    x_max = x_max * 1.1 if x_max > 0 else 1.0
    bar_h, gap, left, top = 6, 4, 60, 24
    dims = sorted({b.dim for b in bars})
    rows = []
    y = top
    scale = (width - left - 20) / x_max

    def sx(value):
        return left + value * scale

    for dim in dims:
        rows.append(
            f'<text x="4" y="{y + bar_h}" font-size="11" font-family="monospace">dim {dim}</text>'
        )
        for b in (bb for bb in bars if bb.dim == dim):
            x0 = sx(b.birth)
            x1 = sx(b.death) if b.finite else width - 12
            rows.append(
                f'<line x1="{x0:.2f}" y1="{y + bar_h / 2:.2f}" x2="{x1:.2f}" '
                f'y2="{y + bar_h / 2:.2f}" stroke="#1f6f9f" stroke-width="{bar_h - 2}" />'
            )
            if not b.finite:
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
