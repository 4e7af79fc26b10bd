"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library code paths it is
used to check: closed-form eigenpairs, union-find component counting,
brute-force GF(2) ranks and brute-force bottleneck matchings.  The exceptions
are ``vdot_cloud``, the per-observable expectation loop that the stack
contraction in ``topophase.statecloud`` replaced, ``assert_matches_dense``,
which checks the Schur Laplacian and the closed-form Dirac spectrum against
the dense assembled operator that ``topophase.dirac`` keeps as their
reference, ``facet_indices``, the vertex-key facet lookup that the clique
loop's facets are checked against,
``window_filtrations``, every sliding window's complex from the sweep's
band unions, ``homology_reduce``, the boundary-matrix
reduction that the cohomology reduction in ``topophase.persistence``
replaced (``below_max_dim`` keeps the degrees that reduction reports),
``column_rank_oracle``, the column-form rank formula that the
library's row-form ``betti_oracle`` replaced, and ``kuhn_bottleneck``, the
Kuhn-only matcher that the library's presorted, greedy-first ``bottleneck``
replaced.
"""

import itertools

import numpy as np

import topophase as tp
from topophase import dirac
from topophase.persistence import INF, PersistenceDiagram
from topophase.simplicial import _window_unions, boundary_matrix


def random_cloud(rng, n_min=4, n_max=8, dim_min=1, dim_max=3, scale=1.0):
    n = int(rng.integers(n_min, n_max + 1))
    dim = int(rng.integers(dim_min, dim_max + 1))
    return rng.uniform(0.0, scale, size=(n, dim))


def components_at_scale(points, eps):
    """Union-find count of connected components of the 2*eps neighbor graph."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(pts[i] - pts[j]) <= 2.0 * eps:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    return len({find(i) for i in range(n)})


def ssh4_bonds(lam, v=1.0, w=1.0):
    return (v - lam * w, v + lam * w, v - lam * w)


def ssh4_ground_closed_form(lam):
    """Exact ground eigenpair of the 4-site palindromic chain (a, b, a).

    The reflection-antisymmetric ansatz (p, q, -q, -p) with q = (E/a) p gives
    E^2 + b E - a^2 = 0; the ground state is the negative root.
    """
    a, b, _ = ssh4_bonds(lam)
    energy = (-b - np.sqrt(b * b + 4.0 * a * a)) / 2.0
    ratio = energy / a
    p = 1.0 / np.sqrt(2.0 * (1.0 + ratio * ratio))
    q = ratio * p
    vec = np.array([p, q, -q, -p])
    if vec[0] < 0:
        vec = -vec
    return float(energy), vec


def ssh4_top_closed_form(lam):
    """Exact highest eigenpair of the same chain (symmetric ansatz)."""
    a, b, _ = ssh4_bonds(lam)
    energy = (b + np.sqrt(b * b + 4.0 * a * a)) / 2.0
    ratio = energy / a
    p = 1.0 / np.sqrt(2.0 * (1.0 + ratio * ratio))
    q = ratio * p
    vec = np.array([p, q, q, p])
    return float(energy), vec


def ssh4_expectations_closed_form(lam):
    """Expectation 10-vector (densities, then re/im per bond) of the ground state."""
    _, v = ssh4_ground_closed_form(lam)
    dens = list(v ** 2)
    corr = []
    for i in range(3):
        corr.extend([2.0 * v[i] * v[i + 1], 0.0])
    return np.array(dens + corr)


def ssh4_cloud_angle(lam):
    """Arc coordinate of the expectation point: the cloud lies on a circle.

    With the reflection-antisymmetric ground state written as
    (cos t, -sin t, sin t, -cos t)/sqrt(2), the chord between parameters obeys
    |Phi(l1) - Phi(l2)| = sqrt(2) sin(|u1 - u2| / 2) for u = 2 t.
    """
    a, b, _ = ssh4_bonds(lam)
    tan_t = (b + np.sqrt(b * b + 4.0 * a * a)) / (2.0 * a)
    return 2.0 * np.arctan(tan_t)


def ssh4_cloud_chord(lam1, lam2):
    du = abs(ssh4_cloud_angle(lam1) - ssh4_cloud_angle(lam2))
    return float(np.sqrt(2.0) * np.sin(du / 2.0))


def vdot_cloud(lambdas, model, matrices, unitary=None):
    """Cloud points as one ``np.vdot(a, o @ a)`` per observable on ``ground_state`` amplitudes.

    With ``unitary`` U each state is U a and each observable U O U^dagger,
    conjugated one matrix at a time.
    """
    rows = []
    for lam in lambdas:
        a = tp.ground_state(model.hamiltonian(lam)).amplitudes
        mats = matrices
        if unitary is not None:
            a = unitary @ a
            mats = [unitary @ o @ unitary.conj().T for o in matrices]
        rows.append([complex(np.vdot(a, o @ a)).real for o in mats])
    return np.array(rows)


def gf2_matrix_rank(rows):
    """Rank over GF(2) of a dense 0/1 matrix given as a list of row lists."""
    mat = [list(map(int, r)) for r in rows]
    rank = 0
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if mat[r][col] % 2), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        for r in range(n_rows):
            if r != pivot_row and mat[r][col] % 2:
                mat[r] = [(x + y) % 2 for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def brute_force_bottleneck(p1, p2):
    """Bottleneck distance between finite diagrams by trying every bijection.

    ``p1`` and ``p2`` are lists of (birth, death) pairs, at most 4 each.  The
    left side is p1 plus one diagonal copy per point of p2, the right side p2
    plus one diagonal copy per point of p1; a point matched to any diagonal
    copy costs its half-length, and two diagonal copies cost 0.
    """
    assert len(p1) <= 4 and len(p2) <= 4
    n1, n2 = len(p1), len(p2)
    size = n1 + n2
    cost = np.zeros((size, size))
    for i, (b1, d1) in enumerate(p1):
        for j, (b2, d2) in enumerate(p2):
            cost[i, j] = max(abs(b1 - b2), abs(d1 - d2))
        cost[i, n2:] = (d1 - b1) / 2.0
    for j, (b2, d2) in enumerate(p2):
        cost[n1:, j] = (d2 - b2) / 2.0
    perms = np.array(list(itertools.permutations(range(size))), dtype=np.intp)
    return float(cost[np.arange(size), perms].max(axis=1, initial=0.0).min())


def kuhn_saturates(adj, n_right) -> bool:
    """Kuhn's augmenting paths from every left vertex in turn: is each ``i`` matched into ``adj[i]``?

    Each path is searched depth-first on an explicit stack.  A left vertex
    with no augmenting path never gains one later, so the first such vertex
    answers no.
    """
    match_v = [-1] * n_right
    for root in range(len(adj)):
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


def kuhn_bottleneck(d1, d2, k) -> float:
    """Exact bottleneck distance between the degree-k parts of two diagrams, by Kuhn alone.

    Infinite bars match infinite bars on birth.  For the finite points: the
    least candidate delta (0, a half-length or a pairwise L-infinity cost) at
    which the far points of each side (half-length above delta) saturate into
    the other side along ``cost <= delta``, with neighbours in index order.
    """
    (births1, deaths1), (births2, deaths2) = d1._in_dim(k), d2._in_dim(k)
    inf1, inf2 = deaths1 == INF, deaths2 == INF
    if np.count_nonzero(inf1) != np.count_nonzero(inf2):
        return INF
    inf_part = float(np.max(np.abs(births1[inf1] - births2[inf2]), initial=0.0))
    p1 = np.column_stack([births1[~inf1], deaths1[~inf1]])
    p2 = np.column_stack([births2[~inf2], deaths2[~inf2]])
    n1, n2 = len(p1), len(p2)
    diag1 = (p1[:, 1] - p1[:, 0]) / 2.0
    diag2 = (p2[:, 1] - p2[:, 0]) / 2.0
    cost = np.abs(p1[:, None, :] - p2[None, :, :]).max(axis=2)
    grid = np.unique(np.concatenate(([0.0], diag1, diag2, cost.ravel())))

    def feasible(delta):
        near = cost <= delta
        return (kuhn_saturates([np.flatnonzero(row).tolist() for row in near[diag1 > delta]], n2)
                and kuhn_saturates([np.flatnonzero(col).tolist() for col in near.T[diag2 > delta]], n1))

    lo, hi = 0, len(grid) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(grid[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(inf_part, float(grid[lo]))


def dense_reference(fc, k, eps, eps_prime, xi):
    """Eigenvalues of the assembled Dirac operator and d_k^T d_k + M M^T from its blocks.

    The blocks are the scale-eps boundary and the ``restricted_boundary``
    matrix M, so the Laplacian is built from the dense null-space basis.
    """
    op = dirac.dirac_operator(fc, k, eps, eps_prime, xi=xi)
    n1, n2, _ = op.block_dims
    down = op.matrix[:n1, n1:n1 + n2]
    up = op.matrix[n1:n1 + n2, n1 + n2:]
    return np.linalg.eigvalsh(op.matrix), down.T @ down + up @ up.T, op.block_dims


def assert_matches_dense(fc, k, eps, eps_prime, xis=(0.0, 0.3, -0.7)):
    """Schur Laplacian, closed-form spectrum and kernel against the dense reference."""
    lap = dirac.persistent_laplacian(fc, k, eps, eps_prime)
    for xi in xis:
        dense, dense_lap, dims = dense_reference(fc, k, eps, eps_prime, xi)
        assert lap.shape == dense_lap.shape
        if lap.size:
            assert np.max(np.abs(lap - dense_lap)) <= 1e-10
        got, kernel = tp.dirac_spectrum(fc, k, eps, eps_prime, xi=xi)
        assert got.shape == dense.shape
        assert np.all(np.diff(got) >= 0)
        scale = max(1.0, float(np.max(dense ** 2))) if dense.size else 1.0
        assert np.all(np.abs(got ** 2 - dense ** 2) <= 1e-10 * scale)
        assert np.allclose(got, dense, rtol=0.0, atol=1e-10)
        assert kernel == dirac.betti_from_laplacian(dense_lap)
    return dims, kernel


def facet_indices(lower: np.ndarray, upper: np.ndarray, n_points: int) -> np.ndarray:
    """Entry [j, i]: row of ``lower`` equal to row j of ``upper`` without column i.

    Rows match through base-``n_points`` keys, Python integers where int64
    could overflow.  A facet that is not a row of ``lower`` raises
    ``ValueError``.
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
    return out


def window_filtrations(cloud, halfwidth, max_dim):
    """``vr_filtration(points[lo:hi], max_dim=max_dim)`` for every sliding window, in order."""
    for union in _window_unions(cloud, halfwidth, max_dim):
        yield from union.windows


def below_max_dim(diagram):
    """The diagram's bars and dropped zero-length pairs of degrees below its ``max_dim``."""
    keep = diagram.dims < diagram.max_dim
    dropped = {k: n for k, n in diagram.dropped_zero_bars.items() if k < diagram.max_dim}
    return PersistenceDiagram(max_dim=diagram.max_dim, n_points=diagram.n_points, dropped_zero_bars=dropped,
                              dims=diagram.dims[keep], births=diagram.births[keep],
                              deaths=diagram.deaths[keep])


def _z2_column(facets) -> int:
    """One boundary column over Z2 as an int bitset: bit r set per facet row r."""
    bits = 0
    for r in facets.tolist():
        bits |= 1 << r
    return bits


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


def _z2_columns(complex_, k, eps):
    """Z2 bitset columns of the k-boundary of the subcomplex at scale eps."""
    if not 1 <= k <= complex_.max_dim:
        return []
    return [_z2_column(row) for row in boundary_matrix(complex_, k)[:complex_.count_at(k, eps)]]


def column_rank_oracle(complex_, k, eps1, eps2):
    """Persistent Betti number by three GF(2) ranks of boundary columns.

    beta = n1 - rank d_k(eps1) - rank d_{k+1}(eps2) + rank R2, where n1 counts
    the k-simplices born by eps1 and R2 is the (k+1)-boundary at eps2 on the
    later k-simplices (each column shifted right by n1).
    """
    n1 = complex_.count_at(k, eps1)
    boundaries = _z2_columns(complex_, k + 1, eps2)
    return (n1 - _gf2_rank(_z2_columns(complex_, k, eps1)) - _gf2_rank(boundaries)
            + _gf2_rank(col >> n1 for col in boundaries))


def homology_reduce(complex_):
    """Standard column reduction with the clearing (twist) optimization.

    Dimensions are processed top-down; a simplex paired as a pivot row while
    reducing dimension k+1 is a known creator, so its own column is skipped.
    Output is deterministic given the filtration order.
    """
    max_dim = complex_.max_dim
    births = complex_.births
    dims, bar_births, deaths = [], [], []
    dropped: dict = {}
    cleared = [set() for _ in range(max_dim + 1)]

    for k in range(max_dim, 0, -1):
        pivots: dict = {}
        for j, row in enumerate(boundary_matrix(complex_, k)):
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
                    dims.append(k - 1)
                    bar_births.append(birth)
                    deaths.append(death)
                else:
                    dropped[k - 1] = dropped.get(k - 1, 0) + 1
            else:
                dims.append(k)
                bar_births.append(float(births[k][j]))
                deaths.append(INF)

    for i in range(complex_.count_dim(0)):
        if i not in cleared[0]:
            dims.append(0)
            bar_births.append(float(births[0][i]))
            deaths.append(INF)

    return PersistenceDiagram(
        max_dim=max_dim,
        n_points=complex_.n_points,
        dropped_zero_bars=dropped,
        dims=dims,
        births=bar_births,
        deaths=deaths,
    )
