import os
import subprocess
import sys
import time
from bisect import bisect_right

import numpy as np
import pytest

import topophase as tp
from helpers import facet_indices, random_cloud
from topophase import simplicial
from topophase.simplicial import boundary_dense_at

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
HALF_DIAG = np.sqrt(2.0) / 2.0


def births_by_vertices(fc):
    """Birth of every simplex of every dimension, keyed by its vertex tuple."""
    return {tuple(v): b for verts, births in zip(fc.vertices, fc.births)
            for v, b in zip(verts.tolist(), births.tolist())}


def test_single_point():
    fc = tp.vr_filtration(np.zeros((1, 3)), eps_max=5.0, max_dim=2)
    assert len(fc) == 1
    assert fc.vertices[0].tolist() == [[0]]
    assert fc.births[0].tolist() == [0.0]


def test_square_births():
    fc = tp.vr_filtration(SQUARE, eps_max=1.0, max_dim=2)
    births = births_by_vertices(fc)
    for v in range(4):
        assert births[(v,)] == 0.0
    for edge in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        assert births[edge] == pytest.approx(0.5, abs=1e-15)
    for diag in [(0, 2), (1, 3)]:
        assert births[diag] == pytest.approx(HALF_DIAG, abs=1e-15)
    assert fc.count_dim(2) == 4
    for birth in fc.births[2]:
        assert birth == pytest.approx(HALF_DIAG, abs=1e-15)


def test_eps_max_cuts_simplices():
    fc = tp.vr_filtration(SQUARE, eps_max=0.6, max_dim=2)
    assert set(births_by_vertices(fc)) == {(0,), (1,), (2,), (3,), (0, 1), (0, 3), (1, 2), (2, 3)}


def test_default_eps_max_is_half_diameter():
    fc = tp.vr_filtration(SQUARE, max_dim=2)
    assert fc.eps_max == pytest.approx(HALF_DIAG, abs=1e-15)
    # at half the diameter the complex is a full simplex up to max_dim
    assert fc.count_dim(2) == 4
    assert fc.count_dim(1) == 6


def test_birth_is_half_diameter_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = random_cloud(rng, n_max=7)
        fc = tp.vr_filtration(pts, max_dim=3)
        assert not fc.births[0].any()
        for verts, births in zip(fc.vertices[1:], fc.births[1:]):
            for v, birth in zip(verts.tolist(), births.tolist()):
                diam = max(
                    np.linalg.norm(pts[a] - pts[b])
                    for i, a in enumerate(v)
                    for b in v[i + 1:]
                )
                assert birth == pytest.approx(diam / 2.0, abs=1e-12)


def test_face_closure_and_order():
    rng = np.random.default_rng(9)
    for _ in range(10):
        pts = random_cloud(rng, n_max=8)
        fc = tp.vr_filtration(pts, max_dim=3)
        births = births_by_vertices(fc)
        for verts in fc.vertices[1:]:
            for v in map(tuple, verts.tolist()):
                for i in range(len(v)):
                    facet = v[:i] + v[i + 1:]
                    assert facet in births, "missing face"
                    assert births[facet] <= births[v], "face born after coface"


def test_filtration_sorted_by_birth_dim_lex():
    fc = tp.vr_filtration(SQUARE, eps_max=1.0, max_dim=2)
    for verts, births in zip(fc.vertices, fc.births):
        keys = list(zip(births.tolist(), map(tuple, verts.tolist())))
        assert keys == sorted(keys)


def test_duplicate_points_legal():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    fc = tp.vr_filtration(pts, max_dim=1)
    births = births_by_vertices(fc)
    assert births[(0, 1)] == 0.0
    assert births[(0, 2)] == pytest.approx(0.5)


def test_exact_tie_counts_include_the_birth():
    # a probe endpoint equal to a birth counts that simplex (birth <= eps)
    fc = tp.vr_filtration(SQUARE, eps_max=1.0, max_dim=2)
    side = fc.births[1][0]
    diag = fc.births[1][-1]
    assert (fc.count_at(1, side), fc.count_at(1, diag), fc.count_at(2, diag)) == (4, 6, 4)
    assert fc.count_at(1, np.nextafter(side, 0.0)) == 0
    assert fc.count_at(2, np.nextafter(diag, 0.0)) == 0
    # every stored birth, probed exactly, agrees with a bisection over the births
    for k in range(fc.max_dim + 1):
        births = fc.births[k].tolist()
        for b in births:
            assert fc.count_at(k, b) == bisect_right(births, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected(bad):
    pts = SQUARE.copy()
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        tp.vr_filtration(pts, max_dim=2)


@pytest.mark.parametrize("eps_max", [-0.1, np.nan])
def test_negative_or_nan_eps_max_rejected(eps_max):
    # NaN compares false, so "eps_max < 0" alone would give an edgeless complex
    with pytest.raises(ValueError, match="eps_max must be >= 0"):
        tp.vr_filtration(SQUARE, eps_max=eps_max, max_dim=2)


def test_eps_max_past_the_float_range_rejected():
    # a ValueError like any other bad eps_max, not an OverflowError from 2.0 * eps_max
    with pytest.raises(ValueError, match="eps_max must be >= 0, got an integer past the float range"):
        tp.vr_filtration(SQUARE, eps_max=10 ** 400, max_dim=2)


@pytest.mark.parametrize("max_dim", [1.5, -1, np.nan, np.inf])
def test_non_integral_or_negative_max_dim_rejected(max_dim):
    with pytest.raises(ValueError, match="max_dim must be an integer >= 0"):
        tp.vr_filtration(SQUARE, max_dim=max_dim)


def test_max_dim_past_the_point_count_answers_promptly():
    # 10 points span no simplex above dimension 9, so max_dim 10 ** 9 builds
    # what max_dim 10 builds; the call runs in a child process capped at 1 GB
    # and 60 s, so a complex that held every dimension up to max_dim fails there
    script = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
              "import numpy as np, topophase as tp\n"
              "fc = tp.vr_filtration(np.random.default_rng(5).random((10, 2)), max_dim=10 ** 9)\n"
              "print(fc.max_dim, len(fc))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    want = tp.vr_filtration(np.random.default_rng(5).random((10, 2)), max_dim=10)
    assert proc.stdout.split() == [str(10 ** 9), str(len(want))]


def test_integral_max_dim_taken():
    want = tp.vr_filtration(SQUARE, max_dim=2)
    for max_dim in (2.0, np.int64(2)):
        fc = tp.vr_filtration(SQUARE, max_dim=max_dim)
        assert type(fc.max_dim) is int and fc.max_dim == 2
        assert [b.tolist() for b in fc.births] == [b.tolist() for b in want.births]


def test_oversized_filtration_refused():
    # the full 2-skeleton on 2,000 points: its 1,999,000 edges against 2,000
    # candidate vertices would need a 3.7 GB array before any triangle exists
    pts = np.random.default_rng(0).random((2000, 2))
    with pytest.raises(ValueError, match="dense 1999000x2000 array of 2-simplex candidates"):
        tp.vr_filtration(pts, max_dim=2)


def test_boundary_dense_at_is_prefix_of_full_boundary():
    rng = np.random.default_rng(11)
    for _ in range(10):
        fc = tp.vr_filtration(random_cloud(rng), max_dim=3)
        scales = [0.0, fc.eps_max, 2.0 * fc.eps_max, *rng.uniform(0.0, fc.eps_max, size=3)]
        scales += list(fc.births[1][:2])  # exact ties
        for k in range(1, fc.max_dim + 1):
            full = boundary_dense_at(fc, k, np.inf) if fc.count_dim(k) else None
            for eps in scales:
                got = boundary_dense_at(fc, k, eps)
                shape = (fc.count_at(k - 1, eps), fc.count_at(k, eps))
                assert got.shape == shape and got.dtype == np.float64
                if full is not None:
                    assert np.array_equal(got, full[:shape[0], :shape[1]])
                else:
                    assert not got.any()


def test_boundary_dense_at_shape_outside_boundary_dimensions():
    fc = tp.vr_filtration(SQUARE, eps_max=1.0, max_dim=2)
    for eps in (0.0, 0.5, 1.0):
        at_zero = boundary_dense_at(fc, 0, eps)
        assert at_zero.shape == (0, fc.count_at(0, eps)) and at_zero.dtype == np.float64
        above = boundary_dense_at(fc, fc.max_dim + 1, eps)
        assert above.shape == (fc.count_at(fc.max_dim, eps), 0) and above.dtype == np.float64


def test_dimensions_past_the_last_simplex_match_the_loop():
    # 10 points span at most a 9-simplex.  At max_dim 10 the clique loop
    # builds dimension 10, empty, and stops there at any deeper max_dim too:
    # the stored dimensions are the same arrays, and past them the complex
    # counts no simplex and its boundary is an empty read-only array
    pts = np.random.default_rng(5).random((10, 2))
    loop = tp.vr_filtration(pts, max_dim=10)
    assert len(loop.vertices) == len(loop.births) == 11
    assert all(loop.count_dim(k) for k in range(10)) and loop.count_dim(10) == 0
    for max_dim in (11, 14, 2000):
        start = time.perf_counter()
        fc = tp.vr_filtration(pts, max_dim=max_dim)
        assert time.perf_counter() - start < 2.0
        assert fc.max_dim == max_dim and len(fc) == len(loop)
        assert len(fc.vertices) == len(fc.births) == 11  # stopped at the first empty dimension
        for k in range(11):
            for got, want in ((fc.vertices[k], loop.vertices[k]), (fc.births[k], loop.births[k])):
                assert got.tobytes() == want.tobytes()
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.flags.writeable == want.flags.writeable
            if k:
                got, want = simplicial.boundary_matrix(fc, k), simplicial.boundary_matrix(loop, k)
                assert got.tobytes() == want.tobytes() and got.shape == want.shape
                assert got.dtype == want.dtype and not got.flags.writeable
        for k in {11, max_dim - 1, max_dim}:
            assert fc.count_dim(k) == 0 and fc.count_at(k, np.inf) == 0
            facets = simplicial.boundary_matrix(fc, k)
            assert facets.shape == (0, k + 1) and facets.dtype == np.intp and not facets.flags.writeable
        with pytest.raises(ValueError, match="1 <= k <= max_dim"):
            simplicial.boundary_matrix(fc, max_dim + 1)


def test_boundary_triangle_signs():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    fc = tp.vr_filtration(pts, max_dim=2)
    dense = boundary_dense_at(fc, 2, np.inf)
    edges = [tuple(v) for v in fc.vertices[1].tolist()]
    col = {edges[r]: dense[r, 0] for r in range(len(edges))}
    assert col[(1, 2)] == 1.0
    assert col[(0, 2)] == -1.0
    assert col[(0, 1)] == 1.0


def test_boundary_edge_signs():
    pts = np.array([[0.0], [1.0]])
    fc = tp.vr_filtration(pts, max_dim=1)
    dense = boundary_dense_at(fc, 1, np.inf)
    assert dense[1, 0] == 1.0 and dense[0, 0] == -1.0


def test_boundary_column_entry_count():
    fc = tp.vr_filtration(SQUARE, eps_max=1.0, max_dim=2)
    for k in (1, 2):
        for rows in tp.boundary_matrix(fc, k):
            assert len(rows) == k + 1


def test_boundary_rows_are_facet_indices_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(6):
        pts = random_cloud(rng, n_min=5, n_max=9)
        pts[1] = pts[0]  # duplicated point
        fc = tp.vr_filtration(pts, max_dim=3)
        for k in range(1, 4):
            lower = fc.vertices[k - 1].tolist()
            rows = tp.boundary_matrix(fc, k)
            assert rows.shape == (fc.count_dim(k), k + 1) and not rows.flags.writeable
            for j, v in enumerate(fc.vertices[k].tolist()):
                for i in range(k + 1):
                    assert rows[j][i] == lower.index(v[:i] + v[i + 1:])


def test_facet_keys_do_not_overflow():
    # with 2**40 points the keys of triangles reach 2**120, far beyond int64
    fc = tp.vr_filtration(random_cloud(np.random.default_rng(29), n_min=8), max_dim=3)
    for k in (1, 2, 3):
        lower, upper = fc.vertices[k - 1], fc.vertices[k]
        assert np.array_equal(facet_indices(lower, upper, 2 ** 40), tp.boundary_matrix(fc, k))


def test_complex_missing_a_facet_rejected():
    # the vertex-key lookup refuses a facet that is not in the complex, and a
    # complex cannot be built without the facet arrays of a clique loop
    vertices = (np.array([[0], [1], [2]]), np.array([[0, 1], [1, 2]]), np.array([[0, 1, 2]]))
    births = tuple(np.zeros(len(v)) for v in vertices)
    with pytest.raises(ValueError, match="facet that is not in the complex"):
        facet_indices(vertices[1], vertices[2], 3)
    with pytest.raises(TypeError):
        tp.FilteredComplex(vertices, births, 3, np.zeros((3, 3)), 0.0)


def test_boundary_k_out_of_range():
    fc = tp.vr_filtration(SQUARE, eps_max=1.0, max_dim=2)
    with pytest.raises(ValueError):
        tp.boundary_matrix(fc, 0)
    with pytest.raises(ValueError):
        tp.boundary_matrix(fc, 3)


def test_nilpotence_both_fields():
    rng = np.random.default_rng(17)
    clouds = [random_cloud(rng, n_max=10) for _ in range(8)] + [SQUARE]
    for pts in clouds:
        fc = tp.vr_filtration(pts, max_dim=3)
        for k in range(2, fc.max_dim + 1):
            if fc.count_dim(k) == 0:
                continue
            real_low = boundary_dense_at(fc, k - 1, np.inf)
            real_high = boundary_dense_at(fc, k, np.inf)
            assert np.max(np.abs(real_low @ real_high)) <= 1e-12
            z2_low = np.abs(real_low).astype(int)
            z2_high = np.abs(real_high).astype(int)
            assert np.all((z2_low @ z2_high) % 2 == 0)


def test_accepts_statecloud_input():
    cloud = tp.build_cloud([0.0, 0.1, 0.2], tp.SSHChain(4), tp.ssh_observables(4))
    fc = tp.vr_filtration(cloud, max_dim=1)
    assert fc.n_points == 3


def test_window_unions_group_whole_blocks_until_the_budget():
    # 96 points at halfwidth 8: six blocks of 17 centres (the last of 11), each
    # union far below DENSE_LIMIT_BYTES // _UNION_SHARE.  With the limit cut to
    # the band's distance differences, the budget is below one window, so each
    # union holds one window and nothing is refused
    pts = np.random.default_rng(0).random((96, 10))
    sizes = [len(u.windows) for u in simplicial._window_unions(pts, 8, 2)]
    assert sizes == [17] * 5 + [11]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplicial, "DENSE_LIMIT_BYTES", 33 * 33 * 10 * 8)
        split = [len(u.windows) for u in simplicial._window_unions(pts, 8, 2)]
    assert split == [1] * 96
    # a budget between: each block is cut into equal runs of consecutive
    # windows, the last one shorter, priced by the block's largest window
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplicial, "_UNION_SHARE", 332)
        unions = list(simplicial._window_unions(pts, 8, 2))
    assert [len(u.windows) for u in unions] == [5, 5, 5, 2] * 5 + [6, 5]
    runs = iter(unions)
    for block in [17] * 5 + [11]:  # no union crosses a block
        sizes = []
        while sum(sizes) < block:
            sizes.append(len(next(runs).windows))
        assert sum(sizes) == block and set(sizes[:-1]) <= {sizes[0]} and sizes[-1] <= sizes[0]
    dist = tp.vr_filtration(pts, max_dim=0).distance_matrix
    windows = [fc for union in unions for fc in union.windows]
    for c, fc in enumerate(windows):  # in order: window c is points [c - 8, c + 9), cut to the cloud
        lo, hi = max(0, c - 8), min(96, c + 9)
        assert np.array_equal(fc.distance_matrix, dist[lo:hi, lo:hi])
    assert len(windows) == 96
