"""Property tests of the Vietoris-Rips construction against brute force, and of the
sweep's band windows against per-window filtrations."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import topophase as tp
from helpers import window_filtrations


def brute_force_complex(fc, max_dim):
    """Every vertex subset of size <= max_dim + 1 born by eps_max.

    One (vertices, births) pair of arrays per dimension, ordered by (birth, vertices).
    """
    dist = fc.distance_matrix
    out = []
    for size in range(1, max_dim + 2):
        found = []
        for verts in combinations(range(fc.n_points), size):
            birth = max((dist[u, v] for u, v in combinations(verts, 2)), default=0.0) / 2.0
            if birth <= fc.eps_max:
                found.append((birth, verts))
        found.sort()
        out.append((np.array([v for _, v in found], dtype=np.intp).reshape(len(found), size),
                    np.array([b for b, _ in found])))
    return out


def benchmark_size_clouds():
    """An n = 60 noisy circle, as the barcode benchmark draws it, and a 40-point lattice cloud.

    The lattice cloud takes 36 points of {0..3}^3 and repeats four of them, so
    it has exact distance ties and duplicate points.
    """
    rng = np.random.default_rng(3)
    theta = 2.0 * np.pi * (np.arange(60) + rng.random()) / 60
    circle = np.column_stack([np.cos(theta), np.sin(theta)]) + rng.normal(0.0, 0.05, (60, 2))
    lattice = rng.integers(0, 4, (36, 3)).astype(float)
    return [circle, np.vstack([lattice, lattice[[0, 5, 5, 17]]])]


@pytest.mark.parametrize("pts", benchmark_size_clouds(), ids=["circle60", "lattice40"])
def test_vr_matches_brute_force_at_benchmark_size(pts):
    fc = tp.vr_filtration(pts, max_dim=2)
    for k, (verts, births) in enumerate(brute_force_complex(fc, 2)):
        assert fc.vertices[k].dtype == np.intp and np.array_equal(fc.vertices[k], verts)
        assert fc.births[k].dtype == np.float64 and np.array_equal(fc.births[k], births)
    for k in (1, 2):
        index = {v: i for i, v in enumerate(map(tuple, fc.vertices[k - 1].tolist()))}
        expected = [[index[tuple(v[:i] + v[i + 1:])] for i in range(k + 1)]
                    for v in fc.vertices[k].tolist()]
        facets = tp.boundary_matrix(fc, k)
        assert facets.dtype == np.intp and not facets.flags.writeable
        assert np.array_equal(facets, np.array(expected, dtype=np.intp).reshape(-1, k + 1))


@st.composite
def clouds(draw):
    n = draw(st.integers(1, 20), label="n")
    dim = draw(st.integers(1, 3), label="dim")
    if draw(st.booleans(), label="lattice"):
        # small integer coordinates: many exact distance ties and repeated points
        pts = draw(arrays(np.int64, (n, dim), elements=st.integers(0, 3)), label="points")
    else:
        pts = draw(arrays(np.float64, (n, dim), elements=st.floats(0.0, 1.0), fill=st.nothing()),
                   label="points")
    copies = draw(st.lists(st.integers(0, n - 1), max_size=3), label="duplicated")
    return np.vstack([pts, pts[copies]]).astype(float)


@settings(max_examples=150, deadline=None)
@given(pts=clouds(), data=st.data())
def test_vr_matches_brute_force(pts, data):
    max_dim = data.draw(st.integers(0, 3), label="max_dim")
    full = tp.vr_filtration(pts, max_dim=max_dim)
    half_distances = sorted({float(d) / 2.0 for d in full.distance_matrix[np.triu_indices(len(pts), 1)]})
    eps_max = data.draw(st.one_of(st.none(), st.floats(0.0, 1.1 * full.eps_max),
                                  st.sampled_from(half_distances or [0.0])), label="eps_max")
    fc = tp.vr_filtration(pts, eps_max=eps_max, max_dim=max_dim)
    reference = brute_force_complex(fc, max_dim)
    stored = len(fc.vertices)
    assert fc.max_dim == max_dim and len(fc.births) == stored <= max_dim + 1
    # the clique loop stops after its first empty dimension
    assert all(map(len, fc.births[:-1])) and (stored == max_dim + 1 or not len(fc.births[-1]))
    for k, (verts, births) in enumerate(reference):
        if k < stored:
            assert np.array_equal(fc.vertices[k], verts)
            assert np.array_equal(fc.births[k], births)
        else:
            assert not len(births) and fc.count_dim(k) == 0
    assert len(fc) == sum(len(births) for _, births in reference)


def test_complex_arrays_are_read_only():
    fc = tp.vr_filtration(np.random.default_rng(4).random((8, 2)), max_dim=2)
    for array in (*fc.vertices, *fc.births):
        with pytest.raises(ValueError):
            array[0] = 0


@st.composite
def sweep_clouds(draw):
    """Sweep-shaped clouds: a walk of n points, with repeated steps and lattice ties."""
    n = draw(st.sampled_from((1, 2, 5, 40)), label="n")
    dim = draw(st.integers(1, 4), label="dim")
    if draw(st.booleans(), label="lattice"):
        # small integer steps: exact distance ties, and duplicates where a step is zero
        steps = draw(arrays(np.int64, (n, dim), elements=st.integers(-1, 1)), label="steps")
    else:
        steps = draw(arrays(np.float64, (n, dim), elements=st.floats(-0.2, 0.2), fill=st.nothing()),
                     label="steps")
    pts = np.cumsum(steps, axis=0).astype(float)
    for i in draw(st.lists(st.integers(1, max(1, n - 1)), max_size=3), label="repeated"):
        pts[i % n] = pts[i - 1]  # the same point twice in a row
    return pts


@settings(max_examples=60, deadline=None)
@given(pts=sweep_clouds(), data=st.data())
def test_band_windows_are_window_filtrations(pts, data):
    n = len(pts)
    halfwidth = data.draw(st.sampled_from((0, 1, 3, 8, n, n + 5)), label="halfwidth")
    max_dim = data.draw(st.integers(0, 3), label="max_dim")
    windows = list(window_filtrations(pts, halfwidth, max_dim))
    assert len(windows) == n
    for centre, fc in enumerate(windows):
        lo, hi = max(0, centre - halfwidth), min(n, centre + halfwidth + 1)
        ref = tp.vr_filtration(pts[lo:hi], max_dim=max_dim)
        assert fc.n_points == ref.n_points and fc.max_dim == ref.max_dim
        assert fc.eps_max == ref.eps_max
        assert fc.distance_matrix.tobytes() == ref.distance_matrix.tobytes()
        assert len(fc.vertices) == len(fc.births) == len(ref.vertices)
        for k in range(len(ref.vertices)):
            assert fc.vertices[k].dtype == ref.vertices[k].dtype
            assert fc.vertices[k].shape == ref.vertices[k].shape
            assert fc.vertices[k].tobytes() == ref.vertices[k].tobytes()
            assert fc.births[k].tobytes() == ref.births[k].tobytes()
        for k in range(len(ref.vertices), max_dim + 1):
            assert fc.count_dim(k) == 0
        for k in range(1, max_dim + 1):
            facets = tp.boundary_matrix(fc, k)
            assert facets.dtype == tp.boundary_matrix(ref, k).dtype
            assert facets.tobytes() == tp.boundary_matrix(ref, k).tobytes()
            assert not facets.flags.writeable
