import math
import time
import tracemalloc

import numpy as np
import pytest

import topophase as tp
from topophase import dirac, simplicial
from topophase.persistence import PersistenceDiagram, _saturates
from topophase.simplicial import boundary_dense_at
from helpers import (below_max_dim, brute_force_bottleneck, column_rank_oracle, components_at_scale,
                     gf2_matrix_rank, homology_reduce, kuhn_bottleneck, random_cloud)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
HALF_DIAG = np.sqrt(2.0) / 2.0
INF = math.inf


def diagram_of(points, max_dim=2, eps_max=None):
    return tp.reduce(tp.vr_filtration(points, eps_max=eps_max, max_dim=max_dim))


def test_single_point():
    dg = diagram_of(np.zeros((1, 2)), max_dim=2)
    assert dg.bars == ((0, 0.0, INF),)


def test_square_diagram():
    dg = diagram_of(SQUARE)
    h0 = sorted((b, d) for k, b, d in dg.bars if k == 0)
    assert h0 == [(0.0, 0.5), (0.0, 0.5), (0.0, 0.5), (0.0, INF)]
    h1 = [(b, d) for k, b, d in dg.bars if k == 1]
    assert len(h1) == 1
    assert h1[0][0] == pytest.approx(0.5, abs=1e-15)
    assert h1[0][1] == pytest.approx(HALF_DIAG, abs=1e-15)


def test_two_clusters():
    # intra-cluster distance 0.2, gap between clusters 1.0
    pts = np.array([[0.0, 0.0], [0.2, 0.0], [1.2, 0.0], [1.4, 0.0]])
    dg = diagram_of(pts, max_dim=1)
    deaths = sorted(d for k, _, d in dg.bars if k == 0)
    assert deaths[:3] == pytest.approx([0.1, 0.1, 0.5], abs=1e-15)
    assert deaths[3] == INF


def test_zero_bars_dropped_but_audited():
    dg = diagram_of(SQUARE)
    assert dg.dropped_zero_bars == {1: 2}
    assert all(d > b for _, b, d in dg.bars)


def test_bar_count_matches_cycle_creators():
    # bars per dimension (dropped included) == nullity of the boundary map,
    # computed here by an independent dense GF(2) elimination
    rng = np.random.default_rng(31)
    for trial in range(12):
        pts = random_cloud(rng)
        fc = tp.vr_filtration(pts, max_dim=1 + trial % 3)
        dg = tp.reduce(fc)
        for k in range(fc.max_dim):
            n_k = fc.count_dim(k)
            if k == 0:
                nullity = n_k
            elif n_k == 0:
                continue
            else:
                dense = np.abs(boundary_dense_at(fc, k, np.inf)).astype(int)
                nullity = n_k - gf2_matrix_rank(dense.tolist())
            recorded = int(np.count_nonzero(dg.dims == k)) + dg.dropped_zero_bars.get(k, 0)
            assert recorded == nullity


def test_h0_infinite_bars_count_components():
    rng = np.random.default_rng(41)
    for _ in range(10):
        pts = random_cloud(rng)
        eps_max = 0.3
        fc = tp.vr_filtration(pts, eps_max=eps_max, max_dim=2)
        dg = tp.reduce(fc)
        assert np.count_nonzero((dg.dims == 0) & (dg.deaths == INF)) == components_at_scale(pts, eps_max)


def test_persistent_betti_square():
    dg = diagram_of(SQUARE)
    assert tp.persistent_betti(dg, 1, 0.55, 0.65) == 1
    assert tp.persistent_betti(dg, 1, 0.4, 0.6) == 0
    assert tp.persistent_betti(dg, 0, 0.0, 1e9) == 1
    with pytest.raises(ValueError):
        tp.persistent_betti(dg, 1, 0.7, 0.6)


def test_negative_degree_refused():
    dg = diagram_of(SQUARE)
    with pytest.raises(ValueError, match="k must be >= 0"):
        tp.persistent_betti(dg, -1, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"invalid bar \[0.0, 1.0\) in dim -1: a dim must be >= 0"):
        PersistenceDiagram(dims=[0, -1], births=[0.0, 0.0], deaths=[INF, 1.0])


@pytest.mark.parametrize("entry", ["persistent_betti", "bottleneck", "betti_oracle", "dirac_spectrum"])
def test_non_integer_degree_refused(entry):
    # degree 1.5 lies between the bars of degrees 1 and 2; it must not read either
    dg = PersistenceDiagram(dims=[1, 2], births=[0.1, 0.2], deaths=[0.4, 2.0])
    fc = tp.vr_filtration(SQUARE, max_dim=3)
    call = {
        "persistent_betti": lambda k: tp.persistent_betti(dg, k, 0.3, 0.5),
        "bottleneck": lambda k: tp.bottleneck(dg, PersistenceDiagram(), k),
        "betti_oracle": lambda k: tp.betti_oracle(fc, k, 0.55, 0.65),
        "dirac_spectrum": lambda k: tp.dirac_spectrum(fc, k, 0.55, 0.65)[1],
    }[entry]
    with pytest.raises(ValueError, match="integer"):
        call(1.5)
    assert call(1.0) == call(np.int64(1)) == call(1)


@pytest.mark.parametrize("entry, named", [
    ("persistent_betti", "k must be >= 0 and an integer"),
    ("bottleneck", "k must be >= 0 and an integer"),
    ("betti_oracle", "probe degree must be an integer"),
    ("dirac_spectrum", "probe degree must be an integer"),
    ("persistent_betti_scale", "probe scales must satisfy"),
    ("betti_oracle_scale", "probe scales must satisfy"),
    ("vr_filtration", "max_dim must be an integer >= 0"),
])
def test_integer_past_the_float_range_refused(entry, named):
    # float() of 10 ** 400 overflows; each site refuses it as it refuses any other bad value
    big = 10 ** 400
    dg = PersistenceDiagram(dims=[1], births=[0.1], deaths=[0.4])
    fc = tp.vr_filtration(SQUARE, max_dim=2)
    call = {
        "persistent_betti": lambda: tp.persistent_betti(dg, big, 0.3, 0.5),
        "bottleneck": lambda: tp.bottleneck(dg, dg, big),
        "betti_oracle": lambda: tp.betti_oracle(fc, big, 0.55, 0.65),
        "dirac_spectrum": lambda: tp.dirac_spectrum(fc, big, 0.55, 0.65),
        "persistent_betti_scale": lambda: tp.persistent_betti(dg, 1, 0.3, big),
        "betti_oracle_scale": lambda: tp.betti_oracle(fc, 1, big, 0.65),
        "vr_filtration": lambda: tp.vr_filtration(SQUARE, max_dim=big),
    }[entry]
    with pytest.raises(ValueError, match=named):
        call()


@pytest.mark.parametrize("entry, named", [
    ("persistent_betti_bool_degree", "k must be >= 0 and an integer, got True"),
    ("betti_oracle_bool_degree", r"probe degree must be an integer 0 <= k < max_dim \(2\), got \(True"),
    ("dirac_spectrum_bool_degree", r"probe degree must be an integer 0 <= k < max_dim \(2\), got \(True"),
    ("bottleneck_numpy_bool_degree", "k must be >= 0 and an integer, got True"),
    ("vr_filtration_bool_max_dim", "max_dim must be an integer >= 0, got True"),
    ("betti_oracle_string_scales", r"probe scales must satisfy 0 <= eps1 <= eps2, got \('0.1', '0.2'\)"),
    ("persistent_betti_string_scales", r"probe scales must satisfy 0 <= eps1 <= eps2, got \('0.1', '0.2'\)"),
    ("vr_filtration_bool_eps_max", "eps_max must be >= 0, got True"),
])
def test_bool_or_string_refused(entry, named):
    # float() takes True as 1.0 and "0.1" as 0.1; no site may answer as if it had been given a number
    dg = PersistenceDiagram(dims=[1], births=[0.1], deaths=[0.4])
    fc = tp.vr_filtration(SQUARE, max_dim=2)
    call = {
        "persistent_betti_bool_degree": lambda: tp.persistent_betti(dg, True, 0.1, 0.2),
        "betti_oracle_bool_degree": lambda: tp.betti_oracle(fc, True, 0.1, 0.2),
        "dirac_spectrum_bool_degree": lambda: tp.dirac_spectrum(fc, True, 0.1, 0.2),
        "bottleneck_numpy_bool_degree": lambda: tp.bottleneck(dg, dg, np.True_),
        "vr_filtration_bool_max_dim": lambda: tp.vr_filtration(SQUARE, max_dim=True),
        "betti_oracle_string_scales": lambda: tp.betti_oracle(fc, 1, "0.1", "0.2"),
        "persistent_betti_string_scales": lambda: tp.persistent_betti(dg, 1, "0.1", "0.2"),
        "vr_filtration_bool_eps_max": lambda: tp.vr_filtration(SQUARE, eps_max=True),
    }[entry]
    with pytest.raises(ValueError, match=named):
        call()


@pytest.mark.parametrize("dims", [[1.5], [True], [10 ** 30]], ids=["fraction", "bool", "past_intp"])
def test_non_integer_dims_refused(dims):
    # a cast to intp would store 1.5 and True as dim 1
    with pytest.raises(ValueError, match="bar dim must be an integer"):
        PersistenceDiagram(dims=dims, births=[0.0], deaths=[1.0])


def test_empty_degrees_take_no_pass():
    # 10 points span no simplex above dimension 9.  A pass over an empty
    # dimension k still walks k + 2 empty facet columns, so passes over all
    # of them would grow as max_dim squared
    pts = np.random.default_rng(5).random((10, 2))
    want = tp.reduce(tp.vr_filtration(pts, max_dim=10))
    fc = tp.vr_filtration(pts, max_dim=2000)
    start = time.perf_counter()
    got = tp.reduce(fc)
    elapsed = time.perf_counter() - start
    for name in ("dims", "births", "deaths"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.dropped_zero_bars == want.dropped_zero_bars
    assert elapsed < 0.25


def test_reduce_reports_degrees_below_max_dim():
    # degree k reads the (k+1)-simplices, so max_dim 0 has no degree to report
    with pytest.raises(ValueError, match="reduce needs max_dim >= 1, got 0"):
        diagram_of(SQUARE, max_dim=0)
    for max_dim in (1, 2, 3):
        dg = diagram_of(SQUARE, max_dim=max_dim)
        assert dg.max_dim == max_dim and set(dg.dims.tolist()) == set(range(min(max_dim, 2)))


def test_persistent_betti_empty_diagram():
    empty = PersistenceDiagram()
    assert tp.persistent_betti(empty, 0, 0.0, 1.0) == 0


def test_persistent_betti_monotone_in_interval():
    rng = np.random.default_rng(53)
    for _ in range(10):
        pts = random_cloud(rng)
        fc = tp.vr_filtration(pts, max_dim=2)
        dg = tp.reduce(fc)
        probes = sorted(rng.uniform(0.0, fc.eps_max, size=4))
        e1a, e1b, e2a, e2b = probes
        for k in (0, 1):
            wide = tp.persistent_betti(dg, k, e1a, e2b)
            assert wide <= tp.persistent_betti(dg, k, e1b, e2b)
            assert wide <= tp.persistent_betti(dg, k, e1a, e2a)


def test_betti_oracle_examples():
    fc = tp.vr_filtration(SQUARE, max_dim=2)
    assert tp.betti_oracle(fc, 1, 0.55, 0.65) == 1
    assert tp.betti_oracle(fc, 0, 0.0, 0.1) == 4
    single = tp.vr_filtration(np.zeros((1, 2)), eps_max=1.0, max_dim=1)
    assert tp.betti_oracle(single, 0, 0.0, 0.5) == 1
    with pytest.raises(ValueError):
        tp.betti_oracle(fc, 1, 0.7, 0.6)


@pytest.mark.parametrize("detector", ["bars", "oracle", "kernel", "laplacian", "kernel_count",
                                      "restricted_boundary", "dirac_operator"])
@pytest.mark.parametrize("eps1, eps2", [(np.nan, np.nan), (np.nan, 0.5), (0.1, np.nan), (-0.5, 0.3),
                                        (-0.5, -0.1), (0.5, 0.3)])
def test_nan_probe_scales_rejected_by_every_detector(detector, eps1, eps2):
    # a probe needs 0 <= eps1 <= eps2; NaN compares false, so "eps1 > eps2"
    # alone would let each detector answer
    fc = tp.vr_filtration(random_cloud(np.random.default_rng(13), n_min=10, n_max=10), max_dim=2)
    detect = {
        "bars": lambda: tp.persistent_betti(tp.reduce(fc), 0, eps1, eps2),
        "oracle": lambda: tp.betti_oracle(fc, 0, eps1, eps2),
        "kernel": lambda: tp.dirac_spectrum(fc, 0, eps1, eps2),
        "laplacian": lambda: dirac.persistent_laplacian(fc, 0, eps1, eps2),
        "kernel_count": lambda: dirac.persistent_kernel_dim(fc, 1, eps1, eps2),
        "restricted_boundary": lambda: dirac.restricted_boundary(fc, 1, eps1, eps2),
        "dirac_operator": lambda: dirac.dirac_operator(fc, 0, eps1, eps2),
    }[detector]
    with pytest.raises(ValueError, match=rf"probe scales must satisfy 0 <= eps1 <= eps2, "
                                         rf"got \({eps1}, {eps2}\)"):
        detect()


def test_oracle_matches_reduction_on_square():
    rng = np.random.default_rng(7)
    for max_dim in (1, 2, 3):
        fc = tp.vr_filtration(SQUARE, max_dim=max_dim)
        dg = tp.reduce(fc)
        for _ in range(20):
            e1, e2 = sorted(rng.uniform(0.0, fc.eps_max, size=2))
            for k in range(max_dim):
                assert tp.persistent_betti(dg, k, e1, e2) == tp.betti_oracle(fc, k, e1, e2)


def test_oracle_matches_reduction_random():
    rng = np.random.default_rng(61)
    for _ in range(60):
        pts = random_cloud(rng)
        fc = tp.vr_filtration(pts, max_dim=3)
        dg = tp.reduce(fc)
        e1, e2 = sorted(rng.uniform(0.0, fc.eps_max, size=2))
        for k in (0, 1, 2):
            assert tp.persistent_betti(dg, k, e1, e2) == tp.betti_oracle(fc, k, e1, e2)


def noisy_circles(seed, n=60, count=3, sigma=0.05):
    """Noisy n-gons under random rotations, drawn as the barcode benchmark draws them."""
    rng = np.random.default_rng(seed)
    clouds = []
    for _ in range(count):
        theta = 2.0 * np.pi * (np.arange(n) + rng.random()) / n
        clouds.append(np.column_stack([np.cos(theta), np.sin(theta)]) + rng.normal(0.0, sigma, (n, 2)))
    return clouds


@pytest.mark.parametrize("points", noisy_circles(seed=17), ids=["circle0", "circle1", "circle2"])
def test_detectors_agree_on_benchmark_size_circles(points):
    fc = tp.vr_filtration(points, max_dim=2)
    dg = tp.reduce(fc)
    assert tp.diagram_to_json(dg) == tp.diagram_to_json(below_max_dim(homology_reduce(fc)))
    assert tp.betti_oracle(fc, 1, 0.6, 0.75) == tp.persistent_betti(dg, 1, 0.6, 0.75) == 1
    assert column_rank_oracle(fc, 1, 0.6, 0.75) == 1
    births = np.unique(np.concatenate(fc.births))
    rng = np.random.default_rng(23)
    for _ in range(20):
        eps1, eps2 = np.sort(rng.choice(births, size=2))
        for k in (0, 1):
            oracle = tp.betti_oracle(fc, k, eps1, eps2)
            assert oracle == tp.persistent_betti(dg, k, eps1, eps2) == column_rank_oracle(fc, k, eps1, eps2)


def test_reduce_memory_on_a_150_point_circle():
    # the reduction holds one working column and the rows of each column it
    # reduced, not a column as wide as the complex (551,300 triangles here)
    (points,) = noisy_circles(seed=17, n=150, count=1)
    fc = tp.vr_filtration(points, max_dim=2)
    tracemalloc.start()
    try:
        dg = tp.reduce(fc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20, f"reduce peaked at {peak / 2 ** 20:.1f} MB"
    assert tp.persistent_betti(dg, 1, 0.4, 0.8) == tp.betti_oracle(fc, 1, 0.4, 0.8) == 0
    assert tp.persistent_betti(dg, 1, 0.2, 0.3) == tp.betti_oracle(fc, 1, 0.2, 0.3) == 1


def test_oracle_refuses_rows_above_dense_limit(monkeypatch):
    fc = tp.vr_filtration(noisy_circles(seed=5, count=1)[0], max_dim=2)
    # the whole 2-boundary packs 1,770 edge rows of 34,220 triangle bits, about 7 MB
    monkeypatch.setattr(simplicial, "DENSE_LIMIT_BYTES", 2 ** 20)
    with pytest.raises(ValueError, match="exceeds the 1 MB limit"):
        tp.betti_oracle(fc, 1, 0.6, fc.eps_max)
    assert tp.betti_oracle(fc, 0, 0.0, 0.01) == column_rank_oracle(fc, 0, 0.0, 0.01)


def test_relabel_invariance():
    rng = np.random.default_rng(71)
    for _ in range(10):
        pts = random_cloud(rng)
        perm = rng.permutation(len(pts))
        base = diagram_of(pts, max_dim=2)
        shuffled = diagram_of(pts[perm], max_dim=2)
        assert base.bars == shuffled.bars


def test_reduce_deterministic():
    pts = random_cloud(np.random.default_rng(77))
    a = diagram_of(pts)
    b = diagram_of(pts)
    assert a.bars == b.bars
    assert a.dropped_zero_bars == b.dropped_zero_bars


def test_diagram_arrays_are_read_only():
    dg = diagram_of(SQUARE)
    for array in (dg.dims, dg.births, dg.deaths):
        with pytest.raises(ValueError):
            array[0] = 1


def test_diagram_orders_bars():
    dg = PersistenceDiagram(dims=[1, 0, 0, 1], births=[0.5, 0.2, 0.0, 0.5], deaths=[INF, 0.3, INF, 0.6])
    assert dg.bars == ((0, 0.0, INF), (0, 0.2, 0.3), (1, 0.5, 0.6), (1, 0.5, INF))


class TestBottleneck:
    def test_negative_degree_rejected(self):
        diagram = PersistenceDiagram(dims=[0], births=[0.0], deaths=[1.0])
        with pytest.raises(ValueError, match="k must be >= 0"):
            tp.bottleneck(diagram, diagram, -1)

    def test_matching_augments_along_a_path_of_every_vertex(self):
        # each left vertex i < n takes right vertex i; left vertex n can only
        # take right vertex 0, so its augmenting path shifts all n matches
        n = 2000
        adj = [[i, i + 1] for i in range(n)] + [[0]]
        assert _saturates(adj, n + 1)
        assert not _saturates(adj[:n] + [[]], n + 1)

    def test_equals_brute_force_on_small_diagrams(self):
        rng = np.random.default_rng(7)
        for trial in range(150):
            sides = []
            for _ in range(2):
                n = int(rng.integers(0, 5))
                if trial % 2:  # lattice: exact cost ties and equal bars
                    births = rng.integers(0, 4, n) / 4.0
                    deaths = births + rng.integers(0, 4, n) / 4.0
                else:
                    births = rng.uniform(0.0, 1.0, n)
                    deaths = births + rng.uniform(0.0, 0.5, n)
                sides.append(list(zip(births.tolist(), deaths.tolist())))
            p1, p2 = sides
            if trial % 3 == 0 and p1:  # a bar shared by both sides, and repeated in one
                p2 = (p2 + [p1[0]])[-4:]
                p1 = (p1 + [p1[0]])[-4:]
            d1, d2 = (PersistenceDiagram(dims=[1] * len(p), births=[b for b, _ in p],
                                         deaths=[d for _, d in p]) for p in (p1, p2))
            expected = brute_force_bottleneck(p1, p2)
            assert tp.bottleneck(d1, d2, 1) == expected, (p1, p2)
            assert tp.bottleneck(d2, d1, 1) == expected, (p1, p2)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_kuhn_reference_on_benchmark_size_circles(self, seed):
        d1, d2 = (tp.reduce(tp.vr_filtration(points, max_dim=2))
                  for points in noisy_circles(seed=seed, count=2))
        for k in (0, 1):
            assert tp.bottleneck(d1, d2, k) == kuhn_bottleneck(d1, d2, k)
            assert tp.bottleneck(d2, d1, k) == kuhn_bottleneck(d2, d1, k)

    def test_equals_kuhn_reference_on_lattice_diagrams(self):
        # quarter-lattice bars: exact cost ties, bars repeated within and shared between sides
        rng = np.random.default_rng(41)
        for _ in range(30):
            n_essential = int(rng.integers(0, 3))
            sides = []
            for _ in range(2):
                n = int(rng.integers(16, 64))
                births = rng.integers(0, 8, n) / 4.0
                deaths = births + rng.integers(0, 8, n) / 4.0
                repeat = rng.integers(0, n, n // 4)
                births = np.concatenate([births, births[repeat], rng.integers(0, 8, n_essential) / 4.0])
                deaths = np.concatenate([deaths, deaths[repeat], np.full(n_essential, INF)])
                sides.append((births, deaths))
            (b1, e1), (b2, e2) = sides
            b2[:5], e2[:5] = b1[:5], e1[:5]
            d1, d2 = (PersistenceDiagram(dims=np.ones(len(b), dtype=int), births=b, deaths=e)
                      for b, e in ((b1, e1), (b2, e2)))
            assert tp.bottleneck(d1, d2, 1) == kuhn_bottleneck(d1, d2, 1)
            assert tp.bottleneck(d2, d1, 1) == kuhn_bottleneck(d2, d1, 1)

    def test_refuses_arrays_above_dense_limit(self, monkeypatch):
        def diagram(n):
            births = np.arange(n) / n
            return PersistenceDiagram(dims=np.ones(n, dtype=int), births=births, deaths=births + 0.5)

        small = kuhn_bottleneck(diagram(50), diagram(60), 1)
        monkeypatch.setattr(simplicial, "DENSE_LIMIT_BYTES", 2 ** 20)
        # 400 x 400 bars: the differences alone take 2.4 MB
        with pytest.raises(ValueError, match="array of bar differences .* exceeds the 1 MB limit"):
            tp.bottleneck(diagram(400), diagram(400), 1)
        # 200 x 200 bars: differences 0.6 MB, but each side's neighbour lists about 1.4 MB
        with pytest.raises(ValueError, match="list of neighbours by cost .* exceeds the 1 MB limit"):
            tp.bottleneck(diagram(200), diagram(200), 1)
        assert tp.bottleneck(diagram(50), diagram(60), 1) == small

    def test_identical(self):
        dg = diagram_of(SQUARE)
        for k in (0, 1, 2):
            assert tp.bottleneck(dg, dg, k) == 0.0

    def test_single_bar_vs_empty(self):
        d1 = PersistenceDiagram(dims=[0], births=[0.0], deaths=[1.0])
        d2 = PersistenceDiagram()
        assert tp.bottleneck(d1, d2, 0) == pytest.approx(0.5, abs=1e-15)

    def test_shifted_pair(self):
        d1 = PersistenceDiagram(dims=[0], births=[0.0], deaths=[1.0])
        d2 = PersistenceDiagram(dims=[0], births=[0.1], deaths=[1.1])
        assert tp.bottleneck(d1, d2, 0) == pytest.approx(0.1, abs=1e-12)

    def test_mismatched_infinite_bars(self):
        d1 = PersistenceDiagram(dims=[0], births=[0.0], deaths=[INF])
        d2 = PersistenceDiagram(dims=[0, 0], births=[0.0, 0.2], deaths=[INF, INF])
        assert tp.bottleneck(d1, d2, 0) == INF

    def test_infinite_bars_match_on_birth(self):
        d1 = PersistenceDiagram(dims=[1, 1], births=[0.1, 0.5], deaths=[INF, INF])
        d2 = PersistenceDiagram(dims=[1, 1], births=[0.2, 0.55], deaths=[INF, INF])
        assert tp.bottleneck(d1, d2, 1) == pytest.approx(0.1, abs=1e-15)

    def test_diagonal_beats_bad_match(self):
        d1 = PersistenceDiagram(dims=[0], births=[0.0], deaths=[0.2])
        d2 = PersistenceDiagram(dims=[0], births=[5.0], deaths=[5.2])
        assert tp.bottleneck(d1, d2, 0) == pytest.approx(0.1, abs=1e-15)

    @staticmethod
    def _random_diagram(rng, dim=1, max_bars=6):
        births, deaths = [], []
        for _ in range(int(rng.integers(0, max_bars + 1))):
            birth = float(rng.uniform(0.0, 1.0))
            births.append(birth)
            deaths.append(birth + float(rng.uniform(0.0, 1.0)) + 1e-6)
        return PersistenceDiagram(dims=[dim] * len(births), births=births, deaths=deaths)

    def test_metric_properties(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            a = self._random_diagram(rng)
            b = self._random_diagram(rng)
            c = self._random_diagram(rng)
            ab = tp.bottleneck(a, b, 1)
            ba = tp.bottleneck(b, a, 1)
            assert ab == ba  # symmetry, exact
            ac = tp.bottleneck(a, c, 1)
            bc = tp.bottleneck(b, c, 1)
            assert ac <= ab + bc + 1e-12
            assert tp.bottleneck(a, a, 1) == 0.0

    def test_stability_under_perturbation(self):
        rng = np.random.default_rng(97)
        for _ in range(25):
            pts = random_cloud(rng, n_max=9)
            eta = float(rng.uniform(0.0, 0.05))
            noise = rng.standard_normal(pts.shape)
            norms = np.linalg.norm(noise, axis=1, keepdims=True)
            noise = noise / np.maximum(norms, 1e-12) * rng.uniform(0.0, eta, size=(len(pts), 1))
            moved = pts + noise
            # shared eps_max large enough that both complexes finish complete
            d_here = tp.vr_filtration(pts, max_dim=2).eps_max
            d_there = tp.vr_filtration(moved, max_dim=2).eps_max
            eps_max = max(d_here, d_there)
            dg1 = diagram_of(pts, max_dim=2, eps_max=eps_max)
            dg2 = diagram_of(moved, max_dim=2, eps_max=eps_max)
            for k in (0, 1, 2):
                assert tp.bottleneck(dg1, dg2, k) <= eta + 1e-10


class TestSerialization:
    def test_json_roundtrip(self):
        dg = diagram_of(SQUARE)
        back = tp.diagram_from_json(tp.diagram_to_json(dg))
        assert back.bars == dg.bars
        assert tp.diagram_to_json(back) == tp.diagram_to_json(dg)
        assert back.max_dim == dg.max_dim
        assert back.n_points == dg.n_points
        assert back.dropped_zero_bars == dg.dropped_zero_bars

    def test_json_schema(self):
        import json

        payload = json.loads(tp.diagram_to_json(diagram_of(SQUARE)))
        assert payload["field"] == "Z2"
        assert {"dim", "birth", "death"} == set(payload["bars"][0])
        assert any(b["death"] is None for b in payload["bars"])

    def test_non_z2_field_rejected(self):
        text = tp.diagram_to_json(diagram_of(SQUARE)).replace('"field": "Z2"', '"field": "real"')
        with pytest.raises(ValueError, match="field must be 'Z2', got 'real'"):
            tp.diagram_from_json(text)

    @pytest.mark.parametrize("birth, death", [
        ("NaN", "1.0"), ("0.5", "NaN"), ("Infinity", "null"), ("-0.25", "1.0"), ("0.5", "0.25"),
    ])
    def test_invalid_bar_rejected(self, birth, death):
        text = f'{{"field": "Z2", "bars": [{{"dim": 0, "birth": {birth}, "death": {death}}}]}}'
        with pytest.raises(ValueError, match="invalid bar"):
            tp.diagram_from_json(text)

    @pytest.mark.parametrize("dim", ["1.7", "Infinity", "NaN", '"1"', "null"])
    def test_non_integer_dim_rejected(self, dim):
        text = f'{{"field": "Z2", "bars": [{{"dim": {dim}, "birth": 0.0, "death": 1.0}}]}}'
        with pytest.raises(ValueError, match="bar dim must be an integer"):
            tp.diagram_from_json(text)

    @pytest.mark.parametrize("bar, metadata, named", [
        ('{"dim": 0, "birth": "0.5", "death": 1.0}', "{}", "bar birth must be a number, got '0.5'"),
        ('{"dim": 0, "birth": 0.5, "death": true}', "{}", "bar death must be a number, got True"),
        ("", '{"max_dim": 1.5}', "max_dim must be an integer, got 1.5"),
        ("", '{"n_points": 2.7}', "n_points must be an integer, got 2.7"),
        ("", '{"dropped_zero_bars": {"0": 1.9}}', "dropped zero-bar count must be an integer, got 1.9"),
    ], ids=["string_birth", "bool_death", "fractional_max_dim", "fractional_n_points", "fractional_dropped"])
    def test_non_number_value_malformed(self, bar, metadata, named):
        # int() and float() would read these as 0.5, 1.0, 1, 2 and 1
        text = f'{{"field": "Z2", "bars": [{bar}], "metadata": {metadata}}}'
        with pytest.raises(ValueError, match=rf"malformed diagram \(TypeError: {named}\)"):
            tp.diagram_from_json(text)

    def test_integral_dim_read_as_int(self):
        text = '{"field": "Z2", "bars": [{"dim": 1.0, "birth": 0.0, "death": 1.0}]}'
        assert tp.diagram_from_json(text).bars == ((1, 0.0, 1.0),)

    def test_render_text(self):
        text = tp.render_text(diagram_of(SQUARE))
        lines = text.strip().split("\n")
        assert lines[0] == "dim 0: [0, 0.5)"
        assert lines[-1] == "dim 1: [0.5, 0.707106781187)"  # no degree-2 bars at max_dim 2

    def test_render_svg(self):
        svg = tp.render_svg(diagram_of(SQUARE))
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "<script" not in svg
        assert tp.render_svg(diagram_of(SQUARE)) == svg  # deterministic
