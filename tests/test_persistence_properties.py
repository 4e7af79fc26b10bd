"""Property tests of the cohomology reduction against the boundary-matrix
reduction it replaced: the serialized diagrams must be byte-identical, and
the bar counts must equal the rank oracle at exact simplex births.  The
row-form rank oracle must equal the column-form one it replaced.  Reducing a
union of sliding windows at once must give every window its own diagram and
persistent Betti numbers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import topophase as tp
from helpers import below_max_dim, column_rank_oracle, homology_reduce
from test_simplicial_properties import sweep_clouds
from topophase import dirac, persistence, simplicial


@st.composite
def clouds(draw, max_n=25):
    n = draw(st.integers(1, max_n), label="n")
    dim = draw(st.integers(1, 3), label="dim")
    if draw(st.booleans(), label="lattice"):
        # small integer coordinates: many exact distance ties and repeated points
        pts = draw(arrays(np.int64, (n, dim), elements=st.integers(0, 3)), label="points")
    else:
        pts = draw(arrays(np.float64, (n, dim), elements=st.floats(0.0, 1.0), fill=st.nothing()),
                   label="points")
    copies = draw(st.lists(st.integers(0, n - 1), max_size=3), label="duplicated")
    return np.vstack([pts, pts[copies]]).astype(float)


@settings(max_examples=200, deadline=None)
@given(pts=clouds(), data=st.data())
def test_cohomology_matches_homology_reduction(pts, data):
    max_dim = data.draw(st.integers(1, 3), label="max_dim")
    dist = tp.vr_filtration(pts, max_dim=0).distance_matrix
    half_distances = sorted({float(d) / 2.0 for d in dist[np.triu_indices(len(pts), 1)]})
    eps_max = data.draw(st.one_of(st.none(), st.sampled_from(half_distances or [0.0])),
                        label="eps_max")
    fc = tp.vr_filtration(pts, eps_max=eps_max, max_dim=max_dim)
    diagram = tp.reduce(fc)
    assert tp.diagram_to_json(diagram) == tp.diagram_to_json(below_max_dim(homology_reduce(fc)))
    births = np.unique(np.concatenate(fc.births)).tolist()
    for _ in range(2):
        eps1, eps2 = sorted(data.draw(st.lists(st.sampled_from(births), min_size=2, max_size=2),
                                      label="probe"))
        for k in range(max_dim):
            assert tp.persistent_betti(diagram, k, eps1, eps2) == tp.betti_oracle(fc, k, eps1, eps2)


@settings(max_examples=150, deadline=None)
@given(pts=clouds(), data=st.data())
def test_row_oracle_matches_column_oracle(pts, data):
    max_dim = data.draw(st.integers(1, 3), label="max_dim")
    fc = tp.vr_filtration(pts, max_dim=max_dim)
    births = np.unique(np.concatenate(fc.births)).tolist()
    for _ in range(2):
        eps1, eps2 = sorted(data.draw(st.lists(st.sampled_from(births), min_size=2, max_size=2),
                                      label="probe"))
        for e1, e2 in ((eps1, eps2), (eps1, eps1), (eps2, eps2)):
            for k in range(max_dim):
                assert tp.betti_oracle(fc, k, e1, e2) == column_rank_oracle(fc, k, e1, e2)


def check_block_reduction(pts, data):
    """Each window of each union: its diagram and Betti counts equal its own reduction's."""
    n = len(pts)
    halfwidth = data.draw(st.sampled_from((0, 1, 3, 8, n, n + 5)), label="halfwidth")
    max_dim = data.draw(st.integers(1, 3), label="max_dim")
    centre = 0
    unions = []
    for union in simplicial._window_unions(pts, halfwidth, max_dim):
        unions.append(union)
        bars = persistence._bars(union)
        scales = np.unique(np.concatenate(([0.0],) + union.births)).tolist()
        probes = [sorted(data.draw(st.lists(st.sampled_from(scales), min_size=2, max_size=2),
                                   label="probe")) for _ in range(2)]
        counts = {(k, e1, e2): persistence._betti_counts(union, bars, k, e1, e2)
                  for e1, e2 in probes for k in range(max_dim)}
        for w in range(len(union.windows)):
            lo, hi = max(0, centre - halfwidth), min(n, centre + halfwidth + 1)
            ref = tp.reduce(tp.vr_filtration(pts[lo:hi], max_dim=max_dim))
            diagram = persistence._diagram(union, bars, w)
            for name in ("dims", "births", "deaths"):
                got, want = getattr(diagram, name), getattr(ref, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert diagram.dropped_zero_bars == ref.dropped_zero_bars
            assert (diagram.max_dim, diagram.n_points) == (ref.max_dim, ref.n_points)
            for (k, e1, e2), count in counts.items():
                assert count[w] == tp.persistent_betti(ref, k, e1, e2)
            centre += 1
    assert centre == n
    return unions


@settings(max_examples=60, deadline=None)
@given(pts=sweep_clouds(), data=st.data())
def test_block_reduction_matches_window_reduction(pts, data):
    check_block_reduction(pts, data)


@settings(max_examples=30, deadline=None)
@given(pts=sweep_clouds(), data=st.data())
def test_block_reduction_one_window_per_union(pts, data):
    # a zero budget: each union holds the one window it may not refuse.  The
    # share is patched rather than DENSE_LIMIT_BYTES, whose cut would refuse
    # the band before its windows were cut into runs.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplicial, "_UNION_SHARE", simplicial.DENSE_LIMIT_BYTES + 1)
        unions = check_block_reduction(pts, data)
    assert all(len(union.windows) == 1 for union in unions)


@settings(max_examples=100, deadline=None)
@given(pts=clouds(), data=st.data())
def test_one_more_dimension_changes_no_reported_bar(pts, data):
    # degree-k bars read only the (k+1)-skeleton: the diagram built to max_dim
    # k + 1 is the part of degree <= k of the one built to k + 2, byte for byte
    dist = tp.vr_filtration(pts, max_dim=0).distance_matrix
    half_distances = sorted({float(d) / 2.0 for d in dist[np.triu_indices(len(pts), 1)]})
    eps_max = data.draw(st.one_of(st.none(), st.sampled_from(half_distances or [0.0])), label="eps_max")
    for k in (0, 1, 2):
        low, high = (tp.reduce(tp.vr_filtration(pts, eps_max=eps_max, max_dim=m)) for m in (k + 1, k + 2))
        kept = high.dims <= k
        for name in ("dims", "births", "deaths"):
            got, want = getattr(low, name), getattr(high, name)[kept]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (k, name)
        assert low.dropped_zero_bars == {d: n for d, n in high.dropped_zero_bars.items() if d <= k}


@settings(max_examples=60, deadline=None)
@given(pts=clouds(max_n=8), data=st.data())
def test_max_dim_past_the_point_count_changes_only_metadata(pts, data):
    # m points span no simplex above dimension m - 1, so from max_dim m - 1 on
    # the bars stay those at max_dim m, and every degree from m on reads 0
    m = len(pts)
    dist = tp.vr_filtration(pts, max_dim=0).distance_matrix
    half_distances = sorted({float(d) / 2.0 for d in dist[np.triu_indices(m, 1)]})
    eps_max = data.draw(st.one_of(st.none(), st.sampled_from(half_distances or [0.0])), label="eps_max")
    full = tp.vr_filtration(pts, eps_max=eps_max, max_dim=m)
    want = tp.reduce(full)
    births = np.unique(np.concatenate(full.births)).tolist()
    eps1, eps2 = sorted(data.draw(st.lists(st.sampled_from(births), min_size=2, max_size=2), label="probe"))
    for max_dim in (m - 1, m, m + 3, 10 ** 9):
        if max_dim < 1:  # reduce reads no degree at max_dim 0
            continue
        fc = tp.vr_filtration(pts, eps_max=eps_max, max_dim=max_dim)
        got = tp.reduce(fc)
        assert (got.max_dim, got.n_points) == (max_dim, want.n_points)
        for name in ("dims", "births", "deaths"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (max_dim, name)
        assert got.dropped_zero_bars == want.dropped_zero_bars
        for k in sorted(k for k in {m, m + 1, m + 2, max_dim - 1} if m <= k < max_dim):
            assert tp.betti_oracle(fc, k, eps1, eps2) == 0, (max_dim, k)
            assert dirac.betti_from_laplacian(dirac.persistent_laplacian(fc, k, eps1, eps2)) == 0, (max_dim, k)
            assert tp.dirac_spectrum(fc, k, eps1, eps2)[1] == 0, (max_dim, k)
