"""Property tests of the cohomology reduction against the boundary-matrix
reduction it replaced: the serialized diagrams must be byte-identical, and
the bar counts must equal the rank oracle at exact simplex births.  The
row-form rank oracle must equal the column-form one it replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import topophase as tp
from helpers import column_rank_oracle, homology_reduce


@st.composite
def clouds(draw):
    n = draw(st.integers(1, 25), label="n")
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
    max_dim = data.draw(st.integers(0, 3), label="max_dim")
    dist = tp.vr_filtration(pts, max_dim=0).distance_matrix
    half_distances = sorted({float(d) / 2.0 for d in dist[np.triu_indices(len(pts), 1)]})
    eps_max = data.draw(st.one_of(st.none(), st.sampled_from(half_distances or [0.0])),
                        label="eps_max")
    fc = tp.vr_filtration(pts, eps_max=eps_max, max_dim=max_dim)
    diagram = tp.reduce(fc)
    assert tp.diagram_to_json(diagram) == tp.diagram_to_json(homology_reduce(fc))
    births = np.unique(np.concatenate(fc.births)).tolist()
    for _ in range(2):
        eps1, eps2 = sorted(data.draw(st.lists(st.sampled_from(births), min_size=2, max_size=2),
                                      label="probe"))
        for k in range(max_dim + 1):
            assert tp.persistent_betti(diagram, k, eps1, eps2) == tp.betti_oracle(fc, k, eps1, eps2)


@settings(max_examples=150, deadline=None)
@given(pts=clouds(), data=st.data())
def test_row_oracle_matches_column_oracle(pts, data):
    max_dim = data.draw(st.integers(0, 3), label="max_dim")
    fc = tp.vr_filtration(pts, max_dim=max_dim)
    births = np.unique(np.concatenate(fc.births)).tolist()
    for _ in range(2):
        eps1, eps2 = sorted(data.draw(st.lists(st.sampled_from(births), min_size=2, max_size=2),
                                      label="probe"))
        for e1, e2 in ((eps1, eps2), (eps1, eps1), (eps2, eps2)):
            for k in range(max_dim + 2):
                assert tp.betti_oracle(fc, k, e1, e2) == column_rank_oracle(fc, k, e1, e2)
