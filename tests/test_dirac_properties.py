"""Property tests: Schur Laplacian and closed-form Dirac spectrum on random clouds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import topophase as tp
from helpers import assert_matches_dense


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_clouds_match_dense_reference(data):
    n = data.draw(st.integers(4, 12), label="n")
    dim = data.draw(st.integers(1, 3), label="dim")
    pts = data.draw(arrays(np.float64, (n, dim), elements=st.floats(0.0, 1.0)), label="points")
    max_dim = data.draw(st.integers(2, 3), label="max_dim")
    fc = tp.vr_filtration(pts, max_dim=max_dim)
    births = sorted({s.birth for s in fc.simplices})
    scale = st.one_of(st.sampled_from(births), st.floats(0.0, 1.1 * fc.eps_max))
    eps, eps_prime = sorted(data.draw(st.tuples(scale, scale), label="scales"))
    k = data.draw(st.integers(0, max_dim), label="k")
    assert_matches_dense(fc, k, eps, eps_prime)
