"""Property tests on random clouds: the Schur Laplacian and closed-form Dirac
spectrum against the dense reference, the degree discs against the Laplacian,
and the three Betti detectors."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import topophase as tp
from helpers import assert_matches_dense
from topophase import dirac


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_clouds_match_dense_reference(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    if data.draw(st.booleans(), label="lattice"):
        # points on {0..3}^dim with copies: exact ties and a rank-deficient U_RR
        n = data.draw(st.integers(4, 10), label="n")
        pts = data.draw(arrays(np.int64, (n, dim), elements=st.integers(0, 3)), label="points")
        copies = data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="duplicated")
        pts = np.vstack([pts, pts[copies]]).astype(float)
    else:
        n = data.draw(st.integers(4, 12), label="n")
        pts = data.draw(arrays(np.float64, (n, dim), elements=st.floats(0.0, 1.0)), label="points")
    max_dim = data.draw(st.integers(1, 3), label="max_dim")
    fc = tp.vr_filtration(pts, max_dim=max_dim)
    births = sorted(set(np.concatenate(fc.births).tolist()))
    scale = st.one_of(st.sampled_from(births), st.floats(0.0, 1.1 * fc.eps_max))
    eps, eps_prime = sorted(data.draw(st.tuples(scale, scale), label="scales"))
    k = data.draw(st.integers(0, max_dim - 1), label="k")
    assert_matches_dense(fc, k, eps, eps_prime)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_degree_discs_match_the_laplacian(data):
    # points on {0..2}^dim with copies, at max_dim 3: exact ties, duplicates and empty dimensions
    dim = data.draw(st.integers(1, 3), label="dim")
    n = data.draw(st.integers(1, 9), label="n")
    pts = data.draw(arrays(np.int64, (n, dim), elements=st.integers(0, 2)), label="points")
    copies = data.draw(st.lists(st.integers(0, n - 1), max_size=2), label="duplicated")
    fc = tp.vr_filtration(np.vstack([pts, pts[copies]]).astype(float), max_dim=3)
    k = data.draw(st.integers(1, 2), label="k")
    births = sorted(set(np.concatenate(fc.births).tolist()) | {1.1 * fc.eps_max})
    eps = data.draw(st.sampled_from(births), label="eps")
    # R2 is empty up to the next k-simplex born after eps
    n_k = fc.count_at(k, eps)
    next_birth = fc.births[k][n_k] if n_k < fc.count_dim(k) else np.inf
    eps_prime = data.draw(st.sampled_from([b for b in births if eps <= b < next_birth]), label="eps_prime")
    assert fc.count_at(k, eps_prime) == n_k
    lap = dirac.persistent_laplacian(fc, k, eps, eps_prime)
    diagonal, row_sums = dirac._degree_discs(fc, k, eps, eps_prime)
    assert np.array_equal(lap.diagonal(), diagonal)
    assert np.array_equal(np.abs(lap).sum(axis=1), row_sums)
    kernel = dirac.persistent_kernel_dim(fc, k, eps, eps_prime)
    assert kernel == dirac.betti_from_laplacian(lap) == tp.betti_oracle(fc, k, eps, eps_prime)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bars_oracle_and_kernel_agree(data):
    n = data.draw(st.integers(1, 40), label="n")
    # no fill value: duplicates come from explicit copies, not from a constant fill
    pts = data.draw(arrays(np.float64, (n, 2), elements=st.floats(0.0, 1.0), fill=st.nothing()),
                    label="points")
    copies = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="duplicated")
    pts = np.vstack([pts, pts[copies]])
    eps_max = data.draw(st.floats(0.0, 0.15), label="eps_max")
    max_dim = data.draw(st.integers(1, 3), label="max_dim")
    fc = tp.vr_filtration(pts, eps_max=eps_max, max_dim=max_dim)
    assume(len(fc) <= 1500)  # the dense spectral path is cubic in the simplex count
    diagram = tp.reduce(fc)
    births = sorted(set(np.concatenate(fc.births).tolist()))
    scale = st.one_of(st.sampled_from(births), st.floats(0.0, 1.1 * eps_max))
    eps, eps_prime = sorted(data.draw(st.tuples(scale, scale), label="scales"))
    for k in range(max_dim):
        bars = tp.persistent_betti(diagram, k, eps, eps_prime)
        oracle = tp.betti_oracle(fc, k, eps, eps_prime)
        kernel = tp.dirac_spectrum(fc, k, eps, eps_prime)[1]
        assert bars == oracle == kernel, (k, eps, eps_prime, bars, oracle, kernel)
