"""Regular n-gons against their known homotopy types.

Take n evenly spaced points on the unit circle.  The chord spanning k steps
has length 2 sin(pi k / n), so its edge is born at sin(pi k / n), and between
the births of the k- and (k+1)-step chords the Vietoris-Rips complex is the
clique complex of the cyclic graph C_n^k.  Its homotopy type is known
(Adamaszek, "Clique complexes and graph powers", Israel J. Math. 196, 2013;
Adamaszek and Adams, "The Vietoris-Rips complexes of a circle", Pacific
J. Math. 290, 2017):

- S^(2l+1) if l/(2l+1) < k/n < (l+1)/(2l+3);
- a wedge of n - 2k - 1 copies of S^(2l) if k/n = l/(2l+1);
- a point once 2k >= n.

Every chord occurs n times, with lengths equal up to rounding, so each scale
exercises the tie order of the clique loop and of the reduction.
"""

from fractions import Fraction

import numpy as np
import pytest

import topophase as tp
from topophase import dirac


def ngon(n):
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(theta), np.sin(theta)])


def ngon_type(n, k):
    """The homotopy type of the clique complex of C_n^k (k >= 1) as (m, c): a wedge of c m-spheres."""
    if 2 * k >= n:
        return 0, 0
    ratio, l = Fraction(k, n), 0
    while True:
        if ratio == Fraction(l, 2 * l + 1):
            return 2 * l, n - 2 * k - 1
        if ratio < Fraction(l + 1, 2 * l + 3):
            return 2 * l + 1, 1
        l += 1


def betti(n, k, d):
    m, c = ngon_type(n, k)
    return int(d == 0) + (c if d == m else 0)


def scales(n):
    """(k, eps) with eps inside the span where the complex is C_n^k's: the midpoint
    between consecutive chord births, and past the longest chord for k = n // 2."""
    births = np.sin(np.pi * np.arange(n // 2 + 1) / n)
    return [(k, (births[k] + births[k + 1]) / 2.0) for k in range(1, n // 2)] + [(n // 2, 1.1)]


def test_formula_types():
    assert ngon_type(10, 3) == (1, 1)  # 3/10 < 1/3: a circle
    assert ngon_type(12, 4) == (2, 3)  # 4/12 = 1/3: three 2-spheres
    assert ngon_type(11, 4) == (3, 1)  # 1/3 < 4/11 < 2/5: a 3-sphere
    assert ngon_type(20, 8) == (4, 3)  # 8/20 = 2/5: three 4-spheres
    assert ngon_type(9, 4)[1] == 0  # 4/9: a wedge of no spheres, a point
    assert ngon_type(10, 5) == (0, 0)  # 2k >= n: a point
    # the degree-3 checks below are not all zeros: 13 scales hold a 3-sphere
    assert sum(betti(n, k, 3) for n in range(9, 25) for k, _ in scales(n)) == 13


def check_bars(fc):
    """The bars of an n-gon's complex, in every degree it answers, at every scale."""
    diagram = tp.reduce(fc)
    for k, eps in scales(fc.n_points):
        for d in range(fc.max_dim):
            assert tp.persistent_betti(diagram, d, eps, eps) == betti(fc.n_points, k, d), (k, d)


@pytest.mark.parametrize("n", range(9, 25))
def test_degrees_0_and_1(n):
    check_bars(tp.vr_filtration(ngon(n), max_dim=2))


@pytest.mark.parametrize("n", range(9, 25))
def test_degrees_0_to_3(n):
    check_bars(tp.vr_filtration(ngon(n), max_dim=4))


@pytest.mark.parametrize("n, max_dim", [(30, 3), (45, 3), (60, 2), (90, 2)])
def test_large_n(n, max_dim):
    check_bars(tp.vr_filtration(ngon(n), max_dim=max_dim))


@pytest.mark.parametrize("n", [12, 15, 18, 21])
def test_degree_2_wedge(n):
    # bars at every scale; at the wedge scale k/n = 1/3 also the rank oracle and the Laplacian kernel
    fc = tp.vr_filtration(ngon(n), max_dim=3)
    check_bars(fc)
    k = n // 3
    eps = dict(scales(n))[k]
    assert betti(n, k, 2) == n // 3 - 1
    for d in (0, 1, 2):
        assert tp.betti_oracle(fc, d, eps, eps) == betti(n, k, d), d
        assert dirac.betti_from_laplacian(dirac.persistent_laplacian(fc, d, eps, eps)) == betti(n, k, d), d
