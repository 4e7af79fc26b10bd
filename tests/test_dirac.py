import numpy as np
import pytest

import topophase as tp
from helpers import assert_matches_dense, components_at_scale, random_cloud, union_find_components
from topophase import dirac
from topophase.dirac import (
    CERTIFICATE_MARGIN,
    RANK_TOL,
    _kernel_dim,
)
from topophase.simplicial import DENSE_LIMIT_BYTES, _WindowUnion, boundary_dense_at

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def square_complex():
    return tp.vr_filtration(SQUARE, eps_max=1.0, max_dim=2)


def graph_complex(n, edges, edge_births=None, vertex_births=None):
    """The complex of a graph: n vertices (births ascending, default 0) and its edges, ordered by birth."""
    edges = np.sort(np.asarray(edges, dtype=np.intp).reshape(-1, 2), axis=1)
    edge_births = np.zeros(len(edges)) if edge_births is None else np.asarray(edge_births, dtype=float)
    order = np.lexsort((edges[:, 1], edges[:, 0], edge_births))
    edges, edge_births = edges[order], edge_births[order]
    vertex_births = np.zeros(n) if vertex_births is None else np.asarray(vertex_births, dtype=float)
    return tp.FilteredComplex((np.arange(n)[:, None], edges), (vertex_births, edge_births), n,
                              np.empty((0, 0)), float(edge_births.max(initial=0.0)), 1, _facets=(None, edges))


def graph_union(windows):
    """The disjoint union of complexes of graphs, window-major, as a sweep cuts it."""
    offsets = tuple(np.cumsum([0] + [w.count_dim(k) for w in windows]) for k in (0, 1))
    births = tuple(np.concatenate([w.births[k] for w in windows]) for k in (0, 1))
    facets = np.concatenate([w._facets[1] + first for w, first in zip(windows, offsets[0])])
    return _WindowUnion(births, (None, facets.reshape(-1, 2)), offsets, tuple(windows))


class TestRestrictedBoundary:
    def test_equal_scales_same_singular_values(self):
        fc = square_complex()
        rb = dirac.restricted_boundary(fc, 1, 0.8, 0.8)
        plain = boundary_dense_at(fc, 1, np.inf)
        n_edges = fc.count_at(1, 0.8)
        assert rb.domain_dim == n_edges
        sv_restricted = np.linalg.svd(rb.matrix, compute_uv=False)
        sv_plain = np.linalg.svd(plain[:, :n_edges], compute_uv=False)
        assert np.allclose(sorted(sv_restricted), sorted(sv_plain), atol=1e-12)

    def test_no_simplices_at_upper_scale(self):
        fc = square_complex()
        rb = dirac.restricted_boundary(fc, 2, 0.3, 0.5)  # triangles appear only at ~0.707
        assert rb.domain_dim == 0
        assert rb.matrix.shape == (fc.count_at(1, 0.3), 0)

    def test_square_triangle_pairs_survive(self):
        # triangles at eps'=0.75 each use one diagonal edge absent at eps=0.6,
        # but opposite-triangle sums cancel the diagonal: the domain is the
        # two-dimensional space spanned by those sums
        fc = square_complex()
        rb = dirac.restricted_boundary(fc, 2, 0.6, 0.75)
        assert rb.domain_dim == 2
        assert np.linalg.matrix_rank(rb.matrix, tol=1e-10) == 1

    def test_integral_float_degree(self):
        fc = square_complex()
        for k_plus_1 in (2.0, np.int64(2)):
            assert np.array_equal(dirac.restricted_boundary(fc, k_plus_1, 0.6, 0.75).matrix,
                                  dirac.restricted_boundary(fc, 2, 0.6, 0.75).matrix)
        with pytest.raises(ValueError, match=r"0 <= k < max_dim \(2\), got \(0.5, 0.6, 0.75\)"):
            dirac.restricted_boundary(fc, 1.5, 0.6, 0.75)

    def test_domain_basis_orthonormal(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            fc = tp.vr_filtration(random_cloud(rng), max_dim=3)
            e1, e2 = sorted(rng.uniform(0.0, fc.eps_max, size=2))
            for k_plus_1 in (1, 2, 3):
                rb = dirac.restricted_boundary(fc, k_plus_1, e1, e2)
                basis = rb.domain_basis
                if basis.size:
                    gram = basis.T @ basis
                    assert np.max(np.abs(gram - np.eye(basis.shape[1]))) < 1e-10

    def test_boundary_of_domain_stays_inside_lower_complex(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            fc = tp.vr_filtration(random_cloud(rng), max_dim=3)
            e1, e2 = sorted(rng.uniform(0.0, fc.eps_max, size=2))
            for k_plus_1 in (1, 2, 3):
                rb = dirac.restricted_boundary(fc, k_plus_1, e1, e2)
                if rb.domain_dim == 0:
                    continue
                from topophase.simplicial import DENSE_LIMIT_BYTES, boundary_dense_at

                full = boundary_dense_at(fc, k_plus_1, e2)
                image = full @ rb.domain_basis
                outside = image[fc.count_at(k_plus_1 - 1, e1):, :]
                if outside.size:
                    assert np.max(np.abs(outside)) < 1e-10

    def test_scale_order_enforced(self):
        with pytest.raises(ValueError):
            dirac.restricted_boundary(square_complex(), 2, 0.9, 0.5)


class TestPersistentLaplacian:
    def test_degree_zero_is_graph_laplacian(self):
        fc = square_complex()
        eps = fc.eps_max
        lap = dirac.persistent_laplacian(fc, 0, eps, eps)
        edges = boundary_dense_at(fc, 1, np.inf)
        assert np.allclose(lap, edges @ edges.T, atol=1e-12)
        assert dirac.betti_from_laplacian(lap) == components_at_scale(SQUARE, eps)

    def test_component_count_across_scales(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            pts = random_cloud(rng)
            fc = tp.vr_filtration(pts, max_dim=2)
            eps = float(rng.uniform(0.0, fc.eps_max))
            lap = dirac.persistent_laplacian(fc, 0, eps, eps)
            assert dirac.betti_from_laplacian(lap) == components_at_scale(pts, eps)

    def test_square_loop_kernel(self):
        lap = dirac.persistent_laplacian(square_complex(), 1, 0.55, 0.65)
        assert dirac.betti_from_laplacian(lap) == 1

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            fc = tp.vr_filtration(random_cloud(rng), max_dim=3)
            e1, e2 = sorted(rng.uniform(0.0, fc.eps_max, size=2))
            for k in (0, 1, 2):
                lap = dirac.persistent_laplacian(fc, k, e1, e2)
                if lap.size:
                    assert float(np.linalg.eigvalsh(lap)[0]) >= -1e-10

    def test_equal_scales_reduce_to_combinatorial_laplacian(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            fc = tp.vr_filtration(random_cloud(rng), max_dim=2)
            eps = float(rng.uniform(0.1, fc.eps_max))
            for k in (0, 1):
                n_k = fc.count_at(k, eps)
                if n_k == 0:
                    continue
                from topophase.simplicial import DENSE_LIMIT_BYTES, boundary_dense_at

                up = boundary_dense_at(fc, k + 1, eps)
                down = boundary_dense_at(fc, k, eps) if k else np.zeros((0, n_k))
                combinatorial = down.T @ down + up @ up.T
                lap = dirac.persistent_laplacian(fc, k, eps, eps)
                assert np.allclose(
                    np.linalg.eigvalsh(lap), np.linalg.eigvalsh(combinatorial), atol=1e-10
                )

    def test_empty_scale(self):
        fc = tp.vr_filtration(SQUARE, eps_max=1.0, max_dim=3)
        lap = dirac.persistent_laplacian(fc, 2, 0.5, 0.6)  # no triangles yet
        assert lap.shape == (0, 0)
        assert dirac.betti_from_laplacian(lap) == 0


class TestDiracOperator:
    def test_block_shapes_and_symmetry(self):
        fc = square_complex()
        op = dirac.dirac_operator(fc, 1, 0.55, 0.75, xi=0.3)
        n1, n2, d = op.block_dims
        assert n1 == 4 and n2 == 4
        assert op.matrix.shape == (n1 + n2 + d, n1 + n2 + d)
        assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-12

    def test_squared_middle_block_is_laplacian(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            fc = tp.vr_filtration(random_cloud(rng), max_dim=3)
            e1, e2 = sorted(rng.uniform(0.0, fc.eps_max, size=2))
            for k in (0, 1, 2):
                op = dirac.dirac_operator(fc, k, e1, e2, xi=0.0)
                lap = dirac.persistent_laplacian(fc, k, e1, e2)
                mid = op.middle_block(op.matrix @ op.matrix)
                if lap.size:
                    assert np.max(np.abs(mid - lap)) < 1e-10

    def test_corner_blocks_vanish(self):
        # (d_k restricted) o (d_{k+1} restricted) inherits nilpotence
        rng = np.random.default_rng(59)
        for _ in range(15):
            fc = tp.vr_filtration(random_cloud(rng), max_dim=3)
            e1, e2 = sorted(rng.uniform(0.0, fc.eps_max, size=2))
            for k in (1, 2):
                op = dirac.dirac_operator(fc, k, e1, e2, xi=0.0)
                n1, n2, d = op.block_dims
                corner = op.matrix[:n1, n1:n1 + n2] @ op.matrix[n1:n1 + n2, n1 + n2:]
                if corner.size:
                    assert np.max(np.abs(corner)) < 1e-12

    def test_isolated_points_spectrum_is_xi(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        fc = tp.vr_filtration(pts, eps_max=6.0, max_dim=2)
        op = dirac.dirac_operator(fc, 0, 0.1, 0.2, xi=0.7)  # no edges below 0.2
        assert op.block_dims == (0, 3, 0)
        assert np.allclose(dirac.spectrum(op.matrix), [0.7, 0.7, 0.7], atol=1e-14)

    def test_xi_shifts_degenerate_middle_block(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        fc = tp.vr_filtration(pts, eps_max=6.0, max_dim=2)
        base = dirac.spectrum(dirac.dirac_operator(fc, 0, 0.1, 0.2, xi=0.0).matrix)
        shifted = dirac.spectrum(dirac.dirac_operator(fc, 0, 0.1, 0.2, xi=1.3).matrix)
        assert np.allclose(shifted, base + 1.3, atol=1e-14)

    def test_scale_order_enforced(self):
        with pytest.raises(ValueError):
            dirac.dirac_operator(square_complex(), 1, 0.8, 0.2)

    def test_integral_float_degree(self):
        fc = square_complex()
        expected = dirac.dirac_operator(fc, 1, 0.55, 0.75, xi=0.3).matrix
        for k in (1.0, np.int64(1)):
            op = dirac.dirac_operator(fc, k, 0.55, 0.75, xi=0.3)
            assert op.k == 1 and np.array_equal(op.matrix, expected)
        with pytest.raises(ValueError, match=r"0 <= k < max_dim \(2\), got \(1.5, 0.55, 0.75\)"):
            dirac.dirac_operator(fc, 1.5, 0.55, 0.75)


class TestDiracSpectrum:
    """Schur Laplacian and closed-form spectrum against the dense reference."""

    def test_more_coupled_chains_than_k_chains(self):
        # square at (0.55, 0.75): p = 4 vertices + 2 restricted triangle sums > q = 4 edges
        dims, kernel = assert_matches_dense(square_complex(), 1, 0.55, 0.75)
        assert dims == (4, 4, 2) and kernel == 0

    def test_fewer_coupled_chains_than_k_chains(self):
        # a 2 x 3 unit grid at eps 0.5 has its 7 sides and no triangle (the
        # diagonals are born at 0.707): p = 6 vertices < q = 7 edges, kernel = 2 cycles
        grid = np.array([[x, y] for y in (0.0, 1.0) for x in (0.0, 1.0, 2.0)])
        fc = tp.vr_filtration(grid, max_dim=2)
        (n1, n2, d), kernel = assert_matches_dense(fc, 1, 0.5, 0.5)
        assert (n1 + d, n2, kernel) == (6, 7, 2)
        got, _ = tp.dirac_spectrum(fc, 1, 0.5, 0.5, xi=0.3)
        assert np.sum(got == 0.3) >= 2  # q - p structural +xi and a kernel mode, emitted exactly

    def test_degree_zero_isolated_points(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        fc = tp.vr_filtration(pts, eps_max=6.0, max_dim=2)
        got, kernel = tp.dirac_spectrum(fc, 0, 0.1, 0.2, xi=0.7)
        assert np.allclose(got, [0.7, 0.7, 0.7], atol=1e-14)
        assert kernel == 3

    def test_top_degree_refused_by_every_detector(self):
        # degree k reads the (k+1)-simplices: each detector that takes a
        # complex, and a sweep's probes, refuse k = max_dim and k < 0,
        # naming k, max_dim and the probe
        fc = square_complex()
        detectors = {
            "betti_oracle": lambda k: tp.betti_oracle(fc, k, 0.8, 0.9),
            "dirac_spectrum": lambda k: tp.dirac_spectrum(fc, k, 0.8, 0.9),
            "persistent_laplacian": lambda k: dirac.persistent_laplacian(fc, k, 0.8, 0.9),
            "ScanConfig": lambda k: tp.ScanConfig(lambda_min=0.0, lambda_max=0.1, step=0.1,
                                                  max_dim=fc.max_dim, intervals=((k, 0.8, 0.9),)),
            "dirac_operator": lambda k: dirac.dirac_operator(fc, k, 0.8, 0.9),
            "restricted_boundary": lambda k: dirac.restricted_boundary(fc, k + 1, 0.8, 0.9),
        }
        for name, detect in detectors.items():
            for k in (2, 3, -1):
                with pytest.raises(ValueError, match=rf"probe degree must be an integer 0 <= k < max_dim "
                                                     rf"\(2\), got \({k}, 0.8, 0.9\)"):
                    detect(k)
            detect(1)  # the degree below max_dim is answered

    def test_equal_scales(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            fc = tp.vr_filtration(random_cloud(rng), max_dim=3)
            eps = float(rng.uniform(0.0, fc.eps_max))
            for k in (0, 1, 2):
                assert_matches_dense(fc, k, eps, eps)

    def test_empty_lower_complex(self):
        # no triangles at 0.5: the spectrum is -xi on edges plus restricted triangles
        fc = tp.vr_filtration(SQUARE, eps_max=1.0, max_dim=3)
        (n1, n2, d), kernel = assert_matches_dense(fc, 2, 0.5, 0.75)
        assert n2 == 0 and kernel == 0
        got, _ = tp.dirac_spectrum(fc, 2, 0.5, 0.75, xi=0.3)
        assert np.allclose(got, np.full(n1 + d, -0.3), atol=1e-14)

    def test_scale_order_and_degree_enforced(self):
        with pytest.raises(ValueError):
            tp.dirac_spectrum(square_complex(), 1, 0.8, 0.2)
        with pytest.raises(ValueError):
            tp.dirac_spectrum(square_complex(), -1, 0.2, 0.8)

    def test_noisy_circle_n40(self):
        rng = np.random.default_rng(2024)
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=40))
        pts = np.column_stack([np.cos(theta), np.sin(theta)]) + rng.normal(0.0, 0.05, size=(40, 2))
        fc = tp.vr_filtration(pts, max_dim=2)
        _, kernel = assert_matches_dense(fc, 1, 0.6, 0.75, xis=(0.0,))
        assert kernel == 1 == tp.persistent_betti(tp.reduce(fc), 1, 0.6, 0.75)

    def test_complete_graph_needs_no_dense_boundary(self):
        # 420 points at eps_max: the 420 x 87,990 edge boundary (282 MB) would
        # exceed the limit, while U = B B^T has order 420
        fc = tp.vr_filtration(np.random.default_rng(0).random((420, 2)), max_dim=1)
        eps2 = fc.eps_max
        assert fc.count_at(0, eps2) * fc.count_at(1, eps2) * 8 > DENSE_LIMIT_BYTES
        _, kernel = tp.dirac_spectrum(fc, 0, 0.02, eps2)
        assert kernel == 1
        assert kernel == tp.persistent_betti(tp.reduce(fc), 0, 0.02, eps2) == tp.betti_oracle(fc, 0, 0.02, eps2)

    def test_oversized_laplacian_refused(self):
        # 60 uniform points at eps 0.3 hold about 9,000 triangles: L_2 alone needs ~600 MB
        fc = tp.vr_filtration(np.random.default_rng(0).random((60, 2)), eps_max=0.3, max_dim=3)
        n_2 = fc.count_at(2, 0.3)
        assert n_2 * n_2 * 8 > DENSE_LIMIT_BYTES
        with pytest.raises(ValueError, match=f"dense {n_2}x{n_2} matrix"):
            tp.dirac_spectrum(fc, 2, 0.3, 0.3)
        with pytest.raises(ValueError, match="exceeds"):
            dirac.persistent_laplacian(fc, 2, 0.3, 0.3)


class TestKernelCertificate:
    @staticmethod
    def spy(monkeypatch, name):
        """Count the calls of ``np.linalg.<name>`` while the test runs."""
        calls = []
        real = getattr(np.linalg, name)

        def counted(a):
            calls.append(len(a))
            return real(a)

        monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_kernel_count_matches_eigvalsh(self):
        # one count per Laplacian, certified or solved, as dirac_spectrum makes it
        rng = np.random.default_rng(71)
        positive = 0
        for _ in range(70):
            fc = tp.vr_filtration(random_cloud(rng, n_max=12), max_dim=3)
            e1, e2 = sorted(rng.uniform(0.0, 1.1 * fc.eps_max, size=2))
            for k in (0, 1, 2):
                lap = dirac.persistent_laplacian(fc, k, e1, e2)
                before = lap.copy()
                expected = _kernel_dim(np.linalg.eigvalsh(lap))
                positive += expected > 0
                assert dirac.betti_from_laplacian(lap) == expected
                assert lap.tobytes() == before.tobytes()
                assert expected == tp.dirac_spectrum(fc, k, e1, e2)[1]
        assert positive > 20

    def test_diagonally_dominant_needs_no_spectrum(self, monkeypatch):
        # the 2-skeleton of a full simplex on m points has L_1 = m I
        fc = tp.vr_filtration(np.random.default_rng(3).random((9, 3)), max_dim=2)
        lap = dirac.persistent_laplacian(fc, 1, fc.eps_max, fc.eps_max)
        assert np.array_equal(lap, 9 * np.eye(len(lap)))
        eigensolves = self.spy(monkeypatch, "eigvalsh")
        assert dirac.betti_from_laplacian(lap) == 0
        assert eigensolves == []

    @pytest.mark.parametrize("rotated", [True, False], ids=["rotated", "diagonal"])
    def test_eigenvalue_inside_the_margin_falls_back(self, monkeypatch, rotated):
        # rotated, the discs reach below 0; diagonal, they are the eigenvalues
        q = np.linalg.qr(np.random.default_rng(9).normal(size=(8, 8)))[0] if rotated else np.eye(8)
        evals = np.array([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0])
        cutoff = RANK_TOL * np.abs((q * evals) @ q.T).sum(axis=1).max()
        evals[0] = np.sqrt(CERTIFICATE_MARGIN) * cutoff  # between c and F c
        lap = (q * evals) @ q.T
        c = RANK_TOL * max(1.0, np.abs(lap).sum(axis=1).max())
        smallest = np.linalg.eigvalsh(lap)[0]
        assert c < smallest < CERTIFICATE_MARGIN * c
        eigensolves = self.spy(monkeypatch, "eigvalsh")
        assert dirac.betti_from_laplacian(lap.copy()) == _kernel_dim(np.linalg.eigvalsh(lap)) == 0
        assert eigensolves == [8, 8]  # the fallback's and the reference's

    def test_missed_kernel_still_counted(self):
        # a path graph's Laplacian has a 1-dimensional kernel: its discs reach 0, so the eigenvalues count it
        lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert dirac.betti_from_laplacian(lap) == 1


class TestPersistentKernelDim:
    @staticmethod
    def laplacians(monkeypatch):
        """Record the probe of every ``persistent_laplacian`` formed while the test runs."""
        calls = []
        real = dirac.persistent_laplacian

        def counted(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(dirac, "persistent_laplacian", counted)
        return calls

    def test_square_loop_falls_back(self, monkeypatch):
        # R2 is empty at (0.55, 0.55), but the loop's kernel reaches the discs: the Laplacian counts it
        fc = square_complex()
        formed = self.laplacians(monkeypatch)
        assert dirac.persistent_kernel_dim(fc, 1, 0.55, 0.55) == 1
        assert formed == [(1, 0.55, 0.55)]

    def test_nonempty_r2_counts_the_laplacian(self, monkeypatch):
        # the diagonals are born in (0.55, 0.75]: the dense Laplacian is counted, as before
        fc = square_complex()
        want = dirac.betti_from_laplacian(dirac.persistent_laplacian(fc, 1, 0.55, 0.75))
        formed = self.laplacians(monkeypatch)
        assert dirac.persistent_kernel_dim(fc, 1, 0.55, 0.75) == want == tp.betti_oracle(fc, 1, 0.55, 0.75)
        assert formed == [(1, 0.55, 0.75)]

    def test_full_simplex_forms_no_laplacian(self, monkeypatch):
        # L_1 = 9 I on the 2-skeleton of a full simplex: its degree discs certify it
        fc = tp.vr_filtration(np.random.default_rng(3).random((9, 3)), max_dim=2)
        formed = self.laplacians(monkeypatch)
        eigensolves = TestKernelCertificate.spy(monkeypatch, "eigvalsh")
        assert dirac.persistent_kernel_dim(fc, 1, fc.eps_max, fc.eps_max) == 0
        assert formed == eigensolves == []


class TestComponentCounts:
    def test_shuffled_long_path_is_one_component(self):
        n = 3000
        rng = np.random.default_rng(5)
        labels = rng.permutation(n)
        path = np.column_stack([labels[:-1], labels[1:]])[rng.permutation(n - 1)]
        union = _WindowUnion.of(graph_complex(n, path))
        assert dirac._component_counts(union, 0.0, 0.0).tolist() == [1] == [union_find_components(n, path)]

    def test_star_with_its_hub_last(self):
        # every leaf's edge meets the hub, the largest index: the hub hooks to leaf 0, then every leaf to it
        n = 3000
        star = np.column_stack([np.arange(n - 1), np.full(n - 1, n - 1)])
        union = graph_union([graph_complex(n, star), graph_complex(3, [(0, 2), (1, 2)])])
        assert dirac._component_counts(union, 0.0, 0.0).tolist() == [1, 1]
        assert union_find_components(n, star) == 1

    def test_isolated_vertices_and_no_edges(self):
        windows = [graph_complex(5, []), graph_complex(1, []), graph_complex(4, [(0, 3)])]
        union = graph_union(windows)
        assert dirac._component_counts(union, 0.0, 0.0).tolist() == [5, 1, 3]
        for w in windows:
            assert dirac.persistent_kernel_dim(w, 0, 0.0, 0.0) == union_find_components(
                w.n_points, w.vertices[1])
        # a complex may store its vertices alone
        vertices = tp.FilteredComplex((np.arange(3)[:, None],), (np.zeros(3),), 3, np.empty((0, 0)), 0.0, 1,
                                      _facets=(None,))
        assert dirac.persistent_kernel_dim(vertices, 0, 0.0, 1.0) == 3 == tp.betti_oracle(vertices, 0, 0.0, 1.0)

    def test_random_graphs_match_union_find(self):
        # edges born after eps2 are left out; eps1 does not matter while every vertex is born at 0
        rng = np.random.default_rng(17)
        windows, graphs = [], []
        for _ in range(12):
            n = int(rng.integers(1, 40))
            pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
            pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
            births = rng.choice([0.1, 0.2, 0.3], size=len(pairs))
            windows.append(graph_complex(n, pairs, births))
            graphs.append((n, pairs, births))
        union = graph_union(windows)
        for eps1, eps2 in [(0.0, 0.0), (0.0, 0.1), (0.1, 0.2), (0.25, 0.3)]:
            want = [union_find_components(n, pairs[births <= eps2]) for n, pairs, births in graphs]
            assert dirac._component_counts(union, eps1, eps2).tolist() == want
            assert want == [tp.betti_oracle(w, 0, eps1, eps2) for w in windows]

    def test_vertex_born_between_the_scales_forms_no_laplacian(self, monkeypatch):
        # vertex 2 is born at 0.5, alone: at (0.2, 0.6) three components, but only two persist
        late = graph_complex(3, [], vertex_births=[0.0, 0.0, 0.5])
        # vertices 2 and 3 are born at 0.5 and joined at 0.55; vertex 4, born at 0.5, joins vertex 0 at 0.55
        joined = graph_complex(5, [(2, 3), (0, 4)], edge_births=[0.55, 0.55],
                               vertex_births=[0.0, 0.0, 0.5, 0.5, 0.5])
        windows = [graph_complex(2, [(0, 1)]), late, joined]
        union = graph_union(windows)
        formed = TestPersistentKernelDim.laplacians(monkeypatch)
        eigensolves = TestKernelCertificate.spy(monkeypatch, "eigvalsh")
        for eps1, eps2, want in [(0.2, 0.6, [1, 2, 2]), (0.5, 0.6, [1, 3, 3]), (0.2, 0.3, [1, 2, 2]),
                                 (0.2, 0.5, [1, 2, 2]), (0.5, 0.5, [1, 3, 5])]:
            assert dirac._component_counts(union, eps1, eps2).tolist() == want
            assert [dirac.persistent_kernel_dim(w, 0, eps1, eps2) for w in windows] == want
            assert formed == eigensolves == []
            assert want == [tp.betti_oracle(w, 0, eps1, eps2) for w in windows]

    def test_vr_complex_forms_no_laplacian(self, monkeypatch):
        pts = np.random.default_rng(8).random((12, 2))
        fc = tp.vr_filtration(pts, max_dim=2)
        formed = TestPersistentKernelDim.laplacians(monkeypatch)
        eigensolves = TestKernelCertificate.spy(monkeypatch, "eigvalsh")
        counts = [dirac.persistent_kernel_dim(fc, 0, eps / 2, eps) for eps in np.linspace(0.0, fc.eps_max, 7)]
        assert formed == eigensolves == []
        assert counts == [components_at_scale(pts, eps) for eps in np.linspace(0.0, fc.eps_max, 7)]
        assert counts[0] == 12 and counts[-1] == 1


class TestSpectrum:
    def test_identity(self):
        assert np.allclose(dirac.spectrum(np.eye(3)), [1.0, 1.0, 1.0])

    def test_diagonal_sorted(self):
        assert np.allclose(dirac.spectrum(np.diag([2.0, -1.0])), [-1.0, 2.0])

    def test_path_graph_laplacian(self):
        lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.allclose(dirac.spectrum(lap), [0.0, 1.0, 3.0], atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            dirac.spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestBettiFromLaplacian:
    def test_zero_matrix(self):
        assert dirac.betti_from_laplacian(np.zeros((5, 5))) == 5

    def test_square_case(self):
        fc = square_complex()
        lap = dirac.persistent_laplacian(fc, 1, 0.55, 0.65)
        assert dirac.betti_from_laplacian(lap) == tp.persistent_betti(tp.reduce(fc), 1, 0.55, 0.65)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            pts = random_cloud(rng)
            fc = tp.vr_filtration(pts, max_dim=3)
            e1, e2 = sorted(rng.uniform(0.0, fc.eps_max, size=2))
            for k in (0, 1, 2):
                lap = dirac.persistent_laplacian(fc, k, e1, e2)
                assert dirac.betti_from_laplacian(lap) == tp.betti_oracle(fc, k, e1, e2)

    def test_not_psd_rejected(self):
        with pytest.raises(ValueError):
            dirac.betti_from_laplacian(np.diag([-1.0, 1.0]))

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (4,)], ids=["row", "column", "vector"])
    def test_non_square_rejected(self, shape):
        # a (1, 3) row's one disc would certify it; a count needs a square matrix
        with pytest.raises(ValueError, match="square"):
            dirac.betti_from_laplacian(np.full(shape, 5.0))


class TestQpeDistribution:
    def test_peak_value(self):
        # l * lam = p exactly: the removable singularity evaluates to 1
        assert tp.qpe_distribution([1.5], l=2, m_register=4, p=3) == pytest.approx(1.0, abs=1e-15)

    def test_integer_miss_is_zero(self):
        assert tp.qpe_distribution([1.0], l=1, m_register=2, p=0) == pytest.approx(0.0, abs=1e-12)

    def test_half_integer_case(self):
        # sin^2(pi/2) / (4 sin^2(pi/4)) = 1/2
        assert tp.qpe_distribution([0.5], l=1, m_register=2, p=0) == pytest.approx(0.5, abs=1e-12)

    def test_averages_over_eigenvalues(self):
        single = tp.qpe_distribution([0.5], l=1, m_register=2, p=0)
        mixed = tp.qpe_distribution([0.5, 0.0], l=1, m_register=2, p=0)
        # second eigenvalue sits exactly on the peak
        assert mixed == pytest.approx((single + 1.0) / 2.0, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tp.qpe_distribution([0.5], l=1, m_register=0, p=0)
        with pytest.raises(ValueError):
            tp.qpe_distribution([0.5], l=1, m_register=2, p=2)
        with pytest.raises(ValueError):
            tp.qpe_distribution([], l=1, m_register=2, p=0)


def test_spectrum_json_schema():
    import json

    payload = json.loads(tp.spectrum_to_json(1, 0.5, 0.7, 0.0, np.array([0.0, 1.5])))
    assert payload == {"k": 1, "eps": 0.5, "eps_prime": 0.7, "xi": 0.0, "eigenvalues": [0.0, 1.5]}
