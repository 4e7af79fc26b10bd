import tracemalloc

import numpy as np
import pytest

import topophase as tp
from topophase import simplicial, statecloud
from helpers import (
    ssh4_cloud_chord,
    ssh4_expectations_closed_form,
    ssh4_ground_closed_form,
    vdot_cloud,
)


def ssh4(lam):
    return tp.build_ssh_hamiltonian(lam, 1.0, 1.0, 4)


class TestHamiltonian:
    def test_offdiagonals_at_half(self):
        h = tp.build_ssh_hamiltonian(0.5, 1.0, 1.0, 4)
        assert np.allclose(np.diag(h, 1), [0.5, 1.5, 0.5])
        assert np.allclose(h, h.T)
        assert np.allclose(np.diag(h), 0.0)

    def test_offdiagonals_uniform(self):
        h = tp.build_ssh_hamiltonian(0.0, 1.0, 1.0, 4)
        assert np.allclose(np.diag(h, 1), [1.0, 1.0, 1.0])

    def test_two_sites(self):
        h = tp.build_ssh_hamiltonian(0.0, 1.0, 1.0, 2)
        assert h.shape == (2, 2)
        assert h[0, 1] == 1.0

    def test_too_few_sites(self):
        with pytest.raises(tp.InvalidModelError):
            tp.build_ssh_hamiltonian(0.0, 1.0, 1.0, 1)

    def test_hermitian(self):
        for lam in (-0.7, 0.0, 0.3, 1.0):
            assert tp.is_hermitian(tp.build_ssh_hamiltonian(lam, 1.0, 2.0, 6))


class TestGroundState:
    def test_uniform_chain_closed_form(self):
        # path-graph eigenpairs: E_k = 2 cos(k pi / 5), v_j proportional to sin(4 pi j / 5)
        state = tp.ground_state(ssh4(0.0))
        assert state.energy == pytest.approx(2.0 * np.cos(4.0 * np.pi / 5.0), abs=1e-12)
        raw = np.array([np.sin(4.0 * np.pi * j / 5.0) for j in range(1, 5)])
        expected = raw / np.linalg.norm(raw)
        assert np.allclose(state.amplitudes.real, expected, atol=1e-12)
        assert np.allclose(state.amplitudes.imag, 0.0, atol=1e-15)

    def test_two_site_chain(self):
        state = tp.ground_state(tp.build_ssh_hamiltonian(0.0, 1.0, 1.0, 2))
        assert state.energy == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(state.amplitudes.real, [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)], atol=1e-12)

    @pytest.mark.parametrize("lam", [-0.5, 0.5])
    def test_staggered_chain_closed_form(self, lam):
        energy, vec = ssh4_ground_closed_form(lam)
        state = tp.ground_state(ssh4(lam))
        assert state.energy == pytest.approx(energy, abs=1e-12)
        assert np.allclose(state.amplitudes.real, vec, atol=1e-12)

    def test_gauge_first_component_positive(self):
        state = tp.ground_state(ssh4(-0.3))
        first = next(c for c in state.amplitudes if abs(c) > 1e-10)
        assert first.real > 0 and abs(first.imag) < 1e-15

    def test_degenerate_chain_rejected(self):
        # lambda = -1 splits the chain into two exact dimers
        with pytest.raises(tp.DegenerateGroundStateError):
            tp.ground_state(ssh4(-1.0))

    def test_gap_tolerance_configurable(self):
        h = np.diag([0.0, 1e-6, 1.0])
        tp.ground_state(h, gap_tol=1e-9)
        with pytest.raises(tp.DegenerateGroundStateError):
            tp.ground_state(h, gap_tol=1e-3)

    @pytest.mark.parametrize("gap_tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_gap_tol_must_be_finite_and_positive(self, gap_tol):
        # at lambda = -1 the ground space is 2-dimensional; no gap_tol may let it through
        with pytest.raises(ValueError, match="gap_tol must be finite and > 0") as info:
            tp.ground_state(ssh4(-1.0), gap_tol=gap_tol)
        assert not isinstance(info.value, tp.DegenerateGroundStateError)

    def test_deterministic(self):
        a = tp.ground_state(ssh4(0.2))
        b = tp.ground_state(ssh4(0.2))
        assert a.energy == b.energy
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            tp.ground_state(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestObservables:
    def test_four_site_set(self):
        obs = tp.ssh_observables(4)
        assert len(obs) == 10
        assert obs.labels == ("n1", "n2", "n3", "n4", "re1_2", "im1_2", "re2_3", "im2_3", "re3_4", "im3_4")
        for m in obs.matrices:
            assert tp.is_hermitian(m)

    def test_two_site_count(self):
        obs = tp.ssh_observables(2)
        assert len(obs) == 4

    def test_general_count(self):
        assert len(tp.ssh_observables(6)) == 6 + 2 * 5

    def test_invalid_size(self):
        with pytest.raises(tp.InvalidModelError):
            tp.ssh_observables(1)

    def test_oversized_set_refused_before_building(self):
        # 3n - 2 complex n x n matrices: 178 sites need 257 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense 94696x178 stack of observables"):
                tp.ssh_observables(178)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_set_peaks_at_its_stack(self):
        # 238 complex 80 x 80 matrices are 23.2 MB; copying them into the set would double that
        stack = (3 * 80 - 2) * 80 * 80 * 16
        tracemalloc.start()
        try:
            obs = tp.ssh_observables(80)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * stack
        assert all(not m.flags.writeable for m in obs.matrices)

    def test_copies_every_input(self):
        m = np.eye(2)
        owned = np.eye(2)
        owned.flags.writeable = False
        obs = tp.ObservableSet((m, owned), ("a", "b"))
        assert obs.matrices[0] is not m and obs.matrices[1] is not owned
        m[0, 0] = 5.0
        owned.flags.writeable = True
        owned[0, 0] = 5.0
        assert obs.matrices[0][0, 0] == obs.matrices[1][0, 0] == 1.0

    @pytest.mark.parametrize("as_generator", [False, True])
    def test_empty_set_refused(self, as_generator):
        matrices = (m for m in ()) if as_generator else ()
        with pytest.raises(ValueError, match="observable set is empty"):
            tp.ObservableSet(matrices, ())

    @pytest.mark.parametrize("as_generator", [False, True])
    @pytest.mark.parametrize("n_matrices, labels", [(2, ("a", "b", "c")), (3, ("a", "b")), (1, ())])
    def test_length_mismatch_refused(self, as_generator, n_matrices, labels):
        matrices = tuple(np.eye(2) for _ in range(n_matrices))
        if as_generator:
            matrices = (m for m in matrices)
        with pytest.raises(ValueError, match="labels and matrices differ in length"):
            tp.ObservableSet(matrices, labels)

    @pytest.mark.parametrize("bad, shape", [(np.ones((2, 3)), r"\(2, 3\)"), (np.eye(3), r"\(3, 3\)"),
                                            (np.ones(2), r"\(2,\)")])
    def test_wrong_shape_named(self, bad, shape):
        with pytest.raises(ValueError, match=rf"observable 'b' has shape {shape}, expected \(2, 2\)"):
            tp.ObservableSet((np.eye(2), bad, np.eye(2)), ("a", "b", "c"))

    def test_non_hermitian_named(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="observable 'b' is not Hermitian"):
            tp.ObservableSet((np.eye(2), skew, np.eye(2)), ("a", "b", "c"))

    def test_stack_input_copied(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0]), np.ones((3, 3))])
        obs = tp.ObservableSet(stack, ("a", "b", "c"))
        assert obs.matrices.shape == (3, 3, 3) and obs.matrices.dtype == complex
        assert np.array_equal(obs.matrices, stack) and not np.shares_memory(obs.matrices, stack)
        assert not obs.matrices.flags.writeable
        assert (len(obs), obs.dim) == (3, 3)

    def test_generator_peaks_at_its_stack(self):
        # 120 complex 80 x 80 matrices are 12.3 MB; a set that listed its inputs first would hold twice that
        n, m = 80, 120
        stack = m * n * n * 16
        tracemalloc.start()
        try:
            obs = tp.ObservableSet((np.eye(n, dtype=complex) * i for i in range(m)), range(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * stack
        assert all(np.array_equal(o, np.eye(n) * i) for i, o in enumerate(obs.matrices))

    def test_oversized_stack_refused_before_allocating(self):
        # 1000 labels of 200 x 200 complex matrices need 610 MB; the first matrix fixes n
        read = []

        def matrices():
            for i in range(1000):
                read.append(i)
                yield np.eye(200)

        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense 200000x200 stack of observables"):
                tp.ObservableSet(matrices(), [str(i) for i in range(1000)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == [0] and peak < 2 ** 20

    def test_conjugated_is_each_matrix_conjugated(self):
        obs = tp.ssh_observables(6)
        u = tp.haar_unitary(6, 3)
        conj = obs.conjugated(u)
        assert conj.labels == obs.labels and not conj.matrices.flags.writeable
        for o, c in zip(obs.matrices, conj.matrices):
            assert np.max(np.abs(c - u @ o @ u.conj().T)) <= 1e-12

    def test_largest_set_within_budget(self, monkeypatch):
        class Checked(Exception):
            pass

        def check_then_stop(*args, **kwargs):
            simplicial._check_dense(*args, **kwargs)
            raise Checked  # the budget passed; stop before building 253 MB

        monkeypatch.setattr(statecloud, "_check_dense", check_then_stop)
        with pytest.raises(Checked):
            tp.ssh_observables(177)


class TestExpectation:
    def test_density_on_own_basis_vector(self):
        state = tp.QuantumState(np.array([1.0, 0.0, 0.0, 0.0]), energy=0.0)
        density1 = tp.ssh_observables(4).matrices[0]
        assert tp.expectation(state, density1) == pytest.approx(1.0, abs=1e-15)

    def test_identity_gives_one(self):
        state = tp.ground_state(ssh4(0.4))
        assert tp.expectation(state, np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_staggered_chain_density(self):
        state = tp.ground_state(ssh4(-0.5))
        value = tp.expectation(state, tp.ssh_observables(4).matrices[0])
        assert value == pytest.approx(ssh4_expectations_closed_form(-0.5)[0], abs=1e-12)

    def test_shape_mismatch(self):
        state = tp.QuantumState(np.array([1.0, 0.0]), energy=0.0)
        with pytest.raises(ValueError):
            tp.expectation(state, np.eye(3))

    @pytest.mark.parametrize("amplitudes", [[np.nan, 0.0], [np.nan, np.nan], [0.6, 0.7]],
                             ids=["nan", "all_nan", "unnormalized"])
    def test_state_without_unit_norm_refused(self, amplitudes):
        # a NaN norm compares false with any tolerance, so it must fail "<=", not pass ">"
        with pytest.raises(ValueError, match="state not normalized"):
            tp.QuantumState(np.array(amplitudes), energy=0.0)


class TestPhiMap:
    def test_identity_only(self):
        state = tp.QuantumState(np.array([0.6, 0.8]), energy=0.0)
        obs = tp.ObservableSet((np.eye(2),), ("id",))
        assert np.allclose(tp.phi_map(state, obs), [1.0], atol=1e-14)

    def test_imaginary_correlations_vanish(self):
        # real Hamiltonian -> real ground state -> im parts identically zero
        obs = tp.ssh_observables(4)
        point = tp.phi_map(tp.ground_state(ssh4(0.5)), obs)
        for label, value in zip(obs.labels, point):
            if label.startswith("im"):
                assert abs(value) < 1e-12

    def test_matches_closed_form(self):
        obs = tp.ssh_observables(4)
        for lam in (-0.5, -0.1, 0.3, 0.5):
            point = tp.phi_map(tp.ground_state(ssh4(lam)), obs)
            assert np.allclose(point, ssh4_expectations_closed_form(lam), atol=1e-12)

    def test_reflection_symmetric_densities(self):
        obs = tp.ssh_observables(4)
        for lam in np.linspace(-0.9, 0.9, 19):
            point = tp.phi_map(tp.ground_state(ssh4(lam)), obs)
            assert abs(point[0] - point[3]) < 1e-10
            assert abs(point[1] - point[2]) < 1e-10

    def test_unitary_conjugation_invariance(self):
        obs = tp.ssh_observables(4)
        state = tp.ground_state(ssh4(0.3))
        base = tp.phi_map(state, obs)
        for seed in range(5):
            u = tp.haar_unitary(4, seed)
            rotated = tp.QuantumState(u @ state.amplitudes, state.energy)
            conj = tp.phi_map(rotated, obs.conjugated(u))
            assert np.allclose(conj, base, atol=1e-10)


class TestBuildCloud:
    def test_sweep_cloud_shape(self):
        model = tp.SSHChain(4, 1.0, 1.0)
        obs = tp.ssh_observables(4)
        lams = np.round(np.linspace(-0.95, 1.05, 21), 12)
        cloud = tp.build_cloud(lams, model, obs)
        assert cloud.points.shape == (21, 10)
        assert np.array_equal(cloud.params, lams)

    def test_single_lambda(self):
        cloud = tp.build_cloud([0.2], tp.SSHChain(4), tp.ssh_observables(4))
        assert cloud.n_points == 1

    def test_two_point_chord(self):
        # the expectation cloud lies on a circle of radius 1/sqrt(2); the
        # chord formula is an independent check on the pairwise distance
        cloud = tp.build_cloud([-0.5, 0.5], tp.SSHChain(4), tp.ssh_observables(4))
        dist = np.linalg.norm(cloud.points[0] - cloud.points[1])
        assert dist == pytest.approx(ssh4_cloud_chord(-0.5, 0.5), abs=1e-12)
        assert dist == pytest.approx(0.5621909, abs=1e-6)

    def test_degenerate_lambda_named(self):
        with pytest.raises(tp.DegenerateGroundStateError) as err:
            tp.build_cloud(np.linspace(-1.0, 1.0, 21), tp.SSHChain(4), tp.ssh_observables(4))
        assert err.value.lam == pytest.approx(-1.0)
        assert "lambda=-1" in str(err.value)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            tp.build_cloud([0.2, 0.1], tp.SSHChain(4), tp.ssh_observables(4))
        with pytest.raises(ValueError):
            tp.build_cloud([], tp.SSHChain(4), tp.ssh_observables(4))

    @pytest.mark.parametrize("n_sites", [2, 4, 20])
    def test_matches_per_observable_vdot(self, n_sites):
        # the 96-lambda grid of the window-sweep benchmark
        lams = tp.ScanConfig(lambda_min=-0.95, lambda_max=0.95, step=0.02).lambdas()
        model, obs = tp.SSHChain(n_sites), tp.ssh_observables(n_sites)
        cloud = tp.build_cloud(lams, model, obs)
        assert np.array_equal(cloud.points, vdot_cloud(lams, model, obs.matrices))
        u = tp.haar_unitary(n_sites, 11)
        rotated = tp.build_cloud(lams, model, obs.conjugated(u), unitary=u)
        assert np.max(np.abs(rotated.points - vdot_cloud(lams, model, obs.matrices, unitary=u))) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.zeros((3, 2))
        pts[1, 0] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            tp.StateCloud(pts, np.arange(3.0), ("x", "y"))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_param_rejected(self, position):
        # NaN compares false, so the increasing-order check alone lets it pass
        params = np.arange(3.0)
        params[position] = np.nan
        with pytest.raises(ValueError, match="params must be finite"):
            tp.StateCloud(np.zeros((3, 2)), params, ("x", "y"))


class TestDistances:
    def test_expectation_shift_bounded_by_trace_norm(self):
        # |<O>_psi - <O>_phi| <= ||O||_op * Tr|rho - sigma|; for pure states the
        # trace NORM is 2 * sqrt(1 - |<psi|phi>|^2), and the factor 2 is sharp
        rng = np.random.default_rng(23)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = m + m.conj().T
            m = m / np.abs(np.linalg.eigvalsh(m)).max()
            sa = tp.QuantumState(a, 0.0)
            sb = tp.QuantumState(b, 0.0)
            gap = abs(tp.expectation(sa, m) - tp.expectation(sb, m))
            dist = np.sqrt(1.0 - abs(np.vdot(a, b)) ** 2)
            assert gap <= 2.0 * dist + 1e-9


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        cloud = tp.build_cloud(np.linspace(-0.5, 0.5, 11), tp.SSHChain(4), tp.ssh_observables(4))
        path = tmp_path / "cloud.csv"
        tp.cloud_to_csv(cloud, path)
        back = tp.cloud_from_csv(path)
        assert back.labels == cloud.labels
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.params, cloud.params)

    def test_header_format(self, tmp_path):
        cloud = tp.build_cloud([0.0, 0.1], tp.SSHChain(2), tp.ssh_observables(2))
        path = tmp_path / "c.csv"
        tp.cloud_to_csv(cloud, path)
        header = path.read_text().splitlines()[0]
        assert header == "lambda,n1,n2,re1_2,im1_2"

    def test_malformed_row_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lambda,x\n0,1\n1\n")
        with pytest.raises(ValueError, match="row 3"):
            tp.cloud_from_csv(path)

    def test_non_numeric_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lambda,x\n0,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            tp.cloud_from_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            tp.cloud_from_csv(path)
