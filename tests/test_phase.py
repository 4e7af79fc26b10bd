import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import topophase as tp
from helpers import below_max_dim, homology_reduce
from topophase import dirac, simplicial
from topophase.phase import GLOBAL, PhaseScanReport, _detect, probe_key

CLEAN = dict(lambda_min=-0.9, lambda_max=1.0, step=0.1)
PROBES = ((1, 0.4, 0.8), (0, 0.02, 0.04))


def clean_config(**overrides):
    params = dict(CLEAN, intervals=PROBES)
    params.update(overrides)
    return tp.ScanConfig(**params)


class TestScanConfig:
    def test_lambda_grid_count(self):
        cfg = tp.ScanConfig(lambda_min=-1.0, lambda_max=1.0, step=0.1)
        lams = cfg.lambdas()
        assert len(lams) == 21
        assert lams[0] == -1.0 and lams[-1] == 1.0
        assert lams[10] == 0.0

    def test_single_lambda_grid(self):
        cfg = tp.ScanConfig(lambda_min=0.3, lambda_max=0.3, step=0.1)
        assert list(cfg.lambdas()) == [0.3]

    def test_validation(self):
        with pytest.raises(ValueError):
            tp.ScanConfig(lambda_min=1.0, lambda_max=-1.0, step=0.1)
        with pytest.raises(ValueError):
            tp.ScanConfig(lambda_min=0.0, lambda_max=1.0, step=0.0)
        with pytest.raises(ValueError):
            tp.ScanConfig(lambda_min=0.0, lambda_max=1.0, step=0.1, intervals=((1, 0.8, 0.4),))
        with pytest.raises(ValueError):
            tp.ScanConfig(lambda_min=0.0, lambda_max=1.0, step=0.1, model="ising")
        with pytest.raises(ValueError):
            tp.ScanConfig(lambda_min=0.0, lambda_max=1.0, step=0.1, cloud_mode="sliding")

    @pytest.mark.parametrize("field, value", [
        ("lambda_min", -math.inf),
        ("lambda_max", math.inf),
        ("step", math.nan),
        ("xi", math.inf),
        ("intervals", ((1, math.nan, 0.8),)),
        ("intervals", ((0, -0.2, 0.1),)),
        ("v", math.nan),
        ("w", -math.inf),
        ("gap_tol", math.inf),
    ], ids=["lambda_min", "lambda_max", "step", "xi", "nan_probe_scale", "negative_probe_scale",
            "v", "w", "gap_tol"])
    def test_non_finite_or_negative_input_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            tp.ScanConfig(**dict(CLEAN, **{field: value}))

    @pytest.mark.parametrize("max_dim, intervals, named", [
        (2, ((2, 0.4, 0.8),), r"0 <= k < max_dim \(2\), got \(2, 0.4, 0.8\)"),
        (2, ((1, 0.4, 0.8), (3, 0.1, 0.2)), r"0 <= k < max_dim \(2\), got \(3, 0.1, 0.2\)"),
        (2, ((-1, 0.4, 0.8),), r"0 <= k < max_dim \(2\), got \(-1, 0.4, 0.8\)"),
        (0, ((0, 0.02, 0.04),), r"0 <= k < max_dim \(0\), got \(0, 0.02, 0.04\)"),
        (2, ((1.5, 0.4, 0.8),), r"0 <= k < max_dim \(2\), got \(1.5, 0.4, 0.8\)"),
        (2, ((math.inf, 0.4, 0.8),), r"0 <= k < max_dim \(2\), got \(inf, 0.4, 0.8\)"),
    ], ids=["top_degree", "above_top", "negative", "max_dim_0", "fractional", "infinite"])
    def test_probe_degree_refused(self, max_dim, intervals, named):
        # degree k reads the (k+1)-simplices, so a probe needs an integer 0 <= k < max_dim
        with pytest.raises(ValueError, match="intervals: probe degree must be an integer " + named):
            tp.ScanConfig(**dict(CLEAN, max_dim=max_dim, intervals=intervals))

    @pytest.mark.parametrize("field, value, wanted", [
        ("window_halfwidth", 2.5, "an integer"),
        ("max_dim", 2.0, "an integer"),
        ("n_sites", 4.0, "an integer"),
        ("window_halfwidth", True, "an integer"),
        ("jobs", np.True_, "an integer"),
        ("keep_diagrams", "yes", "true or false"),
        ("keep_spectra", 1, "true or false"),
        ("lambda_min", True, "a number"),
        ("step", "0.1", "a number"),
        ("model", 3, "a string"),
        ("intervals", 5, "a list"),
    ], ids=["fractional_halfwidth", "float_max_dim", "float_n_sites", "bool_halfwidth", "numpy_bool_jobs",
            "str_keep_diagrams", "int_keep_spectra", "bool_lambda_min", "str_step", "int_model", "int_intervals"])
    def test_field_of_wrong_type_named(self, field, value, wanted):
        # the rule config_from_dict applies to JSON holds for Python configs too
        with pytest.raises(ValueError, match=f"config field '{field}' must be {wanted}, got "):
            tp.ScanConfig(**dict(CLEAN, **{field: value}))

    @pytest.mark.parametrize("intervals", [((1, "0.4", 0.8),), ((1, 0.4, True),), ((1, 0.4),), (5,)],
                             ids=["str_scale", "bool_scale", "two_entries", "not_a_triple"])
    def test_probe_of_wrong_type_named(self, intervals):
        with pytest.raises(ValueError, match=r"config field 'intervals' must be a list of \[k, eps1, eps2\]"):
            clean_config(intervals=intervals)

    def test_numpy_integral_fields_stored_as_int(self):
        cfg = clean_config(n_sites=np.int64(4), window_halfwidth=np.int32(3), max_dim=np.uint8(2), jobs=np.int16(1))
        for name in ("n_sites", "window_halfwidth", "max_dim", "jobs"):
            assert type(getattr(cfg, name)) is int, name
        assert cfg == clean_config()
        assert tp.report_to_json(tp.sweep(clean_config(n_sites=np.int64(4), lambda_max=-0.7))) == \
            tp.report_to_json(tp.sweep(clean_config(lambda_max=-0.7)))

    def test_numpy_float_fields_stored_as_float(self):
        # json writes only Python floats, so a numpy float must be stored as one
        cfg = clean_config(lambda_min=np.float32(-0.9), lambda_max=np.float64(-0.7), v=1, xi=np.float32(0.0),
                           gap_tol=np.float64(1e-9))
        for name in ("lambda_min", "lambda_max", "step", "v", "w", "xi", "gap_tol"):
            assert type(getattr(cfg, name)) is float, name
        assert '"v": 1.0' in tp.report_to_json(tp.sweep(cfg))

    def test_probes_sharing_a_report_key_refused(self):
        # probe_key formats scales with :g, so distinct probes can print alike
        intervals = ((1, 0.4, 0.8), (1, 0.40000001, 0.8), (0, 0.02, 0.04))
        named = r"intervals: probes \(1, 0.4, 0.8\) and \(1, 0.40000001, 0.8\) share the report key 'k1_0.4_0.8'"
        with pytest.raises(ValueError, match=named):
            clean_config(intervals=intervals)

    def test_integral_probe_degree_kept_as_int(self):
        assert clean_config(intervals=((1.0, 0.4, 0.8),)).intervals == ((1, 0.4, 0.8),)

    def test_probe_keys(self):
        cfg = clean_config()
        assert cfg.probe_keys() == ["k1_0.4_0.8", "k0_0.02_0.04"]


class TestSweep:
    @pytest.mark.parametrize("mode", [GLOBAL, "window"])
    def test_max_dim_past_the_point_count_answers_promptly(self, mode):
        # five lambdas give complexes on at most five points, which store no
        # dimension past 5, so max_dim 10 ** 9 sweeps as max_dim 5; in a child
        # process capped at 1 GB and 60 s, so a sweep that held every
        # dimension up to max_dim fails there
        params = dict(lambda_min=-0.9, lambda_max=-0.5, step=0.1, intervals=PROBES, cloud_mode=mode)
        script = ("import json, resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
                  "import topophase as tp\n"
                  "report = tp.sweep(tp.ScanConfig(**json.loads(sys.argv[1]), max_dim=10 ** 9))\n"
                  "print(json.dumps([report.config.max_dim, report.betti, report.kernel_dims]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(params)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        want = tp.sweep(tp.ScanConfig(**params, max_dim=5))
        assert len(want.lambdas) == 5
        assert json.loads(proc.stdout) == [10 ** 9, list(want.betti), list(want.kernel_dims)]

    def test_halfwidth_past_the_grid_is_the_whole_cloud(self):
        # from n - 1 on every window is the whole cloud, so any larger halfwidth sweeps as n - 1
        n = len(clean_config(lambda_max=0.2).lambdas())
        want = tp.sweep(clean_config(lambda_max=0.2, window_halfwidth=n - 1, keep_diagrams=True))
        got = tp.sweep(clean_config(lambda_max=0.2, window_halfwidth=10 ** 50, keep_diagrams=True))
        assert got.config.window_halfwidth == 10 ** 50
        assert (got.betti, got.kernel_dims, got.transitions) == (want.betti, want.kernel_dims, want.transitions)
        assert [tp.diagram_to_json(d) for d in got.diagrams] == [tp.diagram_to_json(d) for d in want.diagrams]

    def test_entry_count_and_alignment(self):
        report = tp.sweep(clean_config())
        assert len(report.lambdas) == 20
        assert len(report.betti) == 20
        assert len(report.kernel_dims) == 20

    def test_kept_spectra_match_assembled_operator(self):
        cfg = clean_config(lambda_min=-0.3, lambda_max=0.3, xi=0.3, keep_spectra=True)
        report = tp.sweep(cfg)
        assert report.kernel_dims == tp.sweep(dataclasses.replace(cfg, keep_spectra=False)).kernel_dims
        cloud = tp.build_cloud(cfg.lambdas(), tp.SSHChain(4), tp.ssh_observables(4))
        fc = tp.vr_filtration(cloud.points[0:4], max_dim=cfg.max_dim)  # window of the first lambda
        for k, e1, e2 in cfg.intervals:
            dense = dirac.spectrum(dirac.dirac_operator(fc, k, e1, e2, xi=0.3).matrix)
            got = report.spectra[0][probe_key(k, e1, e2)]
            assert len(got) == len(dense)
            assert np.allclose(got, dense, atol=1e-10)

    def test_degenerate_lambda_fails_with_name(self):
        cfg = tp.ScanConfig(lambda_min=-1.0, lambda_max=1.0, step=0.1)
        with pytest.raises(tp.DegenerateGroundStateError, match="lambda=-1"):
            tp.sweep(cfg)

    def test_constant_model_no_transitions(self):
        # w = 0 makes the chain independent of lambda: all cloud points coincide
        cfg = clean_config(w=0.0)
        report = tp.sweep(cfg)
        for entry in report.betti:
            assert entry["k1_0.4_0.8"] == 0
            assert entry["k0_0.02_0.04"] == 1
        assert report.transitions == ()
        assert tp.continuity_check(report, exclude=None)

    def test_single_lambda_sweep(self):
        cfg = tp.ScanConfig(lambda_min=0.3, lambda_max=0.3, step=0.1)
        report = tp.sweep(cfg)
        assert len(report.betti) == 1
        assert report.transitions == ()

    def test_window_truncated_at_edges(self):
        cfg = clean_config(window_halfwidth=2)
        report = tp.sweep(cfg)
        # endpoint windows are smaller but still produce entries
        assert len(report.betti) == len(report.lambdas)

    def test_detectors_agree(self):
        report = tp.sweep(clean_config())
        assert report.betti == report.kernel_dims

    def test_loop_probe_silent_on_arc_cloud(self):
        # the expectation cloud is an arc spanning < half a circle, so no
        # window ever carries a 1-cycle; the density probe does vary
        report = tp.sweep(clean_config())
        assert all(entry["k1_0.4_0.8"] == 0 for entry in report.betti)
        k0 = [entry["k0_0.02_0.04"] for entry in report.betti]
        assert len(set(k0)) > 1

    def test_transitions_match_definition(self):
        report = tp.sweep(clean_config())
        keys = report.config.probe_keys()
        expected = []
        for i in range(len(report.betti) - 1):
            if any(report.betti[i][key] != report.betti[i + 1][key] for key in keys):
                expected.append((report.lambdas[i], report.lambdas[i + 1]))
        assert [(left, right) for left, right, _ in report.transitions] == expected

    def test_deterministic(self):
        a = tp.sweep(clean_config())
        b = tp.sweep(clean_config())
        assert a.betti == b.betti
        assert a.transitions == b.transitions
        assert tp.report_to_json(a) == tp.report_to_json(b)

    def test_parallel_matches_serial(self):
        serial = tp.sweep(clean_config(jobs=1))
        parallel = tp.sweep(clean_config(jobs=4))
        assert serial.betti == parallel.betti
        assert serial.kernel_dims == parallel.kernel_dims
        assert serial.transitions == parallel.transitions

    def test_long_window_sweep_holds_one_block(self, monkeypatch):
        # with the dense limit cut to the pairwise differences of 2 * (2h + 1)
        # points, a sweep whose complexes spanned more points at once is refused
        halfwidth, n_obs = 3, 10
        span = 2 * (2 * halfwidth + 1)
        monkeypatch.setattr(simplicial, "DENSE_LIMIT_BYTES", span * span * n_obs * 8)
        cfg = clean_config(lambda_min=-0.9, lambda_max=-0.9 + 399 * 0.0045, step=0.0045,
                           window_halfwidth=halfwidth)
        report = tp.sweep(cfg)
        assert len(report.betti) == 400
        assert report.kernel_dims == report.betti
        with pytest.raises(ValueError, match="exceeds"):
            tp.vr_filtration(np.zeros((span + 1, n_obs)))

    def test_window_sweep_diagrams_match_homology_reduction(self):
        # a window_sweep-shaped sweep: each kept diagram, cut from a union of
        # windows, equals the boundary-matrix reduction of its own window
        halfwidth = 8
        cfg = clean_config(lambda_min=-0.95, lambda_max=-0.95 + 95 * 0.02, step=0.02,
                           window_halfwidth=halfwidth, max_dim=2, keep_diagrams=True)
        lambdas = cfg.lambdas()
        assert len(lambdas) == 96
        report = tp.sweep(cfg)
        cloud = tp.build_cloud(lambdas, tp.SSHChain(4), tp.ssh_observables(4))
        for i, got in enumerate(report.diagrams):
            window = cloud.points[max(0, i - halfwidth):i + halfwidth + 1]
            want = below_max_dim(homology_reduce(tp.vr_filtration(window, max_dim=2)))
            assert tp.diagram_to_json(got) == tp.diagram_to_json(want), i

    @pytest.mark.parametrize("max_dim", [1, 2, 3])
    def test_global_kept_diagram_is_the_cloud_reduction(self, max_dim):
        cfg = clean_config(cloud_mode=GLOBAL, keep_diagrams=True, max_dim=max_dim,
                           intervals=((0, 0.02, 0.04),))
        (got,) = tp.sweep(cfg).diagrams
        cloud = tp.build_cloud(cfg.lambdas(), tp.SSHChain(4), tp.ssh_observables(4))
        want = tp.reduce(tp.vr_filtration(cloud.points, max_dim=max_dim))
        for name in ("dims", "births", "deaths"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.dropped_zero_bars == want.dropped_zero_bars
        assert (got.max_dim, got.n_points) == (want.max_dim, want.n_points)

    def test_global_mode_single_entry(self):
        report = tp.sweep(clean_config(cloud_mode=GLOBAL))
        assert len(report.betti) == 1
        assert report.transitions == ()
        assert report.entry_lambdas() == (None,)


class TestDetectors:
    @staticmethod
    def synthetic_report(betti_values, kernel_values=None):
        cfg = tp.ScanConfig(lambda_min=0.0, lambda_max=0.4, step=0.1, intervals=((1, 0.4, 0.8),))
        key = probe_key(1, 0.4, 0.8)
        betti = tuple({key: v} for v in betti_values)
        kernels = tuple({key: v} for v in (kernel_values or betti_values))
        lams = tuple(float(x) for x in cfg.lambdas())
        return PhaseScanReport(config=cfg, lambdas=lams, betti=betti,
                               kernel_dims=kernels, transitions=())

    @staticmethod
    def detect(report, values):
        return _detect(report.lambdas, values, report.config.probe_keys())

    def test_single_step_change(self):
        report = self.synthetic_report([1, 1, 1, 2, 2])
        assert self.detect(report, report.betti) == ((0.2, 0.3, ("k1_0.4_0.8",)),)

    def test_all_equal(self):
        report = self.synthetic_report([1, 1, 1, 1, 1])
        assert self.detect(report, report.betti) == ()
        assert self.detect(report, report.kernel_dims) == ()

    def test_spectral_agrees(self):
        report = self.synthetic_report([0, 1, 1, 0, 0])
        assert self.detect(report, report.kernel_dims) == self.detect(report, report.betti)

    @staticmethod
    def recorded(monkeypatch, name, off_by_one):
        """Wrap ``dirac.<name>``: record each call's arguments after the first, and add ``off_by_one(result)``."""
        real = getattr(dirac, name)
        calls = []

        def wrapped(*args):
            calls.append(args[1:])
            result = real(*args)
            return result + off_by_one(result)

        monkeypatch.setattr(dirac, name, wrapped)
        return calls

    def test_injected_mismatch_refused(self, monkeypatch):
        # the third window's first probe gets a kernel one above its bars; the first union's seven windows
        # are all counted, and no window of the second union is
        kernels = self.recorded(monkeypatch, "persistent_kernel_dim", lambda _: len(kernels) == 3)
        with pytest.raises(tp.ConsistencyError, match=r"lambda=-0\.3, probe k1_0\.4_0\.8: persistent Betti 0 "
                                                      r"vs Laplacian kernel 1"):
            tp.sweep(clean_config(lambda_min=-0.5, lambda_max=0.5))
        assert kernels == [PROBES[0]] * 7

    def test_mismatch_stops_the_sweep(self, monkeypatch):
        # every first-probe kernel is one above its bars: the first window is named, and the second
        # union's kernels are never counted
        kernels = self.recorded(monkeypatch, "persistent_kernel_dim", lambda _: 1)
        components = self.recorded(monkeypatch, "_component_counts", lambda _: 0)
        with pytest.raises(tp.ConsistencyError, match=r"lambda=-0\.5, probe k1_0\.4_0\.8: persistent Betti 0 "
                                                      r"vs Laplacian kernel 1"):
            tp.sweep(clean_config(lambda_min=-0.5, lambda_max=0.5))
        assert kernels == [PROBES[0]] * 7
        assert components == [PROBES[1][1:]]

    def test_injected_component_mismatch_refused(self, monkeypatch):
        # the k = 0 count of the second union's second window (lambda 0.3) is one above its bars
        components = self.recorded(monkeypatch, "_component_counts",
                                   lambda counts: (len(components) == 2) * (np.arange(len(counts)) == 1))
        with pytest.raises(tp.ConsistencyError, match=r"lambda=0\.3, probe k0_0\.02_0\.04: persistent Betti 3 "
                                                      r"vs Laplacian kernel 4"):
            tp.sweep(clean_config(lambda_min=-0.5, lambda_max=0.5))
        assert components == [PROBES[1][1:]] * 2


class TestContinuity:
    def test_constant_sides(self):
        report = TestDetectors.synthetic_report([1, 1, 2, 2, 2])
        assert tp.continuity_check(report, exclude=(0.15, 0.25))
        assert not tp.continuity_check(report, exclude=None)

    def test_mid_phase_change_detected(self):
        report = TestDetectors.synthetic_report([1, 2, 2, 2, 3])
        assert not tp.continuity_check(report, exclude=(0.15, 0.25))

    def test_ssh_sweep_sides_constant(self):
        report = tp.sweep(clean_config(intervals=((1, 0.4, 0.8),)))
        assert tp.continuity_check(report, exclude=(-0.15, 0.15))


class TestUnitaryInvariance:
    def test_identity_unitary(self):
        cfg = clean_config(lambda_min=-0.5, lambda_max=0.5)
        plain = tp.sweep(cfg)
        conj = tp.sweep(cfg, unitary=np.eye(4))
        assert plain.betti == conj.betti
        assert plain.transitions == conj.transitions

    def test_diagonal_phase_unitary(self):
        cfg = clean_config(lambda_min=-0.5, lambda_max=0.5)
        plain = tp.sweep(cfg)
        phases = np.exp(1j * np.array([0.3, -1.2, 2.5, 0.9]))
        conj = tp.sweep(cfg, unitary=np.diag(phases))
        assert plain.betti == conj.betti

    def test_seeded_haar_unitaries(self):
        cfg = clean_config(lambda_min=-0.5, lambda_max=0.5, keep_diagrams=True)
        plain = tp.sweep(cfg)
        for seed in range(3):
            conj = tp.unitary_conjugate_scan(cfg, seed=seed)
            assert conj.betti == plain.betti
            assert conj.kernel_dims == plain.kernel_dims
            for d1, d2 in zip(plain.diagrams, conj.diagrams):
                for k in range(cfg.max_dim + 1):
                    assert tp.bottleneck(d1, d2, k) < 1e-10


class TestReportJson:
    def test_schema(self):
        report = tp.sweep(clean_config())
        payload = json.loads(tp.report_to_json(report))
        assert set(payload) == {"config", "entries", "transitions"}
        entry = payload["entries"][0]
        assert set(entry) == {"lambda", "betti", "kernel_dims"}
        assert entry["lambda"] == report.lambdas[0]
        assert "k1_0.4_0.8" in entry["betti"]
        for t in payload["transitions"]:
            assert set(t) == {"left", "right", "probes"}

    def test_roundtrip(self):
        report = tp.sweep(clean_config(jobs=3, keep_spectra=True, xi=0.25, gap_tol=1e-8))
        back = tp.report_from_json(tp.report_to_json(report))
        assert back.config == report.config
        assert back.betti == report.betti
        assert back.kernel_dims == report.kernel_dims
        assert back.transitions == report.transitions
        assert back.lambdas == report.lambdas
        assert dataclasses.asdict(back.config)["intervals"] == list(PROBES) or \
            back.config.intervals == report.config.intervals

    def test_global_mode_roundtrip(self):
        report = tp.sweep(clean_config(cloud_mode=GLOBAL))
        payload = json.loads(tp.report_to_json(report))
        assert payload["entries"][0]["lambda"] is None
        back = tp.report_from_json(tp.report_to_json(report))
        assert back.betti == report.betti
        assert back.entry_lambdas() == (None,)

    def test_every_config_field_accepted(self):
        cfg = clean_config(jobs=2, keep_spectra=True)
        payload = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        assert tp.phase.config_from_dict(payload) == cfg

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field 'windows'"):
            tp.phase.config_from_dict({"lambda_min": 0.0, "lambda_max": 1.0, "step": 0.1, "windows": 3})

    def test_missing_config_field_rejected(self):
        with pytest.raises(ValueError, match="missing config field 'step'"):
            tp.phase.config_from_dict({"lambda_min": 0.0, "lambda_max": 1.0})
