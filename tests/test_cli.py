import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import topophase as tp
from topophase import cli, dirac
from topophase.cli import main

SQUARE_CSV = "lambda,x,y\n0,0,0\n1,1,0\n2,1,1\n3,0,1\n"


@pytest.fixture
def square_csv(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text(SQUARE_CSV)
    return str(path)


class TestScan:
    def test_clean_range_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "scan", "--model", "ssh", "--n", "4", "--lmin", "-0.9", "--lmax", "1",
            "--step", "0.1", "--window", "3", "--probe", "1:0.4:0.8",
            "--probe", "0:0.02:0.04", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["entries"]) == 20
        stdout = capsys.readouterr().out
        assert "transition" in stdout

    def test_max_dim_past_the_point_count_exits_0(self, tmp_path):
        # in a child process capped at 1 GB of address space and 60 s, so a
        # sweep that tried to build a billion empty dimensions would fail
        # there; two lambdas span no simplex past dimension 1, so the report
        # is the one at --max-dim 2
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
                  "from topophase.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        out = tmp_path / "r.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        argv = ["scan", "--lmin", "-0.9", "--lmax", "-0.8", "--step", "0.1", "--out"]
        proc = subprocess.run([sys.executable, "-c", script, *argv, str(out), "--max-dim", "1000000000"],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["config"]["max_dim"] == 10 ** 9
        assert main([*argv, str(tmp_path / "want.json"), "--max-dim", "2"]) == 0
        want = json.loads((tmp_path / "want.json").read_text())
        assert len(report["entries"]) == 2
        assert (report["entries"], report["transitions"]) == (want["entries"], want["transitions"])

    def test_halfwidth_past_the_grid_exits_0(self, tmp_path):
        # every halfwidth from n - 1 on gives each centre the whole cloud
        reports = []
        for halfwidth in (3, 10 ** 50):
            cfg = tmp_path / "scan.json"
            cfg.write_text(json.dumps({"lambda_min": -0.9, "lambda_max": -0.6, "step": 0.1,
                                       "window_halfwidth": halfwidth}))
            out = tmp_path / f"r{len(reports)}.json"
            assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[1]["config"]["window_halfwidth"] == 10 ** 50
        assert reports[1]["entries"] == reports[0]["entries"]
        assert reports[1]["transitions"] == reports[0]["transitions"]

    def test_invalid_range_exits_2(self, tmp_path, capsys):
        rc = main(["scan", "--lmin", "1", "--lmax", "-1", "--step", "0.1",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "lambda_min" in capsys.readouterr().err

    def test_single_lambda_ok(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["scan", "--lmin", "0.3", "--lmax", "0.3", "--step", "0.1", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["transitions"] == []
        assert "no transitions" in capsys.readouterr().out

    def test_degenerate_sweep_exits_3(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["scan", "--lmin", "-1", "--lmax", "1", "--step", "0.1", "--out", str(out)])
        assert rc == 3
        assert "lambda=-1" in capsys.readouterr().err
        assert not out.exists()  # no partial output on failure

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps({
            "lambda_min": -0.5, "lambda_max": 0.5, "step": 0.1,
            "intervals": [[1, 0.4, 0.8]], "window_halfwidth": 2,
        }))
        out = tmp_path / "r.json"
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["window_halfwidth"] == 2

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps({
            "lambda_min": -0.5, "lambda_max": 0.5, "step": 0.1,
            "intervals": [[1, 0.4, 0.8]], "window_halfwidth": 2,
        }))
        out = tmp_path / "r.json"
        rc = main(["scan", "--config", str(cfg), "--probe", "0:0.02:0.04", "--window", "1",
                   "--lmin", "0", "--out", str(out)])
        assert rc == 0
        config = json.loads(out.read_text())["config"]
        assert config["intervals"] == [[0, 0.02, 0.04]]
        assert config["window_halfwidth"] == 1
        assert config["lambda_min"] == 0.0
        assert config["lambda_max"] == 0.5

    def test_flag_only_config_holds_dataclass_defaults(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["scan", "--lmin", "-0.5", "--lmax", "0.5", "--step", "0.1", "--out", str(out)]) == 0
        expected = dataclasses.asdict(tp.ScanConfig(lambda_min=-0.5, lambda_max=0.5, step=0.1))
        assert json.loads(out.read_text())["config"] == json.loads(json.dumps(expected))

    @pytest.mark.parametrize("flags, named", [
        ([], "'lambda_min'"),
        (["--lmin=-inf"], "lambda_min must be finite"),
        (["--lmin", "-1", "--lmax", "inf"], "lambda_max must be finite"),
        (["--lmin", "-1", "--step", "nan"], "step must be finite"),
        (["--lmin", "-1", "--xi", "nan"], "xi must be finite"),
        (["--lmin", "-1", "--probe", "1:nan:0.8"], "intervals:"),
        (["--lmin", "-1", "--probe", "1:-0.1:0.8"], "intervals:"),
        (["--lmin", "-1", "--gap-tol", "nan"], "gap_tol must be"),
        (["--lmin", "-1", "--gap-tol", "-1"], "gap_tol must be"),
        (["--lmin", "-1", "--v", "nan"], "v must be finite"),
        (["--lmin", "-1", "--w", "inf"], "w must be finite"),
        (["--lmin", "-1", "--n", "200"], "dense 119600x200 stack of observables"),
        (["--lmin", "-1", "--probe", "2:0.4:0.8"], "0 <= k < max_dim (2), got (2, 0.4, 0.8)"),
        (["--lmin", "-1", "--max-dim", "0"], "0 <= k < max_dim (0), got (1, 0.4, 0.8)"),
        (["--lmin", "-1", "--probe", "1:0.4:0.8", "--probe", "1:0.40000001:0.8"],
         "intervals: probes (1, 0.4, 0.8) and (1, 0.40000001, 0.8) share the report key 'k1_0.4_0.8'"),
        (["--lmin", "-1", "--jobs", "1"], "unrecognized arguments: --jobs 1"),
    ], ids=["missing_lmin", "inf_lmin", "inf_lmax", "nan_step", "nan_xi", "nan_probe_scale",
            "negative_probe_scale", "nan_gap_tol", "negative_gap_tol", "nan_v", "inf_w", "n_200",
            "top_degree_probe", "max_dim_0", "probes_sharing_a_key", "jobs"])
    def test_bad_flag_exits_2(self, tmp_path, capsys, flags, named):
        out = tmp_path / "r.json"
        rc = main(["scan", "--lmax", "-0.8", "--step", "0.1", *flags, "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, named", [
        (["--lmin", "0", "--lmax", "1000000", "--step", "1e-9"], "lambda grid"),
        (["--lmin", "0", "--lmax", "1", "--step", "1e-320"], "no finite number of lambda steps"),
    ], ids=["too_many_lambdas", "infinite_step_count"])
    def test_huge_lambda_grid_exits_2(self, tmp_path, capsys, grid, named):
        out = tmp_path / "r.json"
        assert main(["scan", *grid, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_config_unknown_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps({"lambda_min": 0.0, "lambda_max": 1.0, "step": 0.1, "wndow": 2}))
        rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "wndow" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, named", [
        ([{"lambda_min": 0.0, "lambda_max": 1.0, "step": 0.1}], "JSON object"),
        ({"lambda_min": "a", "lambda_max": 1.0, "step": 0.1}, "'lambda_min'"),
        ({"lambda_min": 0.0, "lambda_max": 1.0, "step": 0.1, "intervals": 5}, "'intervals'"),
        ({"lambda_min": 0.0, "lambda_max": 1.0, "step": 0.1, "rank_tol": 1e-9}, "'rank_tol'"),
        ({"lambda_min": math.nan, "lambda_max": 1.0, "step": 0.1}, "lambda_min must be finite"),
        ({"lambda_min": 0.0, "lambda_max": math.inf, "step": 0.1}, "lambda_max must be finite"),
        ({"lambda_min": 0.0, "lambda_max": 1.0, "step": math.inf}, "step must be finite"),
        ({"lambda_min": 0.0, "lambda_max": 1.0, "step": 0.1, "xi": -math.inf}, "xi must be finite"),
        ({"lambda_min": -10 ** 400, "lambda_max": 1.0, "step": 0.1}, "lambda_min must be finite, got -inf"),
        ({"lambda_min": 0.0, "lambda_max": 1.0, "step": 0.1, "intervals": [[1, 0.4, math.nan]]}, "intervals:"),
        ({"lambda_min": 0.0, "lambda_max": 1.0, "step": 0.1, "intervals": [[0, -0.1, 0.2]]}, "intervals:"),
        ({"lambda_min": -1.0, "lambda_max": -0.8, "step": 0.1, "gap_tol": 0.0}, "gap_tol must be"),
        ({"lambda_min": 0.0, "lambda_max": 1.0, "step": 0.1, "intervals": [[1.5, 0.4, 0.8]]},
         "probe degree must be an integer 0 <= k < max_dim (2), got (1.5, 0.4, 0.8)"),
    ], ids=["list", "lambda_min", "intervals", "rank_tol", "nan_lambda_min", "inf_lambda_max", "inf_step",
            "inf_xi", "huge_integer_lambda_min", "nan_probe_scale", "negative_probe_scale", "zero_gap_tol",
            "fractional_probe_degree"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, payload, named):
        cfg = tmp_path / "scan.json"
        cfg.write_text(json.dumps(payload))
        rc = main(["scan", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unreadable_config(self, tmp_path, capsys):
        rc = main(["scan", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_unknown_flag_rejected(self, tmp_path):
        rc = main(["scan", "--lmin", "0", "--lmax", "1", "--step", "0.1",
                   "--out", str(tmp_path / "r.json"), "--frobnicate"])
        assert rc == 2

    def test_bad_probe_grammar(self, tmp_path):
        rc = main(["scan", "--lmin", "0", "--lmax", "1", "--step", "0.1",
                   "--probe", "1:0.4", "--out", str(tmp_path / "r.json")])
        assert rc == 2


class TestCloud:
    def test_export(self, tmp_path, capsys):
        out = tmp_path / "cloud.csv"
        rc = main(["cloud", "--model", "ssh", "--n", "4", "--lmin", "-0.5",
                   "--lmax", "0.5", "--step", "0.1", "--out", str(out)])
        assert rc == 0
        cloud = tp.cloud_from_csv(out)
        assert cloud.points.shape == (11, 10)
        assert "11 points" in capsys.readouterr().out

    def test_degenerate_exits_3(self, tmp_path):
        rc = main(["cloud", "--lmin", "-1", "--lmax", "0", "--step", "0.5",
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 3

    @pytest.mark.parametrize("flags, named", [
        (["--model", "ising"], "unknown model 'ising'"),
        (["--lmin", "a"], "--lmin"),
        (["--gap-tol", "nan"], "gap_tol must be"),
        (["--gap-tol", "-1"], "gap_tol must be"),
        (["--w", "inf"], "w must be finite"),
        (["--n", "200"], "dense 119600x200 stack of observables"),
    ], ids=["model", "lmin", "nan_gap_tol", "negative_gap_tol", "inf_w", "n_200"])
    def test_bad_flag_exits_2(self, tmp_path, capsys, flags, named):
        out = tmp_path / "c.csv"
        rc = main(["cloud", "--lmin", "-1", "--lmax", "-0.8", "--step", "0.1", *flags, "--out", str(out)])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestBarcode:
    def test_square_diagram(self, square_csv, tmp_path):
        out = tmp_path / "d.json"
        rc = main(["barcode", "--cloud", square_csv, "--max-dim", "2", "--out", str(out)])
        assert rc == 0
        diagram = tp.diagram_from_json(out.read_text())
        h1 = [(b, d) for k, b, d in diagram.bars if k == 1]
        assert len(h1) == 1
        assert h1[0][0] == pytest.approx(0.5, abs=1e-12)
        assert h1[0][1] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_svg_and_text(self, square_csv, tmp_path, capsys):
        out = tmp_path / "d.json"
        svg = tmp_path / "d.svg"
        rc = main(["barcode", "--cloud", square_csv, "--out", str(out), "--svg", str(svg), "--text"])
        assert rc == 0
        assert svg.read_text().startswith("<svg")
        assert "dim 1: [0.5" in capsys.readouterr().out

    def test_max_dim_0_exits_2(self, square_csv, tmp_path, capsys):
        # degree k reads the (k+1)-simplices: a 0-skeleton has no degree to report
        out = tmp_path / "d.json"
        rc = main(["barcode", "--cloud", square_csv, "--max-dim", "0", "--out", str(out)])
        assert rc == 2
        assert "reduce needs max_dim >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_max_dim_2_reports_h0_and_h1(self, square_csv, tmp_path):
        out = tmp_path / "d.json"
        assert main(["barcode", "--cloud", square_csv, "--max-dim", "2", "--out", str(out)]) == 0
        diagram = tp.diagram_from_json(out.read_text())
        assert set(diagram.dims.tolist()) == {0, 1} and diagram.max_dim == 2

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("")
        out = tmp_path / "d.json"
        rc = main(["barcode", "--cloud", str(src), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_malformed_row_names_row(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("lambda,x\n0,1\n1,2,3\n")
        rc = main(["barcode", "--cloud", str(src), "--out", str(tmp_path / "d.json")])
        assert rc == 2
        assert "row 3" in capsys.readouterr().err

    def test_single_row_infinite_bar(self, tmp_path):
        src = tmp_path / "one.csv"
        src.write_text("lambda,x,y\n0,0.5,0.5\n")
        out = tmp_path / "d.json"
        assert main(["barcode", "--cloud", str(src), "--out", str(out)]) == 0
        diagram = tp.diagram_from_json(out.read_text())
        assert diagram.bars == ((0, 0.0, math.inf),)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_exits_2(self, bad, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text(f"lambda,x,y\n0,0,0\n1,{bad},0\n2,1,1\n")
        out = tmp_path / "d.json"
        rc = main(["barcode", "--cloud", str(src), "--out", str(out)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps_max", ["-0.1", "nan"])
    def test_negative_or_nan_eps_max_exits_2(self, eps_max, square_csv, tmp_path, capsys):
        out = tmp_path / "d.json"
        rc = main(["barcode", "--cloud", square_csv, "--eps-max", eps_max, "--out", str(out)])
        assert rc == 2
        assert "eps_max must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_filtration_exits_2(self, tmp_path, capsys):
        pts = np.random.default_rng(0).random((2000, 2))
        src = tmp_path / "uniform.csv"
        src.write_text("lambda,x,y\n" + "".join(f"{i},{x:.17g},{y:.17g}\n" for i, (x, y) in enumerate(pts)))
        out = tmp_path / "d.json"
        rc = main(["barcode", "--cloud", str(src), "--max-dim", "2", "--out", str(out)])
        assert rc == 2
        assert "2-simplex candidates" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_bytes(self, square_csv, tmp_path):
        out1 = tmp_path / "d1.json"
        out2 = tmp_path / "d2.json"
        main(["barcode", "--cloud", square_csv, "--out", str(out1)])
        main(["barcode", "--cloud", square_csv, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_temp_files_left(self, square_csv, tmp_path):
        out = tmp_path / "d.json"
        main(["barcode", "--cloud", square_csv, "--out", str(out)])
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_get_the_mode_open_gives(self, square_csv, tmp_path, umask):
        out, svg = tmp_path / "d.json", tmp_path / "d.svg"
        old = os.umask(umask)
        try:
            main(["barcode", "--cloud", square_csv, "--out", str(out), "--svg", str(svg)])
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(old)
        want = 0o666 & ~umask
        assert [p.stat().st_mode & 0o777 for p in (out, svg, tmp_path / "plain")] == [want] * 3


class TestDirac:
    def test_square_kernel_dim(self, square_csv, tmp_path, capsys):
        out = tmp_path / "s.json"
        rc = main(["dirac", "--cloud", square_csv, "--k", "1", "--eps", "0.55",
                   "--eps2", "0.65", "--xi", "0", "--out", str(out)])
        assert rc == 0
        assert "kernel dimension: 1" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["k"] == 1 and payload["eps"] == 0.55 and payload["eps_prime"] == 0.65

    def test_bad_scale_order_exits_2(self, square_csv, tmp_path):
        rc = main(["dirac", "--cloud", square_csv, "--k", "1", "--eps", "0.7",
                   "--eps2", "0.6", "--out", str(tmp_path / "s.json")])
        assert rc == 2

    def test_nan_lambda_exits_2(self, tmp_path, capsys):
        src = tmp_path / "nan.csv"
        src.write_text(SQUARE_CSV.replace("\n0,", "\nnan,", 1))
        out = tmp_path / "s.json"
        rc = main(["dirac", "--cloud", str(src), "--k", "0", "--eps", "0.1",
                   "--eps2", "0.2", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "params must be finite" in captured.err
        assert "kernel dimension" not in captured.out
        assert not out.exists()

    def test_spectrum_matches_assembled_operator(self, square_csv, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["dirac", "--cloud", square_csv, "--k", "1", "--eps", "0.55",
                   "--eps2", "0.75", "--xi", "0.3", "--out", str(out)])
        assert rc == 0
        fc = tp.vr_filtration(tp.cloud_from_csv(square_csv), max_dim=2)
        dense = dirac.spectrum(dirac.dirac_operator(fc, 1, 0.55, 0.75, xi=0.3).matrix)
        got = json.loads(out.read_text())["eigenvalues"]
        assert len(got) == len(dense)
        assert np.allclose(got, dense, atol=1e-12)

    def test_component_count_at_large_scale(self, square_csv, tmp_path, capsys):
        rc = main(["dirac", "--cloud", square_csv, "--k", "0", "--eps", "2.0",
                   "--eps2", "2.0", "--out", str(tmp_path / "s.json")])
        assert rc == 0
        assert "kernel dimension: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("eps, eps2", [(-0.1, 0.5), (0.1, float("nan"))])
    def test_negative_or_nan_scale_exits_2(self, square_csv, tmp_path, capsys, eps, eps2):
        out = tmp_path / "s.json"
        rc = main(["dirac", "--cloud", square_csv, "--k", "1", "--eps", str(eps),
                   "--eps2", str(eps2), "--out", str(out)])
        assert rc == 2
        assert f"0 <= eps1 <= eps2, got ({eps}, {eps2})" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_filtration_matches_full(self, tmp_path, capsys):
        pts = np.random.default_rng(5).random((30, 2))
        src = tmp_path / "uniform.csv"
        src.write_text("lambda,x,y\n" + "".join(f"{i},{x:.17g},{y:.17g}\n" for i, (x, y) in enumerate(pts)))
        cloud = tp.cloud_from_csv(str(src))
        full = tp.vr_filtration(cloud, max_dim=2)
        for k, eps, eps2 in ((0, 0.05, 0.1), (1, 0.12, 0.2), (1, 0.2, 0.2)):
            out = tmp_path / f"s{k}.json"
            rc = main(["dirac", "--cloud", str(src), "--k", str(k), "--eps", str(eps),
                       "--eps2", str(eps2), "--xi", "0.3", "--out", str(out)])
            assert rc == 0
            eigenvalues, kernel = tp.dirac_spectrum(full, k, eps, eps2, xi=0.3)
            assert capsys.readouterr().out == f"kernel dimension: {kernel}\n"
            assert out.read_text() == tp.spectrum_to_json(k, eps, eps2, 0.3, eigenvalues)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_filtration_depth_follows_k(self, square_csv, tmp_path, monkeypatch, k):
        depths = []

        def recording(cloud, eps_max=None, max_dim=2):
            depths.append(max_dim)
            return tp.vr_filtration(cloud, eps_max=eps_max, max_dim=max_dim)

        monkeypatch.setattr(cli, "vr_filtration", recording)
        rc = main(["dirac", "--cloud", square_csv, "--k", str(k), "--eps", "0.55",
                   "--eps2", "0.75", "--out", str(tmp_path / "s.json")])
        assert rc == 0
        assert depths == [k + 1]

    @pytest.mark.parametrize("k", ["-1", "-2"])
    def test_negative_k_exits_2(self, square_csv, tmp_path, capsys, k):
        out = tmp_path / "s.json"
        rc = main(["dirac", "--cloud", square_csv, "--k", k, "--eps", "0.55", "--eps2", "0.75",
                   "--out", str(out)])
        assert rc == 2
        assert f"0 <= k < max_dim ({int(k) + 1}), got ({k}, 0.55, 0.75)" in capsys.readouterr().err
        assert not out.exists()

    def test_max_dim_flag_rejected(self, square_csv, tmp_path, capsys):
        rc = main(["dirac", "--cloud", square_csv, "--k", "1", "--eps", "0.55", "--eps2", "0.75",
                   "--max-dim", "3", "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "--max-dim" in capsys.readouterr().err

    def test_oversized_problem_exits_2(self, tmp_path, capsys):
        pts = np.random.default_rng(0).random((60, 2))
        src = tmp_path / "uniform.csv"
        rows = "".join(f"{i},{x:.17g},{y:.17g}\n" for i, (x, y) in enumerate(pts))
        src.write_text("lambda,x,y\n" + rows)
        out = tmp_path / "s.json"
        rc = main(["dirac", "--cloud", str(src), "--k", "2", "--eps", "0.3", "--eps2", "0.3",
                   "--out", str(out)])
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err
        assert not out.exists()


class TestBottleneck:
    def test_file_vs_itself(self, square_csv, tmp_path, capsys):
        out = tmp_path / "d.json"
        main(["barcode", "--cloud", square_csv, "--out", str(out)])
        rc = main(["bottleneck", str(out), str(out), "--dim", "1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_hand_case(self, tmp_path, capsys):
        d1 = tmp_path / "d1.json"
        d2 = tmp_path / "d2.json"
        from topophase.persistence import PersistenceDiagram

        d1.write_text(tp.diagram_to_json(PersistenceDiagram(dims=[0], births=[0.0], deaths=[1.0])))
        d2.write_text(tp.diagram_to_json(PersistenceDiagram()))
        rc = main(["bottleneck", str(d1), str(d2), "--dim", "0"])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.5, abs=1e-12)

    def test_mismatched_infinite_bars_prints_inf(self, tmp_path, capsys):
        from topophase.persistence import PersistenceDiagram

        d1 = tmp_path / "d1.json"
        d2 = tmp_path / "d2.json"
        d1.write_text(tp.diagram_to_json(PersistenceDiagram(dims=[0], births=[0.0], deaths=[math.inf])))
        d2.write_text(tp.diagram_to_json(PersistenceDiagram(
            dims=[0, 0], births=[0.0, 0.1], deaths=[math.inf, math.inf])))
        rc = main(["bottleneck", str(d1), str(d2), "--dim", "0"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_non_z2_field_exits_2(self, square_csv, tmp_path, capsys):
        out = tmp_path / "d.json"
        main(["barcode", "--cloud", square_csv, "--out", str(out)])
        relabelled = tmp_path / "real.json"
        relabelled.write_text(out.read_text().replace('"field": "Z2"', '"field": "real"'))
        capsys.readouterr()
        rc = main(["bottleneck", str(out), str(relabelled), "--dim", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "field must be 'Z2', got 'real'" in captured.err
        assert captured.out == ""

    def test_negative_dim_exits_2(self, square_csv, tmp_path, capsys):
        out = tmp_path / "d.json"
        main(["barcode", "--cloud", square_csv, "--out", str(out)])
        capsys.readouterr()
        rc = main(["bottleneck", str(out), str(out), "--dim", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "k must be >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("dim, named", [
        ("1.7", "bar dim must be an integer, got 1.7"),
        ("-1", "invalid bar [0.0, 1.0) in dim -1: a dim must be >= 0"),
    ], ids=["fractional", "negative"])
    def test_bad_bar_dim_exits_2(self, square_csv, tmp_path, capsys, dim, named):
        good = tmp_path / "d.json"
        main(["barcode", "--cloud", square_csv, "--out", str(good)])
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"field": "Z2", "bars": [{{"dim": {dim}, "birth": 0.0, "death": 1.0}}]}}')
        capsys.readouterr()
        rc = main(["bottleneck", str(good), str(bad), "--dim", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    def test_diagrams_above_dense_limit_exit_2(self, tmp_path, capsys, monkeypatch):
        from topophase import simplicial
        from topophase.persistence import PersistenceDiagram

        births = np.arange(400) / 400
        path = tmp_path / "d.json"
        path.write_text(tp.diagram_to_json(PersistenceDiagram(dims=[1] * 400, births=births,
                                                              deaths=births + 0.5)))
        monkeypatch.setattr(simplicial, "DENSE_LIMIT_BYTES", 2 ** 20)
        rc = main(["bottleneck", str(path), str(path), "--dim", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "exceeds the 1 MB limit" in captured.err
        assert captured.out == ""

    def test_roundtrip_distance_zero(self, square_csv, tmp_path, capsys):
        out = tmp_path / "d.json"
        main(["barcode", "--cloud", square_csv, "--out", str(out)])
        reparsed = tmp_path / "d2.json"
        reparsed.write_text(tp.diagram_to_json(tp.diagram_from_json(out.read_text())))
        rc = main(["bottleneck", str(out), str(reparsed), "--dim", "1"])
        assert rc == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_nan_birth_exits_2(self, square_csv, tmp_path, capsys):
        good = tmp_path / "d.json"
        main(["barcode", "--cloud", square_csv, "--out", str(good)])
        payload = json.loads(good.read_text())
        payload["bars"][0]["birth"] = math.nan
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(payload))
        assert '"birth": NaN' in bad.read_text()
        capsys.readouterr()
        rc = main(["bottleneck", str(bad), str(good), "--dim", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "invalid bar" in captured.err
        assert captured.out == ""

    def test_malformed_diagram_files_exit_2(self, square_csv, tmp_path, capsys):
        good = tmp_path / "d.json"
        main(["barcode", "--cloud", square_csv, "--out", str(good)])
        payload = json.loads(good.read_text())
        null_birth = json.loads(good.read_text())
        null_birth["bars"][0]["birth"] = None
        no_birth = json.loads(good.read_text())
        del no_birth["bars"][0]["birth"]
        for name, bad in (("null.json", null_birth), ("nokey.json", no_birth),
                          ("list.json", payload["bars"])):
            path = tmp_path / name
            path.write_text(json.dumps(bad))
            capsys.readouterr()
            rc = main(["bottleneck", str(path), str(good), "--dim", "0"])
            assert rc == 2, name
            captured = capsys.readouterr()
            assert "malformed diagram" in captured.err, name
            assert captured.out == "", name


BIG = str(10 ** 400)  # an integer past the float range


class TestNumericArguments:
    """A number float() cannot take, or a bool for a degree, exits 2 with the wording of its site."""

    @pytest.mark.parametrize("text, argv, named", [
        ('{"lambda_min": 0, "lambda_max": 0.2, "step": 0.1, "intervals": [[1, 0.4, BIG]]}',
         ["scan", "--config", "FILE", "--out", "OUT"], "probe scales must satisfy 0 <= eps1 <= eps2"),
        ('{"lambda_min": 0, "lambda_max": 0.2, "step": 0.1, "intervals": [[BIG, 0.4, 0.8]]}',
         ["scan", "--config", "FILE", "--out", "OUT"], "probe degree must be an integer"),
        (None, ["dirac", "--cloud", "CSV", "--k", "BIG", "--eps", "0.5", "--eps2", "0.6", "--out", "OUT"],
         "probe degree must be an integer"),
        (None, ["barcode", "--cloud", "CSV", "--max-dim", "BIG", "--out", "OUT"], "max_dim must be an integer >= 0"),
        (None, ["bottleneck", "GOOD", "GOOD", "--dim", "BIG"], "k must be >= 0 and an integer"),
        ('{"bars": [{"dim": BIG, "birth": 0.0, "death": 1.0}]}', ["bottleneck", "FILE", "GOOD", "--dim", "1"],
         "malformed diagram"),
        ('{"bars": [{"dim": 0, "birth": BIG, "death": null}]}', ["bottleneck", "FILE", "GOOD", "--dim", "0"],
         "malformed diagram"),
        ('{"bars": [], "metadata": {"max_dim": 1e400}}', ["bottleneck", "FILE", "GOOD", "--dim", "0"],
         "malformed diagram"),
        ('{"bars": [], "metadata": {"n_points": 1e400}}', ["bottleneck", "FILE", "GOOD", "--dim", "0"],
         "malformed diagram"),
        ('{"bars": [{"dim": true, "birth": 0.0, "death": 1.0}]}', ["bottleneck", "FILE", "GOOD", "--dim", "1"],
         "bar dim must be an integer, got True"),
        ('{"bars": [{"dim": 0, "birth": "0.5", "death": 1.0}]}', ["bottleneck", "FILE", "GOOD", "--dim", "0"],
         "bar birth must be a number, got '0.5'"),
        ('{"bars": [{"dim": 0, "birth": 0.5, "death": true}]}', ["bottleneck", "FILE", "GOOD", "--dim", "0"],
         "bar death must be a number, got True"),
        ('{"bars": [], "metadata": {"max_dim": 1.5}}', ["bottleneck", "FILE", "GOOD", "--dim", "0"],
         "max_dim must be an integer, got 1.5"),
        ('{"bars": [], "metadata": {"n_points": 2.7}}', ["bottleneck", "FILE", "GOOD", "--dim", "0"],
         "n_points must be an integer, got 2.7"),
        ('{"bars": [], "metadata": {"dropped_zero_bars": {"0": 1.9}}}', ["bottleneck", "FILE", "GOOD", "--dim", "0"],
         "dropped zero-bar count must be an integer, got 1.9"),
    ], ids=["scan_probe_scale", "scan_probe_degree", "dirac_k", "barcode_max_dim", "bottleneck_dim",
            "bar_dim", "bar_birth", "max_dim_metadata", "n_points_metadata", "bool_bar_dim",
            "string_bar_birth", "bool_bar_death", "fractional_max_dim_metadata", "fractional_n_points_metadata",
            "fractional_dropped_count"])
    def test_exits_2(self, square_csv, tmp_path, capsys, text, argv, named):
        good = tmp_path / "good.json"
        assert main(["barcode", "--cloud", square_csv, "--out", str(good)]) == 0
        given = tmp_path / "given.json"
        if text is not None:
            given.write_text(text.replace("BIG", BIG))
        out = tmp_path / "out.json"
        names = {"BIG": BIG, "CSV": square_csv, "FILE": str(given), "GOOD": str(good), "OUT": str(out)}
        capsys.readouterr()
        rc = main([names.get(arg, arg) for arg in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert named in captured.err
        assert captured.out == ""
        assert not out.exists()
