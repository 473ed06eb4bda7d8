import importlib
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sdpi
from sdpi import cli, verify
from sdpi.cli import _parse_grid, main
from sdpi.core_prob import GridDensity, csv_text
from sdpi.errors import ProfileFailureError
from sdpi.fi_curves import fi_bsc


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def grid_csv(g: GridDensity) -> str:
    return csv_text("x,value", g.grid, g.values)


class TestFiCurveCommand:
    def test_bsc_closed_form(self, capsys):
        code, out, err = run(["fi-curve", "--channel", "bsc:0.1",
                              "--t-grid", "0:0.6:0.2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# meta: version=")
        assert lines[1] == "t,fi"
        assert len(lines) == 2 + 4
        t, fi = lines[3].split(",")
        assert float(fi) == pytest.approx(fi_bsc(float(t), 0.1), abs=1e-12)

    def test_identity_channel(self, capsys):
        code, out, _ = run(["fi-curve", "--channel", "identity:3",
                            "--t-grid", "0:2:1"], capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[2:]]
        assert float(rows[2][1]) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, _ = run(["fi-curve", "--channel", "bsc:0.2",
                              "--t-grid", "0:0.7:0.01", "--out", str(f)], capsys)
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_plain_float_cells(self, capsys):
        _, out, _ = run(["fi-curve", "--channel", "bsc:0.1",
                         "--t-grid", "0:0.2:0.1"], capsys)
        for ln in out.strip().splitlines()[2:]:
            for cell in ln.split(","):
                float(cell)
                assert "(" not in cell


class TestBoundsCommand:
    def test_diag(self, capsys):
        code, out, _ = run(["bounds", "diag", "--gamma", "1.0",
                            "--t-grid", "0.2:0.6:0.2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "t,gd"
        assert all(float(ln.split(",")[1]) >= 0.0 for ln in lines[2:])

    def test_horiz_reports_constants_and_nan(self, capsys):
        code, out, _ = run(["bounds", "horiz", "--gamma", "1.0",
                            "--eps-grid", "1e-6:3e-6:1e-6"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert "c1=" in lines[0] and "kappa=" in lines[0] and "log_eps0=" in lines[0]
        assert lines[1] == "eps,t_lower"
        # gamma=1 gaps this large sit outside the certified range
        assert all(ln.endswith(",nan") for ln in lines[2:])

    def test_general_diag(self, capsys):
        code, out, _ = run(["bounds", "general-diag", "--noise", "laplace:1.0",
                            "--t-grid", "0.2:0.4:0.2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert "eta_tv" in lines[0]
        assert float(lines[2].split(",")[1]) > 0.0

    def test_general_diag_grid_noise_default_t_grid(self, capsys):
        # the golden runs 0.1:0.5:0.1; the default grid reaches t = 1
        noise = Path(__file__).parent / "golden" / "noise.csv"
        code, out, err = run(["bounds", "general-diag", "--noise", f"grid:{noise}"], capsys)
        assert code == 0, err
        assert len(out.strip().splitlines()) == 12

    def test_general_diag_non_contracting(self, capsys):
        # no contracting amplitude: every bound is 0, and that is not an error
        code, out, _ = run(["bounds", "general-diag", "--noise", "uniform:0,1e-7"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "t,gd"
        assert len(lines) > 2 and all(ln.endswith(",0.0") for ln in lines[2:])


class TestContractionCommand:
    def test_theta(self, capsys):
        code, out, _ = run(["contraction", "--noise", "gaussian",
                            "--what", "theta", "--t-grid", "0:2:1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "delta,theta"
        assert float(lines[2].split(",")[1]) == 0.0

    def test_eta(self, capsys):
        code, out, _ = run(["contraction", "--noise", "uniform:0,1",
                            "--what", "eta", "--t-grid", "0:1:0.5"], capsys)
        lines = out.strip().splitlines()
        assert lines[1] == "A,eta_tv"
        assert float(lines[-1].split(",")[1]) == 1.0


class TestDeconvCommand:
    def test_json_report(self, tmp_path, capsys):
        p = tmp_path / "p.csv"
        p.write_text("atom,weight\n-1.0,0.5\n1.0,0.5\n")
        q = tmp_path / "q.csv"
        g = GridDensity.from_function(
            lambda x: np.exp(-0.5 * x * x), -8.0, 8.0, 0.01)
        q.write_text(grid_csv(g))
        code, out, _ = run(["deconv", "--noise", "gaussian",
                            "--p", str(p), "--q", str(q)], capsys)
        assert code == 0
        rep = json.loads(out)
        for key in ("d_tv_conv", "d_ks", "ks_from_tv_bound",
                    "ks_deconv_solve", "esseen_bound"):
            assert key in rep
        assert rep["ks_from_tv_bound"] >= rep["d_ks"]
        assert rep["esseen_bound"] >= rep["d_ks"]

    def test_step_with_grid_q_is_usage_error(self, capsys):
        # a grid Q sets the noise grid step, so --step would change nothing
        golden = Path(__file__).parent / "golden"
        code, out, err = run(["deconv", "--noise", "gaussian", "--p", str(golden / "P.csv"),
                              "--q", str(golden / "Q.csv"), "--step", "0.005"], capsys)
        assert code == 2
        assert out == ""
        assert "--step" in err

    def test_grid_q_sets_noise_step(self, tmp_path, capsys):
        # a Q on a 0.005 grid is read with the noise on the same grid
        golden = Path(__file__).parent / "golden"
        q = tmp_path / "q.csv"
        q.write_text(grid_csv(GridDensity.from_function(
            lambda x: np.exp(-0.5 * x * x), -6.0, 6.0, 0.005)))
        code, out, err = run(["deconv", "--p", str(golden / "P.csv"), "--q", str(q)], capsys)
        assert code == 0, err
        assert 0.0 < json.loads(out)["d_tv_conv"] < 1.0

    def test_grid_p_sets_noise_step(self, tmp_path, capsys):
        # a P on a 0.005 grid with a discrete Q is read with the noise on P's grid
        p = tmp_path / "p.csv"
        p.write_text(grid_csv(GridDensity.from_function(
            lambda x: np.exp(-0.5 * x * x), -6.0, 6.0, 0.005)))
        q = tmp_path / "q.csv"
        q.write_text("atom,weight\n-1.0,0.5\n1.0,0.5\n")
        code, out, err = run(["deconv", "--p", str(p), "--q", str(q)], capsys)
        assert code == 0, err
        assert 0.0 < json.loads(out)["d_tv_conv"] < 1.0
        code, out, err = run(["deconv", "--p", str(p), "--q", str(q), "--step", "0.005"],
                             capsys)
        assert code == 2
        assert out == ""
        assert "--step" in err

    def test_step_with_discrete_q(self, tmp_path, capsys):
        p = tmp_path / "p.csv"
        p.write_text("atom,weight\n-1.0,0.5\n1.0,0.5\n")
        q = tmp_path / "q.csv"
        q.write_text("atom,weight\n-0.5,0.5\n1.5,0.5\n")
        outs = {}
        for step in (None, "0.01", "0.02"):
            argv = ["deconv", "--p", str(p), "--q", str(q)] + (["--step", step] if step else [])
            code, outs[step], err = run(argv, capsys)
            assert code == 0, err
        assert outs[None] == outs["0.01"] != outs["0.02"]

    @pytest.mark.parametrize("step", ["0", "-0.01", "nan", "inf"])
    def test_bad_step_is_usage_error(self, step, capsys):
        golden = Path(__file__).parent / "golden"
        code, out, err = run(["deconv", "--p", str(golden / "P.csv"), "--q", str(golden / "P.csv"),
                              f"--step={step}"], capsys)
        assert code == 2
        assert out == ""
        assert "--step" in err

    def test_step_too_fine_for_the_noise_is_domain_error(self, monkeypatch, capsys):
        # 1e-9 would put 1.8e10 cells on the Gaussian's [-9, 9]; no lattice is built
        def no_lattice(*args, **kwargs):
            raise AssertionError("noise lattice built")

        monkeypatch.setattr(cli.NoiseModel, "to_grid", no_lattice)
        golden = Path(__file__).parent / "golden"
        code, out, err = run(["deconv", "--p", str(golden / "P.csv"), "--q", str(golden / "P.csv"),
                              "--step", "1e-9"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_comment_before_pmf_header(self, tmp_path, capsys):
        golden = Path(__file__).parent / "golden"
        p = tmp_path / "p.csv"
        p.write_text("# two atoms\n" + (golden / "P.csv").read_text())
        code, out, err = run(["deconv", "--p", str(p), "--q", str(golden / "Q.csv")], capsys)
        assert code == 0, err
        assert out == run(["deconv", "--p", str(golden / "P.csv"),
                           "--q", str(golden / "Q.csv")], capsys)[1]

    def test_grid_noise_without_cf_floor_reported(self, tmp_path, capsys):
        # a triangle's CF has no positive floor; the step matches Q's 0.01
        golden = Path(__file__).parent / "golden"
        noise = tmp_path / "tri.csv"
        noise.write_text(grid_csv(GridDensity.from_function(
            lambda x: np.maximum(1.0 - np.abs(x), 0.0), -1.0, 1.0, 0.01)))
        code, out, err = run(["deconv", "--noise", f"grid:{noise}", "--p", str(golden / "P.csv"),
                              "--q", str(golden / "Q.csv")], capsys)
        assert code == 0, err
        rep = json.loads(out)
        assert "ks_from_tv_bound" not in rep
        assert "no positive CF floor" in rep["ks_from_tv_bound_error"]

    def test_grid_noise_on_grid_q(self, capsys):
        # grid noise is resampled at Q's 0.01 step, not used on its own 0.05 grid
        golden = Path(__file__).parent / "golden"
        code, out, err = run(["deconv", "--noise", f"grid:{golden / 'noise.csv'}",
                              "--p", str(golden / "P.csv"), "--q", str(golden / "Q.csv")],
                             capsys)
        assert code == 0
        assert err == ""
        assert 0.0 < json.loads(out)["d_tv_conv"] < 1.0

    def test_step_resamples_grid_noise(self, tmp_path, capsys):
        golden = Path(__file__).parent / "golden"
        q = tmp_path / "q.csv"
        q.write_text("atom,weight\n0.0,0.5\n1.0,0.5\n")
        d_tv = []
        for step in ("0.05", "0.01"):
            code, out, err = run(["deconv", "--noise", f"grid:{golden / 'noise.csv'}",
                                  "--p", str(golden / "P.csv"), "--q", str(q),
                                  "--step", step], capsys)
            assert code == 0, err
            d_tv.append(json.loads(out)["d_tv_conv"])
        assert abs(d_tv[0] - d_tv[1]) > 1e-3


class TestCheckCommand:
    def test_uniform_not_strict(self, tmp_path, capsys):
        f = tmp_path / "unif.csv"
        from sdpi.channels import NoiseModel
        f.write_text(grid_csv(NoiseModel.uniform(0.0, 1.0).to_grid(step=0.005)))
        code, out, _ = run(["check", "strict", "--density", str(f),
                            "--shift-grid=-2:2:0.05"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "NOT-STRICT"
        assert rep["witness"] == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_strict(self, tmp_path, capsys):
        f = tmp_path / "gauss.csv"
        from sdpi.channels import NoiseModel
        f.write_text(grid_csv(NoiseModel.gaussian().to_grid(step=0.01)))
        code, out, _ = run(["check", "strict", "--density", str(f),
                            "--shift-grid=-5:5:0.25"], capsys)
        rep = json.loads(out)
        assert rep["verdict"] == "STRICT"
        assert rep["witness"] is None


class TestConfigAndErrors:
    def test_config_file_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 4.0\n")
        code, out, _ = run(["bounds", "diag", "--t-grid", "0.2:0.4:0.2",
                            "--config", str(cfg)], capsys)
        assert code == 0
        assert "gamma=4.0" in out.splitlines()[0]

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 4.0\n")
        code, out, _ = run(["bounds", "diag", "--gamma", "2.0",
                            "--t-grid", "0.2:0.4:0.2", "--config", str(cfg)], capsys)
        assert "gamma=2.0" in out.splitlines()[0]

    def test_config_keys_of_other_commands_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        # func and command_parser are attributes build_parser sets, not options
        cfg.write_text("gamma = 4.0\nseed = 3\neps-grid = 1:2:1\nchannel = bsc:0.2\n"
                       "func = 1\ncommand_parser = x\n")
        argv = ["bounds", "diag", "--t-grid", "0.2:0.4:0.2"]
        code, out, err = run(argv + ["--config", str(cfg)], capsys)
        assert code == 0, err
        assert out == run(argv + ["--gamma", "4.0"], capsys)[1]

    @pytest.mark.parametrize("argv", [
        ["bounds", "diag", "--noise", "laplace:1.0"],
        ["bounds", "horiz", "--t-grid", "0:1:0.1"],
        ["bounds", "general-diag", "--eps-grid", "1e-6:1e-5:1e-6"],
        ["fi-curve", "--channel", "bsc:0.1", "--t-grid", "0:1:0.5", "--seed", "1"],
    ])
    def test_option_the_command_does_not_read_is_usage_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_config_value_takes_option_type(self, tmp_path, capsys, monkeypatch):
        # the suite seeds numpy with the value; a stand-in keeps this fast
        def run_suite(name, seed):
            rng = np.random.default_rng(seed)
            return {"suite": name, "violations": 0, "value": float(rng.uniform())}

        monkeypatch.setattr(verify, "run_suite", run_suite)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 3\n")
        argv = ["verify", "--suite", "bsc"]
        code, via_config, err = run(argv + ["--config", str(cfg)], capsys)
        assert code == 0, err
        assert via_config == run(argv + ["--seed", "3"], capsys)[1]
        assert via_config != run(argv + ["--seed", "4"], capsys)[1]
        # a flag on the command line still wins over the config
        assert run(argv + ["--seed", "4", "--config", str(cfg)], capsys)[1] \
            == run(argv + ["--seed", "4"], capsys)[1]

    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = abc\n")
        code, out, err = run(["bounds", "diag", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "--gamma" in err

    def test_input_files_closed(self, capsys):
        golden = Path(__file__).parent / "golden"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", "strict", "--density", str(golden / "noise.csv")]) == 0
            assert main(["deconv", "--p", str(golden / "P.csv"),
                         "--q", str(golden / "Q.csv")]) == 0
        capsys.readouterr()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_domain_error_exit_one(self, capsys):
        code, out, err = run(["fi-curve", "--channel", "bsc:2",
                              "--t-grid", "0:1:0.5"], capsys)
        assert code == 1
        rep = json.loads(err)
        assert rep["error"] == "DomainError"

    def test_empty_channel_rejected(self, capsys):
        code, out, err = run(["fi-curve", "--channel", "identity:0",
                              "--t-grid", "0:1:0.5"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("channel", ["identity:-1", "erasure:0.3:-2"])
    def test_negative_alphabet_size_is_domain_error(self, channel, capsys):
        code, out, err = run(["fi-curve", "--channel", channel, "--t-grid", "0:1:0.5"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ["fi-curve", "--channel", "erasure:0.3:x", "--t-grid", "0:1:0.5"],
        ["fi-curve", "--channel", "bsc:", "--t-grid", "0:1:0.5"],
        ["contraction", "--noise", "uniform:1"],
        ["contraction", "--noise", "laplace:abc"],
        ["fi-curve", "--channel", "csv:", "--t-grid", "0:1:0.5"],
        ["contraction", "--noise", "grid:"],
    ])
    def test_malformed_spec_is_domain_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        rep = json.loads(err)
        assert rep["error"] == "DomainError" and argv[2] in rep["message"]

    def test_ragged_kernel_csv_is_shape_error(self, tmp_path, capsys):
        f = tmp_path / "K.csv"
        f.write_text("0.9,0.1\n0.2\n")
        code, out, err = run(["fi-curve", "--channel", f"csv:{f}", "--t-grid", "0:0.6:0.1"],
                             capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "ShapeError"

    @pytest.mark.parametrize("channel", ["csv", "bsc:0.1", "identity:3", "erasure:0.3"])
    def test_negative_t_grid_is_domain_error(self, channel, tmp_path, capsys):
        # the envelope solver and every closed form reject t < 0
        f = tmp_path / "K.csv"
        f.write_text("0.9,0.1\n0.2,0.8\n")
        spec = f"csv:{f}" if channel == "csv" else channel
        code, out, err = run(["fi-curve", "--channel", spec, "--t-grid=-0.2:0.2:0.1"], capsys)
        assert code == 1
        assert out == ""
        rep = json.loads(err)
        assert rep["error"] == "DomainError" and "nonnegative" in rep["message"]

    def test_empty_distribution_file_is_shape_error(self, tmp_path, capsys):
        empty = tmp_path / "P.csv"
        empty.write_text("")
        q = Path(__file__).parent / "golden" / "Q.csv"
        code, out, err = run(["deconv", "--p", str(empty), "--q", str(q)], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "ShapeError"

    def test_one_node_density_is_shape_error(self, tmp_path, capsys):
        f = tmp_path / "one.csv"
        f.write_text("x,value\n0.0,1.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["check", "strict", "--density", str(f)], capsys)
        assert code == 1
        assert out == ""
        rep = json.loads(err)
        assert rep["error"] == "ShapeError" and "two nodes" in rep["message"]
        assert not caught

    def test_usage_error_exit_two(self, capsys):
        code, _, _ = run(["bogus"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["bounds", "diag", "--gamma", "nan"],
        ["bounds", "general-diag", "--noise", "laplace:nan"],
    ])
    def test_nan_parameter_rejected(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_bad_grid_spec(self, capsys):
        code, _, err = run(["fi-curve", "--channel", "bsc:0.1",
                            "--t-grid", "nope"], capsys)
        assert code == 1

    @pytest.mark.parametrize("grid", [
        "1:0:0.1", "0:1:-0.1", "0:1:0", "0.1:inf:0.1", "nan:1:0.1", "0:1:1e-7",
    ])
    def test_degenerate_grid_rejected(self, grid, capsys):
        code, out, err = run(["bounds", "diag", "--t-grid", grid], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("grid, points", [
        ("0:1:0.6", [0.0, 0.6]),
        ("0:1:0.3", [0.0, 0.3, 0.6, 0.8999999999999999]),
        ("0:1:1", [0.0, 1.0]),
        ("0.5:0.5:0.1", [0.5]),
    ])
    def test_grid_stops_at_hi(self, grid, points):
        assert _parse_grid(grid).tolist() == points

    @pytest.mark.parametrize("grid, count", [
        # quotients that round just below a whole number keep their last point
        ("0.1:1:0.05", 19), ("0:0.6:0.1", 7), ("0:0.6:0.2", 4), ("0.2:0.6:0.2", 3),
        ("0:1.2:0.05", 25), ("0:0.6:0.01", 61), ("1e-6:1e-5:1e-6", 10), ("-5:5:0.25", 41),
    ])
    def test_grid_point_count(self, grid, count):
        assert len(_parse_grid(grid)) == count


class TestVerifyCommand:
    def test_bsc_suite(self, capsys):
        code, out, _ = run(["verify", "--suite", "bsc", "--seed", "0"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["violations"] == 0
        assert rep["seed"] == 0

    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_is_usage_error(self, seed, capsys):
        code, out, err = run(["verify", "--suite", "bsc", "--seed", seed], capsys)
        assert code == 2
        assert out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("seed, delta", [(0, 0.3), (1, 0.2), (11, 0.1)])
    def test_bsc_suite_meets_its_gate_at_each_crossover(self, seed, delta):
        # the three seeds draw every crossover, so the suite's 9 cases all run
        rep = verify.run_suite("bsc", seed)
        assert (rep["delta"], rep["violations"]) == (delta, 0)

    @pytest.mark.parametrize("suite", ["diag", "horiz", "deconv"])
    def test_suite_has_no_violations(self, suite):
        assert verify.run_suite(suite, 0)["violations"] == 0

    def test_sampler_suites_report_their_checks(self):
        # every coupling has I(W;X) > 0, so the diag suite runs all 500 checks; at
        # seed 0 no coupling comes within 1e-3 of capacity, so horiz runs none
        assert verify.run_suite("diag", 0)["checks"] == 500
        assert verify.run_suite("horiz", 0)["checks"] == 0

    def test_deconv_suite_checks_the_printed_report(self, monkeypatch):
        # the suite runs `sdpi deconv`'s own report, so a bound broken there shows
        monkeypatch.setattr(cli, "esseen_bound", lambda *args: 0.0)
        rep = verify.run_suite("deconv", 0)
        assert rep["violations"] == 6
        assert [v["check"] for v in rep["details"]] == ["esseen_bound"] * 6

    def test_deconv_suite_counts_a_missing_bound(self, monkeypatch):
        def no_floor(*args):
            raise ProfileFailureError("profile has no positive CF floor at this T")

        monkeypatch.setattr(cli, "ks_from_tv_bound", no_floor)
        rep = verify.run_suite("deconv", 0)
        assert rep["violations"] == 6
        assert {v["check"] for v in rep["details"]} == {"ks_from_tv_bound"}


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter in tests/golden, importing this sdpi."""
    env = dict(os.environ, PYTHONPATH=str(Path(sdpi.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent / "golden",
                          env=env, capture_output=True, text=True, timeout=120)


class TestColdStart:
    """The modules a cold process loads; sys.modules is shared inside pytest,
    so each check runs in a fresh interpreter."""

    def test_import_loads_neither_scipy_nor_numpy_ma(self):
        # nor numpy.polynomial, as the Gauss-Hermite rule is built on first use, nor
        # numpy.fft, loaded by char_fn's chirp-z path on a grid density; sdpi.verify
        # imports sdpi.cli and the sampler and brute-force oracle
        done = _fresh_python("import sys, sdpi.cli, sdpi.verify\n"
                             "print([m for m in ('scipy', 'numpy.ma', 'numpy.polynomial',\n"
                             "                   'numpy.fft') if m in sys.modules])")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_package_root_loads_no_submodule(self):
        # the root re-exports nothing, and the CLI loads the oracles only for verify
        done = _fresh_python("import sys, sdpi\n"
                             "print([m for m in sys.modules if m.startswith('sdpi.')])\n"
                             "import sdpi.cli\n"
                             "print([m for m in ('sdpi.oracle', 'sdpi.verify') if m in sys.modules])")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n[]\n"

    def test_sampler_loads_neither_scipy_nor_numpy_polynomial(self):
        # nor numpy.ma or numpy.fft: the diag suite runs the sampler with gd_lower,
        # whose Q function is core_prob's own erfc; the sampler's output entropy
        # is Gauss-Legendre on a rule that core_prob builds with numpy.linalg
        done = _fresh_python("import sys, sdpi.verify\n"
                             "assert sdpi.verify.run_suite('horiz', 0)['violations'] == 0\n"
                             "assert sdpi.verify.run_suite('diag', 0)['violations'] == 0\n"
                             "print([m for m in ('scipy', 'numpy.ma', 'numpy.polynomial',\n"
                             "                   'numpy.fft') if m in sys.modules])")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    @pytest.mark.parametrize("argv", [
        pytest.param(["fi-curve", "--channel", "bsc:0.1", "--t-grid", "0:0.6:0.01"],
                     id="fi-curve-bsc"),
        pytest.param(["bounds", "diag", "--gamma", "1.0", "--t-grid", "0.1:1:0.05"],
                     id="bounds-diag"),
        pytest.param(["bounds", "horiz", "--gamma", "1.0", "--eps-grid", "1e-6:1e-5:1e-6"],
                     id="bounds-horiz"),
        pytest.param(["bounds", "general-diag", "--noise", "laplace:1.0", "--t-grid", "0.1:1:0.1"],
                     id="bounds-general-diag"),
        pytest.param(["contraction", "--noise", "gaussian", "--what", "eta",
                      "--t-grid", "0:6:0.1"], id="contraction-eta"),
        pytest.param(["deconv", "--noise", "gaussian", "--p", "P.csv", "--q", "Q.csv"],
                     id="deconv"),
        pytest.param(["check", "strict", "--density", "noise.csv", "--shift-grid=-5:5:0.25"],
                     id="check-strict"),
        pytest.param(["verify", "--suite", "bsc", "--seed", "11"], id="verify-bsc"),
    ])
    def test_readme_command_runs_without_scipy(self, argv):
        # nor numpy.polynomial, which only the Gauss-Hermite rule loads, on first
        # use; the bsc suite's brute-force polish is numpy Newton steps
        done = _fresh_python("import runpy, sys\n"
                             f"sys.argv = ['sdpi', *{argv!r}]\n"
                             "try:\n"
                             "    runpy.run_module('sdpi.cli', run_name='__main__')\n"
                             "except SystemExit as e:\n"
                             "    print(e.code, [m for m in ('scipy', 'numpy.polynomial')\n"
                             "                   if m in sys.modules], file=sys.stderr)\n")
        assert done.stderr.splitlines()[-1] == "0 []", done.stderr
        assert done.stdout


@pytest.mark.parametrize("group", ["AWGN_SITES", "DMC_SITES", "CLI_SITES"])
def test_benchmark_tracer_sites_resolve(group):
    # perfbench wraps each (module, attribute) site of tracer.py; a refactor that
    # drops one breaks the traced benchmark, so Tier-1 checks that they resolve
    root = Path(__file__).resolve().parent.parent
    sites = runpy.run_path(str(root / "perfbench" / "tracer.py"))[group]
    assert sites
    for module, attr, _ in sites:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
