import json

import numpy as np
import pytest

from ncadmm import cli
from ncadmm.ct import forward as F
from ncadmm.config import ConfigError, default_config, parse_config
from ncadmm.engine import AdmmStepError, load_trace

from _oracles import save_phantom

QUANTILE_SMALL = """
[experiment]
kind = quantile
iters = 15
seed = 3
sigma_list = 2e-3, 5e-3, 1e-2, 2e-2
out = {out}

[quantile]
d = 12
n = 20
s_star = 2
q = 0.5
lambda = 0.1
beta = 0.5
R = inf
"""

CT_SMALL = """
[experiment]
kind = ct
iters = 4
seed = 3
sigma_list = 5.0
out = {out}

[ct]
grid_nx = 5
grid_ny = 5
pixel_size_cm = 0.5
n_angles = 6
n_detectors = 6
n_energies = 18
"""


@pytest.fixture(autouse=True)
def sequential_mode(monkeypatch):
    monkeypatch.setenv(cli.SEQUENTIAL_ENV, "1")


def write_config(tmp_path, template, name="config.ini"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(out=out))
    return path, out


class TestConfigParsing:
    def test_defaults_are_full_scale(self):
        cfg = default_config("quantile")
        assert cfg.problem.d == 2000 and cfg.problem.n == 1000
        assert cfg.sigma_list == (5e-5, 1e-4, 2e-4, 5e-4)
        assert cfg.iters == 500
        ct = default_config("ct")
        assert (ct.problem.grid_nx, ct.problem.n_angles) == (25, 50)
        assert ct.sigma_list == (1.0, 10.0, 100.0)
        assert ct.iters == 1000

    def test_invalid_field_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nkind = quantile\n[quantile]\nq = 1.5\n")
        with pytest.raises(ConfigError, match="q must lie"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nkind = quantile\n[quantile]\ntypo = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'typo'"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nkind = quantile\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown section \[mystery\]"):
            parse_config(path)

    def test_inf_radius_accepted(self, tmp_path):
        path = tmp_path / "ok.ini"
        for spelling in ("inf", "Infinity", "+inf", "INF"):
            path.write_text(f"[experiment]\nkind = quantile\n[quantile]\nR = {spelling}\n")
            cfg = parse_config(path)
            assert cfg.problem.radius == float("inf")


class TestRunCommand:
    def test_quantile_writes_traces_and_manifest(self, tmp_path):
        path, out = write_config(tmp_path, QUANTILE_SMALL)
        assert cli.main(["run", "--config", str(path)]) == 0
        traces = sorted(out.glob("quantile_sigma*.csv"))
        assert len(traces) == 4
        records, extras = load_trace(traces[0])
        assert len(records) == 15
        assert len(extras["objective_avg"]) == 15
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["experiment"]["kind"] == "quantile"
        assert "numpy" in manifest["versions"]

    def test_manifest_rerun_reproduces_traces(self, tmp_path):
        path, out = write_config(tmp_path, QUANTILE_SMALL)
        assert cli.main(["run", "--config", str(path)]) == 0
        out2 = tmp_path / "out2"
        assert (
            cli.main(["run", "--config", str(out / "manifest.json"), "--out", str(out2)]) == 0
        )
        for trace in out.glob("quantile_sigma*.csv"):
            assert (out2 / trace.name).read_bytes() == trace.read_bytes()

    def test_ct_writes_traces_images_report(self, tmp_path):
        path, out = write_config(tmp_path, CT_SMALL)
        assert cli.main(["run", "--config", str(path)]) == 0
        assert (out / "ct_sigma5.csv").exists()
        for name in ("pmma", "aluminum", "gadolinium"):
            assert (out / f"ct_sigma5_{name}.txt").exists()
            assert (out / f"ct_sigma5_{name}.pgm").exists()
        report = json.loads((out / "ct_report.json").read_text())
        assert report["fosp_ratio"] > 0

    def test_custom_experiment_runs(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            ["run", "--experiment", "custom", "--iters", "30", "--out", str(out)]
        )
        assert code == 0
        assert (out / "custom_sigma1.csv").exists()

    def test_cli_overrides(self, tmp_path):
        path, out = write_config(tmp_path, QUANTILE_SMALL)
        other = tmp_path / "other"
        code = cli.main(
            [
                "run", "--config", str(path), "--sigma", "5e-3", "--iters", "7",
                "--seed", "11", "--out", str(other),
            ]
        )
        assert code == 0
        records, _ = load_trace(other / "quantile_sigma0.005.csv")
        assert len(records) == 7
        manifest = json.loads((other / "manifest.json").read_text())
        assert manifest["config"]["experiment"]["seed"] == 11

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nkind = quantile\n[quantile]\nq = 1.5\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "q must lie" in capsys.readouterr().err

    def test_missing_config_and_experiment_exits_2(self):
        assert cli.main(["run"]) == 2

    def test_kind_conflict_exits_2(self, tmp_path):
        path, _ = write_config(tmp_path, QUANTILE_SMALL)
        assert cli.main(["run", "--config", str(path), "--experiment", "ct"]) == 2

    def test_workers_key_read_and_only_one_accepted(self, tmp_path, capsys):
        # Manifests written with a `workers` entry still reproduce; sweeps run
        # in one process, so any other value is a config error.
        path, out = write_config(tmp_path, QUANTILE_SMALL)
        assert cli.main(["run", "--config", str(path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for value, code in ((1, 0), ("1", 0), (2, 2), (0, 2)):
            manifest["config"]["experiment"]["workers"] = value
            old = tmp_path / f"old_{value!r}.json"
            old.write_text(json.dumps(manifest))
            rerun = tmp_path / f"rerun_{value!r}"
            assert cli.main(["run", "--config", str(old), "--out", str(rerun)]) == code
        assert "workers must be 1, got 0" in capsys.readouterr().err
        for trace in out.glob("quantile_sigma*.csv"):
            assert (tmp_path / "rerun_1" / trace.name).read_bytes() == trace.read_bytes()
        ini = tmp_path / "workers.ini"
        ini.write_text(path.read_text().replace("out =", "workers = 2\nout ="))
        assert cli.main(["run", "--config", str(ini)]) == 2
        assert "workers must be 1, got '2'" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def explode(cfg, record_time):
            raise AdmmStepError(7, "synthetic blowup")

        monkeypatch.setitem(cli._EXPERIMENTS, "custom", explode)
        out = tmp_path / "out"
        code = cli.main(["run", "--experiment", "custom", "--out", str(out)])
        assert code == 3
        assert "iteration 7" in capsys.readouterr().err


    def test_failing_step_callback_exits_3(self, tmp_path, monkeypatch, capsys):
        from ncadmm.ct import recon

        real = recon.ct_loss_parts

        def loss_parts(model, y, counts, want_grad=True):
            if not want_grad:  # only the per-iterate objective asks for no gradient
                raise ValueError("nonpositive window mean; cannot take its log")
            return real(model, y, counts, want_grad)

        monkeypatch.setattr(recon, "ct_loss_parts", loss_parts)
        path, _ = write_config(tmp_path, CT_SMALL)
        assert cli.main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "iteration 1: objective failed: nonpositive window mean" in err

    def test_non_spd_newton_block_exits_3(self, tmp_path, monkeypatch, capsys):
        # A Newton system that is not positive definite makes the Cholesky
        # produce NaN; the engine rejects the y iterate as a step failure.
        from ncadmm.ct import recon

        real = recon.spd_solve
        monkeypatch.setattr(
            recon, "spd_solve", lambda lower, shift, rhs: real(-lower, 0.0 * shift, rhs)
        )
        path, out = write_config(tmp_path, CT_SMALL)
        with np.errstate(invalid="ignore"):
            assert cli.main(["run", "--config", str(path)]) == 3
        assert "numerical failure: iteration 1: " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_ct_setup_failure_exits_3(self, tmp_path, capsys):
        # A phantom 1e4 times too dense absorbs every photon: the window means
        # at y* vanish, so the stationarity ratio of the set-up cannot be formed.
        geom = F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.5, n_angles=6, n_detectors=6)
        phantom = tmp_path / "dense_phantom.txt"
        save_phantom(phantom, F.default_phantom(geom) * 1e4, geom)
        path, out = write_config(tmp_path, CT_SMALL + f"phantom = {phantom}\n")
        assert cli.main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: nonpositive window mean; cannot take its log\n"
        assert not (out / "manifest.json").exists()

    def test_bad_ct_phantom_exits_2(self, tmp_path, capsys):
        phantom = tmp_path / "phantom.txt"
        phantom.write_text("0 0\n0 0\n")  # a 2x2 block for a 5x5 grid
        path, _ = write_config(tmp_path, CT_SMALL + f"phantom = {phantom}\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "config error: ct inputs: phantom block shape" in capsys.readouterr().err


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, QUANTILE_SMALL)
        assert cli.main(["validate-config", "--config", str(path)]) == 0
        assert "kind=quantile" in capsys.readouterr().out

    def test_bad_exits_2(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nkind = nope\n")
        assert cli.main(["validate-config", "--config", str(path)]) == 2


class TestSummarize:
    def test_summary_and_dat_files(self, tmp_path, capsys):
        path, out = write_config(tmp_path, QUANTILE_SMALL)
        cli.main(["run", "--config", str(path), "--sigma", "5e-3"])
        capsys.readouterr()  # discard the run command's output
        dat_dir = tmp_path / "dat"
        code = cli.main(
            ["summarize", "--out", str(out), "--data-dir", str(dat_dir)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert output.startswith("# file final_iter")
        assert "quantile_sigma0.005.csv" in output
        dat = dat_dir / "quantile_sigma0.005.dat"
        lines = dat.read_text().splitlines()
        assert lines[0].startswith("# iter")
        assert len(lines) == 16

    def test_no_traces_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["summarize", "--out", str(empty)]) == 2
