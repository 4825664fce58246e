import inspect
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from ncadmm import cli, config, engine
from ncadmm.ct import forward as F
from ncadmm.ct import recon as R
from ncadmm.config import ConfigError, config_to_manifest_dict
from ncadmm.engine import AdmmStepError, load_trace
from ncadmm.quantile import QuantileProblemSpec

from _oracles import default_config, parse_config, save_phantom

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


# (config file text, or None for no file; file suffix; extra arguments; the
# text the one `config error:` line must contain)
QUANTILE_TINY = "[quantile]\nd = 12\nn = 20\ns_star = 2\n"
BAD_CONFIGS = {
    "iters_not_int": ("[experiment]\niters = abc\n", ".ini", [], "[experiment] iters"),
    "seed_not_int": ("[experiment]\nseed = 1.5\n", ".ini", [], "[experiment] seed"),
    "seed_negative": (
        "[experiment]\nseed = 3\n", ".ini", ["--seed", "-1"],
        "[experiment] seed must be nonnegative, got -1",
    ),
    "d_not_int": ("[quantile]\nd = abc\n", ".ini", [], "[quantile] d"),
    "d_none": ("[quantile]\nd = none\n", ".ini", [], "[quantile] d"),
    "newton_iters_auto": (
        "[experiment]\nkind = ct\n[ct]\nnewton_iters = auto\n", ".ini", [], "[ct] newton_iters"
    ),
    "pixel_size_inf": (
        "[experiment]\nkind = ct\n[ct]\npixel_size_cm = inf\n", ".ini", [], "[ct] pixel_size_cm"
    ),
    # finite, but the phantom's disks square the grid extent
    "pixel_size_huge": (
        "[experiment]\nkind = ct\n[ct]\npixel_size_cm = 1e300\n", ".ini", [], "[ct] pixel_size_cm"
    ),
    "detector_span_inf": (
        "[experiment]\nkind = ct\n[ct]\ndetector_span_cm = inf\n", ".ini", [], "detector_span_cm"
    ),
    "detector_span_zero": (
        "[experiment]\nkind = ct\n[ct]\ndetector_span_cm = 0\n", ".ini", [], "detector_span_cm"
    ),
    "detector_span_negative": (
        "[experiment]\nkind = ct\n[ct]\ndetector_span_cm = -2\n", ".ini", [], "detector_span_cm"
    ),
    "no_ray_crosses_grid": (
        "[experiment]\nkind = ct\n[ct]\ngrid_nx = 5\ngrid_ny = 5\nn_detectors = 4\n"
        "detector_span_cm = 1e160\n",
        ".ini",
        [],
        "[ct] no ray crosses the grid",
    ),
    "sigma_list_not_float": (
        "[experiment]\nsigma_list = a,b\n", ".ini", [], "[experiment] sigma_list"
    ),
    # the outputs of a sweep are named by f"{sigma:g}"
    "sigma_list_same_name": (
        "[experiment]\nsigma_list = 1.0000001e-3, 1.0000002e-3\n", ".ini", [],
        "entries 0.0010000001 and 0.0010000002 share the output name sigma0.001",
    ),
    "sigma_list_nan": (
        "[experiment]\nsigma_list = 1e-2, nan\n", ".ini", [], "[experiment] sigma_list"
    ),
    "lambda_nan": ("[quantile]\nlambda = nan\n", ".ini", [], "[quantile] lambda"),
    "lambda_inf": ("[quantile]\nlambda = inf\n", ".ini", [], "[quantile] lambda"),
    "n_zero": ("[quantile]\nn = 0\n", ".ini", [], "[quantile] n"),
    "n_negative": ("[quantile]\nn = -3\n", ".ini", [], "[quantile] n"),
    "n_windows_zero": (
        "[experiment]\nkind = ct\n[ct]\nn_windows = 0\n", ".ini", [], "[ct] n_windows"
    ),
    "window_blur_negative": (
        "[experiment]\nkind = ct\n[ct]\nwindow_blur_kev = -1\n", ".ini", [], "[ct] window_blur_kev"
    ),
    "window_blur_inf": (
        "[experiment]\nkind = ct\n[ct]\nwindow_blur_kev = inf\n", ".ini", [], "[ct] window_blur_kev"
    ),
    "beam_photons_inf": (
        "[experiment]\nkind = ct\n[ct]\nbeam_photons = inf\n", ".ini", [], "[ct] beam_photons"
    ),
    "newton_iters_zero": (
        "[experiment]\nkind = ct\n[ct]\nnewton_iters = 0\n", ".ini", [], "[ct] newton_iters"
    ),
    "energy_range_reversed": (
        "[experiment]\nkind = ct\n[ct]\nenergy_min_kev = 120\nenergy_max_kev = 20\n",
        ".ini",
        [],
        "[ct] energy_min_kev and energy_max_kev",
    ),
    "sigma_flag_nan": (QUANTILE_TINY, ".ini", ["--sigma", "nan"], "[experiment] sigma_list"),
    "sigma_flag_inf": (QUANTILE_TINY, ".ini", ["--sigma", "inf"], "[experiment] sigma_list"),
    "missing_file": (None, ".ini", [], "missing.ini"),
    "malformed_json": ('{"config": {', ".json", [], "malformed manifest"),
    "manifest_without_config": ('{"versions": {}}', ".json", [], 'no "config" entry'),
}


def write_config(tmp_path, template, name="config.ini"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(out=out))
    return path, out


class TestConfigParsing:
    def test_defaults_are_full_scale(self):
        cfg = default_config("quantile")
        assert cfg.problem["d"] == 2000 and cfg.problem["n"] == 1000
        assert cfg.sigma_list == (5e-5, 1e-4, 2e-4, 5e-4)
        assert cfg.iters == 500
        ct = default_config("ct")
        assert (ct.problem["grid_nx"], ct.problem["n_angles"]) == (25, 50)
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
            assert cfg.problem["radius"] == float("inf")

    def test_auto_and_null_accepted_on_optional_fields(self, tmp_path):
        path = tmp_path / "ok.ini"
        path.write_text(
            "[experiment]\nkind = ct\n[ct]\n"
            "detector_span_cm = auto\nwindow_thresholds_kev = auto\nattenuation_file = none\n"
        )
        assert parse_config(path) == default_config("ct")
        for kind, key, value in (("quantile", "radius", "inf"), ("ct", "detector_span_cm", None)):
            sections = config_to_manifest_dict(default_config(kind))
            assert sections[kind][key] == value
            manifest = tmp_path / f"{kind}_manifest.json"
            manifest.write_text(json.dumps({"config": sections}))
            assert parse_config(manifest) == default_config(kind)
            assert cli.main(["validate-config", "--config", str(manifest)]) == 0

    def test_manifest_keys_and_library_defaults(self):
        # The defaults live in the library alone; the manifest writes every
        # settable key, in this order, with the value the library declares.
        model = {
            name: p.default
            for name, p in inspect.signature(F.build_spectral_model).parameters.items()
        }
        spec, geom = QuantileProblemSpec(), F.CtGeometry()
        expected = {
            "quantile": {
                "d": spec.d,
                "n": spec.n,
                "s_star": spec.s_star,
                "q": spec.q,
                "lam": spec.lam,
                "beta": spec.beta,
                "radius": "inf" if spec.radius == float("inf") else spec.radius,  # JSON form
            },
            "ct": {
                "grid_nx": geom.grid_nx,
                "grid_ny": geom.grid_ny,
                "pixel_size_cm": geom.pixel_size,
                "n_angles": geom.n_angles,
                "n_detectors": geom.n_detectors,
                "detector_span_cm": geom.detector_span,
                "materials": list(model["materials"]),
                "energy_min_kev": model["energy_min"],
                "energy_max_kev": model["energy_max"],
                "n_energies": model["n_energies"],
                "n_windows": model["n_windows"],
                "window_thresholds_kev": model["window_thresholds"],
                "window_blur_kev": model["window_blur_kev"],
                "beam_photons": model["total_photons"],
                "attenuation_file": model["attenuation_path"],
                "spectrum_file": model["spectrum_path"],
                "phantom": inspect.signature(F.make_phantom).parameters["phantom"].default,
            },
        }
        for kind, problem in expected.items():
            sections = config_to_manifest_dict(default_config(kind))
            assert list(sections) == ["experiment", kind]
            assert list(sections["experiment"]) == ["kind", "sigma_list", "iters", "seed", "out"]
            assert list(sections[kind].items()) == list(problem.items())
            assert list(config.KEYS[kind]) == list(problem)


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
        assert set(manifest["versions"]) == {"ncadmm", "python", "numpy", "scipy"}

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
        newton = report["sigmas"]["5"]
        # every active ray takes at least one Newton step in each of the 4 y steps
        assert newton["newton_ray_steps"] >= 4 * report["active_rays"]
        assert 0 <= newton["newton_capped"] <= report["active_rays"]

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

    @pytest.mark.parametrize("kind", ["quantile", "ct"])
    def test_reported_paths_have_no_doubled_separator(self, tmp_path, capsys, kind):
        path, out = write_config(tmp_path, {"quantile": QUANTILE_SMALL, "ct": CT_SMALL}[kind])
        assert cli.main(["run", "--config", str(path), "--iters", "2", "--out", f"{out}/"]) == 0
        reported = capsys.readouterr().out
        assert "//" not in reported
        listed = [line.strip() for line in reported.splitlines()[1:]]
        assert listed and all(Path(p).is_file() for p in listed)

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

    @pytest.mark.parametrize("value, timed", [(None, True), ("0", True), ("1", False)])
    def test_sequential_mode_zeroes_only_the_timings(self, tmp_path, monkeypatch, value, timed):
        if value is None:
            monkeypatch.delenv(cli.SEQUENTIAL_ENV)
        else:
            monkeypatch.setenv(cli.SEQUENTIAL_ENV, value)
        path, out = write_config(tmp_path, QUANTILE_SMALL)
        assert cli.main(["run", "--config", str(path), "--iters", "3"]) == 0
        for trace in out.glob("quantile_sigma*.csv"):
            records, _ = load_trace(trace)
            assert [r.seconds > 0 for r in records] == [timed] * 3

    @pytest.mark.parametrize(
        "value", ["false", "true", "2", "", " 1"], ids=["false", "true", "2", "empty", "space-1"]
    )
    def test_sequential_mode_other_than_0_or_1_exits_2(self, tmp_path, monkeypatch, capsys, value):
        from ncadmm import quantile

        setups = []
        monkeypatch.setattr(quantile, "generate_dataset", lambda spec: setups.append(spec))
        monkeypatch.setenv(cli.SEQUENTIAL_ENV, value)
        path, out = write_config(tmp_path, QUANTILE_SMALL)
        assert cli.main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: NCADMM_SEQUENTIAL must be unset, 0 or 1, got {value!r}\n"
        )
        assert captured.out == "" and setups == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "template, section, key, kept, other",
        [
            (QUANTILE_SMALL, "experiment", "workers", 1, 2),
            (CT_SMALL, "ct", "newton_iters", R.DEFAULT_NEWTON_ITERS, 10),
        ],
        ids=["workers", "newton_iters"],
    )
    def test_retired_key_read_and_only_its_value_accepted(
        self, tmp_path, capsys, template, section, key, kept, other
    ):
        # Manifests written with a retired key still reproduce byte for byte;
        # every run used one value, so any other is a config error.
        path, out = write_config(tmp_path, template)
        assert cli.main(["run", "--config", str(path)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert key not in manifest["config"][section]
        for value, code in ((kept, 0), (str(kept), 0), (other, 2), (0, 2)):
            manifest["config"][section][key] = value
            old = tmp_path / f"old_{value!r}.json"
            old.write_text(json.dumps(manifest))
            rerun = tmp_path / f"rerun_{value!r}"
            assert cli.main(["run", "--config", str(old), "--out", str(rerun)]) == code
        assert f"[{section}] {key} must be {kept}, got 0" in capsys.readouterr().err
        outputs = [p for p in out.iterdir() if p.name != "manifest.json"]
        assert len(outputs) > 1
        for file in outputs:
            for rerun in (f"rerun_{kept!r}", f"rerun_{str(kept)!r}"):
                assert (tmp_path / rerun / file.name).read_bytes() == file.read_bytes()
        ini = tmp_path / "retired.ini"
        header = f"[{section}]\n"
        ini.write_text(path.read_text().replace(header, f"{header}{key} = {other}\n"))
        assert cli.main(["run", "--config", str(ini)]) == 2
        assert f"{key} must be {kept}, got '{other}'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_unusable_out_dir_exits_2(self, tmp_path, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker if where == "file" else blocker / "out"
        assert cli.main(["run", "--experiment", "quantile", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create directory {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, blocked",
        [
            ("quantile", "quantile_sigma0.005.csv"),
            ("quantile", "manifest.json"),
            ("ct", "ct_sigma5.csv"),
            ("ct", "ct_sigma5_aluminum.txt"),
            ("ct", "ct_sigma5_gadolinium.pgm"),
            ("ct", "ct_report.json"),
        ],
    )
    def test_unwritable_output_file_exits_2(self, tmp_path, monkeypatch, capsys, kind, blocked):
        from ncadmm import quantile

        solves = []
        for owner, name in ((quantile, "quantile_prox_update"), (R, "newton_ray_solve")):
            monkeypatch.setattr(owner, name, lambda *args, **kwargs: solves.append(name))
        path, out = write_config(tmp_path, {"quantile": QUANTILE_SMALL, "ct": CT_SMALL}[kind])
        (out / blocked).mkdir(parents=True)
        assert cli.main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: cannot write {out / blocked}: Is a directory\n"
        assert captured.out == ""
        assert solves == []  # the check came before the first step
        assert [p.name for p in out.iterdir()] == [blocked]

    @pytest.mark.parametrize("kind", ["quantile", "ct"])
    @pytest.mark.parametrize("denied", ["directory", "manifest.json"])
    def test_output_the_process_may_not_write_exits_2(
        self, tmp_path, monkeypatch, capsys, kind, denied
    ):
        # Mode bits do not bind root, so os.access stands in for them: it
        # denies writing the out directory, or an existing manifest in it.
        from ncadmm import quantile

        solves = []
        for owner, name in ((quantile, "quantile_prox_update"), (R, "newton_ray_solve")):
            monkeypatch.setattr(owner, name, lambda *args, **kwargs: solves.append(name))
        path, out = write_config(tmp_path, {"quantile": QUANTILE_SMALL, "ct": CT_SMALL}[kind])
        out.mkdir()
        target = out if denied == "directory" else out / denied
        if denied != "directory":
            target.write_text("{}\n")
        real_access = os.access
        monkeypatch.setattr(
            os, "access", lambda p, mode: os.fspath(p) != str(target) and real_access(p, mode)
        )
        assert cli.main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: cannot write {out / 'manifest.json'}: Permission denied\n"
        )
        assert captured.out == ""
        assert solves == []
        assert [p.name for p in out.iterdir()] == ([] if denied == "directory" else [denied])
        assert target.is_dir() or target.read_text() == "{}\n"

    def test_failed_step_leaves_partial_trace_exits_3(self, tmp_path, monkeypatch, capsys):
        from ncadmm import quantile

        real, calls = quantile.quantile_prox_update, []

        def fail_on_fifth(*args):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("inner solve diverged")
            return real(*args)

        monkeypatch.setattr(quantile, "quantile_prox_update", fail_on_fifth)
        path, out = write_config(tmp_path, QUANTILE_SMALL)
        assert cli.main(["run", "--config", str(path)]) == 3
        assert "iteration 5: y prox_step failed" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["quantile_sigma0.002.csv"]
        records, extras = load_trace(out / "quantile_sigma0.002.csv")
        assert [r.t for r in records] == [1, 2, 3, 4]
        assert len(extras["objective_avg"]) == 4

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def explode(cfg, record_time):
            raise AdmmStepError(7, "synthetic blowup")

        monkeypatch.setitem(cli._EXPERIMENTS, "quantile", explode)
        out = tmp_path / "out"
        code = cli.main(["run", "--experiment", "quantile", "--out", str(out)])
        assert code == 3
        assert "iteration 7" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_failing_step_callback_exits_3(self, tmp_path, monkeypatch, capsys):
        real = F.CtLoss.parts

        def loss_parts(self, y, want_grad=True):
            if not want_grad:  # only the per-iterate objective asks for no gradient
                raise ValueError("nonpositive window mean; cannot take its log")
            return real(self, y, want_grad)

        monkeypatch.setattr(F.CtLoss, "parts", loss_parts)
        path, _ = write_config(tmp_path, CT_SMALL)
        assert cli.main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "iteration 1: objective failed: nonpositive window mean" in err

    def test_wrong_shape_prox_update_exits_3(self, tmp_path, monkeypatch, capsys):
        from ncadmm import quantile

        real = quantile.quantile_prox_update
        monkeypatch.setattr(
            quantile, "quantile_prox_update", lambda *args: real(*args)[:, None]
        )
        path, out = write_config(tmp_path, QUANTILE_SMALL)
        assert cli.main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "iteration 1: y update has shape (20, 1), expected (20,)" in err
        assert not (out / "manifest.json").exists()

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

    @pytest.mark.parametrize(
        "case, named",
        [
            ("two_blocks", "2 blocks for 3 materials"),
            ("nan", "finite"),
            ("negative", "nonnegative"),
        ],
    )
    def test_bad_ct_phantom_values_exit_2(self, tmp_path, capsys, case, named):
        geom = F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.5, n_angles=6, n_detectors=6)
        image = F.default_phantom(geom)
        if case == "two_blocks":
            image = image[:, :2]
        elif case == "nan":
            image[7, 1] = np.nan
        else:
            image = -image
        phantom = tmp_path / "phantom.txt"
        save_phantom(phantom, image, geom, materials=("m",) * image.shape[1])
        path, out = write_config(tmp_path, CT_SMALL + f"phantom = {phantom}\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ct inputs: ") and err.count("\n") == 1
        assert named in err
        assert not (out / "manifest.json").exists()


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, QUANTILE_SMALL)
        assert cli.main(["validate-config", "--config", str(path)]) == 0
        assert "kind=quantile" in capsys.readouterr().out

    def test_bad_exits_2(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nkind = nope\n")
        assert cli.main(["validate-config", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    @pytest.mark.parametrize("case", BAD_CONFIGS)
    def test_bad_config_exits_2_with_one_line(self, tmp_path, capsys, command, case):
        text, suffix, extra, named = BAD_CONFIGS[case]
        path = tmp_path / ("missing" + suffix if text is None else "bad" + suffix)
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        code = cli.main([command, "--config", str(path), "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert named in err
        assert not (out / "manifest.json").exists()

    def test_readme_example_validates(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.ini"
        path.write_text(example)
        assert cli.main(["validate-config", "--config", str(path)]) == 0
        assert "kind=quantile" in capsys.readouterr().out
        # The README lists the [ct] keys (notes in parentheses aside) in order.
        (ct_keys,) = re.findall(r"CT keys \(section `\[ct\]`\):(.*?)\n\n", readme, re.S)
        listed = re.findall(r"`([^`]+)`", re.sub(r"\([^()]*\)", "", ct_keys))
        assert listed == list(config.KEYS["ct"])


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

    @pytest.mark.parametrize("where", ["missing", "file"])
    def test_unusable_out_dir_exits_2(self, tmp_path, capsys, where):
        out = tmp_path / "traces"
        if where == "file":
            out.write_text("")
        assert cli.main(["summarize", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot list --out {out}: ")
        assert err.count("\n") == 1

    def test_unusable_data_dir_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        engine.save_trace(trace, [engine.TraceRecord(1, 1.0, 0.5, None, 0.0)])
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = cli.main(["summarize", str(trace), "--data-dir", str(blocker / "dat")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot create directory {blocker / 'dat'}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_unwritable_data_file_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "quantile_sigma0.005.csv"
        engine.save_trace(trace, [engine.TraceRecord(1, 1.0, 0.5, None, 0.0)])
        blocked = tmp_path / "dat" / "quantile_sigma0.005.dat"
        blocked.mkdir(parents=True)
        assert cli.main(["summarize", str(trace), "--data-dir", str(tmp_path / "dat")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: cannot write {blocked}: Is a directory\n"
        assert captured.out == ""

    def test_no_traces_exits_2(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["summarize", "--out", str(empty)]) == 2

    @pytest.mark.parametrize(
        "rows, reason",
        [("", "no iterations recorded"), ("1,0.5\n", "line 2 has 2 fields, expected 5")],
        ids=["header_only", "truncated_row"],
    )
    def test_bad_trace_exits_2(self, tmp_path, capsys, rows, reason):
        trace = tmp_path / "bad_trace.csv"
        trace.write_text(engine.TRACE_HEADER + "\n" + rows)
        assert cli.main(["summarize", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"bad trace file {trace}: {reason}\n"
        assert captured.out == ""

    def test_foreign_csv_in_out_dir_exits_2(self, tmp_path, capsys):
        path, out = write_config(tmp_path, QUANTILE_SMALL)
        cli.main(["run", "--config", str(path), "--sigma", "5e-3"])
        (out / "rsc_probe_report.csv").write_text("sigma,t,ratio\n5e-3,1,0.5\n")
        capsys.readouterr()  # discard the run command's output
        assert cli.main(["summarize", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad trace file ") and err.count("\n") == 1
        assert "rsc_probe_report.csv: unrecognized trace header" in err
