"""The package's public surface: every export resolves, and the trimmed names stay gone."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import ncadmm
from ncadmm import cli, config, diagnostics, engine, numerics, prox, quantile
from ncadmm.ct import forward, recon

from _oracles import ScaledIdentity

# __main__ runs the command line on import
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(ncadmm.__path__, prefix="ncadmm.")
    if not info.name.endswith("__main__")
)

# Capabilities no run uses, and reference code that lives in tests/_oracles.py.
GONE = [
    (engine, [
        "DenseQuadratic", "_map_dense", "validate_stepsizes", "StepsizeReport", "_min_eig",
        "ScaledIdentity", "check_sigma_names",
    ]),
    (engine.AdmmProblem, ["_build_quadratic"]),
    (engine.AdmmState, ["by", "sum_y", "y_bar"]),
    (engine.RunResult, ["y_bar"]),
    (engine.DenseMap, ["dense"]),
    (engine.Trace, ["append"]),
    (ScaledIdentity, ["dense"]),
    (engine.KronEye, ["dense"]),
    (numerics, ["check_psd", "spmv"]),
    (prox, ["qexp_value"]),
    (diagnostics, ["_probe_block"]),
    (numerics.DiagonalMatrix, ["dense", "shape", "rmatvec"]),
    (numerics.SparseMatrix, [
        "save", "load", "to_triples", "dense", "from_dense", "identity", "nnz", "from_csr",
        "_set_csr",
    ]),
    (quantile, ["quantile_x_update", "quantile_y_update", "stepsize_margin"]),
    (quantile.QuantileProblemSpec, ["noise_df"]),
    (forward, ["expected_counts", "ct_loss", "save_phantom", "_ray_pixel_lengths"]),
    (forward.SpectralModel, ["scales"]),
    (recon, [
        "ct_x_update", "ct_y_update", "ct_u_update", "run_ct_specialized",
        "ray_subproblem_objective", "stepsize_matrix_factor", "check_newton_iters",
        "CtPreconditioners", "image_filenames",
    ]),
    (config, ["CustomConfig", "QuantileConfig", "CtConfig", "parse_config", "default_config"]),
    (cli, ["_run_custom", "_run_custom_sigma", "_quantile_spec", "_ct_pieces"]),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("owner, names", GONE, ids=[owner.__name__ for owner, _ in GONE])
def test_trimmed_names_are_gone(owner, names):
    # A dataclass field without a default is no class attribute.
    fields = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else ()
    assert [n for n in names if hasattr(owner, n) or n in fields] == []


def test_engine_problem_fields():
    fields = [f.name for f in dataclasses.fields(engine.AdmmProblem)]
    assert fields == ["A", "sigma", "f", "g", "D_f", "D_g", "objective"]
    assert [f.name for f in dataclasses.fields(engine.AdmmState)] == [
        "t", "x", "y", "u", "sum_x", "trace", "ax", "sr",
    ]
    assert [f.name for f in dataclasses.fields(engine.RunResult)] == ["state", "x_bar", "trace"]
    assert [f.name for f in dataclasses.fields(engine.CompositeObjective)] == ["prox_step", "grad_d"]
    assert [f.name for f in dataclasses.fields(forward.SpectralModel)] == [
        "energies", "mu", "window_weights", "beam", "materials",
    ]


def test_trimmed_parameters_are_gone():
    assert "explicit_stepsizes" not in inspect.signature(quantile.build_problem).parameters
    assert "write_pgm" not in inspect.signature(recon.run_ct_experiment).parameters
    assert "want_hess" not in inspect.signature(forward.ct_loss_parts).parameters
    assert "hess_c" not in {f.name for f in dataclasses.fields(forward.LossParts)}
    assert "primal_tol" not in inspect.signature(engine.run).parameters
    assert list(inspect.signature(numerics.DiagonalMatrix).parameters) == ["diagonal"]
    assert list(inspect.signature(numerics.DiagonalMatrix.is_positive).parameters) == ["self"]
    assert list(inspect.signature(quantile.quantile_gamma).parameters) == ["phi"]
    for fn in (recon.build_ct_problem, recon.run_ct_reconstruction, recon.run_ct_experiment):
        assert "newton_iters" not in inspect.signature(fn).parameters, fn.__name__
    assert list(inspect.signature(forward.build_spectral_model).parameters)[-1] == "spectrum_path"
    assert list(inspect.signature(recon.newton_ray_solve).parameters) == [
        "loss", "lin", "center", "sigma_diag", "iters", "start",
    ]
    alpha = inspect.signature(recon.alpha_t_diagnostic).parameters
    assert "model" not in alpha and "counts" not in alpha
    assert [alpha[name].default for name in ("grad_star", "grad_y")] == [inspect.Parameter.empty] * 2


def test_single_value_settings_and_required_arguments():
    # gamma's power iteration has one tolerance, every problem an objective
    # and every CT reconstruction the alpha_t diagnostic against y*.
    for norm in (numerics.spectral_norm, quantile.spectral_norm):
        assert list(inspect.signature(norm).parameters) == ["m"]
    objective = {f.name: f for f in dataclasses.fields(engine.AdmmProblem)}["objective"]
    assert objective.default is objective.default_factory is dataclasses.MISSING
    y_star = inspect.signature(recon.run_ct_reconstruction).parameters["y_star"]
    assert y_star.default is inspect.Parameter.empty


# Run in a fresh interpreter: this process has already imported scipy (the oracles use it).
SCIPY_SPARSE_PROBE = textwrap.dedent("""
    import sys

    import ncadmm
    from ncadmm import cli, diagnostics, engine
    from ncadmm import quantile as Q
    from ncadmm.ct import forward as F
    from ncadmm.ct import recon

    out = sys.argv[1]
    spec = Q.QuantileProblemSpec(d=12, n=20, s_star=2, seed=3)
    Q.run_sigma_sweep(spec, [5e-3], iters=5, out_dir=out)
    ds = Q.generate_dataset(spec)
    problem = Q.build_problem(spec, ds)
    xi_star, zeta_star, _ = Q.star_subgradients(spec, ds)
    iterates = []
    engine.run(problem, iters=5, record_time=False,
               iteration_hook=lambda t, state: iterates.append((state.x, state.y)))
    y_star = ds.phi @ ds.x_true
    diagnostics.probe_trajectory(problem, Q.subgradient_selector(spec, ds), iterates,
                                 ds.x_true, y_star, xi_star, zeta_star)
    diagnostics.fosp_residuals(problem, ds.x_true, y_star, zeta_star, xi_star, zeta_star)
    assert cli.main(["validate-config", "--experiment", "quantile"]) == 0
    assert cli.main(["summarize", "--out", out]) == 0
    assert "scipy.sparse" not in sys.modules, "a quantile path loaded scipy.sparse"
    geom = F.CtGeometry(grid_nx=5, grid_ny=5, pixel_size=0.5, n_angles=6, n_detectors=6)
    summary = recon.run_ct_experiment(geom, F.build_spectral_model(n_energies=20),
                                      F.default_phantom(geom), [2.0], iters=3, seed=13, out_dir=out)
    assert len(summary["runs"][2.0]["result"].trace) == 3
    assert "scipy.sparse" not in sys.modules, "a CT run loaded scipy.sparse"
""")


def test_no_run_loads_scipy_sparse(tmp_path):
    src = os.path.dirname(os.path.dirname(ncadmm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_SPARSE_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
