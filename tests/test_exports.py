"""The package's public surface: every export resolves, and the trimmed names stay gone."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import ncadmm
from ncadmm import cli, config, engine, numerics, prox, quantile
from ncadmm.ct import forward, recon

# __main__ runs the command line on import
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(ncadmm.__path__, prefix="ncadmm.")
    if not info.name.endswith("__main__")
)

# Capabilities no run uses, and reference code that lives in tests/_oracles.py.
GONE = [
    (engine, ["DenseQuadratic", "_map_dense", "validate_stepsizes", "StepsizeReport", "_min_eig"]),
    (engine.AdmmProblem, ["_build_quadratic"]),
    (engine.DenseMap, ["dense"]),
    (engine.ScaledIdentity, ["dense"]),
    (engine.KronEye, ["dense"]),
    (numerics, ["check_psd", "spmv"]),
    (prox, ["qexp_value"]),
    (numerics.DiagonalMatrix, ["dense"]),
    (numerics.SparseMatrix, [
        "save", "load", "to_triples", "dense", "from_dense", "identity", "nnz",
    ]),
    (quantile, ["quantile_x_update", "quantile_y_update", "stepsize_margin"]),
    (forward, ["expected_counts", "ct_loss", "save_phantom", "_ray_pixel_lengths"]),
    (forward.SpectralModel, ["scales"]),
    (recon, [
        "ct_x_update", "ct_y_update", "ct_u_update", "run_ct_specialized",
        "ray_subproblem_objective", "stepsize_matrix_factor",
    ]),
    (config, ["CustomConfig", "QuantileConfig", "CtConfig"]),
    (cli, ["_run_custom", "_run_custom_sigma", "_quantile_spec", "_ct_pieces"]),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("owner, names", GONE, ids=[owner.__name__ for owner, _ in GONE])
def test_trimmed_names_are_gone(owner, names):
    assert [n for n in names if hasattr(owner, n)] == []


def test_engine_problem_fields():
    fields = [f.name for f in dataclasses.fields(engine.AdmmProblem)]
    assert fields == ["A", "B", "c", "sigma", "f", "g", "D_f", "D_g", "objective"]
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
    assert "sigma" not in inspect.signature(recon.CtPreconditioners).parameters
    assert list(inspect.signature(forward.build_spectral_model).parameters)[-1] == "spectrum_path"
    alpha = inspect.signature(recon.alpha_t_diagnostic).parameters
    assert "model" not in alpha and "counts" not in alpha
    assert [alpha[name].default for name in ("grad_star", "grad_y")] == [inspect.Parameter.empty] * 2
