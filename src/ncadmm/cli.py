"""Experiment runner CLI.

Subcommands:
    run              execute an experiment (quantile / ct / custom sigma sweep)
    validate-config  parse and validate a config file, no computation
    summarize        emit a gnuplot-friendly summary of trace files

`run` writes, under --out: one trace file per sigma, reconstructed images for
the ct experiment, and manifest.json (resolved config + seed + versions),
which can itself be passed back as --config to reproduce the run. Exit codes:
0 success, 2 invalid configuration or arguments, 3 numerical failure.

Setting NCADMM_SEQUENTIAL=1 forces single-worker execution and zeroes the
per-iteration timing column so trace files are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ExperimentConfig,
    config_to_manifest_dict,
    default_config,
    parse_config,
)
from .engine import AdmmStepError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SEQUENTIAL_ENV = "NCADMM_SEQUENTIAL"


def _sequential_mode() -> bool:
    return os.environ.get(SEQUENTIAL_ENV, "") not in ("", "0")


def _quantile_spec(cfg: ExperimentConfig, sigma: float):
    from .quantile import QuantileProblemSpec

    p = cfg.problem
    return QuantileProblemSpec(
        d=p.d,
        n=p.n,
        s_star=p.s_star,
        q=p.q,
        lam=p.lam,
        beta=p.beta,
        radius=p.radius,
        sigma=sigma,
        seed=cfg.seed,
    )


def _run_quantile(cfg: ExperimentConfig, record_time: bool) -> list[str]:
    from . import quantile as Q

    spec = _quantile_spec(cfg, cfg.sigma_list[0])
    out = Q.run_sigma_sweep(
        spec, cfg.sigma_list, iters=cfg.iters, out_dir=cfg.out, record_time=record_time
    )
    return [entry["path"] for entry in out.values()]


def _ct_pieces(cfg: ExperimentConfig):
    from .ct import forward as F

    p = cfg.problem
    geom = F.CtGeometry(
        grid_nx=p.grid_nx,
        grid_ny=p.grid_ny,
        pixel_size=p.pixel_size_cm,
        n_angles=p.n_angles,
        n_detectors=p.n_detectors,
        detector_span=p.detector_span_cm,
    )
    model = F.build_spectral_model(
        materials=p.materials,
        energy_min=p.energy_min_kev,
        energy_max=p.energy_max_kev,
        n_energies=p.n_energies,
        n_windows=p.n_windows,
        window_thresholds=p.window_thresholds_kev,
        window_blur_kev=p.window_blur_kev,
        total_photons=p.beam_photons,
        attenuation_path=p.attenuation_file,
        spectrum_path=p.spectrum_file,
    )
    if p.phantom == "default":
        phantom = F.default_phantom(geom, p.materials)
    else:
        phantom = F.load_phantom(p.phantom, geom)
    return geom, model, phantom


def _run_ct(cfg: ExperimentConfig, record_time: bool) -> list[str]:
    from .ct import recon as R

    try:
        geom, model, phantom = _ct_pieces(cfg)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"ct inputs: {exc}") from exc
    summary = R.run_ct_experiment(
        geom,
        model,
        phantom,
        sigma_list=cfg.sigma_list,
        iters=cfg.iters,
        seed=cfg.seed,
        out_dir=cfg.out,
        newton_iters=cfg.problem.newton_iters,
        record_time=record_time,
    )
    with open(os.path.join(cfg.out, "ct_report.json"), "w") as fh:
        json.dump(
            {"fosp_ratio": summary["fosp_ratio"], "active_rays": summary["active_rays"]},
            fh,
            indent=2,
        )
    return [entry["path"] for entry in summary["runs"].values()]


def _run_custom_sigma(cfg: ExperimentConfig, sigma: float, record_time: bool) -> str:
    """Seeded L1-regularized least squares on the generic engine."""
    from . import engine
    from .engine import AdmmProblem, CompositeObjective, DenseMap, ScaledIdentity
    from .numerics import DiagonalMatrix, spectral_norm
    from .prox import soft_threshold

    p = cfg.problem
    rng = np.random.default_rng(cfg.seed)
    a = np.eye(p.n, p.d) + p.scale * rng.standard_normal((p.n, p.d))
    w = p.scale * rng.standard_normal(p.n)
    gamma = spectral_norm(a, rel_tol=1e-12) ** 2 * (1 + 1e-6)

    def prox_x(lin, D, center):
        s = float(D.diag[0])
        return soft_threshold(center - lin / s, p.lam / s)

    def prox_y(lin, D, center):
        return (w - lin + sigma * center) / (1.0 + sigma)

    problem = AdmmProblem(
        A=DenseMap(a),
        B=ScaledIdentity(p.n, -1.0),
        c=np.zeros(p.n),
        sigma=DiagonalMatrix(np.full(p.n, sigma)),
        f=CompositeObjective(prox_step=prox_x),
        g=CompositeObjective(prox_step=prox_y),
        D_f=DiagonalMatrix(np.full(p.d, sigma * gamma)),
        D_g=DiagonalMatrix(np.full(p.n, 1.0 + sigma)),
        objective=lambda x, y, ax: 0.5 * float(np.sum((ax - w) ** 2))
        + p.lam * float(np.abs(x).sum()),
    )
    result = engine.run(problem, iters=cfg.iters, record_time=record_time)
    path = os.path.join(cfg.out, f"custom_sigma{sigma:g}.csv")
    engine.save_trace(path, result.trace)
    return path


def _run_custom(cfg: ExperimentConfig, record_time: bool) -> list[str]:
    return [_run_custom_sigma(cfg, float(s), record_time) for s in cfg.sigma_list]


def _worker_entry(args):
    cfg_sections, sigma, record_time = args
    from .config import config_from_sections

    cfg = config_from_sections(cfg_sections)
    cfg = replace(cfg, sigma_list=(sigma,))
    return _EXPERIMENTS[cfg.kind](cfg, record_time)


_EXPERIMENTS = {
    "quantile": _run_quantile,
    "ct": _run_ct,
    "custom": _run_custom,
}


def _write_manifest(cfg: ExperimentConfig) -> str:
    manifest = {
        "config": config_to_manifest_dict(cfg),
        "versions": {
            "ncadmm": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    path = os.path.join(cfg.out, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def _resolve_config(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = parse_config(args.config)
        if args.experiment is not None and args.experiment != cfg.kind:
            raise ConfigError(
                f"--experiment {args.experiment!r} conflicts with config kind {cfg.kind!r}"
            )
    elif args.experiment is not None:
        cfg = default_config(args.experiment)
    else:
        raise ConfigError("either --config or --experiment is required")
    if args.sigma is not None:
        try:
            sigmas = tuple(float(tok) for tok in args.sigma.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"--sigma must be comma-separated numbers: {exc}") from exc
        cfg = replace(cfg, sigma_list=sigmas)
    if args.iters is not None:
        cfg = replace(cfg, iters=args.iters)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    if _sequential_mode():
        cfg = replace(cfg, workers=1)
    cfg.validate()
    return cfg


def cmd_run(args) -> int:
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(cfg.out, exist_ok=True)
    record_time = not _sequential_mode()
    try:
        if cfg.workers > 1 and len(cfg.sigma_list) > 1:
            sections = config_to_manifest_dict(cfg)
            jobs = [(sections, float(s), record_time) for s in cfg.sigma_list]
            with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                paths = [p for chunk in pool.map(_worker_entry, jobs) for p in chunk]
        else:
            paths = _EXPERIMENTS[cfg.kind](cfg, record_time)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AdmmStepError, FloatingPointError, ValueError) as exc:
        # ValueError also covers np.linalg.LinAlgError and set-up failures
        # outside the engine, e.g. a nonpositive CT window mean at y*.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    manifest = _write_manifest(cfg)
    print(f"wrote {len(paths)} trace file(s) and {manifest}")
    for p in paths:
        print(f"  {p}")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: kind={cfg.kind} sigmas={list(cfg.sigma_list)} iters={cfg.iters} seed={cfg.seed}")
    return EXIT_OK


def cmd_summarize(args) -> int:
    from .engine import load_trace

    paths = args.traces
    if not paths and args.out is not None:
        paths = sorted(
            os.path.join(args.out, name)
            for name in os.listdir(args.out)
            if name.endswith(".csv")
        )
    if not paths:
        print("no trace files given (pass files or --out DIR)", file=sys.stderr)
        return EXIT_CONFIG
    # gnuplot-compatible: '#' comments, whitespace-separated columns
    print("# file final_iter final_objective min_objective final_primal_residual")
    for path in paths:
        records, _ = load_trace(path)
        objectives = [r.objective for r in records]
        last = records[-1]
        print(
            f"{os.path.basename(path)} {last.t} {last.objective!r} "
            f"{min(objectives)!r} {last.primal_residual!r}"
        )
        if args.data_dir is not None:
            os.makedirs(args.data_dir, exist_ok=True)
            stem = os.path.splitext(os.path.basename(path))[0]
            dat = os.path.join(args.data_dir, stem + ".dat")
            with open(dat, "w") as fh:
                fh.write("# iter objective primal_residual\n")
                for r in records:
                    fh.write(f"{r.t} {r.objective!r} {r.primal_residual!r}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ncadmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--experiment", choices=("quantile", "ct", "custom"))
        p.add_argument("--config", help="INI config file or manifest.json")
        p.add_argument("--sigma", help="comma-separated sigma values (overrides config)")
        p.add_argument("--iters", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--workers", type=int)

    run_p = sub.add_parser("run", help="run an experiment sweep")
    add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate-config", help="validate without running")
    add_common(val_p)
    val_p.set_defaults(func=cmd_validate)

    sum_p = sub.add_parser("summarize", help="summarize trace files")
    sum_p.add_argument("traces", nargs="*", help="trace csv files")
    sum_p.add_argument("--out", help="directory containing trace files")
    sum_p.add_argument("--data-dir", help="also write per-trace .dat files here")
    sum_p.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
