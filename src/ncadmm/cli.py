"""Experiment runner CLI.

Subcommands:
    run              execute an experiment (quantile / ct sigma sweep)
    validate-config  parse and validate a config file, no computation
    summarize        emit a gnuplot-friendly summary of trace files

`run` writes, under --out: one trace file per sigma, reconstructed images for
the ct experiment, and manifest.json (resolved config + seed + versions),
which can itself be passed back as --config to reproduce the run. Exit codes:
0 success, 2 invalid configuration or arguments, 3 numerical failure.

Setting NCADMM_SEQUENTIAL=1 zeroes the per-iteration timing column so trace
files are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from . import quantile as Q
from .config import (
    ConfigError,
    ExperimentConfig,
    config_from_sections,
    config_to_manifest_dict,
    read_sections,
)
from .ct import forward as F
from .ct import recon as R
from .engine import AdmmStepError, load_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SEQUENTIAL_ENV = "NCADMM_SEQUENTIAL"


def _sequential_mode() -> bool:
    return os.environ.get(SEQUENTIAL_ENV, "") not in ("", "0")


def _run_quantile(cfg: ExperimentConfig, record_time: bool) -> list[str]:
    spec = Q.QuantileProblemSpec(
        **cfg.params(Q.QuantileProblemSpec), sigma=cfg.sigma_list[0], seed=cfg.seed
    )
    out = Q.run_sigma_sweep(
        spec, cfg.sigma_list, iters=cfg.iters, out_dir=cfg.out, record_time=record_time
    )
    return [entry["path"] for entry in out.values()]


def _run_ct(cfg: ExperimentConfig, record_time: bool) -> list[str]:
    try:
        geom = F.CtGeometry(**cfg.params(F.CtGeometry))
        model = F.build_spectral_model(**cfg.params(F.build_spectral_model))
        phantom = F.make_phantom(geom, **cfg.params(F.make_phantom))
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
        newton_iters=cfg.problem["newton_iters"],
        record_time=record_time,
    )
    with open(os.path.join(cfg.out, "ct_report.json"), "w") as fh:
        json.dump(
            {
                "fosp_ratio": summary["fosp_ratio"],
                "active_rays": summary["active_rays"],
                "sigmas": {f"{s:g}": e["newton"] for s, e in summary["runs"].items()},
            },
            fh,
            indent=2,
        )
    return [entry["path"] for entry in summary["runs"].values()]


_EXPERIMENTS = {
    "quantile": _run_quantile,
    "ct": _run_ct,
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
        sections = read_sections(args.config)
    elif args.experiment is not None:
        sections = {"experiment": {"kind": args.experiment}}
    else:
        raise ConfigError("either --config or --experiment is required")
    overrides = {"sigma_list": args.sigma, "iters": args.iters, "seed": args.seed, "out": args.out}
    cfg = config_from_sections(sections, {k: v for k, v in overrides.items() if v is not None})
    if args.experiment is not None and args.experiment != cfg.kind:
        raise ConfigError(
            f"--experiment {args.experiment!r} conflicts with config kind {cfg.kind!r}"
        )
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
    traces = []
    for path in paths:
        try:
            records, _ = load_trace(path)
            if not records:
                raise ValueError("no iterations recorded")
        except (OSError, ValueError) as exc:
            print(f"bad trace file {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        traces.append((path, records))
    # gnuplot-compatible: '#' comments, whitespace-separated columns
    print("# file final_iter final_objective min_objective final_primal_residual")
    for path, records in traces:
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
        p.add_argument("--experiment", choices=("quantile", "ct"))
        p.add_argument("--config", help="INI config file or manifest.json")
        p.add_argument("--sigma", help="comma-separated sigma values (overrides config)")
        p.add_argument("--iters", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")

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
