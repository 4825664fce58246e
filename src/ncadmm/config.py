"""Strict flat-file experiment configuration.

INI-style sections, one per concern; unknown sections or keys are errors so a
typo cannot silently fall back to a default. A JSON manifest written by a
previous run parses to the same structure, which is how runs are reproduced.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import asdict, dataclass, fields

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "QuantileConfig",
    "CtConfig",
    "CustomConfig",
    "parse_config",
    "config_from_sections",
    "default_config",
    "config_to_manifest_dict",
]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class QuantileConfig:
    d: int = 2000
    n: int = 1000
    s_star: int = 10
    q: float = 0.5
    lam: float = 0.1
    beta: float = 0.5
    radius: float = math.inf

    # config-file spellings for fields whose Python names differ
    ALIASES = {"lambda": "lam", "R": "radius"}

    def validate(self):
        if not (0 < self.s_star <= self.d):
            raise ConfigError("s_star must lie in [1, d]")
        if not (0.0 < self.q < 1.0):
            raise ConfigError(f"q must lie in (0, 1), got {self.q}")
        if self.lam <= 0:
            raise ConfigError("lambda must be positive")
        if not self.beta > 0:
            raise ConfigError("beta must be positive (inf allowed)")
        if not self.radius > 0:
            raise ConfigError("R must be positive (inf allowed)")


@dataclass
class CtConfig:
    grid_nx: int = 25
    grid_ny: int = 25
    pixel_size_cm: float = 0.4
    n_angles: int = 50
    n_detectors: int = 50
    detector_span_cm: float | None = None  # None = grid diagonal
    materials: tuple = ("pmma", "aluminum", "gadolinium")
    energy_min_kev: float = 20.0
    energy_max_kev: float = 120.0
    n_energies: int = 100
    n_windows: int = 3
    window_thresholds_kev: tuple | None = None  # None = equal-count windows
    window_blur_kev: float = 4.0
    beam_photons: float = 1e6
    newton_iters: int = 10
    attenuation_file: str | None = None  # None = bundled table
    spectrum_file: str | None = None
    phantom: str = "default"

    def validate(self):
        if min(self.grid_nx, self.grid_ny, self.n_angles, self.n_detectors) <= 0:
            raise ConfigError("grid_nx/grid_ny/n_angles/n_detectors must be positive")
        if self.pixel_size_cm <= 0:
            raise ConfigError("pixel_size_cm must be positive")
        if self.n_energies < 1:
            raise ConfigError("n_energies must be positive")
        if self.n_windows < 1:
            raise ConfigError("n_windows must be positive")
        if self.window_blur_kev < 0:
            raise ConfigError("window_blur_kev must be nonnegative")
        if self.beam_photons <= 0:
            raise ConfigError("beam_photons must be positive")
        if self.newton_iters < 1:
            raise ConfigError("newton_iters must be positive")


@dataclass
class CustomConfig:
    """L1-regularized least squares sandbox run through the generic engine."""

    d: int = 5
    n: int = 5
    lam: float = 0.1
    scale: float = 0.2

    ALIASES = {"lambda": "lam"}

    def validate(self):
        if min(self.d, self.n) <= 0:
            raise ConfigError("d and n must be positive")
        if self.lam <= 0:
            raise ConfigError("lambda must be positive")


_KIND_SECTIONS = {"quantile": QuantileConfig, "ct": CtConfig, "custom": CustomConfig}

_KIND_DEFAULTS = {
    "quantile": dict(sigma_list=(5e-5, 1e-4, 2e-4, 5e-4), iters=500),
    "ct": dict(sigma_list=(1.0, 10.0, 100.0), iters=1000),
    "custom": dict(sigma_list=(1.0,), iters=2000),
}


@dataclass
class ExperimentConfig:
    kind: str = "quantile"
    sigma_list: tuple = ()
    iters: int = 0
    seed: int = 20240801
    out: str = "."
    workers: int = 1
    problem: object = None

    def validate(self):
        if self.kind not in _KIND_SECTIONS:
            raise ConfigError(f"kind must be one of {sorted(_KIND_SECTIONS)}, got {self.kind!r}")
        if not self.sigma_list:
            raise ConfigError("sigma_list must not be empty")
        if any(s <= 0 for s in self.sigma_list):
            raise ConfigError("sigma_list entries must be positive")
        if self.iters < 1:
            raise ConfigError("iters must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        self.problem.validate()


def _coerce(section_name: str, key: str, raw, template) -> object:
    aliases = getattr(template, "ALIASES", None) or {}
    name = aliases.get(key, key)
    valid = {f.name for f in fields(template)}
    if name not in valid:
        raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
    current = getattr(template, name)
    if isinstance(raw, str):
        raw = raw.strip()
        if raw.lower() in ("none", "auto"):
            return name, None
        if isinstance(current, int):
            return name, int(raw)
        if isinstance(current, float) or current is None and name.endswith("_cm"):
            return name, float(raw)
        if isinstance(current, tuple) or name in ("materials", "window_thresholds_kev"):
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if name == "materials":
                return name, tuple(parts)
            return name, tuple(float(p) for p in parts)
    return name, raw


def config_from_sections(sections: dict) -> ExperimentConfig:
    """Build and validate a config from {section: {key: value}} mappings."""
    sections = {k: dict(v) for k, v in sections.items()}
    exp_raw = sections.pop("experiment", {})
    kind = str(exp_raw.pop("kind", "quantile")).strip()
    if kind not in _KIND_SECTIONS:
        raise ConfigError(f"kind must be one of {sorted(_KIND_SECTIONS)}, got {kind!r}")

    problem = _KIND_SECTIONS[kind]()
    prob_raw = sections.pop(kind, {})
    for key, value in prob_raw.items():
        name, coerced = _coerce(kind, key, value, problem)
        setattr(problem, name, coerced)

    for stray in sections:
        raise ConfigError(f"unknown section [{stray}]")

    defaults = _KIND_DEFAULTS[kind]
    cfg = ExperimentConfig(
        kind=kind,
        sigma_list=tuple(defaults["sigma_list"]),
        iters=defaults["iters"],
        problem=problem,
    )
    for key, value in exp_raw.items():
        if key == "sigma_list":
            if isinstance(value, str):
                value = tuple(float(p) for p in value.split(",") if p.strip())
            else:
                value = tuple(float(v) for v in value)
            cfg.sigma_list = value
        elif key == "iters":
            cfg.iters = int(value)
        elif key == "seed":
            cfg.seed = int(value)
        elif key == "out":
            cfg.out = str(value).strip()
        elif key == "workers":
            cfg.workers = int(value)
        else:
            raise ConfigError(f"unknown key {key!r} in section [experiment]")
    cfg.validate()
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Parse an INI config file, or a manifest.json from a previous run."""
    text = open(path).read()
    if str(path).endswith(".json"):
        manifest = json.loads(text)
        return config_from_sections(manifest["config"])
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return config_from_sections({s: dict(parser.items(s)) for s in parser.sections()})


def default_config(kind: str) -> ExperimentConfig:
    return config_from_sections({"experiment": {"kind": kind}})


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, tuple):
        return list(value)
    return value


def config_to_manifest_dict(cfg: ExperimentConfig) -> dict:
    problem = {k: _jsonable(v) for k, v in asdict(cfg.problem).items()}
    return {
        "experiment": {
            "kind": cfg.kind,
            "sigma_list": list(cfg.sigma_list),
            "iters": cfg.iters,
            "seed": cfg.seed,
            "out": cfg.out,
            "workers": cfg.workers,
        },
        cfg.kind: problem,
    }
