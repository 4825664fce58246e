"""Strict flat-file experiment configuration.

INI-style sections, one per concern; unknown sections or keys are errors so a
typo cannot silently fall back to a default. A JSON manifest written by a
previous run parses to the same structure, which is how runs are reproduced.
"""

from __future__ import annotations

import configparser
import json
import math
import types
import typing
from dataclasses import asdict, dataclass

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "QuantileConfig",
    "CtConfig",
    "read_sections",
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
    materials: tuple[str, ...] = ("pmma", "aluminum", "gadolinium")
    energy_min_kev: float = 20.0
    energy_max_kev: float = 120.0
    n_energies: int = 100
    n_windows: int = 3
    window_thresholds_kev: tuple[float, ...] | None = None  # None = equal-count windows
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


_KIND_SECTIONS = {"quantile": QuantileConfig, "ct": CtConfig}

_KIND_DEFAULTS = {
    "quantile": dict(sigma_list=(5e-5, 1e-4, 2e-4, 5e-4), iters=500),
    "ct": dict(sigma_list=(1.0, 10.0, 100.0), iters=1000),
}


@dataclass
class ExperimentConfig:
    kind: str = "quantile"
    sigma_list: tuple[float, ...] = ()
    iters: int = 0
    seed: int = 20240801
    out: str = "."
    problem: object = None

    def validate(self):
        if not self.sigma_list:
            raise ConfigError("[experiment] sigma_list must not be empty")
        if not all(0.0 < s < math.inf for s in self.sigma_list):
            raise ConfigError(
                f"[experiment] sigma_list entries must be positive and finite, "
                f"got {list(self.sigma_list)}"
            )
        if self.iters < 1:
            raise ConfigError("[experiment] iters must be at least 1")
        self.problem.validate()


def _convert(where: str, raw, kind):
    """`raw`, INI text or a JSON value, as a value of the declared field type `kind`.

    `X | None` takes `none`/`auto` (or JSON null) as None; tuples take a
    comma-separated string or a JSON list; floats reject NaN.
    """
    if isinstance(kind, types.UnionType):  # X | None
        if raw is None or isinstance(raw, str) and raw.strip().lower() in ("none", "auto"):
            return None
        (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
        return _convert(where, raw, kind)
    if typing.get_origin(kind) is tuple:
        parts = [p.strip() for p in raw.split(",") if p.strip()] if isinstance(raw, str) else raw
        if not isinstance(parts, list):
            raise ConfigError(f"{where}: expected a comma-separated list, got {raw!r}")
        item = typing.get_args(kind)[0]
        return tuple(_convert(where, p, item) for p in parts)
    wrong = ConfigError(f"{where}: expected {kind.__name__}, got {raw!r}")
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise wrong
    try:
        value = kind(str(raw).strip())
    except ValueError:
        raise wrong from None
    if kind is float and math.isnan(value):
        raise ConfigError(f"{where}: NaN is not allowed")
    return value


def _set_fields(target, section: str, raw: dict, names=None) -> None:
    """Convert each `key = value` of `raw` by the type of its field on `target`.

    `names` limits the settable fields (default: all of them).
    """
    hints = typing.get_type_hints(type(target))
    aliases = getattr(target, "ALIASES", {})
    for key, value in raw.items():
        name = aliases.get(key, key)
        if name not in (hints if names is None else names):
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        setattr(target, name, _convert(f"[{section}] {key}", value, hints[name]))


def config_from_sections(sections: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build and validate a config from {section: {key: value}} mappings.

    `overrides` replaces [experiment] keys (the command line's --sigma etc.)
    and is converted like them.
    """
    for name, body in sections.items():
        if not isinstance(body, dict):
            raise ConfigError(f"section [{name}] must map keys to values")
    sections = dict(sections)
    exp_raw = {**sections.pop("experiment", {}), **(overrides or {})}
    kind = _convert("[experiment] kind", exp_raw.pop("kind", "quantile"), str)
    if kind not in _KIND_SECTIONS:
        raise ConfigError(
            f"[experiment] kind must be one of {sorted(_KIND_SECTIONS)}, got {kind!r}"
        )
    # Sweeps run in one process; the key stays readable so that manifests
    # written with it still reproduce.
    workers = exp_raw.pop("workers", 1)
    if _convert("[experiment] workers", workers, int) != 1:
        raise ConfigError(f"[experiment] workers must be 1, got {workers!r}")

    problem = _KIND_SECTIONS[kind]()
    _set_fields(problem, kind, sections.pop(kind, {}))
    for stray in sections:
        raise ConfigError(f"unknown section [{stray}]")

    cfg = ExperimentConfig(kind=kind, problem=problem, **_KIND_DEFAULTS[kind])
    _set_fields(cfg, "experiment", exp_raw, ("sigma_list", "iters", "seed", "out"))
    cfg.validate()
    return cfg


def read_sections(path) -> dict:
    """{section: {key: value}} of an INI config file or a previous run's manifest.json."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if str(path).endswith(".json"):
        try:
            manifest = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed manifest {path}: {exc}") from None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
            raise ConfigError(f'manifest {path} has no "config" entry')
        return manifest["config"]
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser messages span lines; the CLI reports one
        raise ConfigError(f"malformed config {path}: {' '.join(str(exc).split())}") from None
    return {s: dict(parser.items(s)) for s in parser.sections()}


def parse_config(path) -> ExperimentConfig:
    """Parse an INI config file, or a manifest.json from a previous run."""
    return config_from_sections(read_sections(path))


def default_config(kind: str) -> ExperimentConfig:
    return config_from_sections({"experiment": {"kind": kind}})


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, tuple):
        return list(value)
    return value


def config_to_manifest_dict(cfg: ExperimentConfig) -> dict:
    experiment = {k: _jsonable(v) for k, v in asdict(cfg).items() if k != "problem"}
    problem = {k: _jsonable(v) for k, v in asdict(cfg.problem).items()}
    return {"experiment": experiment, cfg.kind: problem}
