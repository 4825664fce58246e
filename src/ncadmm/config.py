"""Strict flat-file experiment configuration.

INI-style sections, one per concern; unknown sections or keys are errors so a
typo cannot silently fall back to a default. A JSON manifest written by a
previous run parses to the same structure, which is how runs are reproduced.

The section named after the kind only maps its keys onto library parameters:
`[quantile]` fills `QuantileProblemSpec`, `[ct]` fills `CtGeometry`,
`build_spectral_model` and `make_phantom`. Types, defaults and range checks
are the library's.
"""

from __future__ import annotations

import configparser
import inspect
import json
import math
import re
import types
import typing
from dataclasses import asdict, dataclass

from .ct import forward as F
from .ct import recon as R
from .engine import check_sweep
from .quantile import QuantileProblemSpec

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "read_sections",
    "config_from_sections",
    "config_to_manifest_dict",
]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# The settable keys of each kind's section, in manifest order.
# QuantileProblemSpec's sigma and seed come from [experiment].
KEYS = {
    "quantile": ("d", "n", "s_star", "q", "lam", "beta", "radius"),
    "ct": (
        "grid_nx", "grid_ny", "pixel_size_cm", "n_angles", "n_detectors", "detector_span_cm",
        "materials", "energy_min_kev", "energy_max_kev", "n_energies", "n_windows",
        "window_thresholds_kev", "window_blur_kev", "beam_photons", "attenuation_file",
        "spectrum_file", "phantom",
    ),
}

# (section, key): value of settings that are constants now (sweeps run in one
# process; the Newton cap is fixed). The keys stay readable, at that value
# only, so that manifests written with them still reproduce.
RETIRED = {
    ("experiment", "workers"): 1,
    ("ct", "newton_iters"): R.DEFAULT_NEWTON_ITERS,
}

# Config spellings of library parameter names. `lambda` and `R` are also
# accepted for the manifest's `lam` and `radius`.
ALIASES = {
    "lambda": "lam",
    "R": "radius",
    "pixel_size_cm": "pixel_size",
    "detector_span_cm": "detector_span",
    "energy_min_kev": "energy_min",
    "energy_max_kev": "energy_max",
    "window_thresholds_kev": "window_thresholds",
    "beam_photons": "total_photons",
    "attenuation_file": "attenuation_path",
    "spectrum_file": "spectrum_path",
}

# The library callables whose parameters each kind's keys are. Validation
# calls all of them but make_phantom: only `run` reads the phantom file.
_TARGETS = {
    "quantile": (QuantileProblemSpec,),
    "ct": (F.CtGeometry, F.build_spectral_model, F.make_phantom),
}

_KIND_DEFAULTS = {
    "quantile": dict(sigma_list=(5e-5, 1e-4, 2e-4, 5e-4), iters=500),
    "ct": dict(sigma_list=(1.0, 10.0, 100.0), iters=1000),
}


@dataclass
class ExperimentConfig:
    kind: str
    sigma_list: tuple[float, ...]
    iters: int
    seed: int
    out: str
    problem: dict  # {key: value} of the kind's section, in manifest order

    def params(self, target) -> dict:
        """The problem values that are parameters of `target`, by library name."""
        names = inspect.signature(target).parameters
        named = ((ALIASES.get(key, key), value) for key, value in self.problem.items())
        return {name: value for name, value in named if name in names}

    def validate(self):
        try:
            check_sweep(self.sigma_list, self.iters)
        except ValueError as exc:
            raise ConfigError(f"[experiment] {exc}") from None
        if self.seed < 0:
            raise ConfigError(f"[experiment] seed must be nonnegative, got {self.seed}")


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


def _set_fields(values: dict, section: str, raw: dict, hints: dict) -> dict:
    """Convert each `key = value` of `raw` into `values` by its declared type.

    A key is one of `values` or an ALIASES spelling of one; `hints` holds the
    types by library name. Returns {library name: key as the config spells it}.
    """
    spelling = {ALIASES.get(key, key): key for key in values}
    for key, value in raw.items():
        name = ALIASES.get(key, key)
        if key not in values and ALIASES.get(key) not in spelling:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        values[spelling[name]] = _convert(f"[{section}] {key}", value, hints[name])
        spelling[name] = key
    return spelling


def config_from_sections(sections: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build and validate a config from {section: {key: value}} mappings.

    `overrides` replaces [experiment] keys (the command line's --sigma etc.)
    and is converted like them. The problem values are checked by the
    library; a ValueError there names the section and the keys as spelled.
    """
    for name, body in sections.items():
        if not isinstance(body, dict):
            raise ConfigError(f"section [{name}] must map keys to values")
    sections = {name: dict(body) for name, body in sections.items()}
    for (section, key), value in RETIRED.items():
        raw = sections.get(section, {}).pop(key, value)
        if _convert(f"[{section}] {key}", raw, int) != value:
            raise ConfigError(f"[{section}] {key} must be {value}, got {raw!r}")
    exp_raw = {**sections.pop("experiment", {}), **(overrides or {})}
    kind = _convert("[experiment] kind", exp_raw.pop("kind", "quantile"), str)
    if kind not in KEYS:
        raise ConfigError(f"[experiment] kind must be one of {sorted(KEYS)}, got {kind!r}")

    hints, defaults = {}, {}
    for target in _TARGETS[kind]:
        hints.update(typing.get_type_hints(target))
        defaults.update((n, p.default) for n, p in inspect.signature(target).parameters.items())
    problem = {key: defaults[ALIASES.get(key, key)] for key in KEYS[kind]}
    spelling = _set_fields(problem, kind, sections.pop(kind, {}), hints)
    for stray in sections:
        raise ConfigError(f"unknown section [{stray}]")

    experiment = dict(_KIND_DEFAULTS[kind], seed=20240801, out=".")
    _set_fields(experiment, "experiment", exp_raw, typing.get_type_hints(ExperimentConfig))
    cfg = ExperimentConfig(kind=kind, problem=problem, **experiment)
    cfg.validate()
    try:
        for target in _TARGETS[kind]:
            if target is not F.make_phantom:
                target(**cfg.params(target))
    except (OSError, ValueError) as exc:
        message = re.sub(r"\w+", lambda word: spelling.get(word[0], word[0]), str(exc))
        raise ConfigError(f"[{kind}] {message}") from None
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


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, tuple):
        return list(value)
    return value


def config_to_manifest_dict(cfg: ExperimentConfig) -> dict:
    experiment = {k: _jsonable(v) for k, v in asdict(cfg).items() if k != "problem"}
    problem = {k: _jsonable(v) for k, v in cfg.problem.items()}
    return {"experiment": experiment, cfg.kind: problem}
