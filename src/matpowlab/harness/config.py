"""Flat key = value configuration files for experiment runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ..errors import ConfigError

EXPERIMENT_NAMES = (
    "energy",
    "q3",
    "sums",
    "kloosterman",
    "gauss",
    "curves",
    "orbit",
    "catmap",
    "lemma81",
)

CLASS_FILTERS = ("all", "split", "irreducible")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    p_min: int = 5
    p_max: int = 13
    class_filter: str = "all"
    tau_min: int = 1
    tau_max: int | None = None
    nu: tuple = (2, 3)
    moment: int = 6
    samples: int = 2
    s_min: int = 1
    s_max: int = 3
    seed: int = 1
    out: str = "out"
    workers: int = 1
    budget: float = 1.0


# every config key with its annotation, as a string ("int", "int | None", ...)
_KEY_TYPES = {field.name: field.type for field in fields(ExperimentConfig)}


def parse_pairs(text: str) -> dict:
    """Key = value lines with # comments; later keys override earlier ones."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        pairs[key] = value
    return pairs


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def build_config(pairs: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Typed config from raw string pairs plus CLI overrides; validates ranges."""
    typed = {}
    for key, value in pairs.items():
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown key {key!r}")
        if _KEY_TYPES[key] in ("int", "int | None"):
            typed[key] = _to_int(key, value)
        elif key == "nu":
            try:
                typed[key] = tuple(int(part) for part in value.split(","))
            except ValueError:
                raise ConfigError(f"nu must be comma-separated integers, got {value!r}") from None
        elif key == "budget":
            try:
                typed[key] = float(value)
            except ValueError:
                raise ConfigError(f"budget must be a number, got {value!r}") from None
        else:
            typed[key] = value
    if overrides:
        typed.update(overrides)
    if "experiment" not in typed:
        raise ConfigError("missing required key 'experiment'")
    cfg = ExperimentConfig(**typed)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENT_NAMES:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.class_filter not in CLASS_FILTERS:
        raise ConfigError(f"class_filter must be one of {CLASS_FILTERS}")
    if cfg.p_min < 3 or cfg.p_max < cfg.p_min:
        raise ConfigError(f"need 3 <= p_min <= p_max, got [{cfg.p_min}, {cfg.p_max}]")
    if cfg.tau_min < 1:
        raise ConfigError("tau_min must be positive")
    if cfg.tau_max is not None and cfg.tau_max < cfg.tau_min:
        raise ConfigError("tau_max must not undercut tau_min")
    if not cfg.nu or any(v not in (1, 2, 3) for v in cfg.nu):
        raise ConfigError(f"nu entries must be in 1..3, got {cfg.nu}")
    if cfg.experiment == "lemma81" and any(v not in (2, 3) for v in cfg.nu):
        raise ConfigError("lemma81 supports nu = 2 and 3 only")
    if cfg.moment not in (2, 4, 6):
        raise ConfigError(f"moment must be 2, 4, or 6, got {cfg.moment}")
    if cfg.samples < 1:
        raise ConfigError("samples must be positive")
    if cfg.s_min < 1 or cfg.s_max < cfg.s_min:
        raise ConfigError(f"need 1 <= s_min <= s_max, got [{cfg.s_min}, {cfg.s_max}]")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg.workers < 1:
        raise ConfigError("workers must be positive")
    if not (math.isfinite(cfg.budget) and cfg.budget > 0):
        raise ConfigError(f"budget must be a positive finite number, got {cfg.budget!r}")


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read, parse, and validate a config file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    return build_config(parse_pairs(text), overrides)
