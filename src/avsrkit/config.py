"""Flat ``key = value`` config files shared by the CLI subcommands."""

from __future__ import annotations

from dataclasses import replace

from .metrics import DcfParams
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def parse_kv_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def parse_bool(value: str) -> bool:
    if value.lower() in ("1", "true", "yes", "on"):
        return True
    if value.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


TRAIN_KEYS = {
    "lr": ("learning_rate", float),
    "batch_size": ("batch_size", int),
    "max_epochs": ("max_epochs", int),
    "patience": ("patience", int),
    "seed": ("rng_seed", int),
    "optimizer": ("optimizer", str),
    "hidden_dim": ("hidden_dim", int),
    "output_dim": ("output_dim", int),
}

DCF_KEYS = {
    "p_target": ("p_target", float),
    "c_miss": ("c_miss", float),
    "c_fa": ("c_fa", float),
}


def reject_unknown_keys(path, kv: dict, known) -> None:
    """Raise ConfigError naming the file and every key of kv not in known."""
    unknown = [key for key in kv if key not in known]
    if unknown:
        raise ConfigError(f"{path}: unknown config key {', '.join(map(repr, unknown))}")


def train_config_from_dict(kv: dict, base: TrainConfig | None = None) -> TrainConfig:
    config = base or TrainConfig()
    updates = {}
    for key, value in kv.items():
        if key in TRAIN_KEYS:
            field, cast = TRAIN_KEYS[key]
            updates[field] = cast(value)
    return replace(config, **updates)


def dcf_params_from_dict(kv: dict, base: DcfParams | None = None) -> DcfParams:
    params = base or DcfParams()
    updates = {}
    for key, value in kv.items():
        if key in DCF_KEYS:
            field, cast = DCF_KEYS[key]
            updates[field] = cast(value)
    return replace(params, **updates)
