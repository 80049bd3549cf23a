"""One builder from ``key = value`` config files and flags to config dataclasses:
a field is a key, cast by its type; a dataclass-typed field adds its class's keys."""

from __future__ import annotations

import dataclasses
import difflib
import typing

from .training import TrainConfig


class ConfigError(ValueError):
    pass


# field -> config key, where the key differs from the field name
_SPELLINGS = {TrainConfig: {"learning_rate": "lr", "rng_seed": "seed"}}


def parse_kv_file(path) -> dict:
    """Parse ``key = value`` lines into {key: (value, lineno)}; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ConfigError(f"{path}:{lineno}: repeated config key {key!r} "
                                  f"(first on line {out[key][1]})")
            out[key] = (value, lineno)
    return out


def parse_bool(value: str) -> bool:
    if value.lower() in ("1", "true", "yes", "on"):
        return True
    if value.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def config_keys(cls) -> dict:
    """{config key: (field path, field type)} for every key cls accepts."""
    hints = typing.get_type_hints(cls)
    keys = {}
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if dataclasses.is_dataclass(kind):
            keys.update({key: ((f.name,) + path, t)
                         for key, (path, t) in config_keys(kind).items()})
        else:
            keys[_SPELLINGS.get(cls, {}).get(f.name, f.name)] = ((f.name,), kind)
    return keys


def _where(source, line):
    return f"{source}:{line}" if line else str(source)


def _replace(obj, updates: dict):
    """obj with updates {field path: value} applied, nested dataclasses included."""
    top = {path[0]: value for path, value in updates.items() if len(path) == 1}
    for name in {path[0] for path in updates if len(path) > 1}:
        top[name] = _replace(getattr(obj, name), {path[1:]: value for path, value
                                                  in updates.items() if path[0] == name})
    return dataclasses.replace(obj, **top)


def build(cls, entries: dict, source, base=None):
    """base (default ``cls()``) with entries {key: (value, lineno or None)} applied.

    String values are cast by the field's type. Every unknown key, a value
    that does not cast and a check that ``__post_init__`` fails raise a
    ConfigError that names source, line and key.
    """
    keys = config_keys(cls)
    unknown = []
    for key, (_, line) in entries.items():
        if key not in keys:
            close = difflib.get_close_matches(key, keys, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            unknown.append(f"{_where(source, line)}: unknown config key {key!r}{hint}")
    if unknown:
        raise ConfigError("\n".join(unknown))
    updates = {}
    for key, (value, line) in entries.items():
        path, kind = keys[key]
        if isinstance(value, str):
            try:
                value = parse_bool(value) if kind is bool else kind(value)
            except ValueError:
                raise ConfigError(f"{_where(source, line)}: {key}: "
                                  f"expected {kind.__name__}, got {value!r}") from None
        updates[path] = value
    try:
        return _replace(base if base is not None else cls(), updates)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
