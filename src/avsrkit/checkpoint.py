"""Flat text checkpoint container shared by all trained models.

Layout: a magic header line, a ``kind`` line, then one line per entry:

    #AVSRKIT-CKPT v1
    kind<TAB><model-kind>
    scalar<TAB><name><TAB><repr(value)>
    array<TAB><name><TAB><d1,d2,...><TAB><row-major repr() values, space separated>

Values are written with ``repr()`` so binary64 coefficients round-trip
bit-exactly. The loader checks the kind asked for and that every value is finite;
``load_model`` also names the file in a model's own check of its values.
"""

from __future__ import annotations

import numpy as np

from .store import _read_text

MAGIC = "#AVSRKIT-CKPT v1"


class CheckpointError(ValueError):
    pass


class _Entries(dict):
    """Values of one entry type by name; a missing name raises a CheckpointError."""

    def __init__(self, path, entry):
        self.missing = f"{path}: missing {entry}"

    def __missing__(self, name):
        raise CheckpointError(f"{self.missing} {name!r}")


def save_checkpoint(path, kind: str, arrays: dict, scalars: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MAGIC + "\n")
        fh.write(f"kind\t{kind}\n")
        for name, value in (scalars or {}).items():
            fh.write(f"scalar\t{name}\t{repr(float(value))}\n")
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            shape = ",".join(str(d) for d in arr.shape)
            values = " ".join(map(repr, arr.ravel().tolist()))
            fh.write(f"array\t{name}\t{shape}\t{values}\n")


def load_checkpoint(path, kind: str):
    """(arrays, scalars) of a checkpoint of the given kind, checked after the entries."""
    lines = _read_text(path, CheckpointError).splitlines()
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: missing checkpoint magic {MAGIC!r}")
    found = None
    arrays, scalars = _Entries(path, "array"), _Entries(path, "scalar")
    seen = {}  # (entry type, name) -> line number
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if fields[0] == "kind" and len(fields) == 2:
            found = fields[1]
            continue
        if (fields[0], len(fields)) not in (("scalar", 3), ("array", 4)):
            raise CheckpointError(f"{path}:{lineno}: unrecognized entry {fields[0]!r}")
        where = f"{path}:{lineno}: {fields[0]} {fields[1]!r}"
        if (first := seen.setdefault((fields[0], fields[1]), lineno)) != lineno:
            raise CheckpointError(f"{where} repeats line {first}")
        try:
            if fields[0] == "scalar":
                scalars[fields[1]] = float(fields[2])
                continue
            shape = tuple(int(d) for d in fields[2].split(",")) if fields[2] else ()
            flat = np.array([float(v) for v in fields[3].split(" ")] if fields[3] else [],
                            dtype=np.float64)
        except ValueError as exc:
            raise CheckpointError(f"{where}: {exc}") from None
        if flat.size != int(np.prod(shape)):
            raise CheckpointError(f"{where}: value count does not match shape")
        arrays[fields[1]] = flat.reshape(shape)
    for (entry, name), lineno in seen.items():
        if not np.isfinite((arrays if entry == "array" else scalars)[name]).all():
            raise CheckpointError(f"{path}:{lineno}: non-finite values in {name}")
    if found is None:
        raise CheckpointError(f"{path}: missing kind entry")
    if found != kind:
        raise CheckpointError(f"{path}: expected kind {kind!r}, found {found!r}")
    return arrays, scalars


def load_model(path, kind: str, build):
    """build(arrays, scalars) of the checkpoint of the given kind at path; a
    ValueError that build raises, such as a model's own check of its values,
    becomes a CheckpointError that names path."""
    arrays, scalars = load_checkpoint(path, kind)
    try:
        return build(arrays, scalars)
    except CheckpointError:
        raise
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
