"""Flat text checkpoint container shared by all trained models.

Layout: a magic header line, a ``kind`` line, then one line per entry:

    #AVSRKIT-CKPT v1
    kind<TAB><model-kind>
    scalar<TAB><name><TAB><repr(value)>
    array<TAB><name><TAB><d1,d2,...><TAB><row-major repr() values, space separated>

Values are written with ``repr()`` so binary64 coefficients round-trip
bit-exactly.
"""

from __future__ import annotations

import numpy as np

MAGIC = "#AVSRKIT-CKPT v1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, kind: str, arrays: dict, scalars: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MAGIC + "\n")
        fh.write(f"kind\t{kind}\n")
        for name, value in (scalars or {}).items():
            fh.write(f"scalar\t{name}\t{repr(float(value))}\n")
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            shape = ",".join(str(d) for d in arr.shape)
            values = " ".join(repr(float(v)) for v in arr.ravel())
            fh.write(f"array\t{name}\t{shape}\t{values}\n")


def load_checkpoint(path):
    """Returns (kind, arrays, scalars)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: missing checkpoint magic {MAGIC!r}")
    kind = None
    arrays = {}
    scalars = {}
    seen = {}  # (entry type, name) -> line number
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if fields[0] == "kind" and len(fields) == 2:
            kind = fields[1]
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
    if kind is None:
        raise CheckpointError(f"{path}: missing kind entry")
    return kind, arrays, scalars
