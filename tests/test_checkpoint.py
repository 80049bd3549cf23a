from dataclasses import fields

import numpy as np
import pytest

from avsrkit.backend import load_lda, load_plda
from avsrkit.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                                save_checkpoint)
from avsrkit.fusion import load_fusion
from avsrkit.vfnet import VFNetParams, load_params

VFNET_ARRAYS = [f.name for f in fields(VFNetParams)]


def vfnet_arrays():
    """Checkpoint arrays of a network with 3-d inputs, hidden layers and outputs."""
    return {name: np.zeros(3) if "_b" in name else np.eye(3) for name in VFNET_ARRAYS}


def write(path, *entries):
    path.write_text("\n".join([MAGIC, "kind\ttest", *entries]) + "\n")
    return path


class TestLoadCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "test", {"mean": np.array([[0.1, -2.0]])}, {"k": 0.3})
        arrays, scalars = load_checkpoint(path, "test")
        assert scalars == {"k": 0.3}
        np.testing.assert_array_equal(arrays["mean"], [[0.1, -2.0]])

    @pytest.mark.parametrize("entry,detail", [
        ("array\tmean\t2\t1.0 x", "array 'mean': could not convert string to float: 'x'"),
        ("array\tmean\t2,a\t1.0 2.0", "array 'mean': invalid literal for int()"),
        ("scalar\tk\tx", "scalar 'k': could not convert string to float: 'x'"),
        ("array\tmean\t3\t1.0 2.0", "array 'mean': value count does not match shape")])
    def test_bad_number_names_line(self, tmp_path, entry, detail):
        path = write(tmp_path / "m.ckpt", "scalar\tok\t1.0", entry)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, "test")
        assert str(exc.value).startswith(f"{path}:4: {detail}")

    @pytest.mark.parametrize("first,again", [
        ("array\tmean\t1\t1.0", "array\tmean\t1\t2.0"),
        ("scalar\tk\t1.0", "scalar\tk\t2.0")])
    def test_repeated_name_names_both_lines(self, tmp_path, first, again):
        path = write(tmp_path / "m.ckpt", first, "", again)
        kind, name = first.split("\t")[:2]
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, "test")
        assert str(exc.value) == f"{path}:5: {kind} {name!r} repeats line 3"

    def test_undecodable_byte_names_line(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(f"{MAGIC}\r\nkind\ttest\r\nscalar\tk\t1.0\xff\n".encode("latin-1"))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, "test")
        assert str(exc.value) == f"{path}:3: not valid UTF-8"

    def test_same_name_as_scalar_and_array(self, tmp_path):
        path = write(tmp_path / "m.ckpt", "scalar\tmean\t1.0", "array\tmean\t1\t2.0")
        arrays, scalars = load_checkpoint(path, "test")
        assert scalars == {"mean": 1.0} and arrays["mean"].tolist() == [2.0]

    def test_malformed_entry_named_before_kind(self, tmp_path):
        path = write(tmp_path / "m.ckpt", "scalar\tk\tx")
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, "lda")
        assert str(exc.value).startswith(f"{path}:3: scalar 'k'")

    def test_missing_kind_entry(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_text(f"{MAGIC}\nscalar\tk\t1.0\n")
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, "test")
        assert str(exc.value) == f"{path}: missing kind entry"

    @pytest.mark.parametrize("load,kind", [
        (load_lda, "lda"), (load_plda, "plda"), (load_fusion, "fusion"),
        (load_params, "vfnet")])
    def test_loader_rejects_another_kind(self, tmp_path, load, kind):
        other = "plda" if kind == "lda" else "lda"
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, other, {"mean": np.zeros(2)})
        with pytest.raises(CheckpointError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: expected kind {kind!r}, found {other!r}"

    @pytest.mark.parametrize("load,kind,arrays,scalars,missing", [
        (load_lda, "lda", {"mean": np.zeros(2)}, {}, "array 'projection'"),
        (load_plda, "plda", {"mu": np.zeros(2), "B": np.eye(2)}, {}, "array 'W'"),
        (load_fusion, "fusion", {"weights": np.ones(2)}, {"effective_prior": 0.5},
         "scalar 'bias'"),
        (load_params, "vfnet", {name: np.zeros((1, 1)) for name in VFNET_ARRAYS[:-1]}, {},
         "array 'face_b2'")])
    def test_loader_names_missing_entry(self, tmp_path, load, kind, arrays, scalars, missing):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, kind, arrays, scalars)
        with pytest.raises(CheckpointError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: missing {missing}"

    @pytest.mark.parametrize("load,kind,entries,line,name", [
        (load_lda, "lda", ("scalar\tlength_norm\t1.0", "array\tprojection\t1,2\t1.0 0.0",
                           "array\tmean\t2\t0.0 nan"), 5, "mean"),
        (load_plda, "plda", ("array\tmu\t1\t0.0", "array\tB\t1,1\tinf",
                             "array\tW\t1,1\t1.0"), 4, "B"),
        (load_fusion, "fusion", ("scalar\tbias\t-inf", "scalar\teffective_prior\t0.5",
                                 "array\tweights\t1\t1.0"), 3, "bias")])
    def test_loader_rejects_non_finite_value(self, tmp_path, load, kind, entries, line, name):
        path = tmp_path / "m.ckpt"
        path.write_text("\n".join([MAGIC, f"kind\t{kind}", *entries]) + "\n")
        with pytest.raises(CheckpointError) as exc:
            load(path)
        assert str(exc.value) == f"{path}:{line}: non-finite values in {name}"

    @pytest.mark.parametrize("load,kind,arrays,scalars,message", [
        (load_lda, "lda", {"projection": np.eye(2, 3), "mean": np.zeros(2)}, {},
         "mean of shape (2,) does not match projection of shape (2, 3)"),
        (load_plda, "plda", {"mu": np.zeros(2), "B": [[1.0, 0.5], [0.0, 1.0]],
                             "W": np.eye(2)}, {}, "B is not symmetric"),
        (load_plda, "plda", {"mu": np.zeros(3), "B": np.eye(2), "W": np.eye(2)}, {},
         "B of shape (2, 2) does not match mu of shape (3,)"),
        (load_fusion, "fusion", {"weights": np.ones(2)}, {"bias": 0.0, "effective_prior": 1.5},
         "effective_prior must be in (0, 1)"),
        (load_params, "vfnet", {**vfnet_arrays(), "voice_w2": np.zeros((3, 2))}, {},
         "voice branch layer shapes do not chain"),
        (load_params, "vfnet", {**vfnet_arrays(), "face_w2": np.zeros(9)}, {},
         "face branch layer shapes do not chain"),
        (load_params, "vfnet", {**vfnet_arrays(), "face_b2": np.zeros(2)}, {},
         "face branch biases do not match its weights"),
        (load_params, "vfnet", {**vfnet_arrays(), "face_w1": np.zeros((3, 2))}, {},
         "face and voice branches differ in input or output dimension")])
    def test_loader_names_file_in_model_check(self, tmp_path, load, kind, arrays, scalars,
                                              message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, kind, arrays, scalars)
        with pytest.raises(CheckpointError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: {message}"
