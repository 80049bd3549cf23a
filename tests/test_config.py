import pytest

from avsrkit.config import (ConfigError, build, config_keys, parse_bool,
                            parse_kv_file)
from avsrkit.metrics import DcfParams
from avsrkit.pipeline import PipelineConfig
from avsrkit.synth import GenConfig
from avsrkit.training import TrainConfig


def entries(**kv):
    """Builder entries for values given without a line, as flags are."""
    return {key: (value, None) for key, value in kv.items()}


class TestParseKvFile:
    def test_values_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.config"
        p.write_text("# header\nlr = 0.001\n\nbatch_size=64  # inline\n")
        assert parse_kv_file(p) == {"lr": ("0.001", 2), "batch_size": ("64", 4)}

    def test_bad_line_names_lineno(self, tmp_path):
        p = tmp_path / "c.config"
        p.write_text("lr = 0.001\nnot a pair\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_kv_file(p)

    def test_undecodable_byte_names_line(self, tmp_path):
        p = tmp_path / "c.config"
        p.write_bytes(b"# caf\xc3\xa9\rlr = 0.001\nbatch_size = 6\xff4\n")
        with pytest.raises(ConfigError) as exc:
            parse_kv_file(p)
        assert str(exc.value) == f"{p}:3: not valid UTF-8"

    def test_repeated_key_names_both_lines(self, tmp_path):
        p = tmp_path / "c.config"
        p.write_text("lda_dim = 4\n# again\nlda_dim = 8\n")
        with pytest.raises(ConfigError, match=r"c\.config:3: repeated config key "
                                              r"'lda_dim' \(first on line 1\)"):
            parse_kv_file(p)


class TestParseBool:
    @pytest.mark.parametrize("text,expected", [
        ("true", True), ("Yes", True), ("1", True), ("on", True),
        ("false", False), ("No", False), ("0", False), ("off", False),
    ])
    def test_accepted_spellings(self, text, expected):
        assert parse_bool(text) is expected

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_bool("maybe")


class TestConfigBuilders:
    def test_train_overrides(self):
        config = build(TrainConfig, entries(lr="0.01", seed="7", hidden_dim="16"), "t")
        assert config.learning_rate == 0.01
        assert config.rng_seed == 7
        assert config.hidden_dim == 16
        assert config.batch_size == TrainConfig().batch_size  # default untouched

    def test_train_validation_still_applies(self):
        with pytest.raises(ValueError):
            build(TrainConfig, entries(batch_size="1"), "t")

    def test_dcf_overrides(self):
        params = build(DcfParams, entries(p_target="0.01", c_fa="2"), "d")
        assert params.p_target == 0.01
        assert params.c_fa == 2.0
        assert params.c_miss == 1.0


class TestBuild:
    def test_accepted_keys(self):
        train = {"lr", "batch_size", "max_epochs", "patience", "seed", "hidden_dim",
                 "output_dim"}
        assert set(config_keys(TrainConfig)) == train
        assert set(config_keys(DcfParams)) == {"p_target", "c_miss", "c_fa"}
        assert set(config_keys(GenConfig)) == {
            "d_id", "d_voice", "d_face", "n_identities_train", "n_identities_test",
            "voice_sessions_per_identity", "face_sessions_per_identity",
            "session_noise_sigma", "rng_seed"}
        assert set(config_keys(PipelineConfig)) == train | {"p_target", "c_miss", "c_fa"} | {
            "train_embeddings", "dev_embeddings", "eval_embeddings", "dev_trials",
            "eval_trials", "out_dir", "lda_dim", "length_norm", "pool_fraction",
            "negatives_per_positive"}
        assert len(config_keys(PipelineConfig)) == 20

    def test_nested_keys_in_one_pass(self):
        config = build(PipelineConfig, {"lda_dim": ("4", 1), "length_norm": ("no", 2),
                                        "lr": ("0.1", 3), "c_fa": ("3", 4)}, "p")
        assert config.lda_dim == 4 and config.length_norm is False
        assert config.train.learning_rate == 0.1 and config.dcf.c_fa == 3.0
        assert config.train.batch_size == TrainConfig().batch_size and config.dcf.p_target == 0.05

    def test_base_keeps_fields_not_given(self):
        base = build(PipelineConfig, {"lr": ("0.1", 1), "lda_dim": ("4", 2)}, "p")
        config = build(PipelineConfig, entries(max_epochs=3), "command line", base)
        assert (config.lda_dim, config.train.learning_rate, config.train.max_epochs) == (4, 0.1, 3)

    def test_typed_values_pass_through(self):
        assert build(DcfParams, entries(p_target=0.25), "command line").p_target == 0.25

    def test_unknown_keys_collected_with_lines_and_suggestions(self):
        with pytest.raises(ConfigError) as exc:
            build(PipelineConfig, {"lda_dim": ("4", 1), "lda_dimm": ("4", 2),
                                   "warp_factor": ("9", 5)}, "p.config")
        assert str(exc.value).split("\n") == [
            "p.config:2: unknown config key 'lda_dimm' (did you mean 'lda_dim'?)",
            "p.config:5: unknown config key 'warp_factor'"]

    @pytest.mark.parametrize("key,value,kind", [
        ("lda_dim", "abc", "int"), ("length_norm", "maybe", "bool"),
        ("pool_fraction", "x", "float"), ("max_epochs", "2.5", "int")])
    def test_bad_value_names_file_line_key(self, key, value, kind):
        with pytest.raises(ConfigError) as exc:
            build(PipelineConfig, {key: (value, 7)}, "p.config")
        assert str(exc.value) == f"p.config:7: {key}: expected {kind}, got {value!r}"

    def test_post_init_error_prefixed_with_source(self):
        with pytest.raises(ConfigError, match=r"^command line: p_target must be in \(0, 1\)$"):
            build(PipelineConfig, entries(p_target=2.0), "command line")

    def test_removed_optimizer_key_is_unknown(self):
        with pytest.raises(ConfigError, match="t: unknown config key 'optimizer'"):
            build(TrainConfig, entries(optimizer="adam"), "t")

    def test_hidden_train_fields_not_keys(self):
        with pytest.raises(ConfigError, match="adam_eps"):
            build(TrainConfig, entries(adam_eps="1e-6"), "t")
        with pytest.raises(ConfigError, match="learning_rate"):
            build(TrainConfig, entries(learning_rate="0.1"), "t")
