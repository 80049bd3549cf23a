import os
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from avsrkit.backend import (LdaTransform, PldaModel, PoolingRule, load_lda, load_plda,
                             save_lda, save_plda)
from avsrkit import metrics
from avsrkit.cli import main
from avsrkit.pipeline import score_trials
from avsrkit.store import (load_embeddings, load_scores, load_trials, save_embeddings,
                           save_scores, save_trials, EmbeddingRecord, EmbeddingStore,
                           ScoreEntry, ScoreSet, Trial, TrialSet)
from avsrkit.vfnet import init_params, pair_forward, save_params

SUBCOMMANDS = ["synth", "train-vfnet", "fit-backend", "score", "fuse",
               "eval", "pipeline"]


class TestHelp:
    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "synth" in capsys.readouterr().out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_named(self, capsys):
        assert main(["eval", "--scores", "x.tsv", "--frobnicate"]) == 1
        assert "--frobnicate" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["eval", "--scores", str(tmp_path / "nope.tsv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_score_audio_needs_backends(self, tmp_path, capsys):
        emb = tmp_path / "e.tsv"
        emb.write_text("v0\tidA\tvoice\t1,0\n")
        tri = tmp_path / "t.tsv"
        tri.write_text("idA\tidA\ttarget\n")
        code = main(["score", "--system", "audio", "--enroll", str(emb),
                     "--test", str(emb), "--trials", str(tri),
                     "--out", str(tmp_path / "o.tsv")])
        assert code == 1
        assert "--lda" in capsys.readouterr().err


class TestEval:
    def test_hand_computed_eer(self, tmp_path, capsys):
        ss = ScoreSet([ScoreEntry("a", "a", 0.8, "target"),
                       ScoreEntry("b", "b", 0.2, "target"),
                       ScoreEntry("a", "b", 0.6, "nontarget"),
                       ScoreEntry("b", "a", 0.4, "nontarget")])
        path = tmp_path / "s.tsv"
        save_scores(ss, path)
        assert main(["eval", "--scores", str(path)]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        header = out[0].split("\t")
        values = dict(zip(header, out[1].split("\t")))
        assert float(values["eer"]) == pytest.approx(0.5)
        assert float(values["auc"]) == pytest.approx(0.5)

    def test_report_and_det_files(self, tmp_path):
        ss = ScoreSet([ScoreEntry("a", "a", 2.0, "target"),
                       ScoreEntry("a", "b", -2.0, "nontarget")])
        path = tmp_path / "s.tsv"
        save_scores(ss, path)
        out = tmp_path / "report.tsv"
        det = tmp_path / "det.tsv"
        assert main(["eval", "--scores", str(path), "--out", str(out),
                     "--det-points", str(det)]) == 0
        assert out.read_text().startswith("eer\t")
        det_lines = det.read_text().strip().split("\n")
        assert det_lines[0] == "threshold\tp_miss\tp_fa"
        rows = [[float(v) for v in line.split("\t")] for line in det_lines[1:]]
        assert rows == [[-np.inf, 0.0, 1.0], [-2.0, 0.0, 1.0], [2.0, 0.0, 0.0],
                        [np.inf, 1.0, 0.0]]

    def test_det_points_from_one_sweep(self, tmp_path, monkeypatch):
        save_scores(ScoreSet.from_columns(["a", "a", "b"], ["a", "b", "a"], [2.0, -2.0, 0.5],
                                          ["target", "nontarget", "nontarget"]),
                    tmp_path / "s.tsv")
        calls = []
        convert, sweep = ScoreSet.scores_and_labels, metrics._roc_arrays
        monkeypatch.setattr(ScoreSet, "scores_and_labels",
                            lambda self: calls.append("labels") or convert(self))
        monkeypatch.setattr(metrics, "_roc_arrays",
                            lambda tar, non: calls.append("roc") or sweep(tar, non))
        assert main(["eval", "--scores", str(tmp_path / "s.tsv"),
                     "--det-points", str(tmp_path / "det.tsv")]) == 0
        assert sorted(calls) == ["labels", "roc"]
        assert len((tmp_path / "det.tsv").read_text().splitlines()) == 1 + 5

    def test_unlabeled_line_named(self, tmp_path, capsys):
        path = tmp_path / "m.scores"
        path.write_text("a\ta\t2.0\ttarget\n# note\na\tb\t-2.0\n", encoding="utf-8")
        assert main(["eval", "--scores", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"error: {path}:3: score set is not fully labeled\n"

    def test_undecodable_byte_named(self, tmp_path, capsys):
        path = tmp_path / "b.scores"
        path.write_bytes(b"a\ta\t2.0\ttarget\na\tb\t-2.0\tnon\xfftarget\n")
        assert main(["eval", "--scores", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: not valid UTF-8\n"

    @pytest.mark.parametrize("text,message", [
        ("", "no scores"), ("# only a comment\n\n", "no scores"),
        ("a\ta\t2.0\ttarget\nb\tb\t1.0\ttarget\n",
         "need at least one target and one nontarget score")],
        ids=["empty", "comments", "targets-only"])
    def test_unusable_file_named(self, tmp_path, capsys, text, message):
        path = tmp_path / "x.scores"
        path.write_text(text, encoding="utf-8")
        assert main(["eval", "--scores", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestScoreVfnet:
    def test_single_face_matches_pair_probability(self, tmp_path, capsys):
        params = init_params(input_dim=4, hidden_dim=6, output_dim=3, seed=0)
        ckpt = tmp_path / "net.ckpt"
        save_params(params, ckpt)
        rng = np.random.default_rng(1)
        voice = rng.standard_normal(4)
        face = rng.standard_normal(4)
        enroll = EmbeddingStore([EmbeddingRecord("v0", "idA", "voice", voice),
                                 EmbeddingRecord("vb", "idB", "voice", -voice)])
        test = EmbeddingStore([EmbeddingRecord("f0", "idA", "face", face),
                               EmbeddingRecord("fb", "idB", "face", -face)])
        save_embeddings(enroll, tmp_path / "enroll.tsv")
        save_embeddings(test, tmp_path / "test.tsv")
        save_trials(TrialSet([Trial("idA", "idA", "target"),
                              Trial("idA", "idB", "nontarget")]),
                    tmp_path / "trials.tsv")
        out = tmp_path / "scores.tsv"
        code = main(["score", "--system", "vfnet",
                     "--enroll", str(tmp_path / "enroll.tsv"),
                     "--test", str(tmp_path / "test.tsv"),
                     "--trials", str(tmp_path / "trials.tsv"),
                     "--params", str(ckpt), "--out", str(out)])
        assert code == 0
        scored = {(e.enroll_id, e.test_id): e.score for e in load_scores(out)}
        expected = pair_forward(params, voice, face).p_same
        assert scored[("idA", "idA")] == pytest.approx(expected, abs=1e-12)


class TestScoreVisual:
    def test_zero_norm_face_names_trial(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        paths = {}
        for side in ("enroll", "test"):
            faces = rng.standard_normal((3, 4))
            if side == "test":
                faces[1] = 0.0  # p1's one test face
            paths[side] = tmp_path / f"{side}.tsv"
            save_embeddings(EmbeddingStore(EmbeddingRecord(f"{side}{i}", f"p{i}", "face", face)
                                           for i, face in enumerate(faces)), paths[side])
        save_trials(TrialSet([Trial("p0", "p0", "target"), Trial("p0", "p1", "nontarget"),
                              Trial("p2", "p1", "nontarget")]), tmp_path / "trials.tsv")
        code = main(["score", "--system", "visual", "--enroll", str(paths["enroll"]),
                     "--test", str(paths["test"]), "--trials", str(tmp_path / "trials.tsv"),
                     "--out", str(tmp_path / "scores.tsv")])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: trial (p0, p1): test identity 'p1' has a face with zero norm\n"
        assert not (tmp_path / "scores.tsv").exists()


class TestScoreAudio:
    @pytest.fixture
    def data(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--n-train", "40", "--n-test", "4", "--sessions", "3",
                     "--negatives-per-positive", "1", "--out-dir", str(data)]) == 0
        return data

    def score_argv(self, data, lda, plda, out):
        return ["score", "--system", "audio", "--enroll", str(data / "dev.embeddings"),
                "--test", str(data / "dev.embeddings"), "--trials", str(data / "dev.trials"),
                "--lda", str(lda), "--plda", str(plda), "--out", str(out)]

    def test_scores_with_the_fitted_length_norm(self, data, tmp_path):
        # the LDA checkpoint carries --no-length-norm to scoring
        lda_path, plda_path = tmp_path / "lda.ckpt", tmp_path / "plda.ckpt"
        assert main(["fit-backend", "--embeddings", str(data / "train.embeddings"),
                     "--lda-dim", "8", "--no-length-norm",
                     "--out-lda", str(lda_path), "--out-plda", str(plda_path)]) == 0
        out = tmp_path / "audio.scores"
        assert main(self.score_argv(data, lda_path, plda_path, out)) == 0
        lda = load_lda(lda_path)
        assert lda.length_norm is False
        dev, trials = load_embeddings(data / "dev.embeddings"), load_trials(data / "dev.trials")
        score = partial(score_trials, trials, dev, dev, plda=load_plda(plda_path), params=None,
                        rule=PoolingRule(), systems=("audio",))
        got, want = load_scores(out), score(lda=lda)["audio"]
        assert (got.enroll_ids, got.test_ids, got.labels) == \
            (want.enroll_ids, want.test_ids, want.labels)
        assert got.scores.tobytes() == want.scores.tobytes()
        normed = score(lda=replace(lda, length_norm=True))["audio"]
        assert not np.allclose(got.scores, normed.scores)

    def test_no_length_norm_flag_is_a_usage_error(self, tmp_path, capsys):
        # rejected while parsing, before any file is read
        argv = self.score_argv(tmp_path, tmp_path / "lda.ckpt", tmp_path / "plda.ckpt",
                               tmp_path / "audio.scores")
        assert main(argv + ["--no-length-norm"]) == 1
        assert "--no-length-norm" in capsys.readouterr().err

    def test_lda_and_plda_dimension_mismatch_named(self, data, tmp_path, capsys):
        dim = load_embeddings(data / "dev.embeddings").dim
        save_lda(LdaTransform(np.eye(6, dim), np.zeros(dim)), tmp_path / "lda.ckpt")
        save_plda(PldaModel(mu=np.zeros(4), B=np.eye(4), W=np.eye(4)), tmp_path / "plda.ckpt")
        out = tmp_path / "audio.scores"
        assert main(self.score_argv(data, tmp_path / "lda.ckpt", tmp_path / "plda.ckpt",
                                    out)) == 1
        assert capsys.readouterr().err == \
            "error: LDA output dimension 6 does not match PLDA dimension 4\n"
        assert not out.exists()

    def test_non_finite_lda_checkpoint_named(self, data, tmp_path, capsys):
        dim = load_embeddings(data / "dev.embeddings").dim
        mean = np.zeros(dim)
        mean[1] = np.nan
        lda_path, plda_path = tmp_path / "lda.ckpt", tmp_path / "plda.ckpt"
        save_lda(LdaTransform(np.eye(4, dim), mean), lda_path)  # mean is on line 5
        save_plda(PldaModel(mu=np.zeros(4), B=np.eye(4), W=np.eye(4)), plda_path)
        assert main(self.score_argv(data, lda_path, plda_path, tmp_path / "audio.scores")) == 1
        assert capsys.readouterr().err == f"error: {lda_path}:5: non-finite values in mean\n"


class TestSynth:
    def test_writes_benchmark_files(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["synth", "--out-dir", str(out), "--n-train", "4",
                     "--n-test", "3", "--sessions", "2", "--seed", "3",
                     "--negatives-per-positive", "2"])
        assert code == 0
        for name in ["train.embeddings", "dev.embeddings", "eval.embeddings",
                     "dev.trials", "eval.trials", "ground_truth.config"]:
            assert (out / name).exists(), name
        gt = dict(line.split(" = ") for line in
                  (out / "ground_truth.config").read_text().strip().split("\n"))
        assert gt["rng_seed"] == "3"
        assert gt["n_identities_train"] == "4"

    def test_deterministic(self, tmp_path):
        args = ["synth", "--n-train", "4", "--n-test", "3", "--sessions", "2",
                "--negatives-per-positive", "2"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ["train.embeddings", "eval.trials"]:
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()

    def test_unmeetable_trial_request_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["synth", "--n-train", "20", "--n-test", "3", "--sessions", "3",
                     "--out-dir", str(out)]) == 1
        assert "requested 60 nontargets but only 6 pairs exist" in capsys.readouterr().err
        assert not list(out.glob("*.embeddings"))

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_no_nontargets_per_target_writes_nothing(self, tmp_path, capsys, value):
        out = tmp_path / "bench"
        assert main(["synth", "--n-train", "4", "--n-test", "3", "--sessions", "2",
                     "--negatives-per-positive", value, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: negatives_per_positive must be >= 1\n"
        assert not out.exists()

    def test_undecodable_config_named(self, tmp_path, capsys):
        cfg = tmp_path / "gen.config"
        cfg.write_bytes(b"rng_seed = 3\nsigma\xff = 0.5\n")
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: not valid UTF-8\n"

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "gen.config"
        cfg.write_text("warp_factor = 9\n")
        assert main(["synth", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "warp_factor" in capsys.readouterr().err


class TestFuse:
    def test_mismatched_system_lists(self, tmp_path, capsys):
        ss = ScoreSet([ScoreEntry("a", "a", 1.0, "target"),
                       ScoreEntry("a", "b", -1.0, "nontarget")])
        p = tmp_path / "s.tsv"
        save_scores(ss, p)
        code = main(["fuse", "--dev-scores", str(p), str(p),
                     "--eval-scores", str(p),
                     "--out-model", str(tmp_path / "m.ckpt"),
                     "--out-scores", str(tmp_path / "f.tsv")])
        assert code == 1
        assert "same systems" in capsys.readouterr().err

    def test_disagreeing_labels_exit_1(self, tmp_path, capsys):
        # the same trials with every label flipped in the second system
        paths = []
        for k, labels in enumerate([("target", "nontarget"), ("nontarget", "target")]):
            paths.append(tmp_path / f"dev{k}.tsv")
            save_scores(ScoreSet([ScoreEntry("a", "a", 1.0, labels[0]),
                                  ScoreEntry("a", "b", -1.0, labels[1])]), paths[-1])
        code = main(["fuse", "--dev-scores", *map(str, paths),
                     "--eval-scores", *map(str, paths),
                     "--out-model", str(tmp_path / "m.ckpt"),
                     "--out-scores", str(tmp_path / "f.tsv")])
        assert code == 1
        assert "system 2 labels trial (a, a) 'nontarget', system 1 labels it 'target'" in \
            capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "f.tsv").exists()

    def test_mismatched_trial_lists_name_files(self, tmp_path, capsys):
        # the second dev file scores another trial list than the first
        paths = [tmp_path / "dev0.tsv", tmp_path / "dev1.tsv"]
        for path, test_id in zip(paths, ("b", "c")):
            save_scores(ScoreSet([ScoreEntry("a", "a", 1.0, "target"),
                                  ScoreEntry("a", test_id, -1.0, "nontarget")]), path)
        code = main(["fuse", "--dev-scores", *map(str, paths),
                     "--eval-scores", *map(str, paths),
                     "--out-model", str(tmp_path / "m.ckpt"),
                     "--out-scores", str(tmp_path / "f.tsv")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {paths[1]} vs {paths[0]}: system 2 trial list does not match system 1\n"

    def test_unlabeled_dev_line_named(self, tmp_path, capsys):
        labeled, unlabeled = tmp_path / "dev0.tsv", tmp_path / "dev1.tsv"
        rows = ["a\ta\t1.0\ttarget", "a\tb\t-1.0\tnontarget", "b\tb\t-0.5\ttarget",
                "b\ta\t0.5\tnontarget"]
        labeled.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        rows[1] = "a\tb\t-1.0"
        unlabeled.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        args = ["--eval-scores", str(labeled), str(labeled),
                "--out-model", str(tmp_path / "m.ckpt"), "--out-scores", str(tmp_path / "f.tsv")]
        assert main(["fuse", "--dev-scores", str(unlabeled), str(labeled), *args]) == 1
        assert capsys.readouterr().err == \
            f"error: {unlabeled}:2: score set is not fully labeled\n"
        # the fit takes its labels from system 1, so system 2 may leave them out
        assert main(["fuse", "--dev-scores", str(labeled), str(unlabeled), *args]) == 0


    @pytest.mark.parametrize("text,message", [
        ("", "no scores"), ("# only a comment\n", "no scores"),
        ("a\ta\t1.0\tnontarget\na\tb\t-1.0\tnontarget\n",
         "need at least one target and one nontarget score")],
        ids=["empty", "comments", "nontargets-only"])
    def test_unusable_dev_file_named(self, tmp_path, capsys, text, message):
        dev = tmp_path / "dev.scores"
        dev.write_text(text, encoding="utf-8")
        assert main(["fuse", "--dev-scores", str(dev), "--eval-scores", str(dev),
                     "--out-model", str(tmp_path / "m.ckpt"),
                     "--out-scores", str(tmp_path / "f.tsv")]) == 1
        assert capsys.readouterr().err == f"error: {dev}: {message}\n"


class TestConfigKeys:
    def test_pipeline_unknown_keys_named(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.config"
        cfg.write_text("lda_dimm = 4\nmax_epoch = 1\np_targt = 0.5\n")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        for text in ("pipeline.config", "lda_dimm", "max_epoch", "p_targt"):
            assert text in err

    def test_pipeline_systems_key_rejected(self, tmp_path, capsys):
        # every pipeline run scores all three systems; there is no systems key
        cfg = tmp_path / "pipeline.config"
        cfg.write_text("systems = audio\n")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "pipeline.config" in err and "systems" in err

    def test_train_vfnet_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "train.config"
        cfg.write_text("learning_rate = 0.1\n")
        missing = str(tmp_path / "missing")
        assert main(["train-vfnet", "--config", str(cfg), "--embeddings", missing,
                     "--train-trials", missing, "--valid-trials", missing,
                     "--out-params", missing]) == 1
        err = capsys.readouterr().err
        assert "train.config" in err and "learning_rate" in err


    def test_every_key_accepted(self, tmp_path, capsys):
        # all 20 pipeline keys parse; the run then stops at the missing inputs
        cfg = tmp_path / "pipeline.config"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in [
            ("train_embeddings", "t"), ("dev_embeddings", "d"), ("eval_embeddings", "e"),
            ("dev_trials", "dt"), ("eval_trials", "et"), ("out_dir", "o"), ("lda_dim", 4),
            ("length_norm", "off"), ("pool_fraction", 0.5), ("negatives_per_positive", 2),
            ("p_target", 0.1), ("c_miss", 2), ("c_fa", 3), ("lr", 0.01), ("batch_size", 8),
            ("max_epochs", 2), ("patience", 1), ("seed", 4), ("hidden_dim", 5),
            ("output_dim", 3)]))
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert "config key train_embeddings does not name an existing file" in \
            capsys.readouterr().err

    def test_train_vfnet_every_key_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "train.config"
        cfg.write_text("lr = 0.01\nbatch_size = 8\nmax_epochs = 2\npatience = 1\n"
                       "seed = 4\nhidden_dim = 5\noutput_dim = 3\n")
        missing = str(tmp_path / "missing")
        assert main(["train-vfnet", "--config", str(cfg), "--embeddings", missing,
                     "--train-trials", missing, "--valid-trials", missing,
                     "--out-params", missing]) == 1
        err = capsys.readouterr().err
        assert "missing" in err and "train.config" not in err

    @pytest.mark.parametrize("text,where", [
        ("lda_dim = abc\n", "pipeline.config:1: lda_dim: expected int, got 'abc'"),
        ("length_norm = maybe\n",
         "pipeline.config:1: length_norm: expected bool, got 'maybe'"),
        ("lda_dim = 4\nlda_dim = 8\n",
         "pipeline.config:2: repeated config key 'lda_dim' (first on line 1)"),
        ("lda_dimm = 4\n",
         "pipeline.config:1: unknown config key 'lda_dimm' (did you mean 'lda_dim'?)"),
        ("p_target = 2\n", "pipeline.config: p_target must be in (0, 1)")])
    def test_bad_pipeline_value_names_file_line_key(self, tmp_path, capsys, text, where):
        cfg = tmp_path / "pipeline.config"
        cfg.write_text(text)
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert where in capsys.readouterr().err

    def test_bad_synth_value_names_file_line_key(self, tmp_path, capsys):
        cfg = tmp_path / "gen.config"
        cfg.write_text("d_id = 4\nn_identities_train = 2.5\n")
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        assert "gen.config:2: n_identities_train: expected int, got '2.5'" in \
            capsys.readouterr().err

    def test_flags_built_before_files_read(self, tmp_path, capsys):
        assert main(["eval", "--scores", str(tmp_path / "nope.tsv"), "--p-target", "2"]) == 1
        err = capsys.readouterr().err
        assert "command line: p_target must be in (0, 1)" in err and "nope.tsv" not in err

    def test_synth_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "gen.config"
        cfg.write_text("rng_seed = 5\nsession_noise_sigma = 0.25\n")
        assert main(["synth", "--config", str(cfg), "--seed", "6", "--n-train", "4",
                     "--n-test", "3", "--sessions", "2", "--negatives-per-positive", "2",
                     "--out-dir", str(tmp_path / "o")]) == 0
        gt = (tmp_path / "o" / "ground_truth.config").read_text()
        for line in ("rng_seed = 6", "session_noise_sigma = 0.25", "n_identities_train = 4",
                     "voice_sessions_per_identity = 2", "face_sessions_per_identity = 2"):
            assert line + "\n" in gt

    def test_synth_ground_truth_config_reproduces_output(self, tmp_path):
        npp = ["--negatives-per-positive", "2"]
        assert main(["synth", "--n-train", "4", "--n-test", "3", "--sessions", "2",
                     "--seed", "3", "--sigma", "0.7", "--out-dir", str(tmp_path / "a")]
                    + npp) == 0
        assert main(["synth", "--config", str(tmp_path / "a" / "ground_truth.config"),
                     "--out-dir", str(tmp_path / "b")] + npp) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert len(names) == 6
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTrainVfnet:
    def test_trial_naming_absent_record_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        store = EmbeddingStore.from_columns(["v1", "f1", "v2", "f2"], ["A", "A", "B", "B"],
                                            ["voice", "face"] * 2, rng.standard_normal((4, 3)))
        save_embeddings(store, tmp_path / "e.embeddings")
        # trial order, not enrollment-side-first order, picks the trial named
        trials = TrialSet.from_columns(["v1", "v2", "ghost", "v2"], ["f1", "nosuch", "f1", "f2"],
                                       ["target", "nontarget", "nontarget", "target"])
        save_trials(trials, tmp_path / "t.trials")
        argv = ["train-vfnet", "--embeddings", str(tmp_path / "e.embeddings"),
                "--train-trials", str(tmp_path / "t.trials"),
                "--valid-trials", str(tmp_path / "t.trials"),
                "--out-params", str(tmp_path / "net.ckpt")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: trial (v2, nosuch): no record 'nosuch' in store\n"
        assert not (tmp_path / "net.ckpt").exists()

    @pytest.mark.parametrize("empty", ["train", "valid"])
    def test_empty_trial_file_named(self, tmp_path, capsys, empty):
        rng = np.random.default_rng(0)
        store = EmbeddingStore.from_columns(["v1", "f1", "v2", "f2"], ["A", "A", "B", "B"],
                                            ["voice", "face"] * 2, rng.standard_normal((4, 3)))
        save_embeddings(store, tmp_path / "e.embeddings")
        save_trials(TrialSet.from_columns(["v1", "v1"], ["f1", "f2"], ["target", "nontarget"]),
                    tmp_path / "train.trials")
        save_trials(TrialSet.from_columns(["v2", "v2"], ["f2", "f1"], ["target", "nontarget"]),
                    tmp_path / "valid.trials")
        (tmp_path / f"{empty}.trials").write_bytes(b"")
        argv = ["train-vfnet", "--embeddings", str(tmp_path / "e.embeddings"),
                "--train-trials", str(tmp_path / "train.trials"),
                "--valid-trials", str(tmp_path / "valid.trials"),
                "--out-params", str(tmp_path / "net.ckpt")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / empty}.trials: holds no trials\n"
        assert not (tmp_path / "net.ckpt").exists()


    def test_validation_trials_without_nontargets_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        store = EmbeddingStore.from_columns(["v1", "f1", "v2", "f2"], ["A", "A", "B", "B"],
                                            ["voice", "face"] * 2, rng.standard_normal((4, 3)))
        save_embeddings(store, tmp_path / "e.embeddings")
        save_trials(TrialSet.from_columns(["v1", "v1"], ["f1", "f2"], ["target", "nontarget"]),
                    tmp_path / "train.trials")
        save_trials(TrialSet.from_columns(["v1", "v2"], ["f1", "f2"], ["target", "target"]),
                    tmp_path / "valid.trials")
        argv = ["train-vfnet", "--embeddings", str(tmp_path / "e.embeddings"),
                "--train-trials", str(tmp_path / "train.trials"),
                "--valid-trials", str(tmp_path / "valid.trials"),
                "--out-params", str(tmp_path / "net.ckpt")]
        assert main(argv) == 1
        assert capsys.readouterr().err == ("error: validation trials need both targets "
                                           "and nontargets\n")
        assert not (tmp_path / "net.ckpt").exists()


class TestFitBackend:
    def test_face_only_embeddings_name_missing_voices(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--n-train", "40", "--n-test", "4", "--negatives-per-positive", "1",
                     "--out-dir", str(data)]) == 0
        faces = tmp_path / "faces.embeddings"
        lines = (data / "train.embeddings").read_text().splitlines(keepends=True)
        faces.write_text("".join(line for line in lines if "\tface\t" in line))
        assert main(["fit-backend", "--embeddings", str(faces), "--out-lda",
                     str(tmp_path / "lda"), "--out-plda", str(tmp_path / "plda")]) == 1
        assert capsys.readouterr().err == \
            "error: need voice records of at least 2 identities to fit LDA, found 0\n"
        assert not (tmp_path / "lda").exists()

    @pytest.mark.parametrize("between_sd,counts,status", [
        (1.0, (3,), "PLDA fit: closed form\n"),
        (1.0, (2, 3), "PLDA fit: EM converged after 18 iterations\n"),
        (0.0, (2, 3), "PLDA fit: EM stopped without converging after 100 iterations\n")],
        ids=["closed-form", "em-converged", "em-capped"])
    def test_reports_how_plda_was_fitted(self, tmp_path, capsys, between_sd, counts, status):
        # one session count for every identity gives the closed form; with
        # ragged counts and no between-identity spread along the second axis,
        # EM creeps toward B = 0 there and, on this sample, still gains at the cap
        rng = np.random.default_rng(1)
        recs = []
        for i in range(30):
            y = rng.normal(size=2) * (1.0, between_sd)
            recs += [EmbeddingRecord(f"v{i}_{j}", f"id{i}", "voice",
                                     y + rng.standard_normal(2))
                     for j in range(counts[i % len(counts)])]
        save_embeddings(EmbeddingStore(recs), tmp_path / "train.tsv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit-backend", "--embeddings", str(tmp_path / "train.tsv"),
                         "--out-lda", str(tmp_path / "lda"),
                         "--out-plda", str(tmp_path / "plda")]) == 0
        assert capsys.readouterr().out.endswith(status)
        capped = [w for w in caught if "max_iter=100" in str(w.message)]
        assert len(capped) == ("stopped" in status)


class TestPipelineExitCodes:
    """Bad input found inside a pipeline stage exits 1 and names the stage;
    a runtime failure there exits 2."""

    @pytest.fixture
    def data(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--n-train", "40", "--n-test", "4", "--sessions", "3",
                     "--negatives-per-positive", "1", "--out-dir", str(data)]) == 0
        config = tmp_path / "pipeline.config"
        config.write_text("".join(f"{name}_embeddings = {data / name}.embeddings\n"
                                  for name in ("train", "dev", "eval"))
                          + f"dev_trials = {data / 'dev.trials'}\n"
                          + f"eval_trials = {data / 'eval.trials'}\n"
                          + f"out_dir = {tmp_path / 'out'}\nmax_epochs = 1\n")
        return data, ["pipeline", "--config", str(config)]

    def test_malformed_embedding_line_exits_1(self, data, capsys):
        data, argv = data
        path = data / "dev.embeddings"
        n_lines = len(path.read_text().splitlines())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("broken line\n")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pipeline stage 'load-data' failed: ")
        assert f"dev.embeddings:{n_lines + 1}: expected 4 tab-separated fields" in err

    def test_trial_naming_absent_identity_exits_1(self, data, capsys):
        data, argv = data
        with open(data / "dev.trials", "a", encoding="utf-8") as fh:
            fh.write("nobody\tdev0\tnontarget\n")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pipeline stage 'score-dev' failed: ")
        assert "enroll identity 'nobody' has no" in err

    @pytest.mark.parametrize("line,message", [
        ("lda_dim = 0", "lda_dim must be >= 1"),
        ("pool_fraction = 1.5", "pool_fraction must be in (0, 1]"),
        ("negatives_per_positive = 0", "negatives_per_positive must be >= 1"),
        ("hidden_dim = 0", "hidden_dim must be >= 1"),
        ("output_dim = 0", "output_dim must be >= 1"),
        ("seed = -1", "rng_seed must be >= 0")])
    def test_bad_config_value_exits_before_any_stage(self, data, tmp_path, capsys, line,
                                                      message):
        data, argv = data
        with open(argv[2], "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {argv[2]}: {message}\n"
        assert not list((tmp_path / "out").glob("*"))

    def test_runtime_failure_exits_2(self, data, capsys, monkeypatch):
        from avsrkit import training

        def diverge(*args, **kwargs):
            raise training.TrainingError("non-finite loss in epoch 0, batch 0")

        monkeypatch.setattr(training, "train", diverge)
        assert main(data[1]) == 2
        assert capsys.readouterr().err.startswith(
            "failure: pipeline stage 'train-vfnet' failed: non-finite loss")


class TestThreadCountDeterminism:
    def test_pipeline_outputs_across_blas_thread_counts(self, tmp_path):
        # The same `avsrkit pipeline` run at one and at two BLAS threads
        # writes byte-identical reports, checkpoints and score files.
        data = tmp_path / "data"
        assert main(["synth", "--n-train", "200", "--n-test", "30", "--sessions", "3",
                     "--negatives-per-positive", "5", "--seed", "2",
                     "--out-dir", str(data)]) == 0
        runs = {}
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            config = tmp_path / f"threads{threads}.config"
            config.write_text("".join(f"{name}_embeddings = {data / name}.embeddings\n"
                                      for name in ("train", "dev", "eval"))
                              + f"dev_trials = {data / 'dev.trials'}\n"
                              + f"eval_trials = {data / 'eval.trials'}\n"
                              + f"out_dir = {out}\nmax_epochs = 2\n")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
            runs[out] = subprocess.Popen(
                [sys.executable, "-m", "avsrkit.cli", "pipeline", "--config", str(config)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for proc in runs.values():
            _, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err[-2000:]
        one, two = runs
        score_files = sorted(p.name for p in one.glob("*.scores"))
        assert len(score_files) == 12
        assert score_files == sorted(p.name for p in two.glob("*.scores"))
        for name in ["report.tsv", "lda.ckpt", "plda.ckpt", "vfnet.ckpt", "vfnet_training.tsv",
                     *score_files]:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
