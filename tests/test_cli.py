import numpy as np
import pytest

from avsrkit.cli import main
from avsrkit.store import (load_scores, save_embeddings, save_scores,
                           save_trials, EmbeddingRecord, EmbeddingStore,
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
        args = ["synth", "--n-train", "4", "--n-test", "3", "--sessions", "2"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "train.embeddings").read_text() == \
            (tmp_path / "b" / "train.embeddings").read_text()

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


class TestConfigKeys:
    def test_pipeline_unknown_keys_named(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.config"
        cfg.write_text("lda_dimm = 4\nmax_epoch = 1\np_targt = 0.5\n")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        for text in ("pipeline.config", "lda_dimm", "max_epoch", "p_targt"):
            assert text in err

    def test_train_vfnet_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "train.config"
        cfg.write_text("learning_rate = 0.1\n")
        missing = str(tmp_path / "missing")
        assert main(["train-vfnet", "--config", str(cfg), "--embeddings", missing,
                     "--train-trials", missing, "--valid-trials", missing,
                     "--out-params", missing]) == 1
        err = capsys.readouterr().err
        assert "train.config" in err and "learning_rate" in err


class TestFitBackend:
    @pytest.mark.parametrize("between_sd,status", [
        (1.0, "converged after"), (0.0, "stopped without converging after 100")])
    def test_reports_whether_em_converged(self, tmp_path, capsys, between_sd, status):
        # with no between-identity spread along the second axis, EM creeps
        # toward B = 0 there and, on this sample, still gains at the cap
        rng = np.random.default_rng(1)
        recs = []
        for i in range(30):
            y = rng.normal(size=2) * (1.0, between_sd)
            recs += [EmbeddingRecord(f"v{i}_{j}", f"id{i}", "voice",
                                     y + rng.standard_normal(2)) for j in range(3)]
        save_embeddings(EmbeddingStore(recs), tmp_path / "train.tsv")
        assert main(["fit-backend", "--embeddings", str(tmp_path / "train.tsv"),
                     "--out-lda", str(tmp_path / "lda"),
                     "--out-plda", str(tmp_path / "plda")]) == 0
        assert status in capsys.readouterr().out
