from dataclasses import replace

import pytest

from avsrkit.backend import PoolingRule
from avsrkit.pipeline import (PipelineConfig, PipelineError,
                              build_identity_trials, render_markdown,
                              run_pipeline, score_trials, split_enroll_test,
                              split_identities)
from avsrkit.store import (EmbeddingRecord, EmbeddingStore, Trial, TrialSet,
                           save_embeddings, save_trials)
from avsrkit.synth import GenConfig, generate_av_benchmark
from avsrkit.training import TrainConfig


def tiny_benchmark(tmp_path, seed=0):
    gen = GenConfig(d_id=2, d_voice=8, d_face=8, n_identities_train=40,
                    n_identities_test=12, rng_seed=seed)
    train, dev, eval_ = generate_av_benchmark(gen, dev_eval_sessions=2)
    paths = {}
    for name, s in [("train", train), ("dev", dev), ("eval", eval_)]:
        paths[name] = tmp_path / f"{name}.embeddings"
        save_embeddings(s, paths[name])
    dev_trials = build_identity_trials(dev, 3, rng_seed=seed + 1)
    eval_trials = build_identity_trials(eval_, 3, rng_seed=seed + 2)
    save_trials(dev_trials, tmp_path / "dev.trials")
    save_trials(eval_trials, tmp_path / "eval.trials")
    return PipelineConfig(
        train_embeddings=str(paths["train"]),
        dev_embeddings=str(paths["dev"]),
        eval_embeddings=str(paths["eval"]),
        dev_trials=str(tmp_path / "dev.trials"),
        eval_trials=str(tmp_path / "eval.trials"),
        out_dir=str(tmp_path / "out"),
        lda_dim=4,
        train=TrainConfig(batch_size=16, max_epochs=2, patience=2,
                          hidden_dim=8, output_dim=4),
    )


class TestBuildIdentityTrials:
    def test_counts(self, rng):
        recs = [EmbeddingRecord(f"v{i}", f"id{i}", "voice", rng.standard_normal(2))
                for i in range(6)]
        trials = build_identity_trials(EmbeddingStore(recs), 2, rng_seed=0)
        targets = [t for t in trials if t.label == "target"]
        nontargets = [t for t in trials if t.label == "nontarget"]
        assert sorted(t.enroll_id for t in targets) == sorted(f"id{i}" for i in range(6))
        assert all(t.enroll_id == t.test_id for t in targets)
        assert len(nontargets) == 12
        assert all(t.enroll_id != t.test_id for t in nontargets)

    def test_deterministic(self, rng):
        recs = [EmbeddingRecord(f"v{i}", f"id{i}", "voice", rng.standard_normal(2))
                for i in range(6)]
        s = EmbeddingStore(recs)
        assert build_identity_trials(s, 2, 5) == build_identity_trials(s, 2, 5)

    def test_too_many_negatives(self, rng):
        recs = [EmbeddingRecord(f"v{i}", f"id{i}", "voice", rng.standard_normal(2))
                for i in range(3)]
        with pytest.raises(ValueError):
            build_identity_trials(EmbeddingStore(recs), 10, 0)


class TestScoreTrials:
    @pytest.mark.parametrize("system,modality", [
        ("audio", "voice"), ("visual", "face"), ("vfnet", "face")])
    def test_missing_identity_named(self, rng, system, modality):
        s = EmbeddingStore(EmbeddingRecord(f"{m}{j}", "A", m, rng.standard_normal(2))
                           for m in ("voice", "face") for j in range(2))
        trials = TrialSet([Trial("A", "A", "target"), Trial("A", "ghost", "nontarget")])
        with pytest.raises(ValueError, match=rf"\(A, ghost\): test identity 'ghost' "
                                             rf"has no {modality} records"):
            score_trials(trials, s, s, None, None, None, PoolingRule(), systems=(system,))


class TestSplits:
    def test_enroll_test_halving(self, rng):
        recs = []
        for i in range(2):
            for m, tag in [("voice", "v"), ("face", "f")]:
                for j in range(3):
                    recs.append(EmbeddingRecord(f"{tag}{j}_id{i}", f"id{i}", m,
                                                rng.standard_normal(2)))
        enroll, test = split_enroll_test(EmbeddingStore(recs))
        # 3 records split as 2 enroll + 1 test, per identity and modality
        assert len(enroll) == 2 * 2 * 2
        assert len(test) == 2 * 2 * 1
        assert {r.record_id for r in enroll}.isdisjoint({r.record_id for r in test})

    def test_enroll_test_needs_two_records(self, rng):
        recs = [EmbeddingRecord("v0", "idA", "voice", rng.standard_normal(2)),
                EmbeddingRecord("f0", "idA", "face", rng.standard_normal(2)),
                EmbeddingRecord("f1", "idA", "face", rng.standard_normal(2))]
        with pytest.raises(ValueError, match="voice"):
            split_enroll_test(EmbeddingStore(recs))

    def test_identity_split_disjoint_and_complete(self, rng):
        recs = [EmbeddingRecord(f"r{i}_{j}", f"id{i}", "voice", rng.standard_normal(2))
                for i in range(20) for j in range(2)]
        s = EmbeddingStore(recs)
        a, b = split_identities(s, 0.25, seed=0)
        ids_a = {r.identity_id for r in a}
        ids_b = {r.identity_id for r in b}
        assert ids_a.isdisjoint(ids_b)
        assert len(ids_a) + len(ids_b) == 20
        assert len(a) + len(b) == len(s)
        assert len(ids_b) == 5


class TestRunPipeline:
    def test_end_to_end_report(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        report_path = run_pipeline(config)
        lines = open(report_path).read().strip().split("\n")
        assert lines[0] == "system\teer\tmin_dcf\tact_dcf"
        names = [line.split("\t")[0] for line in lines[1:]]
        assert names == ["audio", "audio+vfnet", "visual", "visual+vfnet",
                         "audio-visual", "audio-visual+vfnet"]
        for line in lines[1:]:
            values = [float(v) for v in line.split("\t")[1:]]
            assert len(values) == 3
            assert all(0.0 <= v for v in values)
        out = tmp_path / "out"
        for artifact in ["lda.ckpt", "plda.ckpt", "vfnet.ckpt",
                         "vfnet_training.tsv", "dev_audio.scores",
                         "eval_vfnet.scores", "eval_fused_audio-visual.scores"]:
            assert (out / artifact).exists(), artifact

    def test_bitwise_deterministic(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        c1 = tiny_benchmark(tmp_path / "a")
        c2 = tiny_benchmark(tmp_path / "b")
        r1 = open(run_pipeline(c1)).read()
        r2 = open(run_pipeline(c2)).read()
        assert r1 == r2

    def test_failing_stage_is_named(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        config = replace(config, train_embeddings=str(tmp_path / "missing.embeddings"))
        with pytest.raises(PipelineError, match="load-data"):
            run_pipeline(config)

    def test_bad_system_rejected(self):
        with pytest.raises(ValueError, match="thermal"):
            PipelineConfig(systems=("audio", "thermal"))

    def test_markdown_render(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        report_path = run_pipeline(config)
        md = render_markdown(report_path)
        lines = md.split("\n")
        assert lines[0].startswith("| system |")
        assert len(lines) == 2 + 6
