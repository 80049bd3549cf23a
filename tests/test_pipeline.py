import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from avsrkit import backend
from avsrkit.backend import LdaTransform, PldaModel, PoolingRule, plda_llr
from avsrkit.pipeline import (PipelineConfig, PipelineError,
                              build_identity_trials, render_markdown,
                              run_pipeline, score_trials, split_enroll_test,
                              split_identities)
from avsrkit.store import (EmbeddingRecord, EmbeddingStore, Trial, TrialSet,
                           build_crossmodal_trials, save_embeddings, save_trials)
from avsrkit.synth import GenConfig, generate_av_benchmark
from avsrkit.training import TrainConfig
from avsrkit.vfnet import cosine_similarity, init_params, pair_forward


def tiny_benchmark(tmp_path, seed=0, **gen):
    gen = replace(GenConfig(d_id=2, d_voice=8, d_face=8, n_identities_train=40,
                            n_identities_test=12, rng_seed=seed), **gen)
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

    @pytest.mark.parametrize("npp", [0, -2])
    def test_fewer_than_one_negative_per_target(self, npp):
        store = EmbeddingStore.from_columns(["v0", "v1"], ["id0", "id1"], ["voice"] * 2,
                                            [[1.0], [2.0]])
        with pytest.raises(ValueError, match="^negatives_per_positive must be >= 1$"):
            build_identity_trials(store, npp, 0)
        store = EmbeddingStore.from_columns(["v0", "f0", "v1", "f1"], ["id0", "id0", "id1", "id1"],
                                            ["voice", "face"] * 2, [[1.0], [2.0], [3.0], [4.0]])
        with pytest.raises(ValueError, match="^negatives_per_positive must be >= 1$"):
            build_crossmodal_trials(store, npp, 0)


def test_nontarget_draws_pinned():
    """Both trial builders draw their nontargets through one sampler; the
    columns they build keep the SHA-256 they had with a sampler each. A
    cross-modal list within one nontarget block (900 pairs) keeps it too;
    one of several blocks (1800 pairs) is pinned at its block draws."""
    gen = GenConfig(d_id=2, d_voice=4, d_face=4, n_identities_train=12, n_identities_test=9,
                    voice_sessions_per_identity=8, face_sessions_per_identity=8, rng_seed=3)
    train, dev, _ = generate_av_benchmark(gen)
    half = set(sorted(set(train.identity_ids))[:6])
    one_block = train.subset([r for r, i in enumerate(train.identity_ids) if i in half])
    for trials, length, digest in [
            (build_crossmodal_trials(one_block, 2, rng_seed=5), 900,  # 6 x 50 capped targets
             "dd4e3e97ca28a52d58486c9f98198606c48bcf4793a057a7e7c9a21be72b8e42"),
            (build_crossmodal_trials(train, 2, rng_seed=5), 1800,  # 12 x 50 capped targets
             "02768f03f2057fbb6d85d62b6e374cf33c24628b7e2b6717319c89be01087214"),
            (build_identity_trials(dev, 4, rng_seed=6), 45,
             "d81ea076f7bec5ed1889b2dc0fa4dd08c882189ea83fdd90bf7e8969378dce58")]:
        columns = repr((tuple(trials.enroll_ids.tolist()), tuple(trials.test_ids.tolist()),
                        trials.labels)).encode()
        assert (len(trials), hashlib.sha256(columns).hexdigest()) == (length, digest)


def test_score_columns_pinned():
    """Each system scores the trials alone; the visual column keeps the
    SHA-256 it had when each system scored a whole identity table. The audio
    and vfnet columns are pinned at the bits of `backend.eigh` and
    `vfnet.expit`, which differ from LAPACK's sygvd and libm's exp by a few
    ulps (at most 3.1e-16 relative on these scores)."""
    gen = GenConfig(d_id=2, d_voice=6, d_face=6, n_identities_train=2, n_identities_test=20,
                    rng_seed=7)
    _, dev, _ = generate_av_benchmark(gen, dev_eval_sessions=5)
    enroll, test = split_enroll_test(dev)
    rng = np.random.default_rng(8)
    lda = LdaTransform(projection=rng.standard_normal((4, 6)), mean=rng.standard_normal(6))
    a = rng.standard_normal((4, 4))
    plda = PldaModel(mu=0.1 * rng.standard_normal(4), B=a @ a.T, W=np.eye(4) + 0.1 * a.T @ a)
    params = init_params(input_dim=6, hidden_dim=8, output_dim=5, seed=9)
    trials = build_identity_trials(dev, 4, rng_seed=10)
    assert len(trials) == 100
    scored = score_trials(trials, enroll, test, lda, plda, params, PoolingRule())
    digests = {system: hashlib.sha256(s.scores.tobytes()).hexdigest()
               for system, s in scored.items()}
    assert digests == {
        "audio": "0753d9427c9b615118fb4950209516ec65b9f9eb492056b64fcdae93c003d7a1",
        "visual": "6a626eb289f23b8136f298fe075c29707f88e17f44094989bae16cbc96d3178c",
        "vfnet": "cd5d17753ac63b995d7a4459ad2293cd1c43796725138c6b58f4feaabac9a364",
    }


class TestScoreTrials:
    def test_matches_per_pair_reference(self, rng):
        # ragged groups: 3 or 5 records per modality, so enrollment and test
        # sets differ in size across identities and sides
        dim = 6
        recs = [EmbeddingRecord(f"{i}_{m}{j}", f"id{i}", m, rng.standard_normal(dim))
                for i, n in enumerate([3, 5, 3, 5]) for m in ("voice", "face")
                for j in range(n)]
        enroll, test = split_enroll_test(EmbeddingStore(recs))
        lda = LdaTransform(projection=rng.standard_normal((4, dim)),
                           mean=rng.standard_normal(dim))
        a = rng.standard_normal((4, 4))
        plda = PldaModel(mu=0.1 * rng.standard_normal(4), B=a @ a.T, W=np.eye(4))
        params = init_params(input_dim=dim, hidden_dim=8, output_dim=5, seed=3)
        rule = PoolingRule(0.4)
        trials = build_identity_trials(EmbeddingStore(recs), 2, rng_seed=1)
        got = score_trials(trials, enroll, test, lda, plda, params, rule)

        def rows(s, identity, modality):
            return [r.vector for r in s if (r.identity_id, r.modality) == (identity, modality)]

        def pool(scores):  # the mean of the top k = max(1, ceil(0.4 n))
            return np.mean(sorted(scores)[-max(1, math.ceil(0.4 * len(scores))):])

        def cosine(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        def project(v):  # LDA, then length normalization
            y = (v - lda.mean) @ lda.projection.T
            return y / np.linalg.norm(y)

        for t, *entries in zip(trials, *(got[s] for s in ("audio", "visual", "vfnet"))):
            e_voices = [project(v) for v in rows(enroll, t.enroll_id, "voice")]
            t_voices = [project(v) for v in rows(test, t.test_id, "voice")]
            audio = np.mean([plda_llr(plda, ev, tv) for ev in e_voices for tv in t_voices])
            t_faces = rows(test, t.test_id, "face")
            face_template = np.mean(rows(enroll, t.enroll_id, "face"), axis=0)
            visual = pool([cosine(face_template, f) for f in t_faces])
            template = np.mean(rows(enroll, t.enroll_id, "voice"), axis=0)
            vf = pool([pair_forward(params, template, f).p_same for f in t_faces])
            for entry, want, tol in zip(entries, (audio, visual, vf),
                                        (1e-9 * abs(audio), 1e-12, 1e-12)):
                assert (entry.enroll_id, entry.test_id, entry.label) == \
                    (t.enroll_id, t.test_id, t.label)
                assert abs(entry.score - want) <= tol, (entry, t)

    @pytest.mark.parametrize("system,modality", [
        ("audio", "voice"), ("visual", "face"), ("vfnet", "face")])
    def test_missing_identity_named(self, rng, system, modality):
        s = EmbeddingStore(EmbeddingRecord(f"{m}{j}", "A", m, rng.standard_normal(2))
                           for m in ("voice", "face") for j in range(2))
        trials = TrialSet([Trial("A", "A", "target"), Trial("A", "ghost", "nontarget")])
        with pytest.raises(ValueError, match=rf"\(A, ghost\): test identity 'ghost' "
                                             rf"has no {modality} records"):
            score_trials(trials, s, s, None, None, None, PoolingRule(), systems=(system,))

    def test_first_trial_in_file_order_named(self, rng):
        # "zeta" sorts after "beta" but its trial comes first
        s = EmbeddingStore(EmbeddingRecord(f"{m}{j}", "A", m, rng.standard_normal(2))
                           for m in ("voice", "face") for j in range(2))
        trials = TrialSet([Trial("A", "A", "target"), Trial("A", "zeta", "nontarget"),
                           Trial("beta", "A", "nontarget"), Trial("A", "beta", "nontarget")])
        with pytest.raises(ValueError, match=r"^trial \(beta, A\): enroll identity 'beta'"):
            score_trials(trials, s, s, None, None, None, PoolingRule(), systems=("visual",))
        with pytest.raises(ValueError, match=r"^trial \(A, zeta\): test identity 'zeta'"):
            score_trials(TrialSet(t for t in trials if t.enroll_id == "A"), s, s, None, None,
                         None, PoolingRule(), systems=("visual",))


    @pytest.mark.parametrize("system,side,what", [
        ("visual", "test", "a face"), ("visual", "enroll", "a face template"),
        ("vfnet", "test", "a transformed face"),
        ("vfnet", "enroll", "a transformed voice template")])
    def test_zero_norm_vector_named(self, rng, system, side, what):
        # v[side, identity, modality, session]: B enrolls with v and -v, whose
        # mean is zero, or one of B's test faces is zero (so is its transform)
        v = rng.standard_normal((2, 3, 2, 2, 3))
        if side == "enroll":
            v[0, 1, :, 1] = -v[0, 1, :, 0]
        else:
            v[1, 1, 1, 0] = 0.0
        enroll, test = (EmbeddingStore(EmbeddingRecord(f"{k}{i}{m}{j}", i, m, v[k, n, h, j])
                                       for n, i in enumerate("ABC")
                                       for h, m in enumerate(("voice", "face")) for j in range(2))
                        for k in range(2))
        trials = TrialSet([Trial("A", "A", "target"), Trial("C", "B", "nontarget"),
                           Trial("B", "A", "nontarget"), Trial("B", "B", "target")])
        params = init_params(input_dim=3, hidden_dim=4, output_dim=2, seed=0)
        trial = "C, B" if side == "test" else "B, A"
        with pytest.raises(ValueError, match=rf"^trial \({trial}\): {side} identity 'B' "
                                             rf"has {what} with zero norm$"):
            score_trials(trials, enroll, test, None, None, params, PoolingRule(),
                         systems=(system,))

    def test_cosines_follow_the_trial_list(self, rng, monkeypatch):
        # 30 enrollment identities in 2 trials each (a target and a nontarget),
        # with 1, 2 or 3 test faces per identity: each trial's test faces meet
        # its template once, and no other template
        recs = [EmbeddingRecord(f"{i}{m}{j}", f"id{i:02d}", m, rng.standard_normal(3))
                for i in range(30) for m, n in (("voice", 2), ("face", 2 * (1 + i % 3)))
                for j in range(n)]
        split = EmbeddingStore(recs)
        enroll, test = split_enroll_test(split)
        trials = build_identity_trials(split, 1, rng_seed=0)
        evaluated = []

        def counting(a, b):
            cosines = cosine_similarity(a, b)
            evaluated.append(np.size(cosines))
            return cosines

        monkeypatch.setattr(backend, "cosine_similarity", counting)
        score_trials(trials, enroll, test, None, None, None, PoolingRule(), systems=("visual",))
        faces = test.grouped("face")
        assert len(trials) == 60
        assert sum(evaluated) == sum(len(faces[t]) for t in trials.test_ids)

    def test_score_sets_share_the_trial_ids(self, rng):
        split = EmbeddingStore(EmbeddingRecord(f"{i}{m}{j}", f"id{i}", m, rng.standard_normal(3))
                               for i in range(4) for m in ("voice", "face") for j in range(2))
        enroll, test = split_enroll_test(split)
        trials = build_identity_trials(split, 1, rng_seed=0)
        scored = score_trials(trials, enroll, test, None, None, None, PoolingRule(),
                              systems=("visual",))["visual"]
        assert scored.enroll_ids is trials.enroll_ids and scored.test_ids is trials.test_ids


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

    @pytest.mark.parametrize("n_identities", [2, 3])
    def test_identity_split_needs_four_identities(self, rng, n_identities):
        s = EmbeddingStore.from_columns(
            [f"r{i}" for i in range(n_identities)], [f"id{i}" for i in range(n_identities)],
            ["voice"] * n_identities, rng.standard_normal((n_identities, 2)))
        with pytest.raises(ValueError, match=f"^found {n_identities} identities, need at "
                                             "least 4 to keep 2 for validation and 2 for"):
            split_identities(s, 0.1, seed=0)


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

    def test_too_few_training_identities_named(self, tmp_path):
        # 5 voices per identity, so that LDA's within scatter of 3 identities is regular
        config = tiny_benchmark(tmp_path, n_identities_train=3, voice_sessions_per_identity=5)
        with pytest.raises(PipelineError, match="'train-vfnet' failed: found 3 identities, "
                                                "need at least 4"):
            run_pipeline(config)

    def test_markdown_render(self, tmp_path):
        config = tiny_benchmark(tmp_path)
        report_path = run_pipeline(config)
        md = render_markdown(report_path)
        lines = md.split("\n")
        assert lines[0].startswith("| system |")
        assert len(lines) == 2 + 6
