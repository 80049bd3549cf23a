import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import avsrkit.store
from avsrkit.pipeline import split_identities
from avsrkit.store import (EmbeddingRecord, EmbeddingStore, Trial, TrialSet,
                           build_crossmodal_trials)
from avsrkit.synth import GenConfig, generate
from avsrkit import training
from avsrkit.training import (TrainConfig, TrainingError, _Adam, _gather_pairs, _pair_scores,
                               save_report, train)
from avsrkit.vfnet import (VFNetParams, batch_loss_grad, cosine_similarity, init_params,
                           transform_face, transform_voice)

SMALL_CONFIG = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=5,
                           patience=5, hidden_dim=16, output_dim=8)


def small_data(seed=0):
    gen = GenConfig(d_id=2, d_voice=8, d_face=8, n_identities_train=30,
                    n_identities_test=12, rng_seed=seed)
    train_store, valid_store, _ = generate(gen)
    store = EmbeddingStore(list(train_store) + list(valid_store))
    train_trials = build_crossmodal_trials(train_store, 1, rng_seed=seed)
    valid_trials = build_crossmodal_trials(valid_store, 1, rng_seed=seed + 1)
    return store, train_trials, valid_trials


@pytest.fixture(scope="module")
def default_train_split():
    """The default benchmark's training store and the pipeline's fit and
    validation trials on it (32400 and 3600 pairs)."""
    bench = GenConfig()
    store, _, _ = generate(bench)
    fit_store, valid_store = split_identities(store, 0.1, bench.rng_seed)
    return (store, build_crossmodal_trials(fit_store, 1, bench.rng_seed),
            build_crossmodal_trials(valid_store, 1, bench.rng_seed + 1))


def params_equal(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(VFNetParams))


class TestTrain:
    def test_separable_two_trials_loss_floor(self):
        # one target and one mirrored nontarget: the target-pair loss bottoms
        # out at -log logistic(1) = 0.313 when S saturates at 1, and the
        # nontarget term goes well below it, so the mean dips under 0.32
        vec = np.array([1.0, 0.0, 0.0, 0.0])
        store = EmbeddingStore([
            EmbeddingRecord("v1", "idA", "voice", vec),
            EmbeddingRecord("f1", "idA", "face", vec),
            EmbeddingRecord("v2", "idB", "voice", -vec),
            EmbeddingRecord("f2", "idB", "face", vec * 0.5),
        ])
        trials = TrialSet([Trial("v1", "f1", "target"), Trial("v2", "f2", "nontarget")])
        config = TrainConfig(learning_rate=0.05, batch_size=2, max_epochs=100,
                             patience=100, hidden_dim=8, output_dim=4)
        report = train(store, trials, trials, config)
        assert report.train_loss[-1] < 0.32
        assert report.train_loss[-1] < report.train_loss[0]

    def test_zero_learning_rate_is_noop(self):
        store, tr, va = small_data()
        # every epoch covers the 540 pairs once, in 9 equal batches of 60, so
        # the mean of the batch means is the pairs' mean and cannot drift
        config = replace(SMALL_CONFIG, learning_rate=0.0, max_epochs=3,
                         batch_size=60)
        report = train(store, tr, va, config)
        init = init_params(input_dim=store.dim, hidden_dim=config.hidden_dim,
                           output_dim=config.output_dim, seed=config.rng_seed)
        assert params_equal(report.final_params, init)
        # batch order still permutes the summation, so allow roundoff
        assert report.train_loss == pytest.approx(
            [report.train_loss[0]] * len(report.train_loss), abs=1e-12)

    def test_bitwise_deterministic(self):
        store, tr, va = small_data()
        r1 = train(store, tr, va, SMALL_CONFIG)
        r2 = train(store, tr, va, SMALL_CONFIG)
        assert r1.train_loss == r2.train_loss
        assert r1.validation_eer == r2.validation_eer
        assert r1.best_epoch == r2.best_epoch
        assert params_equal(r1.final_params, r2.final_params)

    def test_seed_changes_trajectory(self):
        store, tr, va = small_data()
        r1 = train(store, tr, va, SMALL_CONFIG)
        r2 = train(store, tr, va, replace(SMALL_CONFIG, rng_seed=99))
        assert r1.train_loss != r2.train_loss

    def test_best_epoch_is_validation_argmin(self):
        store, tr, va = small_data()
        report = train(store, tr, va, SMALL_CONFIG)
        assert report.best_epoch == int(np.argmin(report.validation_eer))

    def test_loss_mostly_decreasing_across_seeds(self):
        # stochastic mini-batching allows occasional upticks, but the first
        # epochs should improve for nearly every seed
        wins = 0
        for seed in range(20):
            store, tr, va = small_data(seed)
            config = replace(SMALL_CONFIG, rng_seed=seed)
            report = train(store, tr, va, config)
            diffs = np.diff(report.train_loss[:5])
            if np.all(diffs <= 1e-12):
                wins += 1
        assert wins >= 19

    def test_requires_both_classes(self):
        store, tr, va = small_data()
        targets_only = TrialSet([t for t in tr if t.label == "target"])
        with pytest.raises(ValueError):
            train(store, targets_only, va, SMALL_CONFIG)

    def test_requires_labels(self):
        store, tr, va = small_data()
        unlabeled = TrialSet([Trial(t.enroll_id, t.test_id) for t in tr])
        with pytest.raises(ValueError):
            train(store, unlabeled, va, SMALL_CONFIG)

    def test_requires_both_classes_in_validation(self):
        store, tr, va = small_data()
        targets_only = TrialSet([t for t in va if t.label == "target"])
        with pytest.raises(ValueError, match="^validation trials need both targets and "
                           "nontargets$"):
            train(store, tr, targets_only, SMALL_CONFIG)

    def test_unlabeled_list_named(self):
        store, tr, va = small_data()
        unlabeled = TrialSet([Trial(t.enroll_id, t.test_id) for t in va])
        with pytest.raises(ValueError, match="^validation trials must be labeled$"):
            train(store, tr, unlabeled, SMALL_CONFIG)
        with pytest.raises(ValueError, match="^training trials must be labeled$"):
            train(store, unlabeled, va, SMALL_CONFIG)

    def test_wrong_modality_named(self):
        store, tr, va = small_data()
        swapped = TrialSet.from_columns(va.test_ids, va.enroll_ids, va.labels)
        with pytest.raises(ValueError, match=f"^validation trial \\({va.test_ids[0]}, "
                           f"{va.enroll_ids[0]}\\): enroll record is not a voice$"):
            train(store, tr, swapped, SMALL_CONFIG)
        test_ids = tr.test_ids.copy()
        test_ids[-1] = tr.enroll_ids[-1]  # a voice against a voice, in the last trial only
        voice_test = TrialSet.from_columns(tr.enroll_ids, test_ids, tr.labels)
        with pytest.raises(ValueError, match=f"^training trial \\({tr.enroll_ids[-1]}, "
                           f"{tr.enroll_ids[-1]}\\): test record is not a face$"):
            train(store, voice_test, va, SMALL_CONFIG)

    @pytest.mark.parametrize("max_epochs,patience,epochs,stopped_by", [
        (5, 0, 2, "patience"), (2, 0, 2, "patience"), (3, 5, 3, "max_epochs")])
    def test_stop_reason(self, max_epochs, patience, epochs, stopped_by):
        # at a zero learning rate the validation EER never improves after
        # epoch 0, so patience p stops the run after p + 2 epochs
        store, tr, va = small_data()
        config = replace(SMALL_CONFIG, learning_rate=0.0, max_epochs=max_epochs,
                         patience=patience)
        report = train(store, tr, va, config)
        assert len(report.train_loss) == epochs
        assert report.stopped_by == stopped_by

    def test_patience_only_cuts_the_tail(self):
        # the batch stream does not depend on patience, so a shorter patience
        # runs the first epochs of the longer run and stops patience + 1
        # epochs after its own best
        store, tr, va = small_data()
        config = replace(SMALL_CONFIG, max_epochs=30, patience=1)
        short = train(store, tr, va, config)
        long = train(store, tr, va, replace(config, patience=5))
        n = len(short.train_loss)
        assert n < len(long.train_loss)
        assert short.train_loss == long.train_loss[:n]
        assert short.validation_eer == long.validation_eer[:n]
        assert short.best_epoch == int(np.argmin(short.validation_eer))
        # the last epoch run is best_epoch + patience + 1
        assert n == min(short.best_epoch + config.patience + 2, config.max_epochs)

    def recorded_batches(self, monkeypatch, store, tr, va, config):
        """Train; return the report and each batch's pairs as (voice
        identity, trial index) lists, in batch order, one list per epoch."""
        key = {}  # (voice row, face row) bytes -> trial index
        for i, (e, t) in enumerate(zip(tr.enroll_ids, tr.test_ids)):
            pair = store.vectors[store.indices([e, t])].astype(np.float32)
            key[pair.tobytes()] = i
        identity = dict(zip(store.record_ids, store.identity_ids))
        batches = []

        def recording_loss_grad(params, voices, faces, voice_at, face_at, same):
            pairs = [key[np.stack([v, f]).tobytes()] for v, f in zip(voices[voice_at],
                                                                     faces[face_at])]
            assert [tr.labels[i] == "target" for i in pairs] == same.tolist()
            batches.append([(identity[tr.enroll_ids[i]], i) for i in pairs])
            return batch_loss_grad(params, voices, faces, voice_at, face_at, same)

        monkeypatch.setattr(training, "batch_loss_grad", recording_loss_grad)
        report = train(store, tr, va, config)
        per_epoch = len(batches) // len(report.train_loss)
        return report, [batches[i:i + per_epoch] for i in range(0, len(batches), per_epoch)]

    @pytest.mark.parametrize("batch_size,n_batches", [(32, 17), (2048, 1)])
    def test_each_epoch_covers_every_pair_once(self, monkeypatch, batch_size, n_batches):
        # 540 pairs: 17 batches of 31-32 pairs, or one batch of all when the
        # batch is larger than the list
        store, tr, va = small_data()
        config = replace(SMALL_CONFIG, batch_size=batch_size, max_epochs=3, patience=3)
        _, epochs = self.recorded_batches(monkeypatch, store, tr, va, config)
        assert len(epochs) == 3
        for batches in epochs:
            assert len(batches) == n_batches
            assert max(map(len, batches)) - min(map(len, batches)) <= 1
            assert sorted(i for b in batches for _, i in b) == list(range(len(tr)))
        assert epochs[0] != epochs[1]  # a fresh identity order each epoch

    def test_identity_pairs_share_a_batch_or_two_at_a_cut(self, monkeypatch):
        store, tr, va = small_data()
        config = replace(SMALL_CONFIG, max_epochs=3, patience=3)
        sizes = Counter(dict(zip(store.record_ids, store.identity_ids))[e]
                        for e in tr.enroll_ids)
        assert max(sizes.values()) < len(tr) // math.ceil(len(tr) / config.batch_size)
        for batches in self.recorded_batches(monkeypatch, store, tr, va, config)[1]:
            stream = [pair for b in batches for pair in b]
            cuts = np.cumsum([len(b) for b in batches])[:-1]
            # one run of pairs per identity, in list order within it
            runs = [(who, [i for _, i in group]) for who, group in
                    itertools.groupby(stream, key=lambda pair: pair[0])]
            assert sorted(who for who, _ in runs) == sorted(sizes)
            assert all(pairs == sorted(pairs) for _, pairs in runs)
            # a run crosses at most one cut
            ends = np.cumsum([len(pairs) for _, pairs in runs])
            starts = ends - [len(pairs) for _, pairs in runs]
            for lo, hi in zip(starts, ends):
                assert np.sum((cuts > lo) & (cuts < hi)) <= 1

    def test_batches_hold_whole_blocks(self, monkeypatch):
        # 100-pair nontarget blocks cut the 540 pairs into blocks of 72 or 90
        # pairs (4 or 5 identities), so a 200-pair batch holds two whole blocks
        monkeypatch.setattr(avsrkit.store, "NONTARGET_BLOCK_PAIRS", 100)
        store, tr, va = small_data()
        identity = dict(zip(store.record_ids, store.identity_ids))
        block = {i: i for i in identity.values()}  # union-find over the pairs' identities

        def root(i):
            while block[i] != i:
                i = block[i]
            return i

        for e, t in zip(tr.enroll_ids, tr.test_ids):
            block[root(identity[e])] = root(identity[t])
        sizes = Counter(root(identity[e]) for e in tr.enroll_ids)
        assert len(sizes) >= 5 and max(sizes.values()) <= 100
        config = replace(SMALL_CONFIG, batch_size=200, max_epochs=3, patience=3)
        _, epochs = self.recorded_batches(monkeypatch, store, tr, va, config)
        for batches in epochs:
            assert sorted(i for b in batches for _, i in b) == list(range(len(tr)))
            assert all(len(b) <= config.batch_size for b in batches)
            held = [Counter(root(who) for who, _ in b) for b in batches]
            assert all(sizes[r] == n for h in held for r, n in h.items())  # whole blocks
            assert [len(h) for h in held[:-1]] == [2] * (len(held) - 1)
            # a batch closes only when the next block would overflow it
            ends = [sum(sizes[r] for r in h) for h in held]
            firsts = [next(iter(h)) for h in held[1:]]
            assert all(end + sizes[r] > config.batch_size for end, r in zip(ends, firsts))
        assert epochs[0] != epochs[1]  # a fresh block order each epoch

    def test_record_dead_at_initialisation_in_the_first_batch(self, monkeypatch):
        # a zero face vector meets zero biases at initialisation, so its
        # transformed face is the zero vector, whose cosine has no gradient;
        # one batch holds every pair, so the first step meets it
        store, tr, va = small_data()
        vectors = store.vectors.copy()
        dead = store.indices([tr.test_ids[0]])[0]
        vectors[dead] = 0.0
        store = EmbeddingStore.from_columns(store.record_ids, store.identity_ids,
                                            store.modalities, vectors)
        config = replace(SMALL_CONFIG, batch_size=len(tr), max_epochs=2, patience=2)
        report, epochs = self.recorded_batches(monkeypatch, store, tr, va, config)
        assert 0 in [i for _, i in epochs[0][0]]
        assert all(math.isfinite(loss) for loss in report.train_loss)

    def test_float32_training_state_and_float64_result(self, monkeypatch):
        steps = []

        class RecordingAdam(_Adam):
            def step(self, params, grads):
                steps.append((self, params, grads))
                super().step(params, grads)

        monkeypatch.setattr(training, "_Adam", RecordingAdam)
        store, tr, va = small_data()
        report = train(store, tr, va, SMALL_CONFIG)
        optimizer, params, grads = steps[-1]
        for buf in (params.flat, grads.flat, optimizer.m, optimizer.v):
            assert buf.dtype == np.float32 and buf.ndim == 1
        for arrays, buf in ((params, params.flat), (grads, grads.flat)):
            assert all(np.shares_memory(arr, buf) for arr in arrays.as_dict().values())
        for arr in report.final_params.as_dict().values():
            assert arr.dtype == np.float64
            np.testing.assert_array_equal(arr.astype(np.float32).astype(np.float64), arr)


def scaled_store(scale, seed=0):
    """Four training identities with every embedding multiplied by scale."""
    gen = GenConfig(d_id=2, d_voice=8, d_face=8, n_identities_train=4,
                    n_identities_test=2, rng_seed=seed)
    store, _, _ = generate(gen)
    return EmbeddingStore.from_columns(store.record_ids, store.identity_ids,
                                       store.modalities, store.vectors * scale)


class TestNumericFailures:
    CONFIG = TrainConfig(learning_rate=1e3, batch_size=4, max_epochs=40, patience=40,
                         hidden_dim=8, output_dim=4)

    def test_diverging_training_raises_training_error(self):
        # finite in float32, but after one step of 1e3 the branch outputs'
        # squared norms overflow float32 and the loss goes NaN
        store = scaled_store(1e15)
        trials = build_crossmodal_trials(store, 1, rng_seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match=r"non-finite (loss|gradient of \w+) in "
                               r"epoch \d+, batch \d+; example pairs: \(\w+, \w+\)"):
                train(store, trials, trials, self.CONFIG)

    def test_row_beyond_float32_named_before_training(self):
        store = scaled_store(1.0)
        vectors = store.vectors.copy()
        face = store.modalities.index("face")
        vectors[face, 0] = 1e39  # finite in float64, inf in float32
        store = EmbeddingStore.from_columns(store.record_ids, store.identity_ids,
                                            store.modalities, vectors)
        trials = build_crossmodal_trials(store, 1, rng_seed=0)
        assert store.record_ids[face] in {t.test_id for t in trials}
        with pytest.raises(TrainingError, match=f"record {store.record_ids[face]} has "
                           "values beyond the float32 range"):
            train(store, trials, trials, self.CONFIG)


class TestGatherPairs:
    def test_each_used_record_once_and_rows_bit_for_bit(self):
        store, tr, _ = small_data()
        rows, voice_at, face_at, same, used = _gather_pairs(store, tr, np.float32)
        assert rows.dtype == np.float32
        assert rows.tobytes() == store.vectors[used].astype(np.float32).tobytes()
        assert len(rows) == len(set(tr.enroll_ids) | set(tr.test_ids))
        for at, ids in ((voice_at, tr.enroll_ids), (face_at, tr.test_ids)):
            want = store.vectors[store.indices(ids)].astype(np.float32)
            assert rows[at].tobytes() == want.tobytes()
        assert same.tolist() == [label == "target" for label in tr.labels]

    def test_record_beyond_float32_used_by_no_trial_is_ignored(self):
        store = scaled_store(1.0)
        trials = build_crossmodal_trials(store, 1, rng_seed=0)
        vectors = np.vstack([store.vectors, np.full(store.dim, -1e39)])
        store = EmbeddingStore.from_columns(store.record_ids + ("unused",),
                                            store.identity_ids + ("idX",),
                                            store.modalities + ("face",), vectors)
        rows, *_ = _gather_pairs(store, trials, np.float32)
        assert np.isfinite(rows).all()
        train(store, trials, trials, replace(TestNumericFailures.CONFIG, max_epochs=1))

    def test_negative_row_beyond_float32_named(self):
        store = scaled_store(1.0)
        trials = build_crossmodal_trials(store, 1, rng_seed=0)
        vectors = store.vectors.copy()
        vectors[store.record_ids.index(trials.enroll_ids[-1]), 1] = -1e39
        store = EmbeddingStore.from_columns(store.record_ids, store.identity_ids,
                                            store.modalities, vectors)
        with pytest.raises(TrainingError, match=f"record {trials.enroll_ids[-1]} has "
                           "values beyond the float32 range"):
            _gather_pairs(store, trials, np.float32)


class TestValidationScores:
    def test_zero_norm_output_rejected(self):
        store, _, va = small_data()
        params = init_params(input_dim=store.dim, hidden_dim=4, output_dim=3)
        params.face_w2[:] = 0.0  # every face output is the zero bias
        rows, voice_at, face_at, *_ = _gather_pairs(store, va)
        with pytest.raises(ValueError, match="zero norm"):
            _pair_scores(params, rows, voice_at, face_at)

    def test_per_record_scores_equal_per_pair_scores_bitwise(self, default_train_split):
        store, _, va = default_train_split
        params = init_params(input_dim=store.dim, seed=3)
        rows, voice_at, face_at, *_ = _gather_pairs(store, va)
        assert len(np.unique(voice_at)) < len(va) and len(np.unique(face_at)) < len(va)
        voices, faces = (store.vectors[store.indices(ids)] for ids in (va.enroll_ids, va.test_ids))
        per_pair = cosine_similarity(transform_voice(params, voices), transform_face(params, faces))
        assert _pair_scores(params, rows, voice_at, face_at).tobytes() == per_pair.tobytes()


def test_components_of_a_hand_built_pair_graph():
    # edges 0-1-2 and 5-3, 4-5, 4-4: blocks {0, 1, 2}, {3, 4, 5} and the lone 6
    a, b = np.array([0, 1, 5, 4, 4]), np.array([1, 2, 3, 5, 4])
    assert training._components(a, b, 7).tolist() == [0, 0, 0, 1, 1, 1, 2]
    # a chain whose least node sits at its far end takes several rounds
    assert training._components(np.arange(1, 9), np.arange(8), 9).tolist() == [0] * 9


@pytest.mark.parametrize("sizes,bounds", [
    ([540], [0, 60, 120, 180, 240, 300, 360, 420, 480, 540]),  # one block: 9 equal cuts
    ([300, 300, 500, 130, 2100], [0, 600, 1230, 1930, 2630, 3330]),
    ([10, 20], [0, 30]),
])
def test_batch_bounds_pack_whole_blocks_and_cut_long_ones(sizes, bounds):
    batch_size = 60 if len(sizes) == 1 else 1024
    assert training._batch_bounds(np.array(sizes), batch_size) == bounds


def test_training_memory_scales_with_records(default_train_split):
    """One epoch on the default benchmark peaks at 12.7 MiB traced at the
    default 1024-pair batches of one nontarget block each, which run each
    branch once per distinct record and sum its pair gradients through a
    0.11 MB voices x faces matrix (12.6 MiB with nontargets over the whole
    store; 12.5 MiB with per-pair gradient rows; 14.3 MiB when each pair
    ran its own rows): float32 voice and face rows for each of the 32400
    training pairs alone would add 16.6 MB, and branch outputs gathered for
    all 3600 validation pairs at once 7 MiB."""
    store, tr, va = default_train_split
    tracemalloc.start()
    try:
        train(store, tr, va, TrainConfig(max_epochs=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestAdam:
    def allocating_step(self, t, lr, p, g, m, v):
        """The one-division step with a temporary per operation."""
        m[...] = 0.9 * m + (1.0 - 0.9) * g
        v[...] = 0.999 * v + (1.0 - 0.999) * g * g
        p -= (lr / (1.0 - 0.9 ** t)) * m / (np.sqrt(v) * (1.0 / math.sqrt(1.0 - 0.999 ** t))
                                            + 1e-8)

    def test_in_place_step_matches_allocating_step_bitwise(self, rng):
        params = init_params(input_dim=7, hidden_dim=5, output_dim=3,
                             seed=1).flat_like(np.float32, copy=True)
        expected = params.flat.copy()
        m, v = np.zeros_like(expected), np.zeros_like(expected)
        optimizer = _Adam(3e-4, params)
        for t in range(1, 6):
            grads = params.flat_like(np.float32)
            for g in grads.as_dict().values():
                g[...] = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-6, 3)
            optimizer.step(params, grads)
            self.allocating_step(t, 3e-4, expected, grads.flat, m, v)
        assert expected.dtype == m.dtype == v.dtype == np.float32
        assert params.flat.tobytes() == expected.tobytes()
        assert optimizer.m.tobytes() == m.tobytes()
        assert optimizer.v.tobytes() == v.tobytes()


class TestConfigValidation:
    def test_negative_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)

    def test_tiny_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)


class TestSaveReport:
    def test_tsv_shape_and_best_flag(self, tmp_path):
        store, tr, va = small_data()
        report = train(store, tr, va, SMALL_CONFIG)
        path = tmp_path / "report.tsv"
        save_report(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch\ttrain_loss\tvalidation_eer\tbest"
        assert len(lines) == 1 + len(report.train_loss)
        flags = [line.split("\t")[3] for line in lines[1:]]
        assert flags[report.best_epoch] == "1"
        assert flags.count("1") == 1
        # repr round-trip keeps the losses bit-exact
        assert float(lines[1].split("\t")[1]) == report.train_loss[0]
