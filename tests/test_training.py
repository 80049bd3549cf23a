from dataclasses import fields, replace

import numpy as np
import pytest

from avsrkit.store import (EmbeddingRecord, EmbeddingStore, Trial, TrialSet,
                           build_crossmodal_trials)
from avsrkit.synth import GenConfig, generate
from avsrkit.training import TrainConfig, save_report, train
from avsrkit.vfnet import VFNetParams

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
                             patience=100, optimizer="sgd", hidden_dim=8,
                             output_dim=4)
        report = train(store, trials, trials, config)
        assert report.train_loss[-1] < 0.32
        assert report.train_loss[-1] < report.train_loss[0]

    def test_zero_learning_rate_is_noop(self):
        store, tr, va = small_data()
        # batch half of 30 divides the 270 targets and 270 nontargets, so
        # every epoch is an exact cover and the mean loss cannot drift
        config = replace(SMALL_CONFIG, learning_rate=0.0, max_epochs=3,
                         batch_size=60)
        report = train(store, tr, va, config)
        from avsrkit.vfnet import init_params
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


class TestConfigValidation:
    def test_negative_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)

    def test_bad_optimizer(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")

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
