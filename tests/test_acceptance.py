"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

The expensive fixtures (a trained network on the default benchmark, two full
pipeline runs) are session-scoped and shared across criteria. Run with

    pytest tests/test_acceptance.py -v
"""

import hashlib
import math
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from avsrkit.backend import PoolingRule, fit_plda, pool_cosines
from avsrkit.metrics import DcfParams, compute_metrics, _eer_arrays
from avsrkit.pipeline import (PipelineConfig, build_identity_trials,
                              run_pipeline, split_identities)
from avsrkit.store import (EmbeddingRecord, EmbeddingStore, Trial, TrialSet,
                           build_crossmodal_trials, save_embeddings,
                           save_trials)
from avsrkit.synth import GenConfig, generate, generate_av_benchmark, oracle_eer
from avsrkit.training import TrainConfig, train, _gather_pairs, _pair_scores
from avsrkit.vfnet import (VFNetParams, batch_loss_grad, matching_accuracy,
                           pair_probability)
from conftest import ACCEPTANCE_RESULTS, check_golden, make_score_set
from oracles import brute_act_dcf, brute_auc, brute_eer, brute_min_dcf


def announce(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number} [{name}]: {status}{suffix}"
    ACCEPTANCE_RESULTS.append(line)
    print(line)  # visible immediately under -s; the summary hook repeats it


# ---------------------------------------------------------------------------
# shared expensive artifacts

BENCH = GenConfig()  # the default synthetic benchmark


@pytest.fixture(scope="session")
def trained_model():
    """Network trained on the default benchmark, its runtime, held-out EER,
    plus a shuffled-label control EER."""
    t0 = time.monotonic()
    train_store, test_store, _ = generate(BENCH)
    fit_store, valid_store = split_identities(train_store, 0.1, BENCH.rng_seed)
    train_trials = build_crossmodal_trials(fit_store, 1, BENCH.rng_seed)
    valid_trials = build_crossmodal_trials(valid_store, 1, BENCH.rng_seed + 1)
    config = TrainConfig()
    report = train(train_store, train_trials, valid_trials, config)

    test_trials = build_crossmodal_trials(test_store, 1, BENCH.rng_seed + 2)
    rows, voice_at, face_at, same, _ = _gather_pairs(test_store, test_trials)
    scores = _pair_scores(report.final_params, rows, voice_at, face_at)
    held_out_eer = _eer_arrays(scores[same], scores[~same])

    # chance control: same pipeline with labels detached from the pairs
    rng = np.random.default_rng(606)
    labels = [t.label for t in train_trials]
    perm = rng.permutation(len(labels))
    shuffled = TrialSet([Trial(t.enroll_id, t.test_id, labels[perm[i]])
                         for i, t in enumerate(train_trials)])
    control_config = replace(config, max_epochs=3, patience=3)
    control = train(train_store, shuffled, valid_trials, control_config)
    control_scores = _pair_scores(control.final_params, rows, voice_at, face_at)
    control_eer = _eer_arrays(control_scores[same], control_scores[~same])

    return {
        "params": report.final_params,
        "control_params": control.final_params,
        "test_store": test_store,
        "held_out_eer": held_out_eer,
        "control_eer": control_eer,
        "runtime": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """Two identical full pipeline runs on the default benchmark; returns the
    two report texts plus the parsed rows of the first."""
    base = tmp_path_factory.mktemp("acceptance_pipeline")
    train_store, dev_store, eval_store = generate_av_benchmark(BENCH)
    save_embeddings(train_store, base / "train.embeddings")
    save_embeddings(dev_store, base / "dev.embeddings")
    save_embeddings(eval_store, base / "eval.embeddings")
    save_trials(build_identity_trials(dev_store, 20, BENCH.rng_seed + 1),
                base / "dev.trials")
    save_trials(build_identity_trials(eval_store, 20, BENCH.rng_seed + 2),
                base / "eval.trials")

    reports = []
    for run in ("run1", "run2"):
        config = PipelineConfig(
            train_embeddings=str(base / "train.embeddings"),
            dev_embeddings=str(base / "dev.embeddings"),
            eval_embeddings=str(base / "eval.embeddings"),
            dev_trials=str(base / "dev.trials"),
            eval_trials=str(base / "eval.trials"),
            out_dir=str(base / run),
        )
        reports.append(open(run_pipeline(config)).read())

    rows = {}
    for line in reports[0].strip().split("\n")[1:]:
        name, eer_v, min_v, act_v = line.split("\t")
        rows[name] = {"eer": float(eer_v), "min_dcf": float(min_v),
                      "act_dcf": float(act_v)}
    return {"texts": reports, "rows": rows}


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_gradient_correctness(rng):
    t0 = time.monotonic()
    h = 1e-5
    worst = 0.0
    n_configs = 24
    for k in range(n_configs):
        dim = int(rng.integers(3, 12))
        hidden = int(rng.integers(2, 9))
        out = int(rng.integers(2, 7))
        from avsrkit.vfnet import init_params
        params = init_params(input_dim=dim, hidden_dim=hidden, output_dim=out,
                             seed=k)
        for f in fields(VFNetParams):
            arr = getattr(params, f.name)
            arr += 0.1 * rng.standard_normal(arr.shape)
        # one pair, as a batch of one row
        e_v = rng.standard_normal((1, dim))
        e_f = rng.standard_normal((1, dim))
        same = [k % 2 == 0]
        _, grads = batch_loss_grad(params, e_v, e_f, [0], [0], same)
        for f in fields(VFNetParams):
            arr = getattr(params, f.name)
            analytic = getattr(grads, f.name)
            for _ in range(4):
                idx = tuple(int(rng.integers(s)) for s in arr.shape)
                orig = arr[idx]
                arr[idx] = orig + h
                lp, _ = batch_loss_grad(params, e_v, e_f, [0], [0], same)
                arr[idx] = orig - h
                lm, _ = batch_loss_grad(params, e_v, e_f, [0], [0], same)
                arr[idx] = orig
                fd = (lp - lm) / (2.0 * h)
                scale = max(abs(analytic[idx]), 1e-6)
                worst = max(worst, abs(fd - analytic[idx]) / scale)
    elapsed = time.monotonic() - t0
    passed = worst < 1e-4 and elapsed < 10.0
    announce(1, "gradient correctness", passed,
             f"max rel err {worst:.2e} over {n_configs} configs, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_2_eq1_identity():
    s_values = np.linspace(-10.0, 10.0, 1000)
    worst = 0.0
    for s in s_values:
        literal = 1.0 / (1.0 + math.exp(1.0 - 2.0 * s))
        worst = max(worst, abs(pair_probability(float(s)) - literal))
    passed = worst < 1e-12
    announce(2, "Eq.-1 identity", passed, f"max abs err {worst:.2e}")
    assert passed


def test_criterion_3_metric_oracle_equivalence(rng):
    t0 = time.monotonic()
    params = DcfParams()
    worst = 0.0
    for _ in range(1000):
        n_tar = int(rng.integers(1, 50))
        n_non = int(rng.integers(1, 50))
        decimals = int(rng.integers(1, 4))
        tar = np.round(rng.normal(1.0, 1.0, n_tar), decimals)
        non = np.round(rng.normal(0.0, 1.0, n_non), decimals)
        report = compute_metrics(make_score_set(tar, non), params)
        worst = max(
            worst,
            abs(report.eer - brute_eer(tar, non)),
            abs(report.auc - brute_auc(tar, non)),
            abs(report.min_dcf
                - brute_min_dcf(tar, non, params.p_target, params.c_miss,
                                params.c_fa)[0]),
            abs(report.act_dcf
                - brute_act_dcf(tar, non, params.p_target, params.c_miss,
                                params.c_fa)),
        )
    elapsed = time.monotonic() - t0
    passed = worst < 1e-12 and elapsed < 60.0
    announce(3, "metric oracle equivalence", passed,
             f"max diff {worst:.2e} over 1000 sets, {elapsed:.1f}s")
    assert worst < 1e-12
    assert elapsed < 60.0


def test_criterion_4_em_monotonicity(rng):
    # Each model is sampled twice: with one session count for every identity
    # (fitted in closed form, one history entry) and with ragged counts of
    # 1-6 (fitted by EM). The ragged samples come from their own generator,
    # so the common-count samples are the same draws from `rng` as ever.
    ragged_rng = np.random.default_rng(4)
    worst_drop = 0.0
    em_lengths = []
    for k in range(10):
        d = int(rng.integers(2, 6))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        b = q @ np.diag(rng.uniform(0.3, 2.0, d)) @ q.T
        w = np.diag(rng.uniform(0.2, 1.0, d))
        mu = rng.standard_normal(d)
        n_sessions = int(rng.integers(2, 6))
        ragged = ragged_rng.integers(1, 7, size=60)
        for tag, gen, counts in (("d", rng, [n_sessions] * 60), ("r", ragged_rng, ragged)):
            recs = []
            for i in range(60):
                y = mu + np.linalg.cholesky(b) @ gen.standard_normal(d)
                for j in range(counts[i]):
                    x = y + np.linalg.cholesky(w) @ gen.standard_normal(d)
                    recs.append(EmbeddingRecord(f"{tag}{k}_s{i}_{j}", f"id{i}", "voice", x))
            ll = fit_plda(EmbeddingStore(recs)).loglik_history
            if tag == "r":
                em_lengths.append(len(ll))
            drops = [a - b_ for a, b_ in zip(ll, ll[1:])]
            if drops:
                worst_drop = max(worst_drop, max(drops))

    # recovery at spec scale: 500 identities x 10 sessions
    d = 4
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    b_true = q @ np.diag([2.0, 1.0, 0.5, 0.25]) @ q.T
    w_true = np.diag([0.6, 0.4, 0.5, 0.3])
    mu = rng.standard_normal(d)
    recs = []
    for i in range(500):
        y = mu + np.linalg.cholesky(b_true) @ rng.standard_normal(d)
        for j in range(10):
            x = y + np.linalg.cholesky(w_true) @ rng.standard_normal(d)
            recs.append(EmbeddingRecord(f"r_s{i}_{j}", f"id{i}", "voice", x))
    model = fit_plda(EmbeddingStore(recs))
    b_err = np.linalg.norm(model.B - b_true) / np.linalg.norm(b_true)
    w_err = np.linalg.norm(model.W - w_true) / np.linalg.norm(w_true)

    passed = worst_drop <= 1e-9 and min(em_lengths) >= 2 and b_err < 0.15 and w_err < 0.15
    announce(4, "EM monotonicity and recovery", passed,
             f"worst drop {worst_drop:.2e} over EM runs of {min(em_lengths)}-{max(em_lengths)} "
             f"iterations, B err {b_err:.3f}, W err {w_err:.3f}")
    assert worst_drop <= 1e-9
    assert min(em_lengths) >= 2
    assert b_err < 0.15
    assert w_err < 0.15


def test_criterion_5_learnability(trained_model, rng):
    oracle = oracle_eer(BENCH)
    bound = 1.5 * oracle + 0.02
    held_out = trained_model["held_out_eer"]

    # 2,000 matching triplets from held-out identities
    test_store = trained_model["test_store"]
    by_identity = {}
    for rec in test_store:
        by_identity.setdefault(rec.identity_id, {}).setdefault(
            rec.modality, []).append(rec.vector)
    identities = sorted(by_identity)
    triplets = []
    for _ in range(2000):
        i, j = rng.choice(len(identities), size=2, replace=False)
        same = by_identity[identities[i]]
        other = by_identity[identities[j]]
        voice = same["voice"][int(rng.integers(len(same["voice"])))]
        f_same = same["face"][int(rng.integers(len(same["face"])))]
        f_other = other["face"][int(rng.integers(len(other["face"])))]
        triplets.append((voice, f_same, f_other))
    accuracy = matching_accuracy(trained_model["params"], triplets)

    control = trained_model["control_eer"]
    runtime = trained_model["runtime"]
    passed = (held_out <= bound and accuracy > 0.80
              and 0.45 <= control <= 0.55 and runtime < 300.0)
    announce(5, "learnability", passed,
             f"held-out EER {held_out:.4f} vs bound {bound:.4f} "
             f"(oracle {oracle:.4f}), matching acc {accuracy:.3f}, "
             f"control EER {control:.3f}, {runtime:.0f}s")
    assert held_out <= bound
    assert accuracy > 0.80
    assert 0.45 <= control <= 0.55
    assert runtime < 300.0


def test_criterion_6_fusion_helps(pipeline_runs):
    rows = pipeline_runs["rows"]
    av = rows["audio-visual"]["eer"]
    av_vfnet = rows["audio-visual+vfnet"]["eer"]
    best_single = min(rows["audio"]["eer"], rows["visual"]["eer"])
    passed = av_vfnet <= av and av_vfnet <= best_single + 0.005 \
        and av <= best_single + 0.005
    announce(6, "fusion helps", passed,
             f"EER av+vfnet {av_vfnet:.4f} <= av {av:.4f}; "
             f"best single {best_single:.4f}")
    assert av_vfnet <= av
    assert av_vfnet <= best_single + 0.005
    assert av <= best_single + 0.005


def test_criterion_7_calibration(pipeline_runs):
    worst_gap = -math.inf
    violated = False
    for name, row in pipeline_runs["rows"].items():
        gap = row["act_dcf"] - row["min_dcf"]
        worst_gap = max(worst_gap, gap)
        if row["act_dcf"] < row["min_dcf"] - 1e-12:
            violated = True
    passed = worst_gap < 0.05 and not violated
    announce(7, "calibration", passed,
             f"worst actDCF-minDCF gap {worst_gap:.4f} across "
             f"{len(pipeline_runs['rows'])} systems")
    assert worst_gap < 0.05
    assert not violated


def test_criterion_8_pooling_rule():
    rule = PoolingRule(0.2)

    def pool(scores):
        # every row's cosine with the template is exactly 1; the link scales it
        scores = np.asarray(scores)
        return pool_cosines([[1.0]], [np.ones((len(scores), 1))], [0], [0], rule,
                            link=lambda cosines: cosines * scores)[0]

    a = pool([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    b = pool([0.3])
    c = pool([0.1, 0.5, 0.9])
    passed = a == 0.95 and b == 0.3 and c == 0.9
    announce(8, "pooling rule", passed, f"got {a}, {b}, {c}")
    assert a == 0.95
    assert b == 0.3
    assert c == 0.9


def test_criterion_9_determinism(pipeline_runs):
    r1, r2 = pipeline_runs["texts"]
    passed = r1 == r2
    announce(9, "pipeline determinism", passed,
             "reports bitwise identical" if passed else "reports differ")
    assert passed


def test_report_matches_golden_digest(pipeline_runs):
    check_golden("report.tsv", hashlib.sha256(pipeline_runs["texts"][0].encode()).hexdigest())
