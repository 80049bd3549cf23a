"""End-to-end audio-visual recognition experiment.

Wires the whole stack together: fit LDA+PLDA on training voices, train the
cross-modal network on training voice-face trials, score the audio, visual
and cross-modal systems on identity-level dev/eval trials, fit
calibration/fusion on dev, and report eval metrics for each system with and
without the cross-modal score.

Dev fits fusion; eval is never touched during fitting.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import backend, fusion, metrics, store, training, vfnet
from .store import EmbeddingStore, ScoreEntry, ScoreSet, Trial, TrialSet

REPORT_SYSTEMS = (
    ("audio", ("audio",)),
    ("audio+vfnet", ("audio", "vfnet")),
    ("visual", ("visual",)),
    ("visual+vfnet", ("visual", "vfnet")),
    ("audio-visual", ("audio", "visual")),
    ("audio-visual+vfnet", ("audio", "visual", "vfnet")),
)


class PipelineError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    train_embeddings: str = ""
    dev_embeddings: str = ""
    eval_embeddings: str = ""
    dev_trials: str = ""
    eval_trials: str = ""
    out_dir: str = "pipeline_out"
    lda_dim: int = 150
    length_norm: bool = True
    pool_fraction: float = 0.2
    negatives_per_positive: int = 1
    dcf: metrics.DcfParams = field(default_factory=metrics.DcfParams)
    train: training.TrainConfig = field(default_factory=training.TrainConfig)


def build_identity_trials(embedding_store: EmbeddingStore, negatives_per_positive: int,
                          rng_seed: int) -> TrialSet:
    """Identity-level trials: one target per identity plus sampled nontargets."""
    identities = sorted(embedding_store.identities())
    if len(identities) < 2:
        raise ValueError("need at least 2 identities")
    rng = np.random.default_rng(rng_seed)
    trials = [Trial(i, i, "target") for i in identities]
    n_neg = negatives_per_positive * len(identities)
    max_neg = len(identities) * (len(identities) - 1)
    if n_neg > max_neg:
        raise ValueError(f"requested {n_neg} nontargets but only {max_neg} pairs exist")
    chosen = set()
    while len(chosen) < n_neg:
        a = identities[rng.integers(len(identities))]
        b = identities[rng.integers(len(identities))]
        if a != b and (a, b) not in chosen:
            chosen.add((a, b))
            trials.append(Trial(a, b, "nontarget"))
    return TrialSet(trials)


def split_enroll_test(embedding_store: EmbeddingStore):
    """Per identity and modality, first half of records (by id) enrolls,
    the rest tests. Every identity needs >= 2 records per modality."""
    groups = {identity: {"voice": [], "face": []}
              for identity in embedding_store.identities()}
    for rec in sorted(embedding_store, key=lambda r: r.record_id):
        groups[rec.identity_id][rec.modality].append(rec)
    enroll, test = [], []
    for identity, by_modality in groups.items():
        for modality, recs in by_modality.items():
            if len(recs) < 2:
                raise ValueError(
                    f"identity {identity!r} has {len(recs)} {modality} records; "
                    "need >= 2 to split into enrollment and test"
                )
            cut = math.ceil(len(recs) / 2)
            enroll.extend(recs[:cut])
            test.extend(recs[cut:])
    return EmbeddingStore(enroll), EmbeddingStore(test)


# the modality each system reads on the (enrollment, test) side of a trial
_READS = {"audio": ("voice", "voice"), "visual": ("face", "face"),
          "vfnet": ("voice", "face")}


def score_trials(trials: TrialSet, enroll: EmbeddingStore, test: EmbeddingStore,
                 lda: backend.LdaTransform, plda: backend.PldaModel,
                 params: vfnet.VFNetParams, rule: backend.PoolingRule,
                 length_norm: bool = True, systems=("audio", "visual", "vfnet")):
    """Score every trial under each requested system; returns {system: ScoreSet}.

    Each store is grouped by identity once, and each vfnet branch runs once
    per identity; a trial then scores the two identities' matrices. Raises
    ValueError naming the trial, identity and modality when a trial's
    identity has no records of a modality that a requested system reads.
    """
    groups = ({}, {})  # enrollment and test side: modality -> identity -> rows
    for k, (side, side_store) in enumerate((("enroll", enroll), ("test", test))):
        for modality in sorted({_READS[s][k] for s in systems}):
            groups[k][modality] = side_store.grouped(modality)
            for t in trials:
                identity = (t.enroll_id, t.test_id)[k]
                if identity not in groups[k][modality]:
                    raise ValueError(f"trial ({t.enroll_id}, {t.test_id}): {side} identity "
                                     f"{identity!r} has no {modality} records")
    e_side, t_side = groups
    if "audio" in systems:
        e_proj, t_proj = (backend.project_store(lda, side.restrict("voice"), length_norm)
                          .grouped("voice") for side in (enroll, test))
    if "vfnet" in systems:
        voice_out = {i: vfnet.transform_voice(params, x.mean(axis=0))
                     for i, x in e_side["voice"].items()}
        face_out = {i: vfnet.transform_face(params, x) for i, x in t_side["face"].items()}

    def score(system, t):
        if system == "audio":
            return float(backend.plda_llr(plda, e_proj[t.enroll_id], t_proj[t.test_id]).mean())
        if system == "visual":
            return backend.score_face_trial(e_side["face"][t.enroll_id],
                                            t_side["face"][t.test_id], rule)
        s = vfnet.cosine_similarity(voice_out[t.enroll_id], face_out[t.test_id])
        return backend.pool_top_fraction(vfnet.pair_probability(s).p_same, rule)

    return {system: ScoreSet(ScoreEntry(t.enroll_id, t.test_id, score(system, t), t.label)
                             for t in trials)
            for system in systems}


def split_identities(embedding_store: EmbeddingStore, valid_fraction: float, seed: int):
    """Identity-disjoint (train, valid) stores; validation must not share
    identities with training or early stopping cannot see identity overfit."""
    ids = sorted(embedding_store.identities())
    rng = np.random.default_rng([seed, 11])
    perm = rng.permutation(len(ids))
    n_valid = max(2, int(valid_fraction * len(ids)))
    valid_ids = {ids[i] for i in perm[:n_valid]}
    train_part = EmbeddingStore(r for r in embedding_store if r.identity_id not in valid_ids)
    valid_part = EmbeddingStore(r for r in embedding_store if r.identity_id in valid_ids)
    return train_part, valid_part


def run_pipeline(config: PipelineConfig) -> str:
    """Execute the full experiment; returns the report path.

    Report: TSV with one row per system configuration, columns
    system, eer, min_dcf, act_dcf.
    """
    os.makedirs(config.out_dir, exist_ok=True)

    def stage(name, fn):
        try:
            return fn()
        except Exception as exc:
            raise PipelineError(name, exc) from exc

    def load_all():
        return (store.load_embeddings(config.train_embeddings),
                store.load_embeddings(config.dev_embeddings),
                store.load_embeddings(config.eval_embeddings),
                store.load_trials(config.dev_trials),
                store.load_trials(config.eval_trials))

    train_store, dev_store, eval_store, dev_trials, eval_trials = stage("load-data", load_all)

    def fit_backend_stage():
        lda = backend.fit_lda(train_store.restrict("voice"), config.lda_dim)
        plda = backend.fit_plda(
            backend.project_store(lda, train_store.restrict("voice"), config.length_norm))
        backend.save_lda(lda, os.path.join(config.out_dir, "lda.ckpt"))
        backend.save_plda(plda, os.path.join(config.out_dir, "plda.ckpt"))
        return lda, plda

    lda, plda = stage("fit-backend", fit_backend_stage)

    def train_vfnet_stage():
        seed = config.train.rng_seed
        fit_store, valid_store = split_identities(train_store, 0.1, seed)
        train_part = store.build_crossmodal_trials(
            fit_store, config.negatives_per_positive, seed)
        valid_part = store.build_crossmodal_trials(
            valid_store, config.negatives_per_positive, seed + 1)
        report = training.train(train_store, train_part, valid_part, config.train)
        vfnet.save_params(report.final_params,
                          os.path.join(config.out_dir, "vfnet.ckpt"))
        training.save_report(report, os.path.join(config.out_dir, "vfnet_training.tsv"))
        return report.final_params

    params = stage("train-vfnet", train_vfnet_stage)

    rule = backend.PoolingRule(config.pool_fraction)

    def score_stage(split_store, trials, name):
        enroll, test = split_enroll_test(split_store)
        scored = score_trials(trials, enroll, test, lda, plda, params, rule,
                              config.length_norm)
        for system, score_set in scored.items():
            store.save_scores(score_set,
                              os.path.join(config.out_dir, f"{name}_{system}.scores"))
        return scored

    dev_scores = stage("score-dev", lambda: score_stage(dev_store, dev_trials, "dev"))
    eval_scores = stage("score-eval", lambda: score_stage(eval_store, eval_trials, "eval"))

    def fuse_eval_stage():
        rows = []
        for name, systems in REPORT_SYSTEMS:
            model = fusion.fit_fusion([dev_scores[s] for s in systems], config.dcf)
            fused = fusion.apply_fusion(model, [eval_scores[s] for s in systems])
            store.save_scores(fused,
                              os.path.join(config.out_dir, f"eval_fused_{name}.scores"))
            report = metrics.compute_metrics(fused, config.dcf)
            rows.append((name, report))
        return rows

    rows = stage("fuse-eval", fuse_eval_stage)

    report_path = os.path.join(config.out_dir, "report.tsv")

    def write_report():
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write("system\teer\tmin_dcf\tact_dcf\n")
            for name, rep in rows:
                fh.write(f"{name}\t{rep.eer:.6f}\t{rep.min_dcf:.6f}\t{rep.act_dcf:.6f}\n")

    stage("write-report", write_report)
    return report_path


def render_markdown(report_path: str) -> str:
    """Human view of the TSV report."""
    with open(report_path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    header, body = lines[0], lines[1:]
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join(["---"] * len(header)) + "|"]
    out += ["| " + " | ".join(row) + " |" for row in body]
    return "\n".join(out)
