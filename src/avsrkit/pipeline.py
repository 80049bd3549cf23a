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
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import backend, fusion, metrics, store, training, vfnet
from .store import EmbeddingStore, ScoreSet, TrialSet

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

    def __post_init__(self):
        if self.lda_dim < 1:
            raise ValueError("lda_dim must be >= 1")
        if not 0.0 < self.pool_fraction <= 1.0:
            raise ValueError("pool_fraction must be in (0, 1]")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")


def build_identity_trials(embedding_store: EmbeddingStore, negatives_per_positive: int,
                          rng_seed: int) -> TrialSet:
    """Identity-level trials: one target per identity plus sampled nontargets."""
    ids = sorted(set(embedding_store.identity_ids))
    code = np.arange(len(ids))
    return store.sample_trials(list(zip(ids, ids)), ids, ids, code, code, np.zeros_like(code),
                               negatives_per_positive, np.random.default_rng(rng_seed))


def split_enroll_test(embedding_store: EmbeddingStore):
    """Per identity and modality, first half of records (by id) enrolls,
    the rest tests. Every identity needs >= 2 records per modality."""
    groups = {modality: embedding_store.identity_rows(modality) for modality in ("voice", "face")}
    enroll, test = [], []
    for identity in dict.fromkeys(embedding_store.identity_ids):
        for modality, by_identity in groups.items():
            rows = sorted(by_identity.get(identity, []), key=embedding_store.record_ids.__getitem__)
            if len(rows) < 2:
                raise ValueError(
                    f"identity {identity!r} has {len(rows)} {modality} records; "
                    "need >= 2 to split into enrollment and test"
                )
            cut = math.ceil(len(rows) / 2)
            enroll.extend(rows[:cut])
            test.extend(rows[cut:])
    return embedding_store.subset(enroll), embedding_store.subset(test)


# the modality each system reads on the (enrollment, test) side of a trial
_READS = {"audio": ("voice", "voice"), "visual": ("face", "face"),
          "vfnet": ("voice", "face")}


def _trial_error(ids, row, k, what):
    """ValueError naming trial `row` and its side-k identity."""
    return ValueError(f"trial ({ids[0][row]}, {ids[1][row]}): {('enroll', 'test')[k]} "
                      f"identity {ids[k][row]!r} {what}")


def _check_norms(ids, ats, templates, groups, names):
    """Name the first trial, in trial order, whose template or a row of whose
    test group has zero norm; names[k] says what side k's vectors are."""
    zero = (np.linalg.norm(templates, axis=1) == 0.0,
            np.array([not np.linalg.norm(x, axis=1).all() for x in groups]))
    reads = zero[0][ats[0]] | zero[1][ats[1]]
    if reads.any():
        row = int(np.argmax(reads))
        k = 0 if zero[0][ats[0][row]] else 1
        raise _trial_error(ids, row, k, f"has {names[k]} with zero norm")


def score_trials(trials: TrialSet, enroll: EmbeddingStore, test: EmbeddingStore,
                 lda: backend.LdaTransform, plda: backend.PldaModel,
                 params: vfnet.VFNetParams, rule: backend.PoolingRule,
                 systems=("audio", "visual", "vfnet")):
    """Score every trial under each requested system; returns {system: ScoreSet}.

    Each system scores the trials alone, from each identity's group of
    records (audio by `backend.plda_group_llr`, visual and vfnet by
    `backend.pool_cosines`, each vfnet branch run once per identity). A trial
    whose identity lacks a modality a requested system reads, or reads a
    zero-norm face or network output, raises ValueError naming it.
    """
    if not len(trials):
        return {system: ScoreSet.from_columns([], [], [], []) for system in systems}
    ids = (trials.enroll_ids, trials.test_ids)
    # each side's identities, sorted, and each trial's index among them
    sides = [np.unique(side, return_inverse=True) for side in ids]
    (e_ids, e_at), (t_ids, t_at) = sides
    groups = e_side, t_side = ({}, {})  # modality -> each identity's rows, in sorted order
    for k, (side_store, (side_ids, side_at)) in enumerate(zip((enroll, test), sides)):
        for modality in sorted({_READS[s][k] for s in systems}):
            grouped = side_store.grouped(modality)
            lacks = np.array([identity not in grouped for identity in side_ids])
            if lacks.any():  # name the first trial, in trial order, that reads a lacking identity
                raise _trial_error(ids, int(np.argmax(lacks[side_at])), k,
                                   f"has no {modality} records")
            groups[k][modality] = [grouped[i] for i in side_ids]
    scores = {}
    if "audio" in systems:
        if lda.output_dim != plda.dim:
            raise ValueError(f"LDA output dimension {lda.output_dim} does not match "
                             f"PLDA dimension {plda.dim}")
        e_proj, t_proj = (backend.project_store(lda, side.restrict("voice")).grouped("voice")
                          for side in (enroll, test))
        scores["audio"] = backend.plda_group_llr(plda, [e_proj[i] for i in e_ids],
                                                  [t_proj[i] for i in t_ids], e_at, t_at)
    if "visual" in systems:
        templates = np.array([x.mean(axis=0) for x in e_side["face"]])
        _check_norms(ids, (e_at, t_at), templates, t_side["face"],
                     ("a face template", "a face"))
        scores["visual"] = backend.pool_cosines(templates, t_side["face"], e_at, t_at, rule)
    if "vfnet" in systems:
        templates = np.array([vfnet.transform_voice(params, x.mean(axis=0))
                              for x in e_side["voice"]])
        faces = [vfnet.transform_face(params, x) for x in t_side["face"]]
        _check_norms(ids, (e_at, t_at), templates, faces,
                     ("a transformed voice template", "a transformed face"))
        scores["vfnet"] = backend.pool_cosines(templates, faces, e_at, t_at, rule,
                                               link=vfnet.pair_probability)
    for column in scores.values():
        column.flags.writeable = False  # so each score set holds it as it is
    return {system: ScoreSet.from_columns(*ids, scores[system], trials.labels)
            for system in systems}


def split_identities(embedding_store: EmbeddingStore, valid_fraction: float, seed: int):
    """Identity-disjoint (train, valid) stores; validation must not share
    identities with training or early stopping cannot see identity overfit.
    Each side needs at least 2 identities for its nontarget trials."""
    ids = sorted(set(embedding_store.identity_ids))
    n_valid = max(2, int(valid_fraction * len(ids)))
    if len(ids) - n_valid < 2:
        raise ValueError(f"found {len(ids)} identities, need at least {n_valid + 2} to keep "
                         f"{n_valid} for validation and 2 for training")
    rng = np.random.default_rng([seed, 11])
    perm = rng.permutation(len(ids))
    valid_ids = {ids[i] for i in perm[:n_valid]}
    in_valid = [identity in valid_ids for identity in embedding_store.identity_ids]
    return (embedding_store.subset(i for i, valid in enumerate(in_valid) if not valid),
            embedding_store.subset(i for i, valid in enumerate(in_valid) if valid))


@contextmanager
def _stage(name):
    """Re-raise any failure of the block as a PipelineError naming the stage."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def fit_backend(train_store: EmbeddingStore, lda_dim: int, length_norm: bool, out_lda, out_plda):
    """Fit LDA and then PLDA on the training voices, save both; returns (lda, plda)."""
    voices = train_store.restrict("voice")
    lda = backend.fit_lda(voices, lda_dim, length_norm)
    plda = backend.fit_plda(backend.project_store(lda, voices))
    backend.save_lda(lda, out_lda)
    backend.save_plda(plda, out_plda)
    return lda, plda


def run_pipeline(config: PipelineConfig) -> str:
    """Execute the full experiment; returns the report path.

    Report: TSV with one row per system configuration, columns
    system, eer, min_dcf, act_dcf.
    """
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ValueError(f"out_dir {config.out_dir!r} cannot be made a directory: "
                         f"{exc.strerror}") from None

    def out(name):
        return os.path.join(config.out_dir, name)

    with _stage("load-data"):
        train_store, dev_store, eval_store = (store.load_embeddings(path) for path in (
            config.train_embeddings, config.dev_embeddings, config.eval_embeddings))
        dev_trials, eval_trials = map(store.load_trials, (config.dev_trials, config.eval_trials))
        for path, split_store in ((config.dev_embeddings, dev_store),
                                  (config.eval_embeddings, eval_store)):
            if len(split_store) and len(train_store) and split_store.dim != train_store.dim:
                raise ValueError(f"{path}: holds {split_store.dim}-d embeddings, "
                                 f"{config.train_embeddings} holds {train_store.dim}-d")
        # dev trials fit the fusion and eval trials are reported: both need both classes
        for path, trials in ((config.dev_trials, dev_trials), (config.eval_trials, eval_trials)):
            if not set(store.LABELS) <= set(trials.labels):
                raise ValueError(f"{path}: need labeled trials, at least one target "
                                 "and one nontarget")

    with _stage("fit-backend"):
        lda, plda = fit_backend(train_store, config.lda_dim, config.length_norm,
                                out("lda.ckpt"), out("plda.ckpt"))

    with _stage("train-vfnet"):
        seed = config.train.rng_seed
        fit_store, valid_store = split_identities(train_store, 0.1, seed)
        npp = config.negatives_per_positive
        train_part = store.build_crossmodal_trials(fit_store, npp, seed)
        valid_part = store.build_crossmodal_trials(valid_store, npp, seed + 1)
        del fit_store, valid_store  # the trial lists name records of train_store
        report = training.train(train_store, train_part, valid_part, config.train)
        params = report.final_params
        vfnet.save_params(params, out("vfnet.ckpt"))
        training.save_report(report, out("vfnet_training.tsv"))

    rule = backend.PoolingRule(config.pool_fraction)
    scores = {}
    for split, split_store, trials in (("dev", dev_store, dev_trials),
                                       ("eval", eval_store, eval_trials)):
        with _stage(f"score-{split}"):
            enroll, test = split_enroll_test(split_store)
            scores[split] = score_trials(trials, enroll, test, lda, plda, params, rule)
            for system, score_set in scores[split].items():
                store.save_scores(score_set, out(f"{split}_{system}.scores"))

    with _stage("fuse-eval"):
        rows = []
        for name, systems in REPORT_SYSTEMS:
            model = fusion.fit_fusion([scores["dev"][s] for s in systems], config.dcf)
            fused = fusion.apply_fusion(model, [scores["eval"][s] for s in systems])
            store.save_scores(fused, out(f"eval_fused_{name}.scores"))
            rows.append((name, metrics.compute_metrics(fused, config.dcf)))

    report_path = out("report.tsv")
    with _stage("write-report"), open(report_path, "w", encoding="utf-8") as fh:
        fh.write("system\teer\tmin_dcf\tact_dcf\n")
        for name, rep in rows:
            fh.write(f"{name}\t{rep.eer:.6f}\t{rep.min_dcf:.6f}\t{rep.act_dcf:.6f}\n")
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
