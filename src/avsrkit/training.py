"""Mini-batch trainer for the voice-face network.

Each epoch shuffles the training list's voice identities and cuts the pairs,
grouped by identity in that order, into near-equal batches, so an epoch
covers every pair once and an identity's pairs share a batch or two. A batch
runs each branch once per distinct record it holds. The optimizer is Adam,
and model selection uses held-out validation EER with early stopping.
Training runs in float32: the rows, the weights, each batch's gradients and
Adam's two moments are float32, and the weights, gradients and each moment
are one flat buffer apiece, so an Adam step is one pass per operation over
all layers. Validation and the returned parameters are float64, widened
exactly from the float32 weights. Everything is a deterministic function of
(data, config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import _eer_arrays
from .store import EmbeddingStore, TrialSet
from .vfnet import (VFNetParams, batch_loss_grad, cosine_similarity, init_params,
                    transform_face, transform_voice)


# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
VALID_BLOCK = 1024  # validation pairs scored at a time


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-3
    batch_size: int = 1024
    max_epochs: int = 40
    patience: int = 3
    rng_seed: int = 0
    hidden_dim: int = 256
    output_dim: int = 128

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.output_dim < 1:
            raise ValueError("output_dim must be >= 1")


@dataclass
class TrainReport:
    train_loss: list  # per epoch
    validation_eer: list  # per epoch
    best_epoch: int  # 0-based index of the minimum validation EER
    final_params: VFNetParams  # float64, the weights after best_epoch
    stopped_by: str  # "patience" (validation EER stopped improving) or "max_epochs"


def _gather_pairs(store: EmbeddingStore, trials: TrialSet, dtype=np.float64,
                  which: str = "training"):
    """(rows, voice_at, face_at, same, used) of labeled trials: each record
    the trials use, once, in ``dtype``; each trial's voice and face row among
    them; the target mask; each row's store index. Raises ValueError naming
    ``which`` trials when they are unlabeled or lack targets or nontargets,
    ValueError naming the first trial with a record not in the store,
    ValueError naming ``which`` trials, the first trial whose enroll record is
    not a voice or whose test record is not a face, and the side, and
    TrainingError naming the first record, in trial order and voices first,
    that ``dtype`` cannot hold."""
    if not trials.labeled:
        raise ValueError(f"{which} trials must be labeled")
    ids = np.concatenate([trials.enroll_ids, trials.test_ids])
    try:
        used, at = np.unique(store.indices(ids), return_inverse=True)
    except KeyError:
        known = set(store.record_ids)
        e, t = next(pair for pair in zip(trials.enroll_ids, trials.test_ids)
                    if not known.issuperset(pair))
        raise ValueError(f"trial ({e}, {t}): no record {t if e in known else e!r} in store")
    is_voice = np.array(list(map(store.modalities.__getitem__, used.tolist()))) == "voice"
    wrong = is_voice[at].reshape(2, -1) != [[True], [False]]  # (enroll, test) side x trial
    if wrong.any():
        i = int(np.argmax(wrong.any(axis=0)))
        problem = "enroll record is not a voice" if wrong[0, i] else "test record is not a face"
        raise ValueError(f"{which} trial ({trials.enroll_ids[i]}, {trials.test_ids[i]}): "
                         f"{problem}")
    limit = np.finfo(dtype).max
    over = (store.vectors.max(axis=1)[used] > limit) | (store.vectors.min(axis=1)[used] < -limit)
    if over.any():
        raise TrainingError(f"record {ids[np.argmax(over[at])]} has values beyond the "
                            f"{np.dtype(dtype).name} range (|x| > {limit:.4g})")
    same = np.array([label == "target" for label in trials.labels], dtype=bool)
    if same.all() or not same.any():
        raise ValueError(f"{which} trials need both targets and nontargets")
    return (store.vectors[used].astype(dtype, copy=False), at[:len(trials)], at[len(trials):],
            same, used)


class _Adam:
    """Adam on the flat buffer of a ``VFNetParams.flat_like`` parameter set:
    its moments are two zero buffers of the same dtype, and each step updates
    them and the parameters in place, one pass per operation, through two
    scratch buffers. The step is the one-division form of Kingma & Ba (2015,
    Section 2), p -= (lr / c1) m / (sqrt(v) (1 / sqrt(c2)) + eps); its
    operations keep the order of the allocating form, so they have its bits."""

    def __init__(self, learning_rate: float, params: VFNetParams):
        self.learning_rate = learning_rate
        self.t = 0
        self.m, self.v, self._a, self._b = (np.zeros_like(params.flat) for _ in range(4))

    def step(self, params: VFNetParams, grads: VFNetParams):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        p, g, m, v, a, b = params.flat, grads.flat, self.m, self.v, self._a, self._b
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m *= ADAM_BETA1
        m += a
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        a *= g
        v *= ADAM_BETA2
        v += a
        # p -= (lr / c1) m / (sqrt(v) (1 / sqrt(c2)) + eps)
        np.sqrt(v, out=b)
        b *= 1.0 / math.sqrt(c2)
        b += ADAM_EPS
        np.multiply(m, self.learning_rate / c1, out=a)
        a /= b
        p -= a


def _pair_scores(params: VFNetParams, rows, voice_at, face_at):
    """Cosine scores of the pairs (rows[voice_at], rows[face_at]); each branch
    runs once on the distinct rows it reads, and the pairs are scored in
    blocks of VALID_BLOCK, so no branch output is gathered per pair in full."""
    voices, v_at = np.unique(voice_at, return_inverse=True)
    faces, f_at = np.unique(face_at, return_inverse=True)
    voice_out, face_out = transform_voice(params, rows[voices]), transform_face(params, rows[faces])
    scores = np.empty(v_at.size)
    for i in range(0, v_at.size, VALID_BLOCK):
        block = slice(i, i + VALID_BLOCK)
        scores[block] = cosine_similarity(voice_out[v_at[block]], face_out[f_at[block]])
    return scores


def train(store: EmbeddingStore, train_trials: TrialSet, valid_trials: TrialSet,
          config: TrainConfig) -> TrainReport:
    """Train on labeled cross-modal trials; keep the best-validation epoch.

    Each epoch draws one permutation of the training pairs' voice identities
    (each enroll record's identity), orders the pairs by it, keeping list
    order within an identity, and cuts them into ceil(len / batch_size)
    batches of near-equal size. A batch keeps the list's labels, so it holds
    about as many nontargets per target as the list (negatives_per_positive).
    The batch gradient is the mean pair gradient, computed in float32 and
    applied to the float32 weights. Raises ValueError when either trial list is
    unlabeled or lacks targets or nontargets, TrainingError naming a training
    record that float32 cannot hold, and TrainingError with the epoch, the
    batch and example trial ids if a batch's loss or gradient goes non-finite.
    """
    rows, voice_at, face_at, t_same, used = _gather_pairs(store, train_trials, np.float32)
    valid_rows, valid_voice_at, valid_face_at, v_same, _ = _gather_pairs(
        store, valid_trials, which="validation")

    best_params = init_params(input_dim=store.dim, hidden_dim=config.hidden_dim,
                              output_dim=config.output_dim, seed=config.rng_seed)
    params = best_params.flat_like(np.float32, copy=True)  # exact: float32 values
    rng = np.random.default_rng([config.rng_seed, 7])
    optimizer = _Adam(config.learning_rate, params)

    _, identity = np.unique(np.array(store.identity_ids)[used[voice_at]],
                            return_inverse=True)  # each pair's voice identity, as a code
    n_batches = math.ceil(t_same.size / config.batch_size)
    bounds = np.linspace(0, t_same.size, n_batches + 1).astype(int)

    train_losses = []
    valid_eers = []
    best_eer = math.inf
    best_epoch = 0
    stopped_by = "max_epochs"
    since_best = 0
    for epoch in range(config.max_epochs):
        order = np.argsort(rng.permutation(identity.max() + 1)[identity], kind="stable")
        epoch_loss = 0.0
        for b in range(n_batches):
            idx = order[bounds[b]:bounds[b + 1]]
            voices, v_at = np.unique(voice_at[idx], return_inverse=True)
            faces, f_at = np.unique(face_at[idx], return_inverse=True)
            loss, grads = batch_loss_grad(params, rows[voices], rows[faces], v_at, f_at,
                                          t_same[idx])
            if not (math.isfinite(loss) and np.isfinite(grads.flat).all()):
                what = ("loss" if not math.isfinite(loss)
                        else f"gradient of {grads.non_finite()[0]}")
                examples = ", ".join(f"({train_trials.enroll_ids[i]}, {train_trials.test_ids[i]})"
                                     for i in idx[:3])
                raise TrainingError(
                    f"non-finite {what} in epoch {epoch}, batch {b}; example pairs: {examples}"
                )
            optimizer.step(params, grads)
            epoch_loss += loss
        train_losses.append(epoch_loss / n_batches)

        widened = params.flat_like(np.float64, copy=True)
        scores = _pair_scores(widened, valid_rows, valid_voice_at, valid_face_at)
        valid_eer = _eer_arrays(scores[v_same], scores[~v_same])
        valid_eers.append(valid_eer)
        if valid_eer < best_eer:
            best_eer = valid_eer
            best_epoch = epoch
            best_params = widened
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                stopped_by = "patience"
                break

    return TrainReport(train_loss=train_losses, validation_eer=valid_eers,
                       best_epoch=best_epoch, final_params=best_params,
                       stopped_by=stopped_by)


def save_report(report: TrainReport, path) -> None:
    """Per-epoch TSV: epoch, train_loss, validation_eer, best flag."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\ttrain_loss\tvalidation_eer\tbest\n")
        for i, (loss, eer_val) in enumerate(zip(report.train_loss, report.validation_eer)):
            flag = "1" if i == report.best_epoch else "0"
            fh.write(f"{i}\t{repr(loss)}\t{repr(eer_val)}\t{flag}\n")
