"""Mini-batch trainer for the voice-face network.

Batches are balanced (equal target/nontarget halves), the optimizer is Adam
or plain SGD, and model selection uses held-out validation EER with early
stopping. Everything is a deterministic function of (data, config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .metrics import _eer_arrays
from .store import EmbeddingStore, TrialSet
from .vfnet import (VFNetParams, batch_loss_grad, init_params, transform_face,
                    transform_voice)


# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    batch_size: int = 256
    max_epochs: int = 40
    patience: int = 6
    rng_seed: int = 0
    optimizer: str = "adam"  # "adam" or "sgd"
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
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainReport:
    train_loss: list  # per epoch
    validation_eer: list  # per epoch
    best_epoch: int  # 0-based index of the minimum validation EER
    final_params: VFNetParams


def _gather_pairs(store: EmbeddingStore, trials: TrialSet):
    if not trials.labeled:
        raise ValueError("training trials must be labeled")
    voices = []
    faces = []
    same = []
    for t in trials:
        voices.append(store.get(t.enroll_id).vector)
        faces.append(store.get(t.test_id).vector)
        same.append(t.label == "target")
    return np.array(voices), np.array(faces), np.array(same, dtype=bool)


class _Optimizer:
    def __init__(self, config: TrainConfig, params: VFNetParams):
        self.config = config
        self.t = 0
        if config.optimizer == "adam":
            self.m = params.zeros_like()
            self.v = params.zeros_like()

    def step(self, params: VFNetParams, grads: VFNetParams):
        c = self.config
        self.t += 1
        for f in dc_fields(VFNetParams):
            p = getattr(params, f.name)
            g = getattr(grads, f.name)
            if c.optimizer == "sgd":
                p -= c.learning_rate * g
            else:
                m = getattr(self.m, f.name)
                v = getattr(self.v, f.name)
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                m_hat = m / (1.0 - ADAM_BETA1 ** self.t)
                v_hat = v / (1.0 - ADAM_BETA2 ** self.t)
                p -= c.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _validation_scores(params: VFNetParams, voices, faces):
    """Cosine scores for all validation pairs in one vectorized pass."""
    u = transform_voice(params, voices)
    f = transform_face(params, faces)
    nu = np.linalg.norm(u, axis=1)
    nf = np.linalg.norm(f, axis=1)
    nu[nu == 0.0] = 1.0
    nf[nf == 0.0] = 1.0
    return np.einsum("ij,ij->i", u, f) / (nu * nf)


def _tiled_permutation(rng, n, total):
    """Deterministic index stream of the given length cycling fresh shuffles."""
    out = []
    while len(out) < total:
        out.extend(rng.permutation(n))
    return np.array(out[:total])


def train(store: EmbeddingStore, train_trials: TrialSet, valid_trials: TrialSet,
          config: TrainConfig) -> TrainReport:
    """Train on labeled cross-modal trials; keep the best-validation epoch.

    Each batch holds batch_size // 2 targets and as many nontargets; the
    batch gradient is the mean pair gradient. Raises TrainingError with the
    batch index and example trial ids if the loss goes non-finite.
    """
    tv, tf, t_same = _gather_pairs(store, train_trials)
    vv, vf, v_same = _gather_pairs(store, valid_trials)
    train_list = list(train_trials)

    params = init_params(input_dim=store.dim, hidden_dim=config.hidden_dim,
                         output_dim=config.output_dim, seed=config.rng_seed)
    rng = np.random.default_rng([config.rng_seed, 7])
    optimizer = _Optimizer(config, params)

    tar_idx = np.flatnonzero(t_same)
    non_idx = np.flatnonzero(~t_same)
    if tar_idx.size == 0 or non_idx.size == 0:
        raise ValueError("training trials need both targets and nontargets")
    half = config.batch_size // 2
    n_batches = max(math.ceil(tar_idx.size / half), math.ceil(non_idx.size / half))

    train_losses = []
    valid_eers = []
    best_eer = math.inf
    best_epoch = 0
    best_params = params.copy()
    since_best = 0
    for epoch in range(config.max_epochs):
        t_stream = tar_idx[_tiled_permutation(rng, tar_idx.size, n_batches * half)]
        n_stream = non_idx[_tiled_permutation(rng, non_idx.size, n_batches * half)]
        epoch_loss = 0.0
        for b in range(n_batches):
            idx = np.concatenate([t_stream[b * half:(b + 1) * half],
                                  n_stream[b * half:(b + 1) * half]])
            loss, grads = batch_loss_grad(params, tv[idx], tf[idx], t_same[idx])
            if not math.isfinite(loss):
                examples = ", ".join(
                    f"({train_list[i].enroll_id}, {train_list[i].test_id})"
                    for i in idx[:3]
                )
                raise TrainingError(
                    f"non-finite loss in epoch {epoch}, batch {b}; example pairs: {examples}"
                )
            optimizer.step(params, grads)
            epoch_loss += loss
        train_losses.append(epoch_loss / n_batches)

        scores = _validation_scores(params, vv, vf)
        valid_eer = _eer_arrays(scores[v_same], scores[~v_same])
        valid_eers.append(valid_eer)
        if valid_eer < best_eer:
            best_eer = valid_eer
            best_epoch = epoch
            best_params = params.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best > config.patience:
                break

    return TrainReport(train_loss=train_losses, validation_eer=valid_eers,
                       best_epoch=best_epoch, final_params=best_params)


def save_report(report: TrainReport, path) -> None:
    """Per-epoch TSV: epoch, train_loss, validation_eer, best flag."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\ttrain_loss\tvalidation_eer\tbest\n")
        for i, (loss, eer_val) in enumerate(zip(report.train_loss, report.validation_eer)):
            flag = "1" if i == report.best_epoch else "0"
            fh.write(f"{i}\t{repr(loss)}\t{repr(eer_val)}\t{flag}\n")
