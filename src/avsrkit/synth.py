"""Linear-Gaussian synthetic embedding benchmark with an exact Bayes scorer.

Each identity is a latent vector z ~ N(0, I) in a shared identity space;
voice sessions are A_v z + sigma * noise and face sessions A_f z + sigma *
noise, with orthonormal-column mixing maps drawn from the seed. Because the
model is jointly Gaussian, the same/different-identity log-likelihood ratio
has a closed form, giving an oracle scorer to calibrate learned systems
against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .store import EmbeddingRecord, EmbeddingStore


@dataclass(frozen=True)
class GenConfig:
    d_id: int = 8
    d_voice: int = 64
    d_face: int = 64
    n_identities_train: int = 2000
    n_identities_test: int = 300
    voice_sessions_per_identity: int = 3
    face_sessions_per_identity: int = 3
    session_noise_sigma: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.d_id, self.d_voice, self.d_face) < 1:
            raise ValueError("dimensions must be positive")
        if self.d_id > min(self.d_voice, self.d_face):
            raise ValueError("identity dimension cannot exceed output dimensions")
        if self.session_noise_sigma <= 0.0:
            raise ValueError("session_noise_sigma must be positive")
        if min(self.n_identities_train, self.n_identities_test) < 2:
            raise ValueError("need at least 2 identities per split")
        if min(self.voice_sessions_per_identity, self.face_sessions_per_identity) < 1:
            raise ValueError("need at least one session per modality")


def mixing_maps(config: GenConfig):
    """Orthonormal-column maps (A_voice, A_face), deterministic in the seed."""
    rng = np.random.default_rng([config.rng_seed, 0])
    a_voice, _ = np.linalg.qr(rng.standard_normal((config.d_voice, config.d_id)))
    a_face, _ = np.linalg.qr(rng.standard_normal((config.d_face, config.d_id)))
    return a_voice, a_face


def _make_split(config, a_voice, a_face, prefix, n_identities, stream):
    rng = np.random.default_rng([config.rng_seed, stream])
    sigma = config.session_noise_sigma
    records = []
    width = len(str(n_identities - 1))
    for i in range(n_identities):
        identity = f"{prefix}{i:0{width}d}"
        z = rng.standard_normal(config.d_id)
        for j in range(config.voice_sessions_per_identity):
            vec = a_voice @ z + sigma * rng.standard_normal(config.d_voice)
            records.append(EmbeddingRecord(f"{identity}_v{j}", identity, "voice", vec))
        for j in range(config.face_sessions_per_identity):
            vec = a_face @ z + sigma * rng.standard_normal(config.d_face)
            records.append(EmbeddingRecord(f"{identity}_f{j}", identity, "face", vec))
    return EmbeddingStore(records)


def generate(config: GenConfig):
    """(train store, test store, config echo); train/test identities disjoint."""
    a_voice, a_face = mixing_maps(config)
    train = _make_split(config, a_voice, a_face, "trn", config.n_identities_train, 1)
    test = _make_split(config, a_voice, a_face, "tst", config.n_identities_test, 2)
    return train, test, config


def generate_av_benchmark(config: GenConfig, dev_eval_sessions: int = 4):
    """(train, dev, eval) stores with disjoint identities for the pipeline.

    Dev and eval reuse the test-split size and get dev_eval_sessions voice
    and face sessions per identity, since the pipeline halves each identity's
    records into enrollment and test sides.
    """
    a_voice, a_face = mixing_maps(config)
    train = _make_split(config, a_voice, a_face, "trn", config.n_identities_train, 1)
    de_config = replace(config, voice_sessions_per_identity=dev_eval_sessions,
                        face_sessions_per_identity=dev_eval_sessions)
    dev = _make_split(de_config, a_voice, a_face, "dev", config.n_identities_test, 3)
    eval_ = _make_split(de_config, a_voice, a_face, "evl", config.n_identities_test, 4)
    return train, dev, eval_


class OracleScorer:
    """Exact same/different-identity llr under the generative model."""

    def __init__(self, config: GenConfig):
        self.config = config
        a_voice, a_face = mixing_maps(config)
        s2 = config.session_noise_sigma ** 2
        cvv = a_voice @ a_voice.T + s2 * np.eye(config.d_voice)
        cff = a_face @ a_face.T + s2 * np.eye(config.d_face)
        cvf = a_voice @ a_face.T
        same = np.block([[cvv, cvf], [cvf.T, cff]])
        diff = np.block([[cvv, np.zeros_like(cvf)], [np.zeros_like(cvf).T, cff]])
        self._same_inv = np.linalg.inv(same)
        self._diff_inv = np.linalg.inv(diff)
        _, logdet_same = np.linalg.slogdet(same)
        _, logdet_diff = np.linalg.slogdet(diff)
        self._logdet_gap = logdet_same - logdet_diff

    def score(self, e_v, e_f) -> float:
        return float(self.score_batch(np.asarray(e_v)[None, :], np.asarray(e_f)[None, :])[0])

    def score_batch(self, voices, faces) -> np.ndarray:
        voices = np.asarray(voices, dtype=np.float64)
        faces = np.asarray(faces, dtype=np.float64)
        if voices.shape[1] != self.config.d_voice or faces.shape[1] != self.config.d_face:
            raise ValueError("embedding dimensions do not match the generator config")
        z = np.concatenate([voices, faces], axis=1)
        q_same = np.einsum("ij,jk,ik->i", z, self._same_inv, z)
        q_diff = np.einsum("ij,jk,ik->i", z, self._diff_inv, z)
        return -0.5 * (q_same - q_diff) - 0.5 * self._logdet_gap


def oracle_eer(config: GenConfig, n_trials: int = 20000, seed: int = 12345) -> float:
    """Monte-Carlo EER of the Bayes scorer; the benchmark's noise floor."""
    from .metrics import _eer_arrays

    rng = np.random.default_rng(seed)
    a_voice, a_face = mixing_maps(config)
    sigma = config.session_noise_sigma
    n = n_trials // 2
    z1 = rng.standard_normal((n, config.d_id))
    z2 = rng.standard_normal((n, config.d_id))
    voices = z1 @ a_voice.T + sigma * rng.standard_normal((n, config.d_voice))
    faces_same = z1 @ a_face.T + sigma * rng.standard_normal((n, config.d_face))
    faces_diff = z2 @ a_face.T + sigma * rng.standard_normal((n, config.d_face))
    scorer = OracleScorer(config)
    tar = scorer.score_batch(voices, faces_same)
    non = scorer.score_batch(voices, faces_diff)
    return _eer_arrays(tar, non)
