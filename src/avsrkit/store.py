"""Data model and text IO for embeddings, trial lists and score sets.

File formats (UTF-8, tab-separated, lines starting with '#' ignored):

* embeddings: ``record_id<TAB>identity_id<TAB>modality<TAB>c1,c2,...,cD``
  with ``modality`` one of ``voice``/``face``
* trials:     ``enroll_id<TAB>test_id[<TAB>label]``
* scores:     ``enroll_id<TAB>test_id<TAB>score[<TAB>label]``

Scores are written with ``repr()`` so binary64 values round-trip bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODALITIES = ("voice", "face")
LABELS = ("target", "nontarget")


class FormatError(ValueError):
    """A file violated one of the text formats above."""


@dataclass(frozen=True)
class EmbeddingRecord:
    record_id: str
    identity_id: str
    modality: str  # "voice" or "face"
    vector: np.ndarray

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        vec = np.asarray(self.vector, dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"record {self.record_id!r} has non-finite coordinates")
        object.__setattr__(self, "vector", vec)


class EmbeddingStore:
    """Immutable collection of embedding records with a uniform dimension."""

    def __init__(self, records):
        self._records = {}
        self._dim = None
        for rec in records:
            if rec.record_id in self._records:
                raise ValueError(f"duplicate record_id {rec.record_id!r}")
            if self._dim is None:
                self._dim = rec.vector.shape[0]
            elif rec.vector.shape[0] != self._dim:
                raise ValueError(
                    f"record {rec.record_id!r} has dimension "
                    f"{rec.vector.shape[0]}, store dimension is {self._dim}"
                )
            self._records[rec.record_id] = rec

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records.values())

    def __contains__(self, record_id):
        return record_id in self._records

    @property
    def dim(self) -> int:
        if self._dim is None:
            raise ValueError("dimension of an empty store is undefined")
        return self._dim

    def get(self, record_id: str) -> EmbeddingRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise KeyError(f"no record {record_id!r} in store") from None

    def records(self, modality=None):
        """Records, optionally of one modality, in insertion order."""
        return [rec for rec in self._records.values()
                if modality is None or rec.modality == modality]

    def grouped(self, modality):
        """identity -> (n, D) matrix of its records of one modality, rows in
        insertion order; identities in first-seen order."""
        rows = {}
        for rec in self.records(modality):
            rows.setdefault(rec.identity_id, []).append(rec.vector)
        return {identity: np.array(vecs) for identity, vecs in rows.items()}

    def identities(self):
        """Distinct identity ids, in first-seen order."""
        return list(dict.fromkeys(rec.identity_id for rec in self._records.values()))

    def restrict(self, modality: str) -> "EmbeddingStore":
        return EmbeddingStore(self.records(modality=modality))


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    label: str | None = None  # "target", "nontarget" or None


class TrialSet:
    """Ordered list of trials, fully labeled or fully unlabeled."""

    def __init__(self, trials):
        trials = list(trials)
        seen = set()
        for t in trials:
            key = (t.enroll_id, t.test_id)
            if key in seen:
                raise ValueError(f"duplicate trial {key}")
            seen.add(key)
            if t.label is not None and t.label not in LABELS:
                raise ValueError(f"unknown label {t.label!r}")
        n_labeled = sum(t.label is not None for t in trials)
        if n_labeled not in (0, len(trials)):
            raise ValueError("trial set is partially labeled")
        self.trials = trials

    def __len__(self):
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def __eq__(self, other):
        return isinstance(other, TrialSet) and self.trials == other.trials

    @property
    def labeled(self) -> bool:
        return bool(self.trials) and self.trials[0].label is not None


@dataclass(frozen=True)
class ScoreEntry:
    enroll_id: str
    test_id: str
    score: float
    label: str | None = None


class ScoreSet:
    """Aligned trial scores, optionally labeled."""

    def __init__(self, entries):
        entries = list(entries)
        for e in entries:
            if not math.isfinite(e.score):
                raise ValueError(f"non-finite score for trial ({e.enroll_id}, {e.test_id})")
            if e.label is not None and e.label not in LABELS:
                raise ValueError(f"unknown label {e.label!r}")
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, ScoreSet) and self.entries == other.entries

    @property
    def labeled(self) -> bool:
        return bool(self.entries) and all(e.label is not None for e in self.entries)

    def scores_and_labels(self):
        """(scores, is_target) arrays for metric computation.

        Requires at least one target and one nontarget.
        """
        if not self.labeled:
            raise ValueError("score set is not fully labeled")
        scores = np.array([e.score for e in self.entries], dtype=np.float64)
        is_target = np.array([e.label == "target" for e in self.entries], dtype=bool)
        if not is_target.any() or is_target.all():
            raise ValueError("need at least one target and one nontarget score")
        return scores, is_target


def _parse_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split("\t")


def load_embeddings(path) -> EmbeddingStore:
    """Parse an embedding file; dimension is inferred from the first record."""
    records = []
    dim = None
    seen = set()
    for lineno, fields in _parse_lines(path):
        if len(fields) != 4:
            raise FormatError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}")
        record_id, identity_id, modality, coords = fields
        if modality not in MODALITIES:
            raise FormatError(f"{path}:{lineno}: unknown modality {modality!r}")
        if record_id in seen:
            raise FormatError(f"{path}:{lineno}: duplicate record_id {record_id!r}")
        seen.add(record_id)
        try:
            vec = np.array([float(c) for c in coords.split(",")], dtype=np.float64)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed coordinate list") from None
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"{path}:{lineno}: non-finite coordinate")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise FormatError(
                f"{path}:{lineno}: dimension {vec.shape[0]} does not match store dimension {dim}"
            )
        records.append(EmbeddingRecord(record_id, identity_id, modality, vec))
    return EmbeddingStore(records)


def save_embeddings(store: EmbeddingStore, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in store:
            coords = ",".join(repr(float(c)) for c in rec.vector)
            fh.write(f"{rec.record_id}\t{rec.identity_id}\t{rec.modality}\t{coords}\n")


def load_trials(path) -> TrialSet:
    trials = []
    for lineno, fields in _parse_lines(path):
        if len(fields) == 2:
            trials.append(Trial(fields[0], fields[1]))
        elif len(fields) == 3:
            if fields[2] not in LABELS:
                raise FormatError(f"{path}:{lineno}: unknown label {fields[2]!r}")
            trials.append(Trial(fields[0], fields[1], fields[2]))
        else:
            raise FormatError(f"{path}:{lineno}: expected 2 or 3 fields, got {len(fields)}")
    return TrialSet(trials)


def save_trials(trials: TrialSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in trials:
            if t.label is None:
                fh.write(f"{t.enroll_id}\t{t.test_id}\n")
            else:
                fh.write(f"{t.enroll_id}\t{t.test_id}\t{t.label}\n")


def load_scores(path) -> ScoreSet:
    entries = []
    for lineno, fields in _parse_lines(path):
        if len(fields) not in (3, 4):
            raise FormatError(f"{path}:{lineno}: expected 3 or 4 fields, got {len(fields)}")
        try:
            score = float(fields[2])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: malformed score {fields[2]!r}") from None
        label = None
        if len(fields) == 4:
            if fields[3] not in LABELS:
                raise FormatError(f"{path}:{lineno}: unknown label {fields[3]!r}")
            label = fields[3]
        entries.append(ScoreEntry(fields[0], fields[1], score, label))
    return ScoreSet(entries)


def save_scores(scores: ScoreSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in scores:
            line = f"{e.enroll_id}\t{e.test_id}\t{repr(e.score)}"
            if e.label is not None:
                line += f"\t{e.label}"
            fh.write(line + "\n")


def build_crossmodal_trials(
    store: EmbeddingStore,
    negatives_per_positive: int,
    rng_seed: int,
    max_targets_per_identity: int = 50,
) -> TrialSet:
    """Labeled voice-face trials: same-identity targets plus shuffled negatives.

    Targets enumerate all (voice, face) record pairs sharing an identity,
    capped per identity; negatives are sampled uniformly over cross-identity
    pairs without replacement. Deterministic given the seed.
    """
    if negatives_per_positive < 1:
        raise ValueError("negatives_per_positive must be >= 1")
    rng = np.random.default_rng(rng_seed)
    voices = store.records(modality="voice")
    faces = store.records(modality="face")
    if not voices or not faces:
        raise ValueError("store must contain both voice and face records")

    by_identity = {}
    for v in voices:
        by_identity.setdefault(v.identity_id, ([], []))[0].append(v.record_id)
    for f in faces:
        by_identity.setdefault(f.identity_id, ([], []))[1].append(f.record_id)

    targets = []
    for identity in sorted(by_identity):
        vids, fids = by_identity[identity]
        pairs = [(v, f) for v in vids for f in fids]
        if len(pairs) > max_targets_per_identity:
            idx = rng.choice(len(pairs), size=max_targets_per_identity, replace=False)
            pairs = [pairs[i] for i in sorted(idx)]
        targets.extend(pairs)

    identity_of = {rec.record_id: rec.identity_id for rec in store}
    if len({identity_of[v] for v, _ in targets} | {f.identity_id for f in faces}) < 2:
        raise ValueError("need at least 2 identities to form negative trials")

    n_negatives = negatives_per_positive * len(targets)
    n_cross = sum(
        len(vids) * (len(faces) - len(fids)) for vids, fids in by_identity.values()
    )
    if n_negatives > n_cross:
        raise ValueError(
            f"requested {n_negatives} negatives but only {n_cross} cross-identity pairs exist"
        )
    voice_ids = [v.record_id for v in voices]
    face_ids = [f.record_id for f in faces]
    chosen = set()
    negatives = []
    while len(negatives) < n_negatives:
        v = voice_ids[rng.integers(len(voice_ids))]
        f = face_ids[rng.integers(len(face_ids))]
        if identity_of[v] == identity_of[f] or (v, f) in chosen:
            continue
        chosen.add((v, f))
        negatives.append((v, f))

    trials = [Trial(v, f, "target") for v, f in targets]
    trials += [Trial(v, f, "nontarget") for v, f in negatives]
    return TrialSet(trials)
