"""Data model and text IO for embeddings, trial lists and score sets.

File formats (UTF-8, tab-separated, lines starting with '#' ignored):

* embeddings: ``record_id<TAB>identity_id<TAB>modality<TAB>c1,c2,...,cD``
  with ``modality`` one of ``voice``/``face``
* trials:     ``enroll_id<TAB>test_id[<TAB>label]``
* scores:     ``enroll_id<TAB>test_id<TAB>score[<TAB>label]``

Scores are written with ``repr()`` so binary64 values round-trip bit-exactly.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

MODALITIES = ("voice", "face")
LABELS = ("target", "nontarget")
_LABEL_OBJECTS = {label: label for label in LABELS}
MAX_TARGETS_PER_IDENTITY = 50


class FormatError(ValueError):
    """A file violated one of the text formats above."""


class RowError(ValueError):
    """Row ``row`` is invalid; ``first`` is the earlier row it clashes with, if any."""

    def __init__(self, row: int, message: str, first: int | None = None):
        super().__init__(message)
        self.row, self.first = row, first


class _Columns:
    """A table held as equal-length columns: the attributes ``_columns`` names,
    in the field order of its row dataclass ``_row``. Built from rows, which
    iteration yields back in order, or by ``from_columns``; both validate alike
    in the table's ``_fill``. ``_what`` names the table in errors."""

    def __init__(self, rows):
        rows = list(rows)
        self._fill(*([getattr(row, field.name) for row in rows] for field in fields(self._row)))

    @classmethod
    def from_columns(cls, *columns):
        columns = [column if hasattr(column, "__len__") else list(column) for column in columns]
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"{cls._what} columns differ in length")
        table = cls.__new__(cls)
        table._fill(*columns)
        return table

    def __len__(self):
        return len(getattr(self, self._columns[0]))

    def __iter__(self):
        return map(self._row, *(getattr(self, name) for name in self._columns))


@dataclass(frozen=True)
class EmbeddingRecord:
    record_id: str
    identity_id: str
    modality: str  # "voice" or "face"
    vector: np.ndarray


def _check_known(column, known, what):
    """Raise a RowError at the first value of column that is not in known."""
    unknown = set(column).difference(known)
    if unknown:
        row = next(i for i, value in enumerate(column) if value in unknown)
        raise RowError(row, f"unknown {what} {column[row]!r}")


class EmbeddingStore(_Columns):
    """Immutable embeddings of one dimension, held as columns: the read-only
    (N, D) float64 ``vectors`` and the ``record_ids``, ``identity_ids`` and
    ``modalities`` tuples. Built from EmbeddingRecord rows or by
    ``from_columns(record_ids, identity_ids, modalities, vectors)``, where
    vectors is an (N, D) matrix or N vectors of D coordinates each."""

    _row, _what = EmbeddingRecord, "store"
    _columns = ("record_ids", "identity_ids", "modalities", "vectors")

    def _fill(self, record_ids, identity_ids, modalities, vectors):
        self.record_ids = tuple(record_ids)
        self.identity_ids = tuple(identity_ids)
        self.modalities = tuple(modalities)
        n = len(self.record_ids)
        dim = len(vectors[0]) if n else 0
        for i, vector in enumerate(vectors):
            if len(vector) != dim:
                raise RowError(i, f"record {self.record_ids[i]!r} has dimension {len(vector)}, "
                                  f"store dimension is {dim}")
        self.vectors = np.array(vectors, dtype=np.float64).reshape(n, dim)
        self.vectors.flags.writeable = False
        _check_known(self.modalities, MODALITIES, "modality")
        self._index = {}  # record id -> row
        for i, record_id in enumerate(self.record_ids):
            if self._index.setdefault(record_id, i) != i:
                raise RowError(i, f"duplicate record_id {record_id!r}", self._index[record_id])
        finite = np.isfinite(self.vectors).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise RowError(row, f"record {self.record_ids[row]!r} has non-finite coordinates")

    @property
    def dim(self) -> int:
        if not len(self):
            raise ValueError("dimension of an empty store is undefined")
        return self.vectors.shape[1]

    def indices(self, record_ids) -> list:
        """The row indices of the given record ids, in their order."""
        try:
            return [self._index[record_id] for record_id in record_ids]
        except KeyError as exc:
            raise KeyError(f"no record {exc.args[0]!r} in store") from None

    def subset(self, indices) -> "EmbeddingStore":
        """The store of the rows at the given indices, in their order."""
        indices = list(indices)
        return EmbeddingStore.from_columns(
            [self.record_ids[i] for i in indices], [self.identity_ids[i] for i in indices],
            [self.modalities[i] for i in indices], self.vectors[indices])

    def restrict(self, modality: str) -> "EmbeddingStore":
        return self.subset([i for i, m in enumerate(self.modalities) if m == modality])

    def grouped(self, modality):
        """identity -> (n, D) matrix of its records of one modality, rows in
        insertion order; identities in first-seen order."""
        rows = {}
        for i, (identity, m) in enumerate(zip(self.identity_ids, self.modalities)):
            if m == modality:
                rows.setdefault(identity, []).append(i)
        return {identity: self.vectors[idx] for identity, idx in rows.items()}


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    label: str | None = None  # "target", "nontarget" or None


class TrialSet(_Columns):
    """Ordered trials, fully labeled or fully unlabeled, held as columns: the
    ``enroll_ids``, ``test_ids`` and ``labels`` (None for unlabeled) tuples.
    Built from Trial rows or by ``from_columns(enroll_ids, test_ids, labels)``."""

    _row, _what, _columns = Trial, "trial set", ("enroll_ids", "test_ids", "labels")

    def _fill(self, enroll_ids, test_ids, labels):
        self.enroll_ids, self.test_ids, self.labels = map(tuple, (enroll_ids, test_ids, labels))
        _check_known(self.labels, (None,) + LABELS, "label")
        rows = {}  # (enroll id, test id) -> row
        for i, pair in enumerate(zip(self.enroll_ids, self.test_ids)):
            first = rows.setdefault(pair, i)
            if first != i:
                raise RowError(i, f"duplicate trial ({pair[0]}, {pair[1]})", first)
            if (self.labels[i] is None) != (self.labels[0] is None):
                raise RowError(i, "trial set is partially labeled")

    def __eq__(self, other):
        return isinstance(other, TrialSet) and (self.enroll_ids, self.test_ids, self.labels) == \
            (other.enroll_ids, other.test_ids, other.labels)

    @property
    def labeled(self) -> bool:
        return bool(self.labels) and self.labels[0] is not None


@dataclass(frozen=True)
class ScoreEntry:
    enroll_id: str
    test_id: str
    score: float
    label: str | None = None


class ScoreSet(_Columns):
    """Immutable trial scores, optionally labeled, held as columns: the
    ``enroll_ids``, ``test_ids`` and ``labels`` (None for unlabeled) tuples and
    the read-only float64 ``scores`` array. Built from ScoreEntry rows or by
    ``from_columns(enroll_ids, test_ids, scores, labels)``; iteration yields
    the scores as Python floats."""

    _row, _what, _columns = ScoreEntry, "score set", ("enroll_ids", "test_ids", "scores", "labels")

    def _fill(self, enroll_ids, test_ids, scores, labels):
        self.enroll_ids = tuple(enroll_ids)
        self.test_ids = tuple(test_ids)
        self.scores = np.array(scores, dtype=np.float64)
        self.scores.flags.writeable = False
        self.labels = tuple(labels)
        finite = np.isfinite(self.scores)
        if not finite.all():
            i = int(np.argmin(finite))
            raise RowError(i, f"non-finite score for trial ({self.enroll_ids[i]}, "
                              f"{self.test_ids[i]})")
        _check_known(self.labels, (None,) + LABELS, "label")

    def __iter__(self):
        return map(ScoreEntry, self.enroll_ids, self.test_ids, self.scores.tolist(), self.labels)

    @property
    def labeled(self) -> bool:
        return bool(self.labels) and None not in self.labels

    def scores_and_labels(self):
        """(scores, is_target) arrays for metric computation.

        Requires at least one target and one nontarget.
        """
        if not self.labeled:
            raise ValueError("score set is not fully labeled")
        is_target = np.array([label == "target" for label in self.labels], dtype=bool)
        if not is_target.any() or is_target.all():
            raise ValueError("need at least one target and one nontarget score")
        return self.scores, is_target


_CHUNK_CHARS = 2**20  # text taken from a file at a time by _read_columns


def _read_columns(path, widths, expected):
    """Yield a text file's data lines (not blank, not starting with '#') as
    (columns, linenos), about _CHUNK_CHARS characters of whole lines at a time,
    read with universal newlines; columns[k] holds field k of each line (None
    past its last). A line that is not UTF-8, or whose field count is not in
    widths, raises a FormatError after the lines before it are yielded."""
    lineno = 1  # of the chunk's first line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while text := fh.read(_CHUNK_CHARS) + fh.readline():
            error = None
            try:
                raw = text.encode("utf-8")
            except UnicodeEncodeError as exc:  # an undecodable byte, escaped
                text = text[:text.rfind("\n", 0, exc.start) + 1]  # the lines before it
                raw, bad = text.encode("utf-8"), lineno + text.count("\n")
                error = f"{path}:{bad}: not valid UTF-8"
            raw = np.frombuffer(raw, dtype=np.uint8)
            seps = np.flatnonzero((raw == ord("\t")) | (raw == ord("\n")))  # in UTF-8 bytes
            breaks = np.flatnonzero(raw[seps] == ord("\n"))  # the line breaks among seps
            first = np.append(0, breaks + 1)  # line i's fields: pieces[first[i]:][:width[i]]
            width = np.append(breaks, seps.size) - first + 1
            lead = np.append(raw, ord("\n"))[np.append(0, seps[breaks] + 1)]  # first bytes
            rows = np.flatnonzero((lead != ord("\n")) & (lead != ord("#")))
            wrong = np.flatnonzero(~np.isin(width[rows], widths))
            if wrong.size:
                rows, row = rows[:wrong[0]], rows[wrong[0]]
                error = f"{path}:{lineno + row}: {expected}, got {width[row]}"
            if rows.size:
                pieces = text.replace("\n", "\t").split("\t") + [None]
                index = [np.where(k < width[rows], first[rows] + k, -1) for k in range(max(widths))]
                yield [list(map(pieces.__getitem__, i.tolist())) for i in index], rows + lineno
            if error:
                raise FormatError(error)
            lineno += breaks.size


def _read_text(path, error) -> str:
    """A UTF-8 file's text, read with universal newlines; an undecodable byte
    raises error naming the file and line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # an undecodable byte, escaped
        lineno = text.count("\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not valid UTF-8") from None
    return text


def _floats(texts, message, sep=None):
    """The numbers in texts, each split at sep if given, as one float64 array.
    A RowError names the first text with one that float() rejects."""
    try:
        return np.array(sep.join(texts).split(sep) if sep else texts, dtype=np.float64)
    except ValueError:
        for row, text in enumerate(texts):
            try:
                [float(part) for part in (text.split(sep) if sep else [text])]
            except ValueError:
                raise RowError(row, message.format(text)) from None
        raise


@contextmanager
def _at_lines(path, *linenos):
    """Raise a RowError from the block as a FormatError naming file and line."""
    try:
        yield
    except RowError as exc:
        linenos = np.concatenate(linenos)
        first = "" if exc.first is None else f", first on line {linenos[exc.first]}"
        raise FormatError(f"{path}:{linenos[exc.row]}: {exc}{first}") from None


def _check_filled(**columns):
    """Raise a RowError at the first empty value of the named columns."""
    empty = [(column.index(""), name) for name, column in columns.items() if "" in column]
    if empty:
        row, name = min(empty, key=lambda found: found[0])
        raise RowError(row, f"empty {name}")


def load_embeddings(path) -> EmbeddingStore:
    """Parse an embedding file; dimension is inferred from the first record."""
    linenos, values, dims, columns = [], [], [], ([], [], [])  # ids, identity ids, modalities
    for (*ids, coords), lines in _read_columns(path, (4,), "expected 4 tab-separated fields"):
        with _at_lines(path, lines):
            values.append(_floats(coords, "malformed coordinate list", sep=","))
        dims += [text.count(",") + 1 for text in coords]
        linenos.append(lines)
        for column, chunk in zip(columns, ids):
            column += chunk
    values = np.concatenate(values or [[]])
    one_size = len(set(dims)) == 1  # else no rows, or each apart for the store to name a misfit
    vectors = values.reshape(len(dims), -1) if one_size else np.split(values, np.cumsum(dims))[:-1]
    with _at_lines(path, *linenos):
        _check_filled(record_id=columns[0], identity_id=columns[1])
        return EmbeddingStore.from_columns(*columns, vectors)


def save_embeddings(store: EmbeddingStore, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record_id, identity_id, modality, row in zip(
                store.record_ids, store.identity_ids, store.modalities, store.vectors):
            coords = ",".join(map(repr, row.tolist()))
            fh.write(f"{record_id}\t{identity_id}\t{modality}\t{coords}\n")


def load_trials(path) -> TrialSet:
    linenos, columns = [], ([], [], [])  # enroll ids, test ids, labels
    for (enroll, test, label), lines in _read_columns(path, (2, 3), "expected 2 or 3 fields"):
        linenos.append(lines)
        for column, values in zip(columns, (enroll, test, map(_LABEL_OBJECTS.get, label, label))):
            column += values  # the known labels as one object each
    with _at_lines(path, *linenos):
        _check_filled(enroll_id=columns[0], test_id=columns[1])
        return TrialSet.from_columns(*columns)


def save_trials(trials: TrialSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e, t, label in zip(trials.enroll_ids, trials.test_ids, trials.labels):
            fh.write(f"{e}\t{t}\n" if label is None else f"{e}\t{t}\t{label}\n")


def load_scores(path, require_labels=False) -> ScoreSet:
    """Parse a score file. require_labels: each line labeled and both classes present, as
    metrics and fusion fits need (a FormatError names the first unlabeled line, else the file)."""
    linenos, scores, (enroll_ids, test_ids, labels) = [], [], ([], [], [])
    for (enroll, test, text, label), lines in _read_columns(path, (3, 4), "expected 3 or 4 fields"):
        with _at_lines(path, lines):
            scores.append(_floats(text, "malformed score {!r}"))
        linenos.append(lines)
        enroll_ids += enroll
        test_ids += test
        labels += map(_LABEL_OBJECTS.get, label, label)  # the known labels as one object each
    with _at_lines(path, *linenos):
        _check_filled(enroll_id=enroll_ids, test_id=test_ids)
        loaded = ScoreSet.from_columns(enroll_ids, test_ids, np.concatenate(scores or [[]]), labels)
        if require_labels and None in labels:
            raise RowError(labels.index(None), "score set is not fully labeled")
    if require_labels and len(set(labels)) < 2:
        problem = "need at least one target and one nontarget score" if labels else "no scores"
        raise FormatError(f"{path}: {problem}")
    return loaded


def save_scores(scores: ScoreSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e, t, s, label in zip(scores.enroll_ids, scores.test_ids, scores.scores.tolist(),
                                  scores.labels):
            fh.write(f"{e}\t{t}\t{s!r}\n" if label is None else f"{e}\t{t}\t{s!r}\t{label}\n")


def build_crossmodal_trials(store: EmbeddingStore, negatives_per_positive: int,
                            rng_seed: int) -> TrialSet:
    """Labeled voice-face trials: same-identity targets plus shuffled negatives.

    Targets enumerate all (voice, face) record pairs sharing an identity, at
    most MAX_TARGETS_PER_IDENTITY per identity; negatives are sampled
    uniformly over cross-identity pairs without replacement. Deterministic
    given the seed.
    """
    rng = np.random.default_rng(rng_seed)
    ids, by_identity = {"voice": [], "face": []}, {}  # record ids of each modality, in store order
    for record_id, identity, modality in zip(store.record_ids, store.identity_ids,
                                             store.modalities):
        ids[modality].append(record_id)
        by_identity.setdefault(identity, {"voice": [], "face": []})[modality].append(record_id)
    if not ids["voice"] or not ids["face"]:
        raise ValueError("store must contain both voice and face records")

    targets = []
    for _, own in sorted(by_identity.items()):
        pairs = [(v, f) for v in own["voice"] for f in own["face"]]
        if len(pairs) > MAX_TARGETS_PER_IDENTITY:
            idx = rng.choice(len(pairs), size=MAX_TARGETS_PER_IDENTITY, replace=False)
            pairs = [pairs[i] for i in sorted(idx)]
        targets.extend(pairs)

    return sample_nontargets(targets, ids["voice"], ids["face"],
                             dict(zip(store.record_ids, store.identity_ids)),
                             negatives_per_positive, rng)


def sample_nontargets(targets, left_ids, right_ids, identity_of, negatives_per_positive,
                      rng) -> TrialSet:
    """Labeled trials: the target pairs, then negatives_per_positive (>= 1) distinct
    cross-identity pairs per target, drawn uniformly, left then right, from
    left_ids x right_ids."""
    if negatives_per_positive < 1:
        raise ValueError("negatives_per_positive must be >= 1")
    n_nontargets = negatives_per_positive * len(targets)
    left, right = (Counter(map(identity_of.__getitem__, ids)) for ids in (left_ids, right_ids))
    n_cross = len(left_ids) * len(right_ids) - sum(n * right[i] for i, n in left.items())
    if n_nontargets > n_cross:
        raise ValueError(f"requested {n_nontargets} nontargets but only {n_cross} pairs exist")
    chosen = dict.fromkeys(targets)  # the trials: targets, then nontargets as drawn
    while len(chosen) < len(targets) + n_nontargets:
        a = left_ids[rng.integers(len(left_ids))]
        b = right_ids[rng.integers(len(right_ids))]
        if identity_of[a] != identity_of[b]:
            chosen.setdefault((a, b))
    return TrialSet.from_columns([a for a, _ in chosen], [b for _, b in chosen],
                                 ["target"] * len(targets) + ["nontarget"] * n_nontargets)
