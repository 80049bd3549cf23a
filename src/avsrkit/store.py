"""Data model and text IO for embeddings, trial lists and score sets.

File formats (UTF-8, tab-separated, lines starting with '#' ignored):

* embeddings: ``record_id<TAB>identity_id<TAB>modality<TAB>c1,c2,...,cD``
  with ``modality`` one of ``voice``/``face``
* trials:     ``enroll_id<TAB>test_id[<TAB>label]``
* scores:     ``enroll_id<TAB>test_id<TAB>score[<TAB>label]``

Scores are written with ``repr()`` so binary64 values round-trip bit-exactly.
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np
from numpy.dtypes import StringDType

MODALITIES = ("voice", "face")
LABELS = ("target", "nontarget")
_LABEL_OBJECTS = {label: label for label in LABELS}
MAX_TARGETS_PER_IDENTITY = 50
_IDS = StringDType(coerce=False)  # trial and score ids: an id of up to 15 UTF-8 bytes takes 16


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


def _frozen(column, dtype):
    """column as a read-only array of dtype: one already (a view only if its base is read-only
    too) is shared, anything else copied and the copy frozen, so a caller's array stays its own."""
    if (isinstance(column, np.ndarray) and column.dtype == dtype and not column.flags.writeable
            and (column.base is None
                 or isinstance(column.base, np.ndarray) and not column.base.flags.writeable)):
        return column
    array = np.array(column, dtype=dtype)
    array.flags.writeable = False
    return array


def _check_strings(column, name):
    """Raise a RowError naming the first value of column that is not a str."""
    if not all(map(isinstance, column, repeat(str))):
        row = next(i for i, value in enumerate(column) if not isinstance(value, str))
        raise RowError(row, f"{name} of row {row} is {column[row]!r}, not a string")


def _ids(column, name):
    """column as a read-only StringDType array (see _frozen). A value that is not a str
    raises a RowError naming its row."""
    try:
        return _frozen(column, _IDS)
    except (TypeError, ValueError):
        _check_strings(column, name)
        raise


def _check_unique(enroll_ids, test_ids):
    """Raise a RowError at the first row whose (enroll, test) pair an earlier row has."""
    e, t = enroll_ids, test_ids
    if ((e[1:] > e[:-1]) | ((e[1:] == e[:-1]) & (t[1:] > t[:-1]))).all():
        return  # strictly increasing pairs are all distinct: one pass, no sort
    order = np.argsort(test_ids, kind="stable")
    order = order[np.argsort(enroll_ids[order], kind="stable")]  # by pair, then by row
    e, t = enroll_ids[order], test_ids[order]
    later = order[1:][(e[1:] == e[:-1]) & (t[1:] == t[:-1])]  # each pair's rows but its first
    if later.size:
        row = int(later.min())
        first = np.argmax((enroll_ids == enroll_ids[row]) & (test_ids == test_ids[row]))
        raise RowError(row, f"duplicate trial ({enroll_ids[row]}, {test_ids[row]})", int(first))


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
        _check_strings(self.record_ids, "record_id")
        _check_strings(self.identity_ids, "identity_id")
        n = len(self.record_ids)
        dim = len(vectors[0]) if n else 0
        for i, vector in enumerate(vectors):
            if len(vector) != dim:
                raise RowError(i, f"record {self.record_ids[i]!r} has dimension {len(vector)}, "
                                  f"store dimension is {dim}")
        self.vectors = _frozen(vectors, np.float64).reshape(n, dim)  # a view of it, read-only
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
        vectors = self.vectors[indices]
        vectors.flags.writeable = False  # so the new store holds it as it is
        return EmbeddingStore.from_columns(
            [self.record_ids[i] for i in indices], [self.identity_ids[i] for i in indices],
            [self.modalities[i] for i in indices], vectors)

    def restrict(self, modality: str) -> "EmbeddingStore":
        return self.subset([i for i, m in enumerate(self.modalities) if m == modality])

    def identity_rows(self, modality) -> dict:
        """identity -> row indices of its records of one modality, in store
        order; identities in first-seen order."""
        rows = {}
        for i, (identity, m) in enumerate(zip(self.identity_ids, self.modalities)):
            if m == modality:
                rows.setdefault(identity, []).append(i)
        return rows

    def grouped(self, modality):
        """identity -> (n, D) matrix of its records of one modality, rows in
        insertion order; identities in first-seen order."""
        return {key: self.vectors[rows] for key, rows in self.identity_rows(modality).items()}


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    label: str | None = None  # "target", "nontarget" or None


class TrialSet(_Columns):
    """Ordered trials, fully labeled or fully unlabeled, held as columns: the read-only
    StringDType ``enroll_ids`` and ``test_ids`` arrays and the ``labels`` tuple (None for
    unlabeled). Built from Trial rows or by ``from_columns(enroll_ids, test_ids, labels)``."""

    _row, _what, _columns = Trial, "trial set", ("enroll_ids", "test_ids", "labels")

    def _fill(self, enroll_ids, test_ids, labels):
        self.enroll_ids, self.test_ids = _ids(enroll_ids, "enroll_id"), _ids(test_ids, "test_id")
        self.labels = tuple(labels)
        _check_known(self.labels, (None,) + LABELS, "label")
        partial = len(self.labels)  # the first row labeled unlike row 0, if any
        if 0 < self.labels.count(None) < partial:
            partial = next(i for i, label in enumerate(self.labels)
                           if (label is None) != (self.labels[0] is None))
        _check_unique(self.enroll_ids[:partial + 1], self.test_ids[:partial + 1])
        if partial < len(self.labels):
            raise RowError(partial, "trial set is partially labeled")

    def __eq__(self, other):
        return (isinstance(other, TrialSet) and self.labels == other.labels
                and np.array_equal(self.enroll_ids, other.enroll_ids)
                and np.array_equal(self.test_ids, other.test_ids))

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
    """Immutable trial scores, optionally labeled, held as columns: the read-only
    StringDType ``enroll_ids`` and ``test_ids`` arrays, the read-only float64 ``scores``
    array and the ``labels`` tuple (None for unlabeled). Built from ScoreEntry rows or by
    ``from_columns(enroll_ids, test_ids, scores, labels)``."""

    _row, _what, _columns = ScoreEntry, "score set", ("enroll_ids", "test_ids", "scores", "labels")

    def _fill(self, enroll_ids, test_ids, scores, labels):
        self.enroll_ids, self.test_ids = _ids(enroll_ids, "enroll_id"), _ids(test_ids, "test_id")
        self.scores = _frozen(scores, np.float64)
        self.labels = tuple(labels)
        finite = np.isfinite(self.scores)
        if not finite.all():
            i = int(np.argmin(finite))
            raise RowError(i, f"non-finite score for trial ({self.enroll_ids[i]}, "
                              f"{self.test_ids[i]})")
        _check_known(self.labels, (None,) + LABELS, "label")

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
                pieces, w, n = text.replace("\n", "\t").split("\t"), width[rows[0]], rows.size
                # data lines that are lines 0..n-1, all w fields wide, are pieces[:w * n]
                if rows[-1] == n - 1 and (width[rows] == w).all():
                    columns = [pieces[k:w * n:w] if k < w else [None] * n
                               for k in range(max(widths))]
                else:
                    pieces.append(None)
                    columns = [list(map(pieces.__getitem__,
                                        np.where(k < width[rows], first[rows] + k, -1).tolist()))
                               for k in range(max(widths))]
                yield columns, rows + lineno
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
    empty = [(list(column).index(""), name) for name, column in columns.items() if "" in column]
    if empty:
        row, name = min(empty, key=lambda found: found[0])
        raise RowError(row, f"empty {name}")


def _coordinates(texts):
    """The comma-separated numbers of texts as one float64 array: by numpy's
    C reader if it reads one row of one width per text, else by _floats (an empty
    text it skips, \\x1c-\\x1f it takes as whitespace, a number only float() reads)."""
    if "" not in texts and not any(map("\n".join(texts).__contains__, "\x1c\x1d\x1e\x1f")):
        with suppress(ValueError):
            rows = np.loadtxt(texts, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
            if rows.shape[0] == len(texts) and rows.shape[1] >= 1:
                return rows.ravel()
    return _floats(texts, "malformed coordinate list", sep=",")


def load_embeddings(path) -> EmbeddingStore:
    """Parse an embedding file; dimension is inferred from the first record."""
    linenos, values, dims, columns = [], [], [], ([], [], [])  # ids, identity ids, modalities
    for (*ids, coords), lines in _read_columns(path, (4,), "expected 4 tab-separated fields"):
        with _at_lines(path, lines):
            values.append(_coordinates(coords))
        dims += [text.count(",") + 1 for text in coords]
        linenos.append(lines)
        for column, chunk in zip(columns, ids):
            column += chunk
    values = np.concatenate(values or [[]])
    values.flags.writeable = False  # so the store holds it as it is
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
    linenos, enroll_ids, test_ids, labels = [], [], [], []
    for (enroll, test, label), lines in _read_columns(path, (2, 3), "expected 2 or 3 fields"):
        linenos.append(lines)
        enroll_ids.append(np.array(enroll, dtype=_IDS))
        test_ids.append(np.array(test, dtype=_IDS))
        labels += map(_LABEL_OBJECTS.get, label, label)  # the known labels as one object each
    enroll_ids, test_ids = (np.concatenate(c or [[]], dtype=_IDS) for c in (enroll_ids, test_ids))
    enroll_ids.flags.writeable = test_ids.flags.writeable = False  # so _ids takes them as they are
    with _at_lines(path, *linenos):
        _check_filled(enroll_id=enroll_ids, test_id=test_ids)
        return TrialSet.from_columns(enroll_ids, test_ids, labels)


def save_trials(trials: TrialSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e, t, label in zip(trials.enroll_ids, trials.test_ids, trials.labels):
            fh.write(f"{e}\t{t}\n" if label is None else f"{e}\t{t}\t{label}\n")


def load_scores(path, require_labels=False) -> ScoreSet:
    """Parse a score file. require_labels: each line labeled, no trial listed twice and both
    classes present, as metrics and fusion fits need (a FormatError names the first unlabeled
    or repeated line, else the file)."""
    linenos, scores, enroll_ids, test_ids, labels = [], [], [], [], []
    for (enroll, test, text, label), lines in _read_columns(path, (3, 4), "expected 3 or 4 fields"):
        with _at_lines(path, lines):
            scores.append(_floats(text, "malformed score {!r}"))
        linenos.append(lines)
        enroll_ids.append(np.array(enroll, dtype=_IDS))
        test_ids.append(np.array(test, dtype=_IDS))
        labels += map(_LABEL_OBJECTS.get, label, label)  # the known labels as one object each
    enroll_ids, test_ids = (np.concatenate(c or [[]], dtype=_IDS) for c in (enroll_ids, test_ids))
    scores = np.concatenate(scores or [[]])
    # read-only, so the score set holds the three arrays as they are
    enroll_ids.flags.writeable = test_ids.flags.writeable = scores.flags.writeable = False
    with _at_lines(path, *linenos):
        _check_filled(enroll_id=enroll_ids, test_id=test_ids)
        loaded = ScoreSet.from_columns(enroll_ids, test_ids, scores, labels)
        if require_labels and None in labels:
            raise RowError(labels.index(None), "score set is not fully labeled")
        if require_labels:
            _check_unique(loaded.enroll_ids, loaded.test_ids)
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
    ids, voices, faces = store.record_ids, store.identity_rows("voice"), store.identity_rows("face")
    if not voices or not faces:
        raise ValueError("store must contain both voice and face records")

    targets = []
    for identity in sorted(voices.keys() & faces.keys()):
        pairs = [(ids[v], ids[f]) for v in voices[identity] for f in faces[identity]]
        if len(pairs) > MAX_TARGETS_PER_IDENTITY:
            idx = rng.choice(len(pairs), size=MAX_TARGETS_PER_IDENTITY, replace=False)
            pairs = [pairs[i] for i in sorted(idx)]
        targets.extend(pairs)

    left, right = ([ids[i] for i in sorted(j for group in rows.values() for j in group)]
                   for rows in (voices, faces))  # each modality's record ids, in store order
    return sample_nontargets(targets, left, right, dict(zip(ids, store.identity_ids)),
                             negatives_per_positive, rng)


def sample_nontargets(targets, left_ids, right_ids, identity_of, negatives_per_positive,
                      rng) -> TrialSet:
    """Labeled trials: the distinct target pairs, then negatives_per_positive (>= 1) distinct
    cross-identity pairs per target, drawn uniformly, left then right, from
    left_ids x right_ids (each id once per side), skipping drawn targets. Pairs are
    drawn in blocks, one ``rng.integers`` call over tiled (n_left, n_right) bounds
    each, which is the stream of drawing pair by pair; the last block leaves
    ``rng`` past the last pair kept."""
    if negatives_per_positive < 1:
        raise ValueError("negatives_per_positive must be >= 1")
    n_nontargets = negatives_per_positive * len(targets)
    n_left, n_right = len(left_ids), len(right_ids)
    codes = {}  # identity -> code
    left, right = (np.array([codes.setdefault(identity_of[i], len(codes)) for i in ids],
                            dtype=np.int64) for ids in (left_ids, right_ids))
    chosen = dict.fromkeys(targets)
    if len(chosen) < len(targets):
        seen = set()
        pair = next(p for p in targets if p in seen or seen.add(p))
        raise ValueError(f"target pair ({pair[0]}, {pair[1]}) given twice")
    at = [dict(zip(ids, range(len(ids)))) for ids in (left_ids, right_ids)]
    skip = np.array([at[0][a] * n_right + at[1][b] for a, b in chosen
                     if a in at[0] and b in at[1]], dtype=np.int64)  # pair codes of targets
    skip = skip[left[skip // n_right] != right[skip % n_right]]  # those a draw can keep
    n_cross = n_left * n_right - int(np.bincount(left, minlength=len(codes))
                                     @ np.bincount(right, minlength=len(codes))) - skip.size
    if n_nontargets > n_cross:
        raise ValueError(f"requested {n_nontargets} nontargets but only {n_cross} pairs exist")
    drawn = np.empty(0, dtype=np.int64)  # distinct pair codes i * n_right + j, in draw order
    while drawn.size < n_nontargets:
        fresh = max(n_cross - drawn.size, 1) / (n_left * n_right)  # share of new pairs
        k = min(int(1.1 * (n_nontargets - drawn.size) / fresh) + 64, 1 << 20)
        i, j = rng.integers(0, np.tile([n_left, n_right], k)).reshape(k, 2).T
        drawn = np.concatenate([drawn, (i * n_right + j)[left[i] != right[j]]])
        drawn = drawn[np.sort(np.unique(drawn, return_index=True)[1])]
        if skip.size:
            drawn = drawn[~np.isin(drawn, skip)]
    i, j = np.divmod(drawn[:n_nontargets], n_right)
    return TrialSet.from_columns([a for a, _ in chosen] + [left_ids[x] for x in i.tolist()],
                                 [b for _, b in chosen] + [right_ids[x] for x in j.tolist()],
                                 ["target"] * len(targets) + ["nontarget"] * n_nontargets)
