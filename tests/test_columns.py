"""The column model of EmbeddingStore, TrialSet and ScoreSet: row selection
against a per-record reference, rows in = rows out, one validation for rows
and columns, and read-only columns."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avsrkit.pipeline import split_enroll_test, split_identities
from avsrkit.store import (LABELS, MODALITIES, EmbeddingRecord, EmbeddingStore, RowError,
                           ScoreEntry, ScoreSet, Trial, TrialSet)


def ragged_records(rng):
    """Records of 6 identities with 2 to 5 sessions per modality, the two
    modalities interleaved, inserted in random order, with numeric record ids
    whose insertion, numeric and string orders all differ."""
    recs = []
    for identity in ("idF", "idB", "idD", "idA", "idE", "idC"):
        for modality in MODALITIES:
            recs += [(identity, modality) for _ in range(rng.integers(2, 6))]
    ids = rng.choice(1000, size=len(recs), replace=False)
    order = rng.permutation(len(recs))
    return [EmbeddingRecord(f"r{k}", *recs[i], rng.standard_normal(3)) for k, i in zip(ids, order)]


def as_rows(store):
    return [(r.record_id, r.identity_id, r.modality, r.vector.tolist()) for r in store]


@pytest.fixture
def records(rng):
    return ragged_records(rng)


class TestRowSelectionMatchesPerRecordReference:
    def test_restrict(self, records):
        store = EmbeddingStore(records)
        for modality in MODALITIES:
            assert as_rows(store.restrict(modality)) == \
                as_rows(r for r in records if r.modality == modality)

    def test_grouped(self, records):
        store = EmbeddingStore(records)
        for modality in MODALITIES:
            want = {}
            for r in records:
                if r.modality == modality:
                    want.setdefault(r.identity_id, []).append(r.vector)
            got = store.grouped(modality)
            assert list(got) == list(want)  # first-seen identity order
            for identity, vectors in want.items():
                np.testing.assert_array_equal(got[identity], vectors)

    def test_rows(self, records, rng):
        store = EmbeddingStore(records)
        picks = [records[i] for i in rng.integers(len(records), size=2 * len(records))]
        got = store.vectors[store.indices([r.record_id for r in picks])]
        np.testing.assert_array_equal(got, [r.vector for r in picks])
        assert store.vectors[store.indices([])].shape == (0, 3)
        with pytest.raises(KeyError, match="no record 'ghost' in store"):
            store.vectors[store.indices([records[0].record_id, "ghost"])]

    def test_split_enroll_test(self, records):
        enroll, test = split_enroll_test(EmbeddingStore(records))
        want_enroll, want_test = [], []
        for identity in dict.fromkeys(r.identity_id for r in records):
            for modality in ("voice", "face"):
                recs = sorted((r for r in records
                               if (r.identity_id, r.modality) == (identity, modality)),
                              key=lambda r: r.record_id)
                cut = math.ceil(len(recs) / 2)
                want_enroll += recs[:cut]
                want_test += recs[cut:]
        assert as_rows(enroll) == as_rows(want_enroll)
        assert as_rows(test) == as_rows(want_test)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_split_identities(self, records, seed):
        train, valid = split_identities(EmbeddingStore(records), 0.4, seed)
        ids = sorted({r.identity_id for r in records})
        perm = np.random.default_rng([seed, 11]).permutation(len(ids))
        valid_ids = {ids[i] for i in perm[:2]}  # max(2, int(0.4 * 6))
        assert as_rows(train) == as_rows(r for r in records if r.identity_id not in valid_ids)
        assert as_rows(valid) == as_rows(r for r in records if r.identity_id in valid_ids)

    def test_subset_keeps_given_order(self, records):
        store = EmbeddingStore(records)
        order = [4, 0, 7, 2]
        assert as_rows(store.subset(order)) == as_rows(records[i] for i in order)
        assert len(store.subset([])) == 0


# finite binary64 values, as Python floats or numpy float64
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
VALUES = st.one_of(FLOATS, FLOATS.map(np.float64))
IDS = st.text("abc_", min_size=1, max_size=3)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(IDS, IDS, st.sampled_from(MODALITIES),
                               st.lists(VALUES, min_size=2, max_size=2)),
                     unique_by=lambda row: row[0], max_size=8))
def test_embedding_rows_come_back_bit_for_bit(rows):
    store = EmbeddingStore(EmbeddingRecord(*row) for row in rows)
    back = list(store)
    assert [(r.record_id, r.identity_id, r.modality) for r in back] == \
        [row[:3] for row in rows]
    assert bits([r.vector for r in back]).tolist() == bits([row[3] for row in rows]).tolist()


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(IDS, IDS, VALUES, st.sampled_from((None,) + LABELS)),
                     max_size=8))
def test_score_rows_come_back_bit_for_bit(rows):
    back = list(ScoreSet(ScoreEntry(*row) for row in rows))
    assert [(e.enroll_id, e.test_id, e.label) for e in back] == \
        [(row[0], row[1], row[3]) for row in rows]
    assert bits([e.score for e in back]).tolist() == bits([row[2] for row in rows]).tolist()


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(IDS, IDS), unique=True, max_size=8), labeled=st.booleans(),
       data=st.data())
def test_trial_rows_come_back(pairs, labeled, data):
    rows = [(e, t, data.draw(st.sampled_from(LABELS)) if labeled else None) for e, t in pairs]
    trials = TrialSet(Trial(*row) for row in rows)
    assert [(t.enroll_id, t.test_id, t.label) for t in trials] == rows
    assert TrialSet.from_columns(*([list(c) for c in zip(*rows)] or [[], [], []])) == trials


def outcome(build):
    """("ok", columns) of a built object, or the type, message and row of its error."""
    try:
        built = build()
    except RowError as exc:
        return type(exc), str(exc), exc.row, exc.first
    except ValueError as exc:
        return type(exc), str(exc)
    return "ok", {name: value.tolist() if isinstance(value, np.ndarray) else value
                  for name, value in vars(built).items() if not name.startswith("_")}


# rows that break the validation now and then: a repeated id, an unknown
# modality or label, a non-finite value
ANY_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), IDS,
                               st.sampled_from(MODALITIES + ("video",)),
                               st.lists(ANY_FLOATS, min_size=2, max_size=2)),
                     max_size=5))
def test_embedding_columns_validate_as_rows_do(rows):
    columns = [list(column) for column in zip(*rows)] or [[], [], [], []]
    by_rows = outcome(lambda: EmbeddingStore(EmbeddingRecord(*row) for row in rows))
    assert outcome(lambda: EmbeddingStore.from_columns(*columns)) == by_rows
    if rows:
        matrix = np.array(columns[3])
        assert outcome(lambda: EmbeddingStore.from_columns(*columns[:3], matrix)) == by_rows


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(IDS, IDS, ANY_FLOATS,
                               st.sampled_from((None, "maybe") + LABELS)), max_size=5))
def test_score_columns_validate_as_rows_do(rows):
    columns = [list(column) for column in zip(*rows)] or [[], [], [], []]
    assert outcome(lambda: ScoreSet.from_columns(*columns)) == \
        outcome(lambda: ScoreSet(ScoreEntry(*row) for row in rows))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]),
                               st.sampled_from((None, "maybe") + LABELS)), max_size=5))
def test_trial_columns_validate_as_rows_do(rows):
    columns = [list(column) for column in zip(*rows)] or [[], [], []]
    assert outcome(lambda: TrialSet.from_columns(*columns)) == \
        outcome(lambda: TrialSet(Trial(*row) for row in rows))


def test_validation_messages():
    vec = [1.0, 2.0]
    with pytest.raises(ValueError, match="record 'b' has dimension 3, store dimension is 2"):
        EmbeddingStore([EmbeddingRecord("a", "i", "voice", vec),
                        EmbeddingRecord("b", "i", "voice", vec + [3.0])])
    with pytest.raises(ValueError, match="duplicate record_id 'a'"):
        EmbeddingStore.from_columns(["a", "b", "a"], ["i"] * 3, ["voice"] * 3, [vec] * 3)
    with pytest.raises(ValueError, match="unknown modality 'video'"):
        EmbeddingStore.from_columns(["a"], ["i"], ["video"], [vec])
    with pytest.raises(ValueError, match="record 'a' has non-finite coordinates"):
        EmbeddingStore.from_columns(["a"], ["i"], ["face"], [[1.0, math.inf]])
    with pytest.raises(ValueError, match=r"non-finite score for trial \(e, t\)"):
        ScoreSet.from_columns(["e"], ["t"], [math.nan], [None])
    with pytest.raises(ValueError, match="unknown label 'maybe'"):
        ScoreSet.from_columns(["e"], ["t"], [0.0], ["maybe"])
    with pytest.raises(ValueError, match="columns differ in length"):
        ScoreSet.from_columns(["e"], ["t", "u"], [0.0], [None])
    with pytest.raises(ValueError, match="store columns differ in length"):
        EmbeddingStore.from_columns(["a", "b"], ["i"] * 2, ["voice"], [vec] * 2)
    for build in (TrialSet.from_columns, lambda *c: TrialSet(map(Trial, *c))):
        with pytest.raises(RowError, match=r"^duplicate trial \(a, b\)$") as exc:
            build(["a", "a", "a"], ["c", "b", "b"], [None] * 3)
        assert (exc.value.row, exc.value.first) == (2, 1)
        with pytest.raises(RowError, match="^trial set is partially labeled$") as exc:
            build(["a", "a"], ["b", "c"], ["target", None])
        assert (exc.value.row, exc.value.first) == (1, None)
        with pytest.raises(RowError, match="^unknown label 'maybe'$") as exc:
            build(["a", "a"], ["b", "c"], ["target", "maybe"])
        assert exc.value.row == 1
    with pytest.raises(ValueError, match="trial set columns differ in length"):
        TrialSet.from_columns(["a", "a"], ["b", "c"], ["target"])


class TestReadOnlyColumns:
    def test_store_columns(self, records):
        vectors = np.array([r.vector for r in records])
        store = EmbeddingStore.from_columns([r.record_id for r in records],
                                            [r.identity_id for r in records],
                                            [r.modality for r in records], vectors)
        for column in (store.record_ids, store.identity_ids, store.modalities):
            assert isinstance(column, tuple)
        with pytest.raises(ValueError, match="read-only"):
            store.vectors[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            next(iter(store)).vector[0] = 1.0
        vectors[0, 0] += 1.0  # the store holds its own copy
        assert store.vectors[0, 0] == records[0].vector[0]

    def test_score_columns(self):
        scores = np.array([0.5, -0.5])
        ss = ScoreSet.from_columns(["a", "a"], ["b", "c"], scores, ["target", "nontarget"])
        assert isinstance(ss.enroll_ids, tuple) and isinstance(ss.labels, tuple)
        with pytest.raises(ValueError, match="read-only"):
            ss.scores[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ss.scores_and_labels()[0][0] = 1.0
        scores[0] = 9.0
        assert ss.scores[0] == 0.5
