"""The column model of EmbeddingStore, TrialSet and ScoreSet: row selection
against a per-record reference, rows in = rows out, one validation for rows
and columns, and read-only columns."""

import math

import numpy as np
import pytest
from numpy.dtypes import StringDType
from hypothesis import given, settings, strategies as st

from avsrkit.pipeline import split_enroll_test, split_identities
from avsrkit.store import (LABELS, MODALITIES, EmbeddingRecord, EmbeddingStore, RowError,
                           ScoreEntry, ScoreSet, Trial, TrialSet, _check_unique)


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

    def test_identity_rows(self, records):
        store = EmbeddingStore(records)
        for modality in MODALITIES:
            want = {}
            for i, r in enumerate(records):
                if r.modality == modality:
                    want.setdefault(r.identity_id, []).append(i)
            got = store.identity_rows(modality)
            assert list(got) == list(want)  # first-seen identity order
            assert got == want

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


# ids whose code point order and byte lengths differ: multi-byte UTF-8 and a prefix pair
PAIR_IDS = ["a", "ab", "b", "z", "é", "ée", "ß", "日", "日本", "𝄞"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_repeated_pair_named_as_a_dict_pass_names_it(data):
    """Distinct pairs sorted, reverse-sorted or shuffled, then 0-2 copies of pairs put
    in: right after their original (next to it in sorted order) or at a random place.
    The check names the first repeat and its original as a dict pass does, on both
    its paths (pairs strictly increasing, and any other order)."""
    pairs = sorted(data.draw(st.sets(st.tuples(*[st.sampled_from(PAIR_IDS)] * 2), max_size=12)))
    order = data.draw(st.sampled_from(["sorted", "reversed", "shuffled"]))
    pairs = {"sorted": pairs, "reversed": pairs[::-1],
             "shuffled": data.draw(st.permutations(pairs))}[order]
    for _ in range(data.draw(st.integers(0, 2)) if pairs else 0):
        i = data.draw(st.integers(0, len(pairs) - 1))
        at = i + 1 if data.draw(st.booleans()) else data.draw(st.integers(0, len(pairs)))
        pairs.insert(at, pairs[i])
    firsts, expected = {}, None
    for row, pair in enumerate(pairs):
        if firsts.setdefault(pair, row) != row:
            expected = (row, firsts[pair], f"duplicate trial ({pair[0]}, {pair[1]})")
            break
    enroll_ids, test_ids = (np.array([pair[k] for pair in pairs], dtype=StringDType())
                            for k in (0, 1))
    try:
        found = _check_unique(enroll_ids, test_ids)
    except RowError as exc:
        found = (exc.row, exc.first, str(exc))
    assert found == expected


def test_increasing_pairs_checked_without_a_sort(monkeypatch):
    """10 000 strictly increasing pairs, 50 test ids per enrollment id, pass in one
    vectorised comparison: no argsort runs."""
    rows = range(10_000)
    enroll_ids = np.array([f"spk{i // 50:05d}" for i in rows], dtype=StringDType())
    test_ids = np.array([f"seg{i:06d}" for i in rows], dtype=StringDType())

    def no_sort(*args, **kwargs):
        raise AssertionError("np.argsort called")

    monkeypatch.setattr(np, "argsort", no_sort)
    assert _check_unique(enroll_ids, test_ids) is None
    with pytest.raises(AssertionError, match="np.argsort called"):  # any other order sorts
        _check_unique(enroll_ids[::-1], test_ids[::-1])


@pytest.mark.parametrize("value", [None, 3, 2.5, b"a"])
def test_non_string_id_named(value):
    for build in (lambda e, t: ScoreSet.from_columns(e, t, [0.0, 1.0], [None] * 2),
                  lambda e, t: TrialSet.from_columns(e, t, [None] * 2),
                  lambda e, t: TrialSet(map(Trial, e, t))):
        with pytest.raises(RowError, match=f"^enroll_id of row 1 is {value!r}, not a string$"):
            build(["a", value], ["b", "c"])
        with pytest.raises(RowError, match=f"^test_id of row 0 is {value!r}, not a string$"):
            build(["a", "b"], [value, "c"])


@pytest.mark.parametrize("value", [None, 3, 2.5, b"a"])
def test_non_string_store_id_named(value):
    def build(record_ids, identity_ids):
        EmbeddingStore.from_columns(record_ids, identity_ids, ["voice"] * 2, [[0.0], [1.0]])
    with pytest.raises(RowError, match=f"^record_id of row 1 is {value!r}, not a string$"):
        build(["a", value], ["A", "B"])
    with pytest.raises(RowError, match=f"^identity_id of row 0 is {value!r}, not a string$"):
        build(["a", "b"], [value, "B"])


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
        for ids in (ss.enroll_ids, ss.test_ids):
            assert ids.dtype == StringDType(coerce=False)
            with pytest.raises(ValueError, match="read-only"):
                ids[0] = "z"
        assert isinstance(ss.labels, tuple)
        with pytest.raises(ValueError, match="read-only"):
            ss.scores[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ss.scores_and_labels()[0][0] = 1.0
        scores[0] = 9.0
        assert ss.scores[0] == 0.5

    # each table's float column, built around the given values
    FLOAT_COLUMNS = {
        "vectors": lambda values: EmbeddingStore.from_columns(
            ["r0", "r1", "r2"], ["a", "a", "b"], ["voice"] * 3, values).vectors,
        "scores": lambda values: ScoreSet.from_columns(
            ["a", "a", "b"], ["b", "c", "c"], values, [None] * 3).scores,
    }
    SHAPES = {"vectors": (3, 2), "scores": (3,)}

    def fresh(self, column):
        return np.full(self.SHAPES[column], 0.5)  # writable, owns its data

    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    def test_read_only_float_column_is_shared(self, column):
        values = self.fresh(column)
        values.flags.writeable = False
        view = values.ravel().reshape(values.shape)  # a read-only view of a read-only base
        assert view.base is values
        for given in (values, view):
            held = self.FLOAT_COLUMNS[column](given)
            assert np.shares_memory(held, given)
            assert not held.flags.writeable

    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    def test_writable_float_column_is_copied(self, column):
        values = self.fresh(column)
        held = self.FLOAT_COLUMNS[column](values)
        assert not np.shares_memory(held, values)
        assert values.flags.writeable and not held.flags.writeable
        values[0] = 9.0
        assert held[0].tolist() != values[0].tolist()

    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    def test_read_only_view_of_writable_base_is_copied(self, column):
        base = self.fresh(column)
        view = base.view()
        view.flags.writeable = False
        held = self.FLOAT_COLUMNS[column](view)
        assert not np.shares_memory(held, base)
        base[0] = 9.0  # the base's owner can still write it
        assert held[0].tolist() != base[0].tolist()
