"""Property tests: embedding, score and checkpoint files round-trip every
finite binary64 value bit for bit, whether it is given as a Python float or
as a numpy float64; score and trial files round-trip any id byte for byte;
and score fusion is equivariant under an affine map of each system's
scores."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from avsrkit.checkpoint import load_checkpoint, save_checkpoint
from avsrkit.fusion import apply_fusion, fit_fusion
from avsrkit.store import (MODALITIES, EmbeddingRecord, EmbeddingStore, ScoreEntry,
                           ScoreSet, Trial, TrialSet, load_embeddings, load_scores,
                           load_trials, save_embeddings, save_scores, save_trials)

# any finite binary64 (signed zeros, subnormals and +-max included), as a
# Python float or as a numpy float64
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
VALUES = st.one_of(FLOATS, FLOATS.map(np.float64))
EDGES = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
         np.float64(-1.7976931348623157e308), np.float64(0.1 + 0.2)]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def round_trip(save, load, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        save(obj, path)
        return load(path)


@settings(max_examples=100, deadline=None)
@given(vectors=st.lists(st.lists(VALUES, min_size=3, max_size=3), min_size=1, max_size=6))
@example(vectors=[EDGES[:3], EDGES[3:]])
def test_embedding_file_round_trips_bit_exactly(vectors):
    store = EmbeddingStore(EmbeddingRecord(f"r{i}", f"id{i // 2}", MODALITIES[i % 2], v)
                           for i, v in enumerate(vectors))
    loaded = round_trip(save_embeddings, load_embeddings, store)
    assert [(r.record_id, r.identity_id, r.modality) for r in loaded] == \
        [(r.record_id, r.identity_id, r.modality) for r in store]
    np.testing.assert_array_equal(bits([r.vector for r in loaded]), bits(vectors))


@settings(max_examples=100, deadline=None)
@given(scores=st.lists(VALUES, min_size=1, max_size=8),
       labeled=st.booleans())
@example(scores=EDGES, labeled=True)
def test_score_file_round_trips_bit_exactly(scores, labeled):
    labels = [("target", "nontarget")[i % 2] if labeled else None for i in range(len(scores))]
    entries = [ScoreEntry(f"e{i}", f"t{i}", s, label)
               for i, (s, label) in enumerate(zip(scores, labels))]
    loaded = round_trip(save_scores, load_scores, ScoreSet(entries))
    assert [(e.enroll_id, e.test_id, e.label) for e in loaded] == \
        [(e.enroll_id, e.test_id, e.label) for e in entries]
    np.testing.assert_array_equal(bits([e.score for e in loaded]), bits(scores))


# any id a line can hold: no tab or line break, no surrogate (not UTF-8),
# and no leading '#' for the first field (a comment line); long and
# non-ASCII ids are drawn often, since past 15 UTF-8 bytes an id is stored
# outside its 16-byte array slot
ID_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r")
ANY_IDS = st.one_of(st.text(ID_CHARS, min_size=1, max_size=30),
                    st.text(st.sampled_from("aé漢😀 #"), min_size=14, max_size=20))
FIRST_IDS = ANY_IDS.filter(lambda i: not i.startswith("#"))
LONG_IDS = ["spk_ünïcødé_0001", "ñ" * 8, "😀" * 4, "a" * 15, "a" * 16, "#seg_0000000000001"]


def file_round_trip(save, load, table):
    """The bytes save writes, the table load reads back from them, and the
    bytes save writes from that."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        save(table, first)
        loaded = load(first)
        save(loaded, second)
        return first.read_bytes(), loaded, second.read_bytes()


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(FIRST_IDS, ANY_IDS), unique=True, max_size=8),
       labeled=st.booleans())
@example(pairs=list(zip(LONG_IDS[::-1][1:], LONG_IDS)), labeled=True)
def test_ids_round_trip_byte_for_byte(pairs, labeled):
    labels = [("target", "nontarget")[i % 2] if labeled else None for i in range(len(pairs))]
    trials = TrialSet(Trial(e, t, label) for (e, t), label in zip(pairs, labels))
    scores = ScoreSet(ScoreEntry(e, t, float(i), label)
                      for i, ((e, t), label) in enumerate(zip(pairs, labels)))
    for save, load, table in ((save_trials, load_trials, trials),
                              (save_scores, load_scores, scores)):
        written, loaded, rewritten = file_round_trip(save, load, table)
        assert rewritten == written
        assert [(row.enroll_id, row.test_id) for row in loaded] == pairs
        assert all(type(row.enroll_id) is str and type(row.test_id) is str for row in loaded)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(VALUES, min_size=0, max_size=8),
       scalars=st.lists(VALUES, min_size=0, max_size=3))
@example(values=EDGES, scalars=EDGES[:3])
def test_checkpoint_round_trips_bit_exactly(values, scalars):
    arrays = {"flat": np.array(values, dtype=np.float64)}
    if len(values) % 2 == 0:
        arrays["matrix"] = arrays["flat"].reshape(2, -1)
    named = {f"s{i}": s for i, s in enumerate(scalars)}
    loaded, loaded_scalars = round_trip(lambda obj, path: save_checkpoint(path, "test", *obj),
                                        lambda path: load_checkpoint(path, "test"),
                                        (arrays, named))
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape
        np.testing.assert_array_equal(bits(loaded[name]), bits(arr))
    assert list(loaded_scalars) == list(named)
    np.testing.assert_array_equal(bits(list(loaded_scalars.values())), bits(scalars))


def score_sets(matrix, labels):
    """One ScoreSet per column of an (n_trials, n_systems) score matrix."""
    return [ScoreSet(ScoreEntry(f"e{i}", f"t{i}", float(s), label)
                     for i, (s, label) in enumerate(zip(column, labels)))
            for column in matrix.T]


# per-system map a * s + b: |a| in [0.01, 100], either sign
AFFINE = st.tuples(st.floats(-2.0, 2.0), st.sampled_from([-1.0, 1.0]), st.floats(-100.0, 100.0))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), maps=st.lists(AFFINE, min_size=1, max_size=3))
def test_fusion_equivariant_under_affine_maps(seed, maps):
    rng = np.random.default_rng(seed)
    k = len(maps)
    tar = rng.standard_normal((40, k)) + rng.uniform(0.0, 2.0, k)
    non = rng.standard_normal((60, k))
    # a target and a nontarget with the same scores: the classes overlap, so
    # the optimum is finite and no fit warns of separable data
    tar[0] = non[0]
    dev = np.vstack([tar, non])
    labels = ["target"] * 40 + ["nontarget"] * 60
    evaluation = rng.standard_normal((30, k))
    a = np.array([sign * 10.0 ** u for u, sign, _ in maps])
    b = np.array([shift for _, _, shift in maps])

    def fused(transform):
        model = fit_fusion(score_sets(transform(dev), labels))
        out = apply_fusion(model, score_sets(transform(evaluation), [None] * 30))
        return np.array([e.score for e in out])

    base = fused(lambda s: s)
    mapped = fused(lambda s: a * s + b)
    assert np.abs(mapped - base).max() <= 1e-9 * np.abs(base).max()
