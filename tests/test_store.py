from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import avsrkit.store
from avsrkit.store import (EmbeddingRecord, EmbeddingStore, FormatError,
                           ScoreEntry, ScoreSet, Trial, TrialSet,
                           build_crossmodal_trials, load_embeddings,
                           load_scores, load_trials, save_embeddings, save_scores,
                           save_trials)
from avsrkit.pipeline import build_identity_trials


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEmbeddings:
    def test_two_records(self, tmp_path):
        p = write(tmp_path / "e.tsv",
                  "a\tspk1\tvoice\t1.0,2.0,3.0,4.0\n"
                  "b\tspk1\tface\t0.5,0.5,0.5,0.5\n")
        s = load_embeddings(p)
        assert len(s) == 2
        assert s.dim == 4
        assert s.modalities == ("voice", "face")
        np.testing.assert_array_equal(s.vectors[s.indices(["b"])], [[0.5, 0.5, 0.5, 0.5]])

    def test_dimension_mismatch_names_line(self, tmp_path):
        p = write(tmp_path / "e.tsv",
                  "a\tspk1\tvoice\t1,2,3,4\n"
                  "b\tspk1\tvoice\t1,2,3,4\n"
                  "c\tspk2\tvoice\t1,2,3,4,5\n")
        with pytest.raises(FormatError, match=r":3"):
            load_embeddings(p)

    def test_empty_file(self, tmp_path):
        s = load_embeddings(write(tmp_path / "e.tsv", ""))
        assert len(s) == 0
        with pytest.raises(ValueError):
            s.dim

    def test_comments_skipped(self, tmp_path):
        p = write(tmp_path / "e.tsv", "# header\na\tspk1\tvoice\t1,2\n")
        assert len(load_embeddings(p)) == 1

    def test_duplicate_record_id(self, tmp_path):
        p = write(tmp_path / "e.tsv", "a\ts\tvoice\t1,2\na\ts\tface\t3,4\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_embeddings(p)

    def test_non_finite_rejected(self, tmp_path):
        p = write(tmp_path / "e.tsv", "a\ts\tvoice\t1,nan\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_embeddings(p)

    def test_bad_modality(self, tmp_path):
        p = write(tmp_path / "e.tsv", "a\ts\tvideo\t1,2\n")
        with pytest.raises(FormatError, match="modality"):
            load_embeddings(p)

    @pytest.mark.parametrize("line, column", [("\ts\tvoice\t1,2", "record_id"),
                                              ("a\t\tvoice\t1,2", "identity_id")])
    def test_empty_id_names_line_and_column(self, tmp_path, line, column):
        p = write(tmp_path / "e.tsv", f"b\ts\tface\t1,2\n{line}\n")
        with pytest.raises(FormatError, match=rf"e\.tsv:2: empty {column}$"):
            load_embeddings(p)

    def test_roundtrip(self, tmp_path, rng):
        recs = [EmbeddingRecord(f"r{i}", f"id{i % 3}", "voice" if i % 2 else "face",
                                rng.standard_normal(8))
                for i in range(10)]
        s = EmbeddingStore(recs)
        path = tmp_path / "rt.tsv"
        save_embeddings(s, path)
        loaded = load_embeddings(path)
        assert loaded.record_ids == s.record_ids
        got = loaded.vectors[loaded.indices([r.record_id for r in recs])]
        np.testing.assert_array_equal(got, [r.vector for r in recs])


LOADERS = pytest.mark.parametrize("load, line", [
    (load_embeddings, b"a\ts\tvoice\t1,2"), (load_trials, b"a\tb\ttarget"),
    (load_scores, b"a\tb\t0.5\ttarget")], ids=["embeddings", "trials", "scores"])


class TestUndecodableInput:
    """A byte that is not UTF-8 is named with its file and line, in file order
    with the loaders' other line-level errors."""

    @LOADERS
    @pytest.mark.parametrize("bad", [b"x\xff", b"\xe9t\xe9", b"\xed\xa0\x80", b"\xc3"])
    @pytest.mark.parametrize("chunk_chars", [1, 7, avsrkit.store._CHUNK_CHARS])
    def test_named_with_line(self, tmp_path, monkeypatch, load, line, bad, chunk_chars):
        monkeypatch.setattr(avsrkit.store, "_CHUNK_CHARS", chunk_chars)
        p = tmp_path / "f.tsv"
        p.write_bytes(b"# caf\xc3\xa9\r\n" + line + b"\r\n" + line.replace(b"a", bad, 1) + b"\n")
        with pytest.raises(FormatError, match=r"f\.tsv:3: not valid UTF-8$"):
            load(p)

    @LOADERS
    def test_in_a_comment(self, tmp_path, load, line):
        p = tmp_path / "f.tsv"
        p.write_bytes(line + b"\n\n#\xff\n" + line.replace(b"a", b"c", 1) + b"\n")
        with pytest.raises(FormatError, match=r"f\.tsv:3: not valid UTF-8$"):
            load(p)

    @LOADERS
    def test_earlier_field_count_error_wins(self, tmp_path, load, line):
        p = tmp_path / "f.tsv"
        p.write_bytes(line + b"\nonly-one-field\n" + line.replace(b"a", b"\xff", 1) + b"\n")
        with pytest.raises(FormatError, match=r"f\.tsv:2: expected"):
            load(p)


class TestTrialSet:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrialSet([Trial("a", "b"), Trial("a", "b")])

    def test_partial_labels_rejected(self):
        with pytest.raises(ValueError, match="partially"):
            TrialSet([Trial("a", "b", "target"), Trial("a", "c")])

    def test_duplicate_line_names_both_lines(self, tmp_path):
        p = write(tmp_path / "t.tsv", "a\tb\n# note\na\tc\na\tb\n")
        with pytest.raises(FormatError, match=r"t\.tsv:4: duplicate trial \(a, b\), "
                                              r"first on line 1$"):
            load_trials(p)

    def test_partially_labeled_file_names_line(self, tmp_path):
        p = write(tmp_path / "t.tsv", "a\tb\ttarget\na\tc\ttarget\na\td\n")
        with pytest.raises(FormatError, match=r"t\.tsv:3: trial set is partially labeled$"):
            load_trials(p)

    def test_unknown_label_names_line(self, tmp_path):
        p = write(tmp_path / "t.tsv", "a\tb\ttarget\na\tc\tmaybe\n")
        with pytest.raises(FormatError, match=r"t\.tsv:2: unknown label 'maybe'$"):
            load_trials(p)

    @pytest.mark.parametrize("text, column", [("a\tc\n\tb\n", "enroll_id"),
                                              ("a\tc\na\t\n", "test_id"),
                                              ("a\tc\ttarget\na\t\ttarget\n", "test_id")])
    def test_empty_id_names_line_and_column(self, tmp_path, text, column):
        p = write(tmp_path / "t.tsv", text)
        with pytest.raises(FormatError, match=rf"t\.tsv:2: empty {column}$"):
            load_trials(p)

    def test_roundtrip(self, tmp_path):
        ts = TrialSet([Trial("a", "b", "target"), Trial("a", "c", "nontarget")])
        path = tmp_path / "t.tsv"
        save_trials(ts, path)
        assert load_trials(path) == ts


class TestScoreSet:
    def test_roundtrip_bit_exact(self, tmp_path):
        tricky = 0.1 + 0.2  # not representable as a short decimal
        ss = ScoreSet([ScoreEntry("a", "b", tricky, "target"),
                       ScoreEntry("a", "c", -1e-300, "nontarget"),
                       ScoreEntry("a", "d", 12345.6789)])
        path = tmp_path / "s.tsv"
        save_scores(ss, path)
        loaded = load_scores(path)
        assert list(loaded) == list(ss)
        assert loaded.scores[0] == tricky

    def test_numpy_scalar_score_written_as_number(self, tmp_path):
        path = tmp_path / "s.tsv"
        save_scores(ScoreSet([ScoreEntry("a", "b", np.float64(1.5), "target")]), path)
        assert path.read_text() == "a\tb\t1.5\ttarget\n"
        assert load_scores(path).scores[0] == 1.5

    def test_labeled_parse(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_text("a\tb\t0.5\ttarget\na\tc\t-0.5\tnontarget\n")
        ss = load_scores(p)
        assert ss.labeled
        assert ss.labels == ("target", "nontarget")

    @pytest.mark.parametrize("line, column", [("\tb\t1.5\ttarget", "enroll_id"),
                                              ("a\t\t1.5\ttarget", "test_id"),
                                              ("\t\t1.5", "enroll_id")])
    def test_empty_id_names_line_and_column(self, tmp_path, line, column):
        p = write(tmp_path / "s.tsv", f"a\tb\t0.5\tnontarget\n# note\n{line}\n")
        with pytest.raises(FormatError, match=rf"s\.tsv:3: empty {column}$"):
            load_scores(p)

    def test_required_labels_name_first_unlabeled_line(self, tmp_path):
        p = write(tmp_path / "s.tsv", "a\tb\t0.5\ttarget\n\na\tc\t1.5\na\td\t2.5\n")
        assert load_scores(p).labels == ("target", None, None)
        with pytest.raises(FormatError, match=r"s\.tsv:3: score set is not fully labeled$"):
            load_scores(p, require_labels=True)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ScoreSet([ScoreEntry("a", "b", float("inf"))])

    def test_needs_both_classes(self):
        ss = ScoreSet([ScoreEntry("a", "b", 1.0, "target")])
        with pytest.raises(ValueError):
            ss.scores_and_labels()


def two_identity_store():
    return EmbeddingStore([
        EmbeddingRecord("v1", "idA", "voice", [1.0, 0.0]),
        EmbeddingRecord("f1", "idA", "face", [0.0, 1.0]),
        EmbeddingRecord("v2", "idB", "voice", [1.0, 1.0]),
        EmbeddingRecord("f2", "idB", "face", [1.0, -1.0]),
    ])


class TestBuildCrossmodalTrials:
    def test_exhaustive_small_case(self):
        trials = build_crossmodal_trials(two_identity_store(), 1, rng_seed=0)
        targets = [t for t in trials if t.label == "target"]
        nontargets = [t for t in trials if t.label == "nontarget"]
        assert sorted((t.enroll_id, t.test_id) for t in targets) == \
            [("v1", "f1"), ("v2", "f2")]
        assert sorted((t.enroll_id, t.test_id) for t in nontargets) == \
            [("v1", "f2"), ("v2", "f1")]

    def test_determinism(self):
        s = two_identity_store()
        assert build_crossmodal_trials(s, 1, 42) == build_crossmodal_trials(s, 1, 42)
        assert build_crossmodal_trials(s, 1, 42) != build_crossmodal_trials(s, 1, 43) \
            or True  # different seeds may coincide on tiny stores

    def test_label_consistency(self, rng):
        recs = []
        for i in range(6):
            for j in range(3):
                recs.append(EmbeddingRecord(f"v{i}_{j}", f"id{i}", "voice",
                                            rng.standard_normal(4)))
                recs.append(EmbeddingRecord(f"f{i}_{j}", f"id{i}", "face",
                                            rng.standard_normal(4)))
        store = EmbeddingStore(recs)
        trials = build_crossmodal_trials(store, 2, 7)
        identity = {r.record_id: r.identity_id for r in store}
        for t in trials:
            same = identity[t.enroll_id] == identity[t.test_id]
            assert t.label == ("target" if same else "nontarget")

    def test_target_cap(self, rng):
        # idA has 8 x 8 = 64 voice-face pairs, above the cap of 50
        recs = [EmbeddingRecord(f"v{j}", "idA", "voice", rng.standard_normal(2))
                for j in range(8)]
        recs += [EmbeddingRecord(f"f{j}", "idA", "face", rng.standard_normal(2))
                 for j in range(8)]
        recs += [EmbeddingRecord(f"vB{j}", "idB", "voice", rng.standard_normal(2))
                 for j in range(8)]
        recs += [EmbeddingRecord("fB", "idB", "face", rng.standard_normal(2))]
        trials = build_crossmodal_trials(EmbeddingStore(recs), 1, 0)
        targets = [t for t in trials if t.label == "target"]
        assert len(targets) == 50 + 8

    def test_single_identity_fails(self):
        store = EmbeddingStore([
            EmbeddingRecord("v1", "idA", "voice", [1.0]),
            EmbeddingRecord("f1", "idA", "face", [1.0]),
        ])
        with pytest.raises(ValueError, match=r"^requested 1 nontargets but only 0 pairs exist$"):
            build_crossmodal_trials(store, 1, 0)


def sample_pair_by_pair(targets, left_ids, right_ids, identity_of, negatives_per_positive,
                        rng):
    """The trials of drawing one (left, right) pair per turn, two scalar draws
    each, and keeping each new cross-identity pair that is not a target."""
    chosen = dict.fromkeys(targets)
    while len(chosen) < (1 + negatives_per_positive) * len(targets):
        a = left_ids[rng.integers(len(left_ids))]
        b = right_ids[rng.integers(len(right_ids))]
        if identity_of[a] != identity_of[b]:
            chosen.setdefault((a, b))
    return list(chosen)


@st.composite
def block_store_inputs(draw):
    """A store of identities with 0-4 voices and 0-4 faces each (at least one
    record), negatives per target, and a nontarget block size small enough to
    cut most stores into several blocks; the store has enough cross-identity
    pairs for its nontargets. Some stores have their rows permuted, so an
    identity's records are not contiguous and store order differs from
    identity order."""
    counts = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
                           min_size=2, max_size=24))
    records = [EmbeddingRecord(f"{m[0]}{i}_{k}", f"id{i:02d}", m, [float(k)])
               for i, (v, f) in enumerate(counts)
               for m, n in (("voice", v), ("face", f)) for k in range(n)]
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    targets = sum(v * f for v, f in counts)
    cross = sum(v for v, _ in counts) * sum(f for _, f in counts) - targets
    assume(targets >= 1)
    npp = draw(st.integers(1, 3))
    assume(npp * targets <= cross)
    return EmbeddingStore(records), npp, draw(st.integers(4, 200))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(block_store_inputs(), st.integers(0, 2**32))
def test_crossmodal_nontargets_drawn_within_identity_blocks(inputs, seed):
    store, npp, block_pairs = inputs
    with patch.object(avsrkit.store, "NONTARGET_BLOCK_PAIRS", block_pairs):
        trials = build_crossmodal_trials(store, npp, seed)
        # the blocks, from the same seeded shuffle (no identity reaches the target cap)
        identity = dict(zip(store.record_ids, store.identity_ids))
        names = sorted(set(store.identity_ids))
        names = [names[i] for i in np.random.default_rng(seed).permutation(len(names))]
        n_voices, n_faces = (np.array([sum(identity[r] == i and m == modality for r, m in
                                           zip(store.record_ids, store.modalities))
                                       for i in names]) for modality in ("voice", "face"))
        block = dict(zip(names, avsrkit.store._identity_blocks(n_voices, n_faces, npp)))
    pairs = list(zip(trials.enroll_ids.tolist(), trials.test_ids.tolist()))
    n_targets = trials.labels.count("target")
    targets, nontargets = pairs[:n_targets], pairs[n_targets:]
    assert all(identity[a] == identity[b] for a, b in targets)
    assert trials.labels == ("target",) * n_targets + ("nontarget",) * (npp * n_targets)
    assert len(set(pairs)) == len(pairs)
    assert all(identity[a] != identity[b] for a, b in nontargets)
    if (1 + npp) * n_targets > block_pairs and max(block.values()) > 0:
        assert all(block[identity[a]] == block[identity[b]] for a, b in nontargets)
        assert min(Counter(block.values()).values()) >= 2
    else:  # one block: the pair-by-pair draws over the whole store, in store order
        left, right = ([r for r, m in zip(store.record_ids, store.modalities) if m == modality]
                       for modality in ("voice", "face"))
        rng = np.random.default_rng(seed)
        if (1 + npp) * n_targets > block_pairs:
            rng.permutation(len(names))
        assert pairs == sample_pair_by_pair(targets, left, right, identity, npp, rng)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 30), st.integers(1, 4), st.integers(0, 2**32))
def test_identity_trials_match_pair_by_pair_draws(n, npp, seed):
    assume(npp <= n - 1)
    ids = [f"id{i:02d}" for i in range(n)]
    store = EmbeddingStore([EmbeddingRecord(f"v{i}", i, "voice", [1.0]) for i in ids])
    trials = build_identity_trials(store, npp, seed)
    expected = sample_pair_by_pair(list(zip(ids, ids)), ids, ids, dict(zip(ids, ids)), npp,
                                   np.random.default_rng(seed))
    assert list(zip(trials.enroll_ids.tolist(), trials.test_ids.tolist())) == expected
