"""The chunked column loaders of score, trial and embedding files and the
array DET writer against per-line references.

``reference_load_scores`` is the per-line loader that the columnar one
replaced, plus the two checks added with it, in the order the columnar
loader makes them: the line-level errors (field count, malformed score) in
file order, then empty ids, then the score set's own checks, then the
labels, the unrepeated trials and the two classes that ``require_labels``
asks for. ``reference_load_trials`` is the trial loader that built one Trial
row per line, with the trial set's checks written out in their order. ``reference_load_embeddings`` is the per-line
embedding loader that the chunked one replaced, with the store's checks
written out in their order. Each loader is also checked with the reader's
chunk size patched to 1 and 7 characters, so that files span many chunks and
reads stop inside fields and inside ``\\r\\n`` pairs. ``reference_det_table``
is the per-row DET writer that ``avsrkit eval --det-points`` replaced.
"""

import contextlib
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import avsrkit.store
from avsrkit import cli
from avsrkit.metrics import compute_metrics
from avsrkit.store import (EmbeddingStore, FormatError, RowError, ScoreSet, Trial, TrialSet,
                           load_embeddings, load_scores, load_trials, save_scores)

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SMALL_CHUNKS = pytest.mark.parametrize("chunk_chars", [1, 7])


def reference_load_scores(path, require_labels=False):
    linenos, enroll_ids, test_ids, scores, labels = [], [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise FormatError(f"{path}:{lineno}: expected 3 or 4 fields, got {len(fields)}")
            try:
                scores.append(float(fields[2]))
            except ValueError:
                raise FormatError(f"{path}:{lineno}: malformed score {fields[2]!r}") from None
            linenos.append(lineno)
            enroll_ids.append(fields[0])
            test_ids.append(fields[1])
            labels.append(fields[3] if len(fields) == 4 else None)
    for row, (e, t) in enumerate(zip(enroll_ids, test_ids)):
        if "" in (e, t):
            name = "enroll_id" if e == "" else "test_id"
            raise FormatError(f"{path}:{linenos[row]}: empty {name}")
    try:
        score_set = ScoreSet.from_columns(enroll_ids, test_ids, scores, labels)
    except RowError as exc:
        raise FormatError(f"{path}:{linenos[exc.row]}: {exc}") from None
    if require_labels and None in labels:
        raise FormatError(f"{path}:{linenos[labels.index(None)]}: "
                          "score set is not fully labeled")
    firsts = {}
    for row, pair in enumerate(zip(enroll_ids, test_ids) if require_labels else ()):
        first = firsts.setdefault(pair, row)
        if first != row:
            raise FormatError(f"{path}:{linenos[row]}: duplicate trial ({pair[0]}, {pair[1]}), "
                              f"first on line {linenos[first]}")
    if require_labels and not labels:
        raise FormatError(f"{path}: no scores")
    if require_labels and len(set(labels)) == 1:
        raise FormatError(f"{path}: need at least one target and one nontarget score")
    return score_set


def reference_load_trials(path):
    linenos, trials = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise FormatError(f"{path}:{lineno}: expected 2 or 3 fields, got {len(fields)}")
            linenos.append(lineno)
            trials.append(Trial(*fields))
    for row, t in enumerate(trials):
        if "" in (t.enroll_id, t.test_id):
            name = "enroll_id" if t.enroll_id == "" else "test_id"
            raise FormatError(f"{path}:{linenos[row]}: empty {name}")
    for row, t in enumerate(trials):
        if t.label not in (None, "target", "nontarget"):
            raise FormatError(f"{path}:{linenos[row]}: unknown label {t.label!r}")
    firsts = {}
    for row, t in enumerate(trials):
        first = firsts.setdefault((t.enroll_id, t.test_id), row)
        if first != row:
            raise FormatError(f"{path}:{linenos[row]}: duplicate trial ({t.enroll_id}, "
                              f"{t.test_id}), first on line {linenos[first]}")
        if (t.label is None) != (trials[0].label is None):
            raise FormatError(f"{path}:{linenos[row]}: trial set is partially labeled")
    return TrialSet(trials)


def reference_load_embeddings(path):
    linenos, record_ids, identity_ids, modalities, vectors = [], [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 tab-separated fields, "
                                  f"got {len(fields)}")
            try:
                vector = np.fromiter(map(float, fields[3].split(",")), dtype=np.float64)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: malformed coordinate list") from None
            linenos.append(lineno)
            record_ids.append(fields[0])
            identity_ids.append(fields[1])
            modalities.append(fields[2])
            vectors.append(vector)
    for row, (r, i) in enumerate(zip(record_ids, identity_ids)):
        if "" in (r, i):
            name = "record_id" if r == "" else "identity_id"
            raise FormatError(f"{path}:{linenos[row]}: empty {name}")
    dim = len(vectors[0]) if vectors else 0
    for row, vector in enumerate(vectors):
        if len(vector) != dim:
            raise FormatError(f"{path}:{linenos[row]}: record {record_ids[row]!r} has dimension "
                              f"{len(vector)}, store dimension is {dim}")
    for row, modality in enumerate(modalities):
        if modality not in ("voice", "face"):
            raise FormatError(f"{path}:{linenos[row]}: unknown modality {modality!r}")
    firsts = {}
    for row, record_id in enumerate(record_ids):
        first = firsts.setdefault(record_id, row)
        if first != row:
            raise FormatError(f"{path}:{linenos[row]}: duplicate record_id {record_id!r}, "
                              f"first on line {linenos[first]}")
    for row, vector in enumerate(vectors):
        if not np.isfinite(vector).all():
            raise FormatError(f"{path}:{linenos[row]}: record {record_ids[row]!r} has "
                              "non-finite coordinates")
    return EmbeddingStore.from_columns(record_ids, identity_ids, modalities, vectors)


def reference_det_table(scores):
    report = compute_metrics(scores)
    points = list(zip(*(a.tolist() for a in (report.thresholds, report.p_miss, report.p_fa))))
    return "threshold\tp_miss\tp_fa\n" + "".join(f"{t}\t{pm}\t{pf}\n" for t, pm, pf in points)


def outcome(load, path, require_labels):
    """The loaded columns, scores as bytes, or the FormatError text."""
    try:
        s = load(path, require_labels=require_labels)
    except FormatError as exc:
        return "error", str(exc)
    return s.enroll_ids.tolist(), s.test_ids.tolist(), s.labels, s.scores.tobytes()


IDS = ["a", "b", "spk01", "seg 7", "é", "a#", "#a", " x"]
SCORES = ["0.5", "-1.0", "2", "1e-300", "-0.0", "0"]
# non-finite and malformed scores, and others that float() accepts
ODD_SCORES = ["nan", "inf", "-inf", "1e999", "", "abc", "1.2.3", " 1.5 ", "1_0", "0x10",
              "Infinity", "١٢", "+.5e3", "1.5\r"]
ODD_LABELS = ["", "maybe", "Target", " target", "target\r"]


@st.composite
def mostly(draw, common, odd):
    """A draw from common, or one time in ten from odd."""
    return draw(odd if draw(st.integers(0, 9)) == 0 else common)


@st.composite
def data_lines(draw):
    width = draw(mostly(st.sampled_from([3, 4]), st.sampled_from([1, 2, 5, 6])))
    fields = [draw(mostly(st.sampled_from(IDS), st.just(""))) for _ in range(2)]
    fields.append(draw(mostly(
        st.one_of(st.sampled_from(SCORES), st.floats(allow_nan=False, allow_infinity=False)
                  .map(repr)),
        st.sampled_from(ODD_SCORES))))
    fields.append(draw(mostly(st.sampled_from(["target", "nontarget"]),
                              st.sampled_from(ODD_LABELS))))
    fields += ["extra", "more"]
    return "\t".join(fields[:width])


lines = st.one_of(data_lines(), data_lines(), data_lines(), data_lines(),
                  st.just(""), st.text(alphabet="ab\t #", max_size=5).map(lambda t: "#" + t))


@st.composite
def score_files(draw):
    body = draw(st.lists(lines, max_size=12))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    ending = newline if draw(st.booleans()) else ""
    return newline.join(body) + (ending if body else "")


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("score_loader")


def written(path, text):
    """path, holding text as it is: no newline translation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def check_score_file(path, text, require_labels):
    written(path, text)
    assert outcome(load_scores, path, require_labels) == \
        outcome(reference_load_scores, path, require_labels)


@SETTINGS
@given(text=score_files(), require_labels=st.booleans())
# chunks the reader must not take as uniform, and ones it may: a blank line before a last
# line with no newline, a last line with no newline, a comment between two uniform runs,
# and field counts that differ (these examples recur for trials and embeddings)
@example(text="\n\t\tnan", require_labels=False)
@example(text="a\tb\t0.5\ttarget\nb\ta\t-1.5\tnontarget", require_labels=True)
@example(text="a\tb\t0.5\ttarget\n# note\nb\ta\t-1.5\tnontarget\n", require_labels=True)
@example(text="a\tb\t0.5\nb\ta\t-1.5\ttarget\nb\tb\t2.5\n", require_labels=False)
def test_loader_matches_per_line_reference(work_dir, text, require_labels):
    check_score_file(work_dir / "s.scores", text, require_labels)


@SMALL_CHUNKS
@SETTINGS
@given(text=score_files(), require_labels=st.booleans())
def test_loader_matches_per_line_reference_in_small_chunks(work_dir, chunk_chars, text,
                                                            require_labels):
    with mock.patch.object(avsrkit.store, "_CHUNK_CHARS", chunk_chars):
        check_score_file(work_dir / "s.scores", text, require_labels)


def test_generated_files_reach_every_outcome(work_dir):
    """The strategy above exercises the success path and each error."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=score_files())
    def collect(text):
        path = written(work_dir / "c.scores", text)
        kind, message = outcome(load_scores, path, False)[:2]
        seen.add("loaded" if kind != "error" else message.split(": ", 1)[1].split(" ")[0])

    collect()
    assert {"loaded", "expected", "malformed", "empty", "non-finite", "unknown"} <= seen


@st.composite
def trial_lines(draw):
    """Mostly well-formed lines over three ids, so that repeated pairs and
    mixed labeling are common; one line in ten has a wrong field count, an
    empty id or an unknown label."""
    fields = [draw(st.sampled_from(IDS[:3])), draw(st.sampled_from(IDS[:3])),
              draw(st.sampled_from(["target", "nontarget"])), "extra"]
    width = draw(st.sampled_from([2, 3]))
    odd = draw(st.integers(0, 29))
    if odd == 0:
        width = draw(st.sampled_from([1, 4]))
    elif odd == 1:
        fields[draw(st.integers(0, 1))] = ""
    elif odd == 2:
        fields[2], width = draw(st.sampled_from(ODD_LABELS)), 3
    return "\t".join(fields[:width])


@st.composite
def trial_files(draw):
    body = draw(st.lists(st.one_of(trial_lines(), trial_lines(), trial_lines(), st.just(""),
                                   st.just("# note")), max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(body) + (newline if body and draw(st.booleans()) else "")


def trial_outcome(load, path):
    """The loaded columns, or the FormatError text."""
    try:
        trials = load(path)
    except FormatError as exc:
        return "error", str(exc)
    return trials.enroll_ids.tolist(), trials.test_ids.tolist(), trials.labels


def check_trial_file(path, text):
    written(path, text)
    assert trial_outcome(load_trials, path) == trial_outcome(reference_load_trials, path)


@SETTINGS
@given(text=trial_files())
@example(text="\n\t\tnan")
@example(text="a\tb\ttarget\nb\ta\tnontarget")
@example(text="a\tb\ttarget\n# note\nb\ta\tnontarget\n")
@example(text="a\tb\nb\ta\ttarget\nb\tb\n")
def test_trial_loader_matches_per_line_reference(work_dir, text):
    check_trial_file(work_dir / "t.trials", text)


@SMALL_CHUNKS
@SETTINGS
@given(text=trial_files())
def test_trial_loader_matches_per_line_reference_in_small_chunks(work_dir, chunk_chars, text):
    with mock.patch.object(avsrkit.store, "_CHUNK_CHARS", chunk_chars):
        check_trial_file(work_dir / "t.trials", text)


def test_generated_trial_files_reach_every_outcome(work_dir):
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=trial_files())
    def collect(text):
        path = written(work_dir / "c.trials", text)
        kind, message = trial_outcome(load_trials, path)[:2]
        seen.add("loaded" if kind != "error" else message.split(": ", 1)[1].split(" ")[0])

    collect()
    assert {"loaded", "expected", "empty", "duplicate", "trial", "unknown"} <= seen


COORDS = ["0.5", "-1.0", "2", "1e-300", "-0.0", "0", "5e-324"]
# coordinates that float() rejects, and odd ones it accepts
ODD_COORDS = ["", "x", "1.2.3", " 1.5 ", "1_0", "١٢", "1;2", "+.5e3"]
NON_FINITE = ["nan", "inf", "-inf", "1e999", "-Infinity"]
ODD_COORD_LISTS = ["", ",", "1,,2", "1,2,", ",1,2"]
ODD_MODALITIES = ["", "video", "Voice", " face"]


@st.composite
def embedding_lines(draw, i, dim):
    """A line for record r<i> with dim coordinates, mostly well formed; one
    line in five has a wrong field count, an empty or repeated id, an unknown
    modality, another dimension, an odd or non-finite coordinate, or an odd
    coordinate list."""
    coords = [draw(st.sampled_from(COORDS) | st.floats(allow_nan=False, allow_infinity=False)
                   .map(repr)) for _ in range(dim)]
    fields = [f"r{i}", draw(st.sampled_from(IDS[:3])), draw(st.sampled_from(["voice", "face"])),
              None, "extra"]
    width = 4
    odd = draw(st.integers(0, 39))
    if odd == 0:
        width = draw(st.sampled_from([1, 2, 3, 5]))
    elif odd == 1:
        fields[draw(st.integers(0, 1))] = ""
    elif odd == 2:
        fields[0] = f"r{draw(st.integers(0, max(i - 1, 0)))}"
    elif odd == 3:
        fields[2] = draw(st.sampled_from(ODD_MODALITIES))
    elif odd == 4:
        coords = coords[:-1] if draw(st.booleans()) else coords + ["1"]
    elif odd == 5:
        coords[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(ODD_COORDS))
    elif odd == 6:
        coords = [draw(st.sampled_from(ODD_COORD_LISTS))]
    elif odd == 7:
        coords[draw(st.integers(0, dim - 1))] = draw(st.sampled_from(NON_FINITE))
    fields[3] = ",".join(coords)
    return "\t".join(fields[:width])


@st.composite
def embedding_files(draw):
    dim = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(["record"] * 4 + ["", "# note"]), max_size=8))
    body = [draw(embedding_lines(i, dim)) if kind == "record" else kind
            for i, kind in enumerate(kinds)]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(body) + (newline if body and draw(st.booleans()) else "")


def embedding_outcome(load, path):
    """The loaded columns, vectors as shape and bytes, or the FormatError text."""
    try:
        s = load(path)
    except FormatError as exc:
        return "error", str(exc)
    return s.record_ids, s.identity_ids, s.modalities, s.vectors.shape, s.vectors.tobytes()


def check_embedding_file(path, text):
    written(path, text)
    assert embedding_outcome(load_embeddings, path) == \
        embedding_outcome(reference_load_embeddings, path)


@SETTINGS
@given(text=embedding_files())
@example(text="\n\t\tnan")
@example(text="\n\t\t\tnan")
@example(text="r0\ta\tvoice\t1,2\nr1\tb\tface\t3,4")
@example(text="r0\ta\tvoice\t1,2\n# note\nr1\tb\tface\t3,4\n")
@example(text="r0\ta\tvoice\t1,2\nr1\tb\tface\nr2\tb\tface\t3,4\n")
# inputs numpy's text reader skips, rejects or reads otherwise than float()
@example(text="r0\ta\tvoice\t")
@example(text="r0\ta\tvoice\t1_0")
@example(text="r0\ta\tvoice\t\u0661\u0662")
@example(text="r0\ta\tvoice\t1,2\nr1\tb\tface\t3\n")
@example(text="r0\ta\tvoice\t\x1c1")
def test_embedding_loader_matches_per_line_reference(work_dir, text):
    check_embedding_file(work_dir / "e.emb", text)


@SMALL_CHUNKS
@SETTINGS
@given(text=embedding_files())
def test_embedding_loader_matches_per_line_reference_in_small_chunks(work_dir, chunk_chars, text):
    with mock.patch.object(avsrkit.store, "_CHUNK_CHARS", chunk_chars):
        check_embedding_file(work_dir / "e.emb", text)


EMBEDDING_ERRORS = ("expected", "malformed", "empty", "has dimension", "unknown modality",
                    "duplicate", "non-finite")


def test_generated_embedding_files_reach_every_outcome(work_dir):
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=embedding_files())
    def collect(text):
        kind, message = embedding_outcome(load_embeddings, written(work_dir / "c.emb", text))[:2]
        seen.add("loaded" if kind != "error" else
                 next(error for error in EMBEDDING_ERRORS if error in message.split(": ", 1)[1]))

    collect()
    assert {"loaded", *EMBEDDING_ERRORS} <= seen


@pytest.fixture(scope="module")
def large_score_file(work_dir):
    """A labeled score file of 200 000 lines, the size of an SRE trial list."""
    n = 200_000
    rng = np.random.default_rng(0)
    is_target = np.arange(n) % 10 == 0
    scores = (2.0 * np.where(is_target, 1.0, -1.0) + 2.5 * rng.standard_normal(n)).tolist()
    path = work_dir / "large.scores"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"spk{i // 50:05d}\tseg{i:06d}\t{s!r}\t{'target' if t else 'nontarget'}\n"
                      for i, (s, t) in enumerate(zip(scores, is_target)))
    return path


def traced_load(path):
    """(score set, traced bytes it holds, traced peak while loading)."""
    tracemalloc.start()
    try:
        loaded = load_scores(path, require_labels=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return loaded, held, peak


def test_score_loader_memory_is_bounded_by_a_chunk(large_score_file):
    """A 200 000-line labeled score file loads at a traced peak of about
    28 MiB: the score set plus one chunk's pieces (42 MiB when each id was a
    Python str). Holding the whole file's pieces at once, as a whole-file
    split does, peaked at 88 MiB."""
    loaded, _, peak = traced_load(large_score_file)
    assert len(loaded) == 200_000
    assert peak < 64 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_loaded_score_set_is_small(large_score_file):
    """The loaded 200 000-line set holds about 9.2 MiB: 16 bytes per id in
    two StringDType columns, the float64 scores and the labels tuple. A
    Python str per id held 28 MiB."""
    loaded, held, _ = traced_load(large_score_file)
    assert len(loaded) == 200_000
    assert held < 12 * 2**20, f"loaded set holds {held / 2**20:.1f} MiB"


@SETTINGS
@given(tar=st.lists(st.sampled_from([-1e300, -2.5, -0.0, 0.0, 0.1 + 0.2, 1.0, 5e-324, 3.0])
                    | st.floats(-1e6, 1e6), min_size=1, max_size=30),
       non=st.lists(st.sampled_from([-2.5, 0.0, 0.3, 1.0, 1e300])
                    | st.floats(-1e6, 1e6), min_size=1, max_size=30))
def test_det_table_matches_per_row_writer(work_dir, tar, non):
    scores = ScoreSet.from_columns(
        [f"e{i}" for i in range(len(tar) + len(non))], ["t"] * (len(tar) + len(non)),
        tar + non, ["target"] * len(tar) + ["nontarget"] * len(non))
    path, det = work_dir / "d.scores", work_dir / "det.tsv"
    save_scores(scores, path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["eval", "--scores", str(path), "--det-points", str(det)]) == 0
    table = det.read_bytes()
    assert table == reference_det_table(scores).encode("utf-8")
    rows = table.decode().splitlines()
    assert rows[1] == "-inf\t0.0\t1.0" and rows[-1] == "inf\t1.0\t0.0"
    assert len(rows) == 3 + np.unique(np.concatenate([tar, non])).size
