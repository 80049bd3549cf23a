"""The columnar score loader, the column-filling trial loader and the array
DET writer against per-line references.

``reference_load_scores`` is the per-line loader that the columnar one
replaced, plus the two checks added with it, in the order the columnar
loader makes them: the line-level errors (field count, malformed score) in
file order, then empty ids, then the score set's own checks, then the
labels that ``require_labels`` asks for. ``reference_load_trials`` is the
trial loader that built one Trial row per line, with the trial set's checks
written out in their order. ``reference_det_table`` is
the per-row DET writer that ``avsrkit eval --det-points`` replaced.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from avsrkit import cli
from avsrkit.metrics import roc_points
from avsrkit.store import (FormatError, RowError, ScoreSet, Trial, TrialSet, load_scores,
                           load_trials, save_scores)

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


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


def reference_det_table(scores):
    points = list(zip(*(a.tolist() for a in roc_points(scores))))
    return "threshold\tp_miss\tp_fa\n" + "".join(f"{t}\t{pm}\t{pf}\n" for t, pm, pf in points)


def outcome(load, path, require_labels):
    """The loaded columns, scores as bytes, or the FormatError text."""
    try:
        s = load(path, require_labels=require_labels)
    except FormatError as exc:
        return "error", str(exc)
    return s.enroll_ids, s.test_ids, s.labels, s.scores.tobytes()


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


@SETTINGS
@given(text=score_files(), require_labels=st.booleans())
def test_loader_matches_per_line_reference(work_dir, text, require_labels):
    path = work_dir / "s.scores"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert outcome(load_scores, path, require_labels) == \
        outcome(reference_load_scores, path, require_labels)


def test_generated_files_reach_every_outcome(work_dir):
    """The strategy above exercises the success path and each error."""
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=score_files())
    def collect(text):
        path = work_dir / "c.scores"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
    return trials.enroll_ids, trials.test_ids, trials.labels


@SETTINGS
@given(text=trial_files())
def test_trial_loader_matches_per_line_reference(work_dir, text):
    path = work_dir / "t.trials"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert trial_outcome(load_trials, path) == trial_outcome(reference_load_trials, path)


def test_generated_trial_files_reach_every_outcome(work_dir):
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=trial_files())
    def collect(text):
        path = work_dir / "c.trials"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        kind, message = trial_outcome(load_trials, path)[:2]
        seen.add("loaded" if kind != "error" else message.split(": ", 1)[1].split(" ")[0])

    collect()
    assert {"loaded", "expected", "empty", "duplicate", "trial", "unknown"} <= seen


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
