import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from avsrkit.store import ScoreEntry, ScoreSet


def make_score_set(tar, non):
    entries = [ScoreEntry(f"t{i}", f"t{i}x", float(s), "target")
               for i, s in enumerate(tar)]
    entries += [ScoreEntry(f"n{i}", f"n{i}x", float(s), "nontarget")
                for i, s in enumerate(non)]
    return ScoreSet(entries)


def golden_key():
    """numpy version and BLAS build: GEMM bits, and so the output digests,
    can differ across BLAS kernels."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas.get('version')}"


def check_golden(name, digest):
    """Compare an output's sha256 with tests/golden.json's record for this
    numpy and BLAS build; skip, naming the key, where there is none."""
    records = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))
    key = golden_key()
    if key not in records:
        pytest.skip(f"tests/golden.json has no record for {key!r}")
    assert digest == records[key][name], f"{name} sha256 {digest} under {key!r}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# one line per acceptance criterion, filled in by tests/test_acceptance.py
# and echoed after the test summary (outside pytest's output capture)
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
