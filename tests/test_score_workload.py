"""The benchmark's `score`, `evaluate` and `experiment` workloads pass their checks
against perfbench/references.py. `score` (LDA, PLDA and trial scoring at 300 identities)
is in no gated run; `evaluate` covers the score loaders, `apply_fusion` and `avsrkit
eval` at trial-list scale, which no other tier-1 test reaches; `experiment` is the
paper's experiment from files, vfnet training included, so a change to the model moves
its digest. The same runs' output digests are checked against tests/golden.json."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import check_golden

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module", params=["score", "evaluate", "experiment"])
def workload_run(request):
    # one untimed pass; run.py points itself at ROOT/src
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", request.param,
                             "--seed", "1", "--seconds", "0"],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    return request.param, result.stdout


def test_score_workload_correct(workload_run):
    _, stdout = workload_run
    last = json.loads(stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0


def test_score_workload_matches_golden_digest(workload_run):
    workload, stdout = workload_run
    digest = re.search(rf"^{workload} seed 1: output sha256 (\w+)$", stdout, re.M).group(1)
    check_golden(f"{workload} seed 1", digest)
