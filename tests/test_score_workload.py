"""The benchmark's `score` and `evaluate` workloads pass their checks against
perfbench/references.py. `score` (LDA, PLDA and trial scoring at 300 identities) is in no
gated run; `evaluate` covers the score loaders, `apply_fusion` and `avsrkit eval` at
trial-list scale, which no other tier-1 test reaches."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["score", "evaluate"])
def test_score_workload_correct(workload):
    # one untimed pass; run.py points itself at ROOT/src
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                             "--seed", "1", "--seconds", "0"],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
