"""The benchmark's `score` workload, which no gated run covers, passes its checks:
LDA, PLDA and trial scoring at 300 identities against perfbench/references.py."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_score_workload_correct():
    # one untimed pass; run.py points itself at ROOT/src
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "score",
                             "--seed", "1", "--seconds", "0"],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
