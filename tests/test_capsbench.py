"""Smoke run of the pinned benchmark against this checkout's library.

The traced `train-snips` run rebuilds the model from the library's public
functions and checks that rebuild against `harness.train`,
`predict_existing`, `zsl_predict` and B=1 requests, so a change that
breaks the benchmark's contract with the library fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_traced_train_run_passes_its_checks(tmp_path):
    # run.py reads the library from ./src and writes its inputs and spans
    # under the working directory, so the run is made from tmp_path
    (tmp_path / "src").symlink_to(REPO / "src")
    cmd = [sys.executable, str(REPO / "capsbench" / "run.py"),
           "--workload", "train-snips", "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
