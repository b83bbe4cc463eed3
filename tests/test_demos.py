"""Every demo script runs to completion from a clean directory, with the
benchmark data unset so the demos take their self-contained paths."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in ("CAPSNLU_SNIPS_DIR", "CAPSNLU_VECTORS_PATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp_path)  # the demos write their fixtures through tempfile
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
