"""Smoke runs of the pinned benchmark against this checkout's library.

The untraced `train-snips` run drives the library as a user does:
`harness.train` (whose embedding steps are row-sparse), B=1 requests
checked against batched predictions, and a save/load equality check. The
traced run rebuilds the model from the library's public functions and
checks that rebuild against `harness.train`, `predict_existing`,
`zsl_predict` and B=1 requests; its rebuild reads `.grad`, so its Adam
steps are dense. The untraced `infer-online` run makes about a thousand
B=1 requests, each checked against the batched predictions. The untraced
`infer-batch` run repeats `evaluate` and `zsl_evaluate` on a saved model,
checks that every pass gives the same accuracies, and checks B=1 probes
against the batched predictions. The traced inference runs call
`encode_tokens` and the later layers one at a time on the loaded,
read-only model under `no_grad`, so their checks that the composed
layers equal `predict_existing`, `zsl_predict` and `forward_batch`
requests gate the encoder's projection-table path. The traced
`train-snips` run also reports the graph nodes of a train step, which
must be the library's 9: one per layer, the loss included. A change that
breaks the benchmark's contract with the library fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _run(tmp_path, workload, trace):
    # run.py reads the library from ./src and writes its inputs and spans
    # under the working directory, so the run is made from tmp_path
    (tmp_path / "src").symlink_to(REPO / "src")
    cmd = [sys.executable, str(REPO / "capsbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    return result


@pytest.mark.parametrize("trace", ["0", "1"], ids=["untraced", "traced"])
def test_train_run_passes_its_checks(tmp_path, trace):
    metrics = _run(tmp_path, "train-snips", trace)["metrics"]
    if trace == "1":
        assert metrics["autodiff.graph_nodes"]["value"] == 9


def test_online_run_passes_its_checks(tmp_path):
    _run(tmp_path, "infer-online", "0")


def test_batch_run_passes_its_checks(tmp_path):
    _run(tmp_path, "infer-batch", "0")


def test_traced_online_run_passes_its_checks(tmp_path):
    _run(tmp_path, "infer-online", "1")


def test_traced_batch_run_passes_its_checks(tmp_path):
    _run(tmp_path, "infer-batch", "1")
