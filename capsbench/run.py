"""capsnlu benchmark: one workload per call.

    python3 capsbench/run.py --workload train-snips --seed 1 --seconds 10 --trace 0

Run from the repository root. The inputs are generated from the seed
into `.capsbench_work/`, then the workload runs in a child process with
`PYTHONPATH=src` and one BLAS thread, so the library under test is the
checkout's own source. The last line of standard output is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics
with `--trace 0`, the per-layer ones with `--trace 1`). Traced runs also
write their spans to `.capsbench_out/`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
# One BLAS thread: the matrices are small, and a second thread only spins.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170

WHY = {
    "train-snips": "autodiff backward, Adam over the dense |V|x300 embedding and the vectors-file "
                   "parse do most of their work here and none in the inference workloads",
    "infer-batch": "the semantic and detection forward passes and zeroshot dominate at the eval "
                   "batch of 64, with no graph, no optimizer and no vectors-file parse",
    "infer-online": "the same layers at B=1, where per-op Python overhead and graph size dominate "
                    "array math, so a batching win that costs single-request latency shows here",
}


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="capsnlu benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "capsnlu" / "__init__.py").is_file():
        print(f"capsbench: {src}/capsnlu not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, str(HERE))
    import synth

    work_root = root / ".capsbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        inputs = synth.generate(work, args.workload, args.seed)
        meta = {
            "data_dir": str(inputs.data_dir),
            "vectors_path": str(inputs.vectors_path),
            "vector_lines": inputs.vector_lines,
        }
        (work / "inputs.json").write_text(json.dumps(meta), encoding="utf-8")
        result_path = work / "result.json"
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--inputs", str(work), "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_path)]
        if args.trace:
            out_dir = root / ".capsbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            cmd += ["--trace-out", str(trace_path)]
        env = dict(os.environ, PYTHONPATH=str(src), **THREAD_ENV)
        try:
            proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"capsbench: {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"capsbench: {args.workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    info = machine()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"why: {WHY[args.workload]}")
    print("machine: " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for line in result["report"]:
        print(f"  {line}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  spans written to {trace_path.relative_to(root)}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  ops attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
