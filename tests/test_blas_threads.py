"""Importing capsnlu runs BLAS on one thread unless the user set a count.

Each case imports `capsnlu` in a fresh interpreter with the three BLAS
thread variables removed from its environment (or one of them set), then
reads the thread count OpenBLAS runs with straight from the library
numpy bundles, through ctypes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GETTER = "scipy_openblas_get_num_threads64_"

# prints OpenBLAS's thread count, or why it cannot be read
READ_THREADS = f"""
import ctypes, glob, os
import capsnlu, numpy
libs = sorted(glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")))
get = getattr(ctypes.CDLL(libs[0]), {GETTER!r}, None) if libs else None
if get is None:
    print("no {GETTER} in numpy's bundled libraries")
else:
    get.argtypes, get.restype = [], ctypes.c_int
    print(get())
"""


def blas_threads(**env) -> str:
    child_env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    child_env["PYTHONPATH"] = str(SRC)
    child_env.update(env)
    done = subprocess.run([sys.executable, "-c", READ_THREADS], env=child_env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    out = done.stdout.strip()
    if not out.isdigit():
        pytest.skip(out)
    return out


def test_import_defaults_to_one_blas_thread():
    assert blas_threads() == "1"


def test_a_thread_count_the_user_set_wins():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its threads at the CPUs, and this process may use one")
    assert blas_threads(OPENBLAS_NUM_THREADS="2") == "2"
