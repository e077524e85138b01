"""Every run of tools/run_digest.py ends as its committed output says.

The digests are bitwise only per numpy, BLAS build, BLAS kernel and thread
count, so the committed file is keyed by them and the test skips on a build
that has none.  A change that moves roundoff regenerates the file (see
tools/run_digest.py) and says which lines moved.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "run_digest.py")


def _run_digest():
    spec = importlib.util.spec_from_file_location("run_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_digests_match_the_committed_output():
    run_digest = _run_digest()
    golden = run_digest.golden_path()
    if not os.path.exists(golden):
        pytest.skip(f"no committed digests for {run_digest.build_key()}")
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    done = subprocess.run([sys.executable, SCRIPT], env=env, capture_output=True, text=True,
                          timeout=600, check=True)
    with open(golden) as f:
        assert done.stdout.splitlines() == f.read().splitlines()
