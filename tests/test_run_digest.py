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
        expected = f.read().splitlines()
    got = done.stdout.splitlines()
    # each line ends in its digest; what comes before it names the run
    names = {line.rsplit(" ", 1)[0] for line in got}
    moved = [line.rsplit(" ", 1)[0] for line in got if line not in expected]
    gone = [line.rsplit(" ", 1)[0] for line in expected if line.rsplit(" ", 1)[0] not in names]
    assert not moved and not gone, f"runs that moved or are new: {moved}; runs gone: {gone}"
    assert got == expected


OLD_RSE = [
    "input order4 " + "a" * 64,
    "order4 tr-als seed=2 max_iters 3 " + "b" * 64 + " 0.5 0.25 0.125",
    "order4 tr-als seed=3 tol 2 " + "c" * 64 + " 0.5 1e-10",
    "order4 tr-gd seed=2 diverged 1 " + "d" * 64 + " 0.5 nan",
    "order4 tr-gd seed=3 raised LinAlgError",
]
NEW_RSE = [
    OLD_RSE[0],
    "order4 tr-als seed=2 max_iters 3 " + "e" * 64 + " 0.5 0.25000000000000006 0.125",
    "order4 tr-als seed=3 max_iters 3 " + "f" * 64 + " 0.5 2e-10 1.5e-10",
    OLD_RSE[3],
    "order4 tr-gd seed=3 max_iters 3 " + "0" * 64 + " 0.5 0.4 0.3",
]


def test_drift_reports_each_run_that_moved_and_by_how_much():
    run_digest = _run_digest()
    assert run_digest.parse_rse_line(OLD_RSE[1]) == (
        "order4 tr-als seed=2", ("max_iters", 3, [0.5, 0.25, 0.125]))
    assert run_digest.parse_rse_line(OLD_RSE[0]) == (OLD_RSE[0], None)
    lines = run_digest.drift_lines(OLD_RSE, NEW_RSE)
    # the input digest and the diverged run, nan and all, did not move
    assert lines == [
        "order4 tr-gd seed=3 raised LinAlgError: gone",
        # only the cores moved at the final record; a middle one moved by
        # one ulp of 0.25, 2.2e-16 relative
        "order4 tr-als seed=2: stop, records, reason same; final 0.125 move +0 c 0; "
        "largest move above 1e-09 2.22e-16",
        # a different stop: the finals are compared as they are, and the
        # records above 1e-9 index by index
        "order4 tr-als seed=3: stop, records, reason differ (2, 2, tol); "
        "final 1.5e-10 move +0.5 c 2.25e+05; largest move above 1e-09 0",
        "order4 tr-gd seed=3: added",
    ]
