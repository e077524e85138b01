"""trdecomp benchmark: time to a stated RSE (or a fixed budget) on three
tensor-ring workloads, plus an outside-in per-layer trace.

    python3 perfbench/run.py --workload paper-k1e4 --seed 2 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table each

Run it from the root of a source checkout; it imports trdecomp from `src/`.
For one workload it

1. builds the input tensor from `--seed` (datagen.synth_tensor) and writes
   it as a .trt file, in this process, before anything is timed;
2. starts fresh worker processes that only do the set-up (import trdecomp,
   read the .trt file, build the solver configs), for `setup_s`;
3. starts one more worker that does the set-up and then runs every solver
   run of the workload in a closed loop, one after another, for `--seconds`.

Every process runs with BLAS pinned to one thread. With `--trace 1` the last
worker alternates untraced and traced passes and the per-layer metrics are
reported instead of the end-to-end ones. The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROCESSES = 7  # set-up-only workers; the measured worker adds one sample
DEADLINE_S = 170.0  # one workload must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}
REPORTED = {**END_TO_END, "runs_failed_share": "share"}
PER_LAYER = {
    "sampling.draw_us": "us",
    "sampling.draw_calls": "count",
    "sampling.rows_drawn": "count",
    "core.slices_hadamard_us": "us",
    "sampling.dist_us": "us",
    "sampling.dist_cores_computed": "count",
    "sampling.dist_useful_ratio": "ratio",
    "sampling.check_prob_us": "us",
    "solvers.grad_us": "us",
    "solvers.hess_us": "us",
    "solvers.direction_us": "us",
    "solvers.chol_retries": "count",
    "core.reconstruct_ms": "ms",
    "core.reconstruct_calls": "count",
    "solvers.eval_share": "share",
    "core.subchain_build_ms": "ms",
    "core.unfold_ms": "ms",
    "solvers.self_ms_per_iter": "ms",
    "solvers.iterations": "count",
    "tensorfile.read_ms": "ms",
    "tensorfile.read_mb": "MB",
    "trdecomp.import_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}


class BenchError(RuntimeError):
    pass


def format_metrics(metrics: dict) -> list[str]:
    """One line per metric: name, value with all its digits, unit."""
    return [f"  {name:<30} {m['value']!r} {m['unit']}" for name, m in metrics.items()]


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _read_cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, entry, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, entry, "size")) as f:
                size = f.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _bytes(size: str) -> int:
    """A sysfs cache size such as '2048K' in bytes."""
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1])
    return int(size[:-1]) * scale if scale else int(size)


def environment(workload, x_shape) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _read_cache_sizes()
    n = int(np.prod(x_shape))
    r2 = workload.rank ** 2
    j = n // x_shape[0]
    tensor_bytes = 8 * n
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": caches,
        "tensor_bytes": tensor_bytes,
        # Bytes an evaluation touches by count of arrays, not measured:
        # the subchain (written, then copied to its unfolding), the
        # reconstruction, x, and their difference (written, then read).
        "computed_bytes_per_eval": 8 * (3 * r2 * j + 4 * n),
    }
    for level in ("L2", "L3"):
        if level in caches:
            env[f"tensor_over_{level}"] = tensor_bytes / _bytes(caches[level])
    return env


def make_input(workload, seed: int) -> tuple[str, tuple]:
    sys.path.insert(0, SRC)
    from trdecomp.datagen import SynthSpec, synth_tensor
    from trdecomp.tensorfile import write_tensor

    spec = SynthSpec(order=workload.order, dim=workload.dim, rank=workload.rank,
                     kind=workload.kind, kappa=workload.kappa, seed=seed)
    x, _ = synth_tensor(spec)
    path = os.path.join(WORK, f"{workload.name}-seed{seed}.trt")
    write_tensor(path, x)
    return path, x.shape


def _worker(args: list[str], started: float) -> tuple[dict, float]:
    """Run one worker process; return its JSON and set-up time measured from
    just before the process was started."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = {**os.environ, **BLAS_ENV}
    launched = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              capture_output=True, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, out["ready"] - launched


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    workload = workloads.WORKLOADS[name]
    input_path, shape = make_input(workload, seed)
    common = ["--src", SRC, "--workload", name, "--seed", str(seed), "--input", input_path]
    setup_samples = []
    spans_path = os.path.join(WORK, f"spans-{name}-seed{seed}.csv.gz")
    try:
        if not trace:
            for _ in range(SETUP_PROCESSES):
                setup_samples.append(_worker([*common, "--setup-only"], started)[1])
        res, setup = _worker([*common, "--seconds", str(seconds), "--trace", str(int(trace)),
                              *(["--spans", spans_path] if trace else [])], started)
    finally:
        os.remove(input_path)
    setup_samples.append(setup)
    res["setup_s"] = statistics.median(setup_samples)
    res["setup_samples"] = setup_samples
    res["env"] = environment(workload, shape)
    res["workload"] = workload
    res["seed"] = seed
    if trace:
        res["spans_file"] = os.path.relpath(spans_path, ROOT)
    return res


def report(res: dict, seconds: float, trace: bool) -> dict:
    """Print the human-readable block and return the result object."""
    w = res["workload"]
    print(f"== {w.name} (seed {res['seed']}, {seconds:g} s, trace {int(trace)}): {w.why}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for r in res["runs"]:
        if "rse" in r:
            print(f"  run {r['label']:<18} {r['iterations']:>5} iters  RSE {r['rse']:.3e}  "
                  f"{r['terminal_reason']:<9} {r['wall_s']:.3f} s  {r['failure'] or 'ok'}")
        else:
            print(f"  run {r['label']:<18} {r['failure']}")
    for err in res["errors"]:
        print(f"  CHECK FAILED: {err}")
    if trace:
        metrics = shown = metric_block(res["layers"], PER_LAYER)
        print(f"  {res['traced_passes']} traced and {res['passes']} untraced passes, "
              f"{res['spans']} spans in {res['spans_file']}")
        print("  share of traced wall time (self):")
        for name, share in res["breakdown"].items():
            print(f"    {name:<24} {share:.3f}")
    else:
        metrics, shown = metric_block(res, END_TO_END), metric_block(res, REPORTED)
        print(f"  {res['passes']} passes of " + " ".join(f"{t:.3f}" for t in res["pass_s"])
              + f" s; setup from {len(res['setup_samples'])} processes")
    print("\n".join(format_metrics(shown)))
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trdecomp", "__init__.py")):
        print(f"no trdecomp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    os.makedirs(WORK, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = report(res, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
