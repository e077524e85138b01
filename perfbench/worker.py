"""The measured process: one fresh interpreter per call.

    python3 perfbench/worker.py --src SRC --workload W --seed N --input X.trt \
        --seconds T --trace 0|1 [--setup-only] [--spans OUT.csv.gz]

It does the set-up a library user does (import trdecomp, read the tensor,
build the solver configs), notes the time it reached the first solver call,
and then runs passes over the workload's runs in a closed loop until
`--seconds` have passed. It prints one JSON line for run.py.

With --trace 1 it alternates untraced and traced passes, so one process
gives both the per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (plain Python; imports nothing heavy)


def setup(src: str, input_path: str, workload, seed: int):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import trdecomp

    t1 = time.perf_counter()
    x = trdecomp.read_tensor(input_path)
    t2 = time.perf_counter()
    runs = workloads.build_runs(trdecomp, workload, seed)
    timings = {"import_s": t1 - t0, "read_s": t2 - t1, "read_mb": x.nbytes / 2**20}
    return trdecomp, x, runs, timings


def execute(run, x, td, tracer=None) -> dict:
    """One closed-loop solver call, timed, then checked outside the timing."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            cores, trace = run.solve(x, run.config)
        else:
            with tracer.run():
                cores, trace = run.solve(x, run.config)
    except Exception as exc:  # a raising run is a failed operation, not a crash
        return {"label": run.label, "wall_s": time.perf_counter() - t0,
                "failure": f"raised {type(exc).__name__}: {exc}", "error": None}
    wall = time.perf_counter() - t0
    it, iter_elapsed, rse = trace.records[-1]
    out = {"label": run.label, "wall_s": wall, "iterations": it,
           "iter_elapsed_s": iter_elapsed, "rse": rse,
           "terminal_reason": trace.terminal_reason,
           "failure": workloads.failure_reason(trace, cores, run.check), "error": None}
    if out["failure"] != "non-finite":
        out["error"] = workloads.rse_disagreement(rse, td.metrics.rse(cores, x))
    return out


def run_pass(runs, x, td, tracer=None) -> list[dict]:
    return [execute(run, x, td, tracer) for run in runs]


def summarize_passes(workload, passes) -> dict:
    """Failure accounting and output checks over every pass."""
    results = [r for p in passes for r in p]
    errors = sorted({r["error"] for r in results if r["error"]})
    failures = Counter(r["failure"] for r in results if r["failure"])
    first = passes[0]
    finished = {r["label"]: r["rse"] for r in first if "rse" in r}
    errors += workloads.cross_run_errors(workload, finished)
    # Runs are bitwise deterministic given (config, seed): every pass must
    # end each run at the same RSE.
    for p in passes[1:]:
        for a, b in zip(first, p):
            if a["failure"] != "non-finite" and a.get("rse") != b.get("rse"):
                errors.append(f"{a['label']}: RSE differs between passes")
    attempted = len(results)
    failed = sum(failures.values())
    return {"attempted": attempted, "failed": failed,
            "runs_failed_share": failed / attempted, "failures": dict(failures),
            "errors": errors, "correct": not errors, "runs": first}


def layer_metrics(tracer, traced, untraced, timings) -> dict:
    """Per-layer metrics from the traced passes; eval share from the
    untraced ones, whose iteration clock carries no span overhead."""
    from tracing import by_name, iteration_span_time

    n = len(traced)
    names = by_name(tracer.spans)

    def per_call(name, scale):
        calls, total = names.get(name, (0, 0.0))
        return total / calls * scale if calls else 0.0

    def calls(name):
        return names.get(name, (0, 0.0))[0] / n

    iterations = sum(r.get("iterations", 0) for p in traced for r in p)
    iter_elapsed = sum(r.get("iter_elapsed_s", 0.0) for p in traced for r in p)
    in_iterations = sum(iteration_span_time(tracer.spans).values())
    untraced_runs = [r for p in untraced for r in p]
    eval_share = 1 - (sum(r.get("iter_elapsed_s", 0.0) for r in untraced_runs)
                      / sum(r["wall_s"] for r in untraced_runs))
    c = tracer.counts
    solve_traced = statistics.median(sum(r["wall_s"] for r in p) for p in traced)
    solve_plain = statistics.median(sum(r["wall_s"] for r in p) for p in untraced)
    return {
        "sampling.draw_us": per_call("sampling.draw", 1e6),
        "sampling.draw_calls": calls("sampling.draw"),
        "sampling.rows_drawn": c["sampling.rows_drawn"] / n,
        "core.slices_hadamard_us": per_call("core.slices_hadamard", 1e6),
        "sampling.dist_us": per_call("sampling.dist", 1e6),
        "sampling.dist_cores_computed": c["sampling.dist_cores_computed"] / n,
        "sampling.dist_useful_ratio": (c["sampling.dist_useful"] / c["sampling.dist_cores_computed"]
                                       if c["sampling.dist_cores_computed"] else 0.0),
        "sampling.check_prob_us": per_call("sampling.check_prob", 1e6),
        "solvers.grad_us": per_call("solvers.grad", 1e6),
        "solvers.hess_us": per_call("solvers.hess", 1e6),
        "solvers.direction_us": per_call("solvers.direction", 1e6),
        "solvers.chol_retries": c["solvers.chol_retries"] / n,
        "core.reconstruct_ms": per_call("core.reconstruct", 1e3),
        "core.reconstruct_calls": calls("core.reconstruct"),
        "solvers.eval_share": eval_share,
        "core.subchain_build_ms": per_call("core.subchain_build", 1e3),
        "core.unfold_ms": per_call("core.unfold", 1e3),
        "solvers.self_ms_per_iter": ((iter_elapsed - in_iterations) / iterations * 1e3
                                     if iterations else 0.0),
        "solvers.iterations": iterations / n,
        "tensorfile.read_ms": timings["read_s"] * 1e3,
        "tensorfile.read_mb": timings["read_mb"],
        "trdecomp.import_s": timings["import_s"],
        "trace.overhead_s": solve_traced - solve_plain,
        "trace.overhead_share": (solve_traced - solve_plain) / solve_plain,
    }


def time_breakdown(tracer, traced) -> dict[str, float]:
    """Share of traced pass wall time per span name (self time), with the
    run loop's own time (evaluation arithmetic, Gram products, lstsq, core
    updates) under the run span's name."""
    from tracing import by_name

    wall = sum(r["wall_s"] for p in traced for r in p)
    return {k: v[1] / wall for k, v in sorted(by_name(tracer.spans).items(),
                                               key=lambda kv: -kv[1][1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    td, x, runs, timings = setup(args.src, args.input, workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, write_spans
        tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not untraced or (tracer and not traced):
        if tracer is not None and len(traced) < len(untraced):
            with tracer.installed(td):
                traced.append(run_pass(runs, x, td, tracer))
        else:
            untraced.append(run_pass(runs, x, td))

    out = summarize_passes(workload, untraced + traced)
    out["ready"] = ready
    out["passes"] = len(untraced)
    out["pass_s"] = [sum(r["wall_s"] for r in p) for p in untraced]
    out["solve_s"] = statistics.median(out["pass_s"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, traced, untraced, timings)
        out["breakdown"] = time_breakdown(tracer, traced)
        out["traced_passes"] = len(traced)
        out["spans"] = len(tracer.spans)
        if args.spans:
            write_spans(tracer.spans, args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
