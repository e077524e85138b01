"""Run two source trees' perfbench in alternating pairs and summarise them.

    python tools/bench_pairs.py --parent OLD --change NEW --out pairs.json
    python tools/bench_pairs.py --parent OLD --change NEW --workload dense-1m \\
        --pairs 10 --seconds 25 --seed 2 --out pairs.json

For each workload (by default every one in the change tree's
BENCHMARK.json) each pair runs `perfbench/run.py --workload W` once in each
tree, each tree's own script from its own root, unchanged.  Which tree runs
first alternates: the parent in odd pairs, the change in even ones, so a
drift of the host's speed during the session falls on both sides alike.

The output JSON holds, per workload, every run's end-to-end metrics,
`correct`, `attempted` and `failed`, and a summary per metric: both sides'
median, quartiles, min and max, the pairs in which the change did better
(by the metric's `better` direction in BENCHMARK.json), the relative change
of the median, the parent's interquartile range, whether the medians
differ by more than it, and whether that establishes a gain.  It also
holds the environment that perfbench reports for the workload.  A run that
exits nonzero counts as not correct, with no metrics.  Settings left unset
are perfbench's own defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# the fewest alternating pairs a gain may be claimed from
MIN_PAIRS = 10


def _stats(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values) if values else None, "q1": q1, "q3": q3,
            "min": min(values, default=None), "max": max(values, default=None),
            "n": len(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Summary of one workload's `runs`: each a dict with `pair`, `side`
    ("parent" or "change"), `correct`, `failed` and a value per metric
    name.  `metrics` are BENCHMARK.json's end-to-end entries (`name`,
    `better`).  A change wins a pair on a metric where both sides have a
    value and the change's is better.  `gain_established` is the rule for
    claiming a gain: at least MIN_PAIRS pairs were run, the change won at
    least nine tenths of them (ties, and pairs where a side has no value,
    count for neither), and its median is better than the parent's by more
    than the parent's interquartile range."""
    out = {}
    run_pairs = len({r["pair"] for r in runs})
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        sides = {side: {r["pair"]: r[name] for r in runs
                        if r["side"] == side and r.get(name) is not None}
                 for side in ("parent", "change")}
        parent, change = (_stats(list(sides[s].values())) for s in ("parent", "change"))
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        wins = sum(sign * (sides["change"][p] - sides["parent"][p]) < 0 for p in pairs)
        entry = {"parent": parent, "change": change, "change_better_in": f"{wins}/{len(pairs)}"}
        gain = False
        if parent["n"] and change["n"]:
            gap = change["median"] - parent["median"]
            iqr = parent["q3"] - parent["q1"]
            entry.update(median_change_rel=gap / parent["median"], parent_iqr=iqr,
                         median_gap_exceeds_parent_iqr=abs(gap) > iqr)
            gain = run_pairs >= MIN_PAIRS and wins >= 0.9 * run_pairs and sign * gap < -iqr
        entry["gain_established"] = gain
        out[name] = entry
    return {"summary": out,
            "every_run_correct": all(r["correct"] for r in runs),
            "failed_runs": sum(r["failed"] for r in runs)}


def run_perfbench(tree: str, workload: str, seconds, seed) -> tuple[dict, dict | None]:
    """One `perfbench/run.py` run in `tree`: its last-line JSON result and
    the environment it printed, or a failure record."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "attempted": 0, "failed": 0,
                "error": (proc.stderr or proc.stdout)[-2000:]}, None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    run = {k: result[k] for k in ("correct", "attempted", "failed")}
    run.update({name: m["value"] for name, m in result["metrics"].items()})
    return run, env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent source tree")
    ap.add_argument("--change", required=True, help="root of the changed source tree")
    ap.add_argument("--workload", action="append",
                    help="a workload to run (repeatable; default: all in BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="perfbench's --seconds (default its own)")
    ap.add_argument("--seed", type=int, help="perfbench's --seed (default its own)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    out = {"settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed},
           "trees": {side: os.path.basename(path) for side, path in trees.items()},
           "workloads": {}}
    for workload in workloads:
        runs, first_env = [], None
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                run, env = run_perfbench(trees[side], workload, args.seconds, args.seed)
                first_env = first_env or env
                runs.append({"pair": pair, "side": side, **run})
                print(f"{workload} pair {pair} {side}: "
                      + " ".join(f"{m['name']}={run.get(m['name'])}" for m in bench["end_to_end"])
                      + f" correct={run['correct']} failed={run['failed']}", flush=True)
        out["workloads"][workload] = {**summarize(runs, bench["end_to_end"]), "env": first_env,
                                      "runs": runs}
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    return 0 if all(w["every_run_correct"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
