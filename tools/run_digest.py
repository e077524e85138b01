"""Print one SHA-256 digest per solver run: its trace CSV and final cores.

One line per entry of `LINES`, in its order: a run under a counting clock
(the exception's name if it raises), or the digest of an input tensor.  Two
source trees behave identically on these runs when their outputs are equal:

    PYTHONPATH=OLD/src python tools/run_digest.py > old.txt
    PYTHONPATH=NEW/src python tools/run_digest.py > new.txt
    diff old.txt new.txt

With --rse each run prints, in place of its digest, its terminal reason, its
stop iteration, a digest of its final cores, its trace's counters
(`chol_jitter=`, `rank_deficient=` and `estimated=`, None where the solver
keeps none) and the repr of every RSE in its trace, so a change that moves
roundoff can be sized run by run.  Pin OPENBLAS_NUM_THREADS for both runs:
results are bitwise only per BLAS build and thread count.  `--drift OLD NEW`
then reads two such outputs and prints, for each run whose line moved,
whether its stop, record count and terminal reason are the same, whether
its counters are (each one that moved, old -> new), its final RSE and that
RSE's relative move, c = the move times the RSE over eps (the move in units
of eps), and the largest relative move over the records above 1e-9:

    PYTHONPATH=src python tools/run_digest.py --drift old_rse.txt new_rse.txt

The output at one thread is committed as `tools/digests/<build_key()>.txt`,
keyed by the numpy version, the BLAS build and the kernel it chose for this
CPU, and tests/test_run_digest.py compares a fresh run with it.  A change
that moves roundoff regenerates it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/run_digest.py > "$(
        PYTHONPATH=src:tools python -c 'import run_digest; print(run_digest.golden_path())')"
"""

import argparse
import ctypes
import functools
import glob
import hashlib
import os
import sys
from collections import namedtuple

import numpy as np

from trdecomp import (AdaGradStep, ConstantStep, RobbinsMonroStep, SamplingSpec, SolverConfig,
                      SynthSpec, synth_tensor, tr_als, tr_brsgd, tr_gd, tr_scaled_brsgd,
                      tr_scaled_gd)
from trdecomp.sampling import SAMPLING_KINDS
from trdecomp.trace import render_trace_csv

SEEDS = (2, 3, 5)
# (solver, constant step, sampling kinds): the dense solvers draw nothing
SOLVERS = {
    "tr-als": (tr_als, 1.0, ("uniform",)),
    "tr-gd": (tr_gd, 1e-3, ("uniform",)),
    "tr-scaled-gd": (tr_scaled_gd, 0.3, ("uniform",)),
    "tr-brsgd": (tr_brsgd, 0.1, SAMPLING_KINDS),
    "tr-scaled-brsgd": (tr_scaled_brsgd, 0.3, SAMPLING_KINDS),
}
# a line that prints run_line(label, solve, tensor(spec), ranks, ..., seed, rse, **settings)
Run = namedtuple("Run", "label spec solve ranks step damping kind seed settings")
# a line that prints the digest of tensor(spec)'s entries
Input = namedtuple("Input", "label spec")


@functools.cache
def tensor(spec: SynthSpec) -> np.ndarray:
    """The data tensor of `spec`, built once however many lines read it."""
    return synth_tensor(spec)[0]


def _run(named, solver, seed, *words, kind="uniform", step=None, ranks=None, damping=1e-8,
         **settings) -> Run:
    """`solver` on the (name, spec) tensor `named`, labelled "name solver *words
    seed=seed", at the solver's constant step and the tensor's own ranks unless
    given."""
    (name, spec), (solve, alpha, _) = named, SOLVERS[solver]
    return Run(" ".join((name, solver, *words, f"seed={seed}")), spec, solve,
               ranks or (spec.rank,) * spec.order, step or ConstantStep(alpha), damping, kind,
               seed, settings)


def _lines() -> list:
    k1e4 = ("order3-k1e4", SynthSpec(order=3, dim=12, rank=3, kind="ill_conditioned",
                                     kappa=1e4, seed=2))
    order4 = ("order4", SynthSpec(order=4, dim=6, rank=2, seed=3))
    singular = ("order2-singular", SynthSpec(order=2, dim=3, rank=1, seed=10))
    order2 = ("order2", SynthSpec(order=2, dim=10, rank=2, seed=4))
    return [
        # every solver and sampling kind, 200 iterations at a constant step
        *(_run(named, solver, seed, kind, kind=kind) for named in (k1e4, order4)
          for solver, (_, _, kinds) in SOLVERS.items() for kind in kinds for seed in SEEDS),
        # stops as diverged: an overflowing step; no Cholesky factor at damping 0
        *(_run(named, solver, seed, f"alpha={alpha} damping={damping}",
               step=ConstantStep(alpha), ranks=ranks, damping=damping)
          for named, ranks, solver, alpha, damping in (
              (k1e4, None, "tr-gd", 0.1, 1e-8), (singular, (3, 3), "tr-scaled-gd", 0.3, 0.0))
          for seed in SEEDS),
        # order 2: each sampled row is a single core slice, with no slice product
        *(_run(order2, solver, seed, kind, kind=kind) for solver in ("tr-brsgd", "tr-scaled-brsgd")
          for kind in SAMPLING_KINDS for seed in SEEDS),
        # the tensors the runs above read
        *(Input(f"input {name}", spec) for name, spec in (k1e4, order4, singular, order2)),
        # the default cadence: ceil(9/N) when dense, the sampled time model else
        *(_run(order4, solver, seed, kind, "eval_every=None", kind=kind, eval_every=None)
          for solver, kind in (("tr-als", "uniform"), ("tr-scaled-gd", "uniform"),
                               ("tr-scaled-brsgd", "uniform"), ("tr-scaled-brsgd", "leverage"))
          for seed in SEEDS),
        # perfbench's order4-defaults solver block, at the model's cadence k = 25
        *(_run(("order4-30", SynthSpec(order=4, dim=30, rank=3, seed=2)), "tr-scaled-brsgd",
               seed, kind, "eval_every=None", kind=kind, eval_every=None,
               batches=(100, 300), init_scale=0.3, max_iters=75)
          for kind in ("uniform", "leverage") for seed in SEEDS),
        # every core update rank deficient
        *(_run(singular, "tr-als", seed, "ranks=(3, 3)", ranks=(3, 3), max_iters=20)
          for seed in SEEDS),
        # the step schedules other than a constant step
        *(_run(k1e4, solver, seed, "uniform", repr(step), step=step)
          for solver, alpha0 in (("tr-gd", 1e-3), ("tr-scaled-brsgd", 1.0))
          for step in (AdaGradStep(0.05), AdaGradStep(0.05, b=0.01, eps=0.05),
                       RobbinsMonroStep(alpha0, gamma=0.75))
          for seed in SEEDS),
        # TR-ALS sweeps that update two cores, then three, and end above the float64 floor
        _run(("order5", SynthSpec(order=5, dim=4, rank=3, seed=6)), "tr-als", 2,
             "ranks=(2, 2, 2, 2, 2)", ranks=(2,) * 5, eval_every=5, max_iters=30),
        # a (50, 2500) half-chain view over four slabs of `core.SLAB_BYTES`
        *(_run(("order3-50", SynthSpec(order=3, dim=50, rank=3, seed=7)), solver, seed,
               step=ConstantStep(alpha), eval_every=1, max_iters=iters)
          for solver, alpha, iters in (("tr-scaled-gd", 0.5, 30), ("tr-als", 1.0, 12))
          for seed in SEEDS),
    ]


# every line the script prints, in print order
LINES = _lines()


def _openblas_core() -> str:
    """The kernel numpy's OpenBLAS picked for this CPU, or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def build_key() -> str:
    """What the committed digests are bitwise for: numpy, its BLAS build and
    kernel, and one BLAS thread."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"numpy-{np.__version__}_{blas['name']}-{blas['version']}-{_openblas_core()}"
            "_threads-1")


def golden_path() -> str:
    """The committed one-thread output for this build."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests",
                        build_key() + ".txt")


def counting_clock():
    state = [0.0]

    def clock():
        state[0] += 1.0
        return state[0]

    return clock


def run_line(label, solve, x, ranks, schedule, damping, kind, seed, rse=False,
             eval_every=20, batches=(20, 40), init_scale=0.5, max_iters=200) -> str:
    cfg = SolverConfig(ranks=ranks, schedule=schedule, batch_grad=batches[0],
                       batch_hess=batches[1], damping=damping, sampling=SamplingSpec(kind),
                       max_iters=max_iters, eval_every=eval_every, seed=seed,
                       init_scale=init_scale)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            cores, trace = solve(x, cfg, clock=counting_clock())
    except Exception as exc:  # an older tree may raise where this one stops the run
        return f"{label} raised {type(exc).__name__}"
    cores_bytes = b"".join(core.tobytes() for core in cores)
    if rse:
        counters = " ".join(f"{name}={getattr(trace, name)}"
                            for name in ("chol_jitter", "rank_deficient", "estimated"))
        rses = " ".join(repr(r[2]) for r in trace.records)
        return (f"{label} {trace.terminal_reason} {trace.final()[0]} "
                f"{hashlib.sha256(cores_bytes).hexdigest()} {counters} {rses}")
    digest = hashlib.sha256(render_trace_csv(trace).encode() + cores_bytes)
    return f"{label} {trace.terminal_reason} {digest.hexdigest()}"


def parse_rse_line(line: str):
    """(label, (reason, stop, counters, rses)) for a --rse line of a run,
    counters a dict of the `name=value` words after its cores digest (an int,
    or None), or (line, None) for any other line (an input digest, a run that
    raised)."""
    words = line.split(" ")
    for i in range(2, len(words)):
        if len(words[i]) == 64 and words[i - 1].isdigit():
            rest = words[i + 1:]
            counters = {name: None if value == "None" else int(value)
                        for name, _, value in (w.partition("=") for w in rest if "=" in w)}
            return " ".join(words[:i - 2]), (words[i - 2], int(words[i - 1]), counters,
                                              [float(r) for r in rest[len(counters):]])
    return line, None


def drift_lines(old_lines, new_lines, floor=1e-9) -> list[str]:
    """One line per run of `new_lines` whose --rse line differs from its line
    in `old_lines`, matched by label; a line with no match in the other file
    (a run that raised in one, or any line that is not a run's) is reported
    as added or gone."""
    eps = np.finfo(np.float64).eps
    old = {parse_rse_line(line)[0]: line for line in old_lines}
    new = {parse_rse_line(line)[0]: line for line in new_lines}
    out = [f"{label}: gone" for label in old if label not in new]
    for label, line in new.items():
        if label not in old:
            out.append(f"{label}: added")
            continue
        if line == old[label]:
            continue
        (reason0, stop0, counters0, rses0), (reason, stop, counters, rses) = (
            parse_rse_line(old[label])[1], parse_rse_line(line)[1])
        same = (reason0, stop0, len(rses0)) == (reason, stop, len(rses))
        counter_moves = ", ".join(f"{name} {counters0.get(name)} -> {counters.get(name)}"
                                  for name in {**counters0, **counters}
                                  if counters0.get(name) != counters.get(name))
        moves = [abs(b - a) / a for a, b in zip(rses0, rses) if a > floor and b > floor]
        move = (rses[-1] - rses0[-1]) / rses0[-1]
        out.append(f"{label}: stop, records, reason "
                   f"{'same' if same else f'differ ({stop0}, {len(rses0)}, {reason0})'}; "
                   f"counters {f'differ ({counter_moves})' if counter_moves else 'same'}; "
                   f"final {rses[-1]!r} move {move:+.3g} c {abs(move) * rses0[-1] / eps:.3g}; "
                   f"largest move above {floor:g} {max(moves, default=0.0):.3g}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rse", action="store_true",
                        help="print each run's stop, cores digest and trace RSEs")
    parser.add_argument("--drift", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --rse outputs: the runs that moved, and by how much")
    args = parser.parse_args()
    if args.drift:
        with open(args.drift[0]) as old, open(args.drift[1]) as new:
            for line in drift_lines(old.read().splitlines(), new.read().splitlines()):
                print(line)
        return 0
    for entry in LINES:
        if isinstance(entry, Input):
            # C-order bytes: the digest reads the entries, not the memory layout
            print(f"{entry.label} {hashlib.sha256(tensor(entry.spec).tobytes()).hexdigest()}")
        else:
            print(run_line(entry.label, entry.solve, tensor(entry.spec), entry.ranks, entry.step,
                           entry.damping, entry.kind, entry.seed, args.rse, **entry.settings))
    return 0


if __name__ == "__main__":
    sys.exit(main())
