"""Print one SHA-256 digest per solver run: its trace CSV and final cores.

Every solver runs at seeds 2, 3 and 5 under a counting clock, the stochastic
ones with each of the four sampling kinds (`optimal` included), on an
ill-conditioned order-3 tensor and a Gaussian order-4 tensor.  Then come runs
that stop as diverged: TR-GD at a step that overflows, and TR-ScaledGD at
damping 0 on ranks the data cannot support, whose Gram factors have no
Cholesky factor.  Then come the stochastic solvers on an order-2 tensor,
whose sampled rows are single core slices with no slice product, and one
digest per input tensor.  Then come TR-ALS, TR-ScaledGD and TR-ScaledBRSGD
(uniform and leverage) on the order-4 tensor at the default evaluation
cadence: the dense rule ceil(9/N) for TR-ALS and TR-ScaledGD, the sampled
time model for TR-ScaledBRSGD; the trace's header carries that cadence.  The
last lines run TR-ScaledBRSGD (uniform and leverage) on a 30^4 tensor with
the solver block of perfbench's order4-defaults workload, also at the
model's cadence, which is k = 25 there.  After them TR-ALS runs 20 sweeps
at ranks (3, 3) on the order-2 tensor that cannot support them, so each of
its core updates is rank deficient and its trace's count is pinned.  Last, TR-GD and
TR-ScaledBRSGD (uniform) run on the order-3 tensor under the step schedules
the runs above leave out: AdaGrad without and with b and eps, and
Robbins-Monro.  The last line runs TR-ALS on an order-5 tensor at ranks
below its own, so that a sweep updates two cores and then three and ends
above the float64 floor.  After it TR-ScaledGD and TR-ALS run on an order-3
dim-50 Gaussian, evaluated every iteration: its (50, 2500) view at the
half-chain cut spans four column slabs of `core.SLAB_BYTES`, where every
tensor above fits in one.  A run that raises prints the exception's name
instead of a digest.  Two source trees behave identically on these runs when
their outputs are equal:

    PYTHONPATH=OLD/src python tools/run_digest.py > old.txt
    PYTHONPATH=NEW/src python tools/run_digest.py > new.txt
    diff old.txt new.txt

With --rse each run prints, in place of its digest, its terminal reason, its
stop iteration, a digest of its final cores and the repr of every RSE in its
trace, so a change that moves roundoff can be sized run by run.  Pin
OPENBLAS_NUM_THREADS for both runs: results are bitwise only per BLAS build
and thread count.  `--drift OLD NEW` then reads two such outputs and prints,
for each run whose line moved, whether its stop, record count and terminal
reason are the same, its final RSE and that RSE's relative move, c = the
move times the RSE over eps (the move in units of eps), and the largest
relative move over the records above 1e-9:

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
import glob
import hashlib
import os
import sys

import numpy as np

from trdecomp import (AdaGradStep, ConstantStep, RobbinsMonroStep, SamplingSpec, SolverConfig,
                      SynthSpec, synth_tensor, tr_als, tr_brsgd, tr_gd, tr_scaled_brsgd,
                      tr_scaled_gd)
from trdecomp.sampling import SAMPLING_KINDS
from trdecomp.trace import render_trace_csv

SEEDS = (2, 3, 5)
ITERS = 200
TENSORS = {
    "order3-k1e4": SynthSpec(order=3, dim=12, rank=3, kind="ill_conditioned",
                             kappa=1e4, seed=2),
    "order4": SynthSpec(order=4, dim=6, rank=2, seed=3),
}
# (solver, step, sampling kinds): the dense solvers draw nothing
SOLVERS = {
    "tr-als": (tr_als, 1.0, ("uniform",)),
    "tr-gd": (tr_gd, 1e-3, ("uniform",)),
    "tr-scaled-gd": (tr_scaled_gd, 0.3, ("uniform",)),
    "tr-brsgd": (tr_brsgd, 0.1, SAMPLING_KINDS),
    "tr-scaled-brsgd": (tr_scaled_brsgd, 0.3, SAMPLING_KINDS),
}
# (tensor name, tensor, ranks, solver name, solver, step, damping), printed
# after the runs above so that older trees still diff line for line
DIVERGING = [
    ("order3-k1e4", TENSORS["order3-k1e4"], (3, 3, 3), "tr-gd", tr_gd, 0.1, 1e-8),
    ("order2-singular", SynthSpec(order=2, dim=3, rank=1, seed=10), (3, 3),
     "tr-scaled-gd", tr_scaled_gd, 0.3, 0.0),
]
# the stochastic solvers on it are printed next, likewise
ORDER2 = SynthSpec(order=2, dim=10, rank=2, seed=4)
# (solver name, sampling kind) run on the order-4 tensor at the default
# evaluation cadence (eval_every=None), printed after the input digests
DEFAULT_CADENCE = [("tr-als", "uniform"), ("tr-scaled-gd", "uniform"),
                   ("tr-scaled-brsgd", "uniform"), ("tr-scaled-brsgd", "leverage")]
# order4-defaults' tensor (synth seed 2), run last with its solver block
ORDER4_DEFAULTS = SynthSpec(order=4, dim=30, rank=3, seed=2)
# TR-ALS on DIVERGING's order2-singular tensor, run after order4-defaults:
# (ranks, sweeps)
ALS_RANK_DEFICIENT = ((3, 3), 20)
# (solver name, schedules) run on the order3-k1e4 tensor with uniform
# sampling after everything else; every run above takes a constant step
SCHEDULES = [
    ("tr-gd", (AdaGradStep(0.05), AdaGradStep(0.05, b=0.01, eps=0.05),
               RobbinsMonroStep(1e-3, gamma=0.75))),
    ("tr-scaled-brsgd", (AdaGradStep(0.05), AdaGradStep(0.05, b=0.01, eps=0.05),
                         RobbinsMonroStep(1.0, gamma=0.75))),
]
# TR-ALS on an order-5 tensor, run last: (tensor, ranks, sweeps, seed)
ALS_ORDER5 = (SynthSpec(order=5, dim=4, rank=3, seed=6), (2, 2, 2, 2, 2), 30, 2)
# run after it on a tensor of several slabs, evaluated every iteration:
# (tensor, [(solver name, step, iterations)]); each run ends above RSE 1e-9
MULTI_SLAB = (SynthSpec(order=3, dim=50, rank=3, seed=7),
              [("tr-scaled-gd", 0.5, 30), ("tr-als", 1.0, 12)])


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
             eval_every=20, batches=(20, 40), init_scale=0.5, max_iters=ITERS) -> str:
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
        rses = " ".join(repr(r[2]) for r in trace.records)
        return (f"{label} {trace.terminal_reason} {trace.final()[0]} "
                f"{hashlib.sha256(cores_bytes).hexdigest()} {rses}")
    digest = hashlib.sha256(render_trace_csv(trace).encode() + cores_bytes)
    return f"{label} {trace.terminal_reason} {digest.hexdigest()}"


def parse_rse_line(line: str):
    """(label, (reason, stop, rses)) for a --rse line of a run, or (line, None)
    for any other line (an input digest, a run that raised)."""
    words = line.split(" ")
    for i in range(2, len(words)):
        if len(words[i]) == 64 and words[i - 1].isdigit():
            return " ".join(words[:i - 2]), (words[i - 2], int(words[i - 1]),
                                              [float(r) for r in words[i + 1:]])
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
        (reason0, stop0, rses0), (reason, stop, rses) = (parse_rse_line(old[label])[1],
                                                         parse_rse_line(line)[1])
        same = (reason0, stop0, len(rses0)) == (reason, stop, len(rses))
        moves = [abs(b - a) / a for a, b in zip(rses0, rses) if a > floor and b > floor]
        move = (rses[-1] - rses0[-1]) / rses0[-1]
        out.append(f"{label}: stop, records, reason "
                   f"{'same' if same else f'differ ({stop0}, {len(rses0)}, {reason0})'}; "
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
        old_path, new_path = args.drift
        with open(old_path) as old, open(new_path) as new:
            lines = drift_lines(old.read().splitlines(), new.read().splitlines())
        for line in lines:
            print(line)
        return 0
    rse = args.rse
    inputs = {}
    for tensor_name, spec in TENSORS.items():
        x, _ = synth_tensor(spec)
        inputs[tensor_name] = x
        ranks = (spec.rank,) * spec.order
        for name, (solve, alpha, kinds) in SOLVERS.items():
            for kind in kinds:
                for seed in SEEDS:
                    print(run_line(f"{tensor_name} {name} {kind} seed={seed}", solve, x,
                                   ranks, ConstantStep(alpha), 1e-8, kind, seed, rse))
    for tensor_name, spec, ranks, name, solve, alpha, damping in DIVERGING:
        x, _ = synth_tensor(spec)
        inputs[tensor_name] = x
        for seed in SEEDS:
            print(run_line(f"{tensor_name} {name} alpha={alpha} damping={damping} "
                           f"seed={seed}", solve, x, ranks, ConstantStep(alpha), damping,
                           "uniform", seed, rse))
    x, _ = synth_tensor(ORDER2)
    inputs["order2"] = x
    for name in ("tr-brsgd", "tr-scaled-brsgd"):
        solve, alpha, kinds = SOLVERS[name]
        for kind in kinds:
            for seed in SEEDS:
                print(run_line(f"order2 {name} {kind} seed={seed}", solve, x,
                               (ORDER2.rank,) * ORDER2.order, ConstantStep(alpha), 1e-8, kind,
                               seed, rse))
    # C-order bytes: the digest reads the entries, not the memory layout
    for tensor_name, x in inputs.items():
        print(f"input {tensor_name} {hashlib.sha256(np.asarray(x).tobytes()).hexdigest()}")
    spec = TENSORS["order4"]
    for name, kind in DEFAULT_CADENCE:
        solve, alpha, _kinds = SOLVERS[name]
        for seed in SEEDS:
            print(run_line(f"order4 {name} {kind} eval_every=None seed={seed}", solve,
                           inputs["order4"], (spec.rank,) * spec.order, ConstantStep(alpha),
                           1e-8, kind, seed, rse, eval_every=None))
    x, _ = synth_tensor(ORDER4_DEFAULTS)
    for kind in ("uniform", "leverage"):
        for seed in SEEDS:
            print(run_line(f"order4-30 tr-scaled-brsgd {kind} eval_every=None seed={seed}",
                           tr_scaled_brsgd, x, (ORDER4_DEFAULTS.rank,) * ORDER4_DEFAULTS.order,
                           ConstantStep(0.3), 1e-8, kind, seed, rse,
                           eval_every=None, batches=(100, 300), init_scale=0.3,
                           max_iters=75))
    ranks, sweeps = ALS_RANK_DEFICIENT
    for seed in SEEDS:
        print(run_line(f"order2-singular tr-als ranks={ranks} seed={seed}", tr_als,
                       inputs["order2-singular"], ranks, ConstantStep(1.0), 1e-8, "uniform",
                       seed, rse, max_iters=sweeps))
    spec = TENSORS["order3-k1e4"]
    for name, schedules in SCHEDULES:
        solve = SOLVERS[name][0]
        for schedule in schedules:
            for seed in SEEDS:
                print(run_line(f"order3-k1e4 {name} uniform {schedule!r} seed={seed}", solve,
                               inputs["order3-k1e4"], (spec.rank,) * spec.order, schedule,
                               1e-8, "uniform", seed, rse))
    spec, ranks, sweeps, seed = ALS_ORDER5
    x, _ = synth_tensor(spec)
    print(run_line(f"order5 tr-als ranks={ranks} seed={seed}", tr_als, x, ranks,
                   ConstantStep(1.0), 1e-8, "uniform", seed, rse, eval_every=5,
                   max_iters=sweeps))
    spec, runs = MULTI_SLAB
    x, _ = synth_tensor(spec)
    for name, alpha, iters in runs:
        for seed in SEEDS:
            print(run_line(f"order3-50 {name} seed={seed}", SOLVERS[name][0], x,
                           (spec.rank,) * spec.order, ConstantStep(alpha), 1e-8, "uniform",
                           seed, rse, eval_every=1, max_iters=iters))
    return 0


if __name__ == "__main__":
    sys.exit(main())
