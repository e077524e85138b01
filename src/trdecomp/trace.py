"""Run traces: per-evaluation (iteration, elapsed, rse) records plus CSV I/O.

Elapsed time counts iteration work only; the run's total RSE-evaluation time
is `eval_s`, `eval_every` is the evaluation cadence the run used, and
`chol_jitter` counts the Cholesky jitter fallbacks of its preconditioned
solves, `rank_deficient` TR-ALS's core updates whose subchain unfolding
was rank deficient, and `estimated` the records a dense solver took from
its own products of x rather than from `residual_norm` (each None when
unknown, as for a trace file that does not record it; `rank_deficient` is
None for every solver but TR-ALS, and `estimated` for the stochastic ones).

Trace files render floats with 17 significant digits so parsing them back
reproduces the exact float64 values.  The first line is a `#` comment carrying
run identity (algorithm, sampling, trial, terminal reason, and `diverged`,
which repeats whether the reason is "diverged" and is ignored when parsing)
and then `chol_jitter`, `rank_deficient`, `eval_every`, `eval_s` and, where
it is not None, `estimated`; the rest is plain CSV with header
`iteration,elapsed_s,rse`.  Parsing rejects a terminal reason outside
TERMINAL_REASONS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tensorfile import atomic_write_bytes

TERMINAL_REASONS = ("tol", "max_iters", "max_time", "diverged")
TRACE_HEADER = "iteration,elapsed_s,rse"


@dataclass
class RunTrace:
    algorithm: str
    sampling: str
    records: list[tuple[int, float, float]] = field(default_factory=list)
    terminal_reason: str | None = None
    trial: int = 0
    eval_every: int | None = None
    eval_s: float | None = None
    chol_jitter: int | None = None
    rank_deficient: int | None = None
    estimated: int | None = None

    @property
    def diverged(self) -> bool:
        """The run was stopped by a non-finite RSE or core."""
        return self.terminal_reason == "diverged"

    def final(self) -> tuple[int, float, float]:
        if not self.records:
            raise ValueError("empty trace")
        return self.records[-1]


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def trace_filename(algorithm: str, sampling: str, trial: int) -> str:
    return f"{algorithm}-{sampling}-t{trial}.csv"


def render_trace_csv(trace: RunTrace) -> str:
    meta = (
        f"# algorithm={trace.algorithm};sampling={trace.sampling};"
        f"trial={trace.trial};terminal_reason={trace.terminal_reason};"
        f"diverged={int(trace.diverged)};chol_jitter={trace.chol_jitter};"
        f"rank_deficient={trace.rank_deficient};"
        f"eval_every={trace.eval_every};"
        f"eval_s={None if trace.eval_s is None else fmt_float(trace.eval_s)}"
    )
    if trace.estimated is not None:
        meta += f";estimated={trace.estimated}"
    lines = [meta, TRACE_HEADER]
    for it, elapsed, rse in trace.records:
        lines.append(f"{it},{fmt_float(elapsed)},{fmt_float(rse)}")
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: RunTrace, path) -> None:
    atomic_write_bytes(path, render_trace_csv(trace).encode())


def parse_trace_csv(text: str) -> RunTrace:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = {}
    if lines and lines[0].startswith("#"):
        for part in lines.pop(0).lstrip("# ").split(";"):
            key, _, val = part.partition("=")
            meta[key.strip()] = val.strip()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"bad trace header, expected {TRACE_HEADER!r}")
    records = []
    for ln in lines[1:]:
        it, elapsed, rse = ln.split(",")
        records.append((int(it), float(elapsed), float(rse)))
    reason = _optional(meta, "terminal_reason", str)
    if reason is not None and reason not in TERMINAL_REASONS:
        raise ValueError(f"unknown terminal_reason {reason!r}; "
                         f"expected one of {', '.join(TERMINAL_REASONS)}")
    return RunTrace(
        algorithm=meta.get("algorithm", ""),
        sampling=meta.get("sampling", ""),
        records=records,
        terminal_reason=reason,
        trial=int(meta.get("trial", "0")),
        eval_every=_optional(meta, "eval_every", int),
        eval_s=_optional(meta, "eval_s", float),
        chol_jitter=_optional(meta, "chol_jitter", int),
        rank_deficient=_optional(meta, "rank_deficient", int),
        estimated=_optional(meta, "estimated", int),
    )


def _optional(meta: dict, key: str, kind):
    """A metadata value read by `kind`; None when absent or written as None."""
    value = meta.get(key)
    return None if value in (None, "None") else kind(value)


def read_trace_csv(path) -> RunTrace:
    with open(path, encoding="utf-8") as f:
        return parse_trace_csv(f.read())
