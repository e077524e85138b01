"""Run traces: per-evaluation (iteration, elapsed, rse) records plus CSV I/O.

Trace files render floats with 17 significant digits so parsing them back
reproduces the exact float64 values.  The first line is a `#` comment carrying
run identity (algorithm, sampling, trial, terminal reason, and `diverged`,
which repeats whether the reason is "diverged" and is ignored when parsing);
the rest is plain CSV with header `iteration,elapsed_s,rse`.
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
        f"diverged={int(trace.diverged)}"
    )
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
    reason = meta.get("terminal_reason")
    return RunTrace(
        algorithm=meta.get("algorithm", ""),
        sampling=meta.get("sampling", ""),
        records=records,
        terminal_reason=None if reason in (None, "None") else reason,
        trial=int(meta.get("trial", "0")),
    )


def read_trace_csv(path) -> RunTrace:
    with open(path, encoding="utf-8") as f:
        return parse_trace_csv(f.read())
