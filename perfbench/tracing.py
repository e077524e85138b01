"""Outside-in tracing of trdecomp: spans around the public functions that
`solvers` and `sampling` call into.

The tracer replaces those names in the two modules' namespaces while it is
installed and puts the originals back afterwards; nothing in the package
changes. A call made from inside `core` (say, `subchain_unfolding` calling
`mode_n_unfolding`) is not a separate span: spans mark the calls that cross
from `solvers` or `sampling` into another layer.

Each span is (name, start, end, parent index, run id). Spans are kept in
memory and written out at the end by `write_spans`.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name)
SPAN_POINTS = (
    ("solvers", "sample_subchain_fibers", "sampling.draw"),
    ("solvers", "core_distributions", "sampling.dist"),
    ("solvers", "stochastic_gradient", "solvers.grad"),
    ("solvers", "stochastic_hessian", "solvers.hess"),
    ("solvers", "search_direction", "solvers.direction"),
    ("solvers", "tr_reconstruct", "core.reconstruct"),
    ("solvers", "subchain_tensor", "core.subchain_build"),
    ("solvers", "subchain_unfolding", "core.subchain_build"),
    ("solvers", "mode_n_unfolding", "core.unfold"),
    ("sampling", "slices_hadamard", "core.slices_hadamard"),
    ("sampling", "check_prob_vector", "sampling.check_prob"),
)
RUN_SPAN = "solvers.run"
# Spans the run loop makes outside `do_iteration`, i.e. RSE evaluation.
EVAL_SPANS = {"core.reconstruct"}

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._run_id = -1
        self._dist_seen: dict[int, object] = {}

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._run_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def run(self):
        """Span one solver call; spans opened inside it share its run id."""
        self._run_id += 1
        self._dist_seen = {}
        span = self._open(RUN_SPAN)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, on_call=None):
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def _on_draw(self, cores, x, mode, batch_size, *args, **kwargs):
        self.counts["sampling.rows_drawn"] += batch_size

    def _on_dist(self, cores, mode, kind):
        # A per-core distribution is useful work when its core is a new array
        # since that core's last distribution; the solvers replace a core's
        # array on every update and never write into it.
        for k, core in enumerate(cores):
            if k == mode:
                continue
            self.counts["sampling.dist_cores_computed"] += 1
            if self._dist_seen.get(k) is not core:
                self.counts["sampling.dist_useful"] += 1
            self._dist_seen[k] = core

    def _counting_cho_factor(self, cho_factor):
        import numpy as np

        def counted(*args, **kwargs):
            try:
                return cho_factor(*args, **kwargs)
            except np.linalg.LinAlgError:
                self.counts["solvers.chol_retries"] += 1
                raise
        return counted

    @contextmanager
    def installed(self, td):
        """Patch the span points of package `td` for the duration."""
        import scipy.linalg

        modules = {"solvers": td.solvers, "sampling": td.sampling}
        hooks = {"sampling.draw": self._on_draw, "sampling.dist": self._on_dist}
        saved = []
        try:
            for mod_name, attr, name in SPAN_POINTS:
                mod = modules[mod_name]
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), hooks.get(name)))
            saved.append((scipy.linalg, "cho_factor", scipy.linalg.cho_factor))
            scipy.linalg.cho_factor = self._counting_cho_factor(scipy.linalg.cho_factor)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def iteration_span_time(spans) -> dict[int, float]:
    """Per run id, the time of its top-level spans that were not evaluation,
    i.e. the spans inside `do_iteration`."""
    out: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None and spans[s[PARENT]][NAME] == RUN_SPAN and s[NAME] not in EVAL_SPANS:
            out[s[RUN]] += s[END] - s[START]
    return out


def by_name(spans) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self seconds)."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s, t in zip(spans, self_times(spans)):
        out[s[NAME]][0] += 1
        out[s[NAME]][1] += t
    return {k: (v[0], v[1]) for k, v in out.items()}


def write_spans(spans, path) -> None:
    with gzip.open(path, "wt", newline="") as f:
        w = csv.writer(f)
        w.writerow(["name", "start_s", "end_s", "parent", "run"])
        t0 = spans[0][START] if spans else 0.0
        for s in spans:
            w.writerow([s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                        "" if s[PARENT] is None else s[PARENT], s[RUN]])
