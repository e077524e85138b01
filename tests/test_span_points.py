"""The benchmark's tracer (perfbench/tracing.py) patches names in
`trdecomp.solvers` and `trdecomp.sampling` by getattr; every one of them must
keep resolving, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
from pathlib import Path

from trdecomp import sampling, solvers

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _span_points():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_POINTS


def test_every_span_point_resolves():
    modules = {"solvers": solvers, "sampling": sampling}
    missing = [f"{mod}.{attr}" for mod, attr, _name in _span_points()
               if not callable(getattr(modules[mod], attr, None))]
    assert missing == []
