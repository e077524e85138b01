"""The benchmark's tracer (perfbench/tracing.py) patches names in
`trdecomp.solvers` and `trdecomp.sampling` by getattr; every one of them must
keep resolving, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
from pathlib import Path

import pytest

from trdecomp import sampling, solvers
from trdecomp.datagen import SynthSpec, synth_tensor

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


# The dense-1m per-layer trace spans these names in `solvers`; a refactor
# that stops calling one through that module zeroes its metric silently.
DENSE_PATH_NAMES = ("subchain_tensor", "subchain_unfolding", "unfolding_matmul",
                    "residual_norm")


@pytest.mark.parametrize("solve", [solvers.tr_als, solvers.tr_scaled_gd],
                         ids=["tr_als", "tr_scaled_gd"])
def test_dense_solvers_call_through_the_spanned_names(solve, monkeypatch):
    calls = dict.fromkeys(DENSE_PATH_NAMES, 0)
    for name in DENSE_PATH_NAMES:
        def spy(*args, _name=name, _original=getattr(solvers, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(solvers, name, spy)
    x, _ = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=1))
    solve(x, solvers.SolverConfig(ranks=(2, 2, 2), max_iters=1, seed=0))
    assert [name for name, n in calls.items() if n == 0] == []


# The stochastic workloads' per-layer traces span these; the tracer reads the
# drawn row count as the sampler's fourth positional argument.
STOCHASTIC_PATH_NAMES = ("sample_subchain_fibers", "stochastic_gradient",
                         "stochastic_hessian", "search_direction")


@pytest.mark.parametrize("scaled", [False, True], ids=["tr_brsgd", "tr_scaled_brsgd"])
def test_stochastic_solvers_call_through_the_spanned_names(scaled, monkeypatch):
    calls = {name: [] for name in STOCHASTIC_PATH_NAMES}
    for name in STOCHASTIC_PATH_NAMES:
        def spy(*args, _name=name, _original=getattr(solvers, name), **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(solvers, name, spy)
    x, _ = synth_tensor(SynthSpec(order=3, dim=6, rank=2, seed=1))
    cfg = solvers.SolverConfig(ranks=(2, 2, 2), batch_grad=5, batch_hess=7, damping=1e-8,
                               max_iters=3, seed=0)
    solve = solvers.tr_scaled_brsgd if scaled else solvers.tr_brsgd
    solve(x, cfg)
    assert [args[3] for args in calls["sample_subchain_fibers"]] == [12 if scaled else 5] * 3
    assert len(calls["stochastic_gradient"]) == 3
    assert len(calls["stochastic_hessian"]) == len(calls["search_direction"]) == (3 if scaled else 0)
