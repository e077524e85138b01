"""The shipped example configs load under the strict key check and run."""

import json
from pathlib import Path

import pytest

from trdecomp.bench import load_config, run_experiment

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def test_configs_found():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_loads_and_runs(path, tmp_path):
    cfg = load_config(str(path))
    cfg["solver"]["max_iters"] = 2
    traces = run_experiment(cfg, tmp_path / "run")
    assert traces and not any(tr.diverged for tr in traces)
    assert all(tr.terminal_reason == "max_iters" for tr in traces)
    # a step too large for an algorithm shows within two iterations as a
    # growing RSE, long before it turns non-finite
    assert all(tr.final()[2] <= tr.records[0][2] for tr in traces)
    assert "nan" not in (tmp_path / "run" / "summary.md").read_text()
    assert json.loads((tmp_path / "run" / "config.json").read_text()) == cfg
