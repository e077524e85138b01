"""The package's public surface is what its callers call.

The top level exports the user API.  Every name a layer module (`core`,
`sampling`, `solvers`, `datagen`) exports in `__all__` must be used by another
module of the package, by the benchmark (`perfbench/*.py`) or by the README;
a public function only the tests call fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trdecomp
from trdecomp import core, datagen, sampling, solvers

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trdecomp"

USER_API = {
    "tr_als", "tr_gd", "tr_scaled_gd", "tr_brsgd", "tr_scaled_brsgd",
    "SolverConfig", "ConstantStep", "RobbinsMonroStep", "AdaGradStep",
    "SamplingSpec", "SynthSpec", "synth_tensor", "rse", "residual_norm",
    "tr_reconstruct", "read_tensor", "write_tensor",
    "RunTrace", "read_trace_csv", "write_trace_csv",
}


def test_top_level_exports_the_user_api():
    assert sorted(trdecomp.__all__) == sorted(USER_API)
    assert len(set(trdecomp.__all__)) == len(trdecomp.__all__)
    for name in trdecomp.__all__:
        assert getattr(trdecomp, name) is not None


def test_layer_modules_stay_reachable():
    # the benchmark reaches these as attributes of the package
    for name in ("solvers", "sampling", "metrics"):
        assert hasattr(trdecomp, name)


def test_readme_quickstart_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    imports = re.findall(r"^from trdecomp import \(([^)]*)\)", readme, re.M)
    assert imports, "no quickstart import found in README.md"
    names = [n.strip() for n in ",".join(imports).replace("\n", " ").split(",") if n.strip()]
    missing = [n for n in names if not hasattr(trdecomp, n)]
    assert missing == []


def _callers_text(module_name):
    texts = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")
             if p.stem not in (module_name, "__init__")]
    texts += [p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py")]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    return "\n".join(texts)


@pytest.mark.parametrize("module", [core, sampling, solvers, datagen],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_every_exported_name_has_a_caller(module):
    name = module.__name__.rsplit(".", 1)[-1]
    text = _callers_text(name)
    unused = [n for n in module.__all__ if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert unused == []


def test_import_loads_no_scipy():
    # numpy is the package's only dependency: a fresh interpreter that
    # imports the package and its CLI has loaded no scipy module
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys, trdecomp, trdecomp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
