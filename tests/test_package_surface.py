"""Meta-tests on the public API surface.

Production hygiene: every ``__all__`` name must resolve, every public
module must carry a docstring, and the package version must be sane.
These catch broken re-exports at unit-test speed.
"""

import importlib
import json
import os
import pkgutil
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.rng",
    "repro.malloc",
    "repro.analysis",
    "repro.analysis.rules",
    "repro.analysis.lint",
    "repro.analysis.concurrency",
    "repro.analysis.racecheck",
    "repro.analysis.race_smoke",
    "repro.analysis.sanitizer",
    "repro.analysis.graph",
    "repro.analysis.report",
    "repro.nn",
    "repro.nn.tensor",
    "repro.nn.ops",
    "repro.nn.compile",
    "repro.nn.module",
    "repro.nn.layers",
    "repro.nn.optim",
    "repro.nn.losses",
    "repro.nn.init",
    "repro.nn.gradcheck",
    "repro.nn.serialization",
    "repro.kg",
    "repro.kg.graph",
    "repro.kg.collaborative",
    "repro.kg.sampling",
    "repro.kg.generators",
    "repro.data",
    "repro.data.interactions",
    "repro.data.similarity",
    "repro.data.groups",
    "repro.data.synthetic",
    "repro.data.splits",
    "repro.data.negative",
    "repro.data.loader",
    "repro.data.io",
    "repro.core",
    "repro.core.config",
    "repro.core.propagation",
    "repro.core.attention",
    "repro.core.losses",
    "repro.core.model",
    "repro.core.trainer",
    "repro.core.checkpoint",
    "repro.core.parallel",
    "repro.core.predict",
    "repro.core.diagnostics",
    "repro.baselines",
    "repro.baselines.aggregation",
    "repro.baselines.mf",
    "repro.baselines.kgcn",
    "repro.baselines.mosan",
    "repro.baselines.popularity",
    "repro.eval",
    "repro.eval.metrics",
    "repro.eval.evaluator",
    "repro.eval.significance",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.obs.profiler",
    "repro.obs.report",
    "repro.serve",
    "repro.serve.index",
    "repro.serve.engine",
    "repro.serve.cache",
    "repro.serve.fallback",
    "repro.serve.server",
    "repro.serve.admission",
    "repro.serve.pool",
    "repro.stream",
    "repro.stream.delta",
    "repro.stream.grow",
    "repro.stream.updater",
    "repro.experiments",
    "repro.cli",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_importable_with_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, (
        f"{name} needs a module docstring"
    )


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_every_package_module_is_listed():
    """No stray public module escapes the list above (keeps it honest)."""
    found = {"repro"}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        found.add(info.name)
    missing = sorted(
        name
        for name in found
        if name not in PUBLIC_MODULES
        and not name.startswith("repro.experiments.")  # harness modules
    )
    assert missing == [], f"public modules missing from the surface test: {missing}"


def test_version():
    assert repro.__version__.count(".") == 2


def test_public_classes_have_docstrings():
    from repro import KGAG, KGAGConfig, KGAGTrainer, GroupRecommender
    from repro.baselines import KGCN, MatrixFactorization, MoSAN
    from repro.nn import Tensor, Module

    for cls in (KGAG, KGAGConfig, KGAGTrainer, GroupRecommender, KGCN,
                MatrixFactorization, MoSAN, Tensor, Module):
        assert cls.__doc__ and len(cls.__doc__.strip()) > 30, cls


def test_fresh_import_loads_no_subpackage_and_pins_malloc():
    """``import repro`` pins the allocator and leaves re-exports unloaded."""
    src = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        "import json, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('repro'))\n"
        "import repro\n"
        "report = {'repro': loaded(), 'pinned': repro.malloc._pinned}\n"
        "import repro.nn\n"
        "report['nn'] = loaded()\n"
        "report['compile'] = repro.nn.compile.__name__\n"
        "print(json.dumps(report))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    report = json.loads(out.stdout)
    assert report["repro"] == ["repro", "repro.malloc"]
    assert report["nn"] == ["repro", "repro.malloc", "repro.nn"]
    assert report["compile"] == "repro.nn.compile"
    if platform.libc_ver()[0] == "glibc":
        assert report["pinned"] is True


@pytest.mark.parametrize("name", ["repro", "repro.nn"])
def test_lazy_exports_listed_resolved_and_strict(name):
    module = importlib.import_module(name)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_lazy_exports_are_the_defining_objects():
    import repro.core.model
    import repro.nn
    import repro.nn.compile
    import repro.nn.optim

    assert repro.KGAG is repro.core.model.KGAG
    assert repro.nn.Adam is repro.nn.optim.Adam
    assert repro.nn.compile is sys.modules["repro.nn.compile"]
    assert repro.nn.trace_step is repro.nn.compile.trace_step
