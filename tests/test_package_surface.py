"""Meta-tests on the public API surface.

Production hygiene: every ``__all__`` name must resolve, every public
module must carry a docstring, and the package version must be sane.
These catch broken re-exports at unit-test speed.
"""

import importlib
import pkgutil

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
