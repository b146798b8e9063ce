"""KGAG — Knowledge-Aware Group Representation Learning for Group Recommendation.

A from-scratch, pure-Python reproduction of Deng et al., ICDE 2021,
including every substrate the paper depends on:

* :mod:`repro.nn` — numpy reverse-mode autograd, layers, Adam, losses;
* :mod:`repro.kg` — knowledge graph store, collaborative KG, sampling,
  synthetic KG generators;
* :mod:`repro.data` — interactions, group construction protocols,
  synthetic MovieLens-like / Yelp-like datasets, splits, loaders;
* :mod:`repro.core` — the KGAG model (propagation + SP/PI attention +
  margin loss), trainer, and explainable recommender;
* :mod:`repro.baselines` — CF(MF), KGCN, MoSAN, AVG/LM/MP aggregation;
* :mod:`repro.eval` — hit@k / rec@k and the ranking protocol;
* :mod:`repro.experiments` — one harness per paper table and figure.

Importing the package changes one process-wide setting: where glibc's
``libc.so.6`` loads, :mod:`repro.malloc` pins ``M_MMAP_THRESHOLD`` to
32 MiB and ``M_TRIM_THRESHOLD`` to 128 MiB for the whole process, so
numpy temporaries up to 32 MiB come from the heap and the heap keeps up
to 128 MiB of freed memory.  The names re-exported below load their
subpackage on first use, so ``import repro`` itself loads nothing else.

Quickstart
----------
>>> from repro import movielens_like, split_interactions, KGAG, KGAGConfig
>>> from repro import KGAGTrainer, GroupRecommender
>>> dataset = movielens_like("rand")
>>> split = split_interactions(dataset.group_item)
>>> model = KGAG(dataset.kg, dataset.num_users, dataset.num_items,
...              dataset.user_item.pairs, dataset.groups, KGAGConfig(epochs=5))
>>> trainer = KGAGTrainer(model, split.train, dataset.user_item, split.validation)
>>> _ = trainer.fit()
>>> recommender = GroupRecommender(model, split.train)
>>> recommendations = recommender.recommend(group_id=0, k=5)
"""

# First, so that every later allocation in the process sees the pin.
from .malloc import pin_malloc_thresholds

pin_malloc_thresholds()

# Re-exports resolve on first access (PEP 562): a process that imports
# one subpackage, such as a server reading a frozen index, does not load
# the training stack with it.
_EXPORTS = {
    "core": (
        "KGAG",
        "KGAGConfig",
        "KGAGTrainer",
        "GroupRecommender",
        "Explanation",
        "Recommendation",
    ),
    "data": (
        "GroupRecommendationDataset",
        "MovieLensLikeConfig",
        "YelpLikeConfig",
        "movielens_like",
        "yelp_like",
        "split_interactions",
    ),
    "eval": ("evaluate_group_recommender",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "1.0.0"

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
