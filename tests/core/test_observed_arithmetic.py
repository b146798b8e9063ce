"""Tape observers watch the arithmetic of an unobserved run.

A trainer under ``sanitize=True`` or :class:`~repro.obs.TapeProfiler`
trains on the dynamic tape with hooks installed.  The hooks must only
see the gradient writes, not reorder them: losses and final parameters
are ``np.array_equal`` to the same run unobserved, at every seed.
"""

import numpy as np
import pytest

from repro.core import KGAG, KGAGConfig, KGAGTrainer
from repro.data import MovieLensLikeConfig, movielens_like, split_interactions
from repro.obs import TapeProfiler

from .tape_oracle import TapeTrainer

SEEDS = range(4)


@pytest.fixture(scope="module")
def world():
    dataset = movielens_like(
        "rand", MovieLensLikeConfig(num_users=25, num_items=30, num_groups=10, seed=0)
    )
    split = split_interactions(dataset.group_item, rng=np.random.default_rng(0))
    return dataset, split


def _run(world, seed, *, cls=KGAGTrainer, profile=False, **kw):
    dataset, split = world
    config = KGAGConfig(
        embedding_dim=8,
        num_layers=2,
        num_neighbors=3,
        batch_size=16,
        epochs=3,
        patience=0,
        seed=seed,
    )
    model = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )
    trainer = cls(model, split.train, dataset.user_item, **kw)
    if profile:
        with TapeProfiler() as profiler:
            losses = [trainer.train_epoch() for _ in range(config.epochs)]
        assert profiler.ops["Tensor.__getitem__"].backward_calls > 0
    else:
        losses = [trainer.train_epoch() for _ in range(config.epochs)]
    return losses, [p.data.copy() for p in model.parameters()]


def _assert_same(observed, plain):
    assert observed[0] == plain[0]
    assert len(observed[1]) == len(plain[1])
    for a, b in zip(observed[1], plain[1]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", SEEDS)
def test_sanitized_trainer_matches_default(world, seed):
    _assert_same(_run(world, seed, sanitize=True), _run(world, seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_profiled_tape_matches_unprofiled(world, seed):
    _assert_same(
        _run(world, seed, cls=TapeTrainer, profile=True),
        _run(world, seed, cls=TapeTrainer),
    )
