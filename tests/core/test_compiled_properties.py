"""Differential property test: the compiled executor vs the dynamic tape.

Hypothesis draws tiny worlds — a hand-made knowledge graph whose items
may have no KG edge and whose entities may have fewer neighbors than K,
groups of two or three members, batch sizes that leave a partial last
batch, every config of the engine matrix (``CONFIG_MATRIX``) and every
loss — and, when ``grow`` is drawn, warm-starts both trainers on tables
that a cold-item delta grew (:func:`repro.stream.grow.warm_start`).
Two trainers on identical models step through the same batches: a
``KGAGTrainer`` (compiled executor) and the dynamic-tape oracle
:class:`~tests.core.tape_oracle.TapeTrainer`.  After every step the
loss, every parameter gradient and, after the Adam step, every
parameter must be ``np.array_equal``.  Three epochs make each batch
signature trace, verify and then replay.

Groups of one member and groups with a repeated member are not drawn:
:class:`~repro.data.groups.GroupSet` refuses both, so no trainer can be
built on them.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import KGAGConfig, KGAGTrainer
from repro.core.checkpoint import TrainState
from repro.data.groups import GroupSet
from repro.data.interactions import InteractionTable
from repro.data.synthetic import GroupRecommendationDataset
from repro.kg.graph import KnowledgeGraph
from repro.nn import clip_grad_norm
from repro.stream import DeltaBatch, apply_delta, grow, warm_start

from .conftest import build_model
from .tape_oracle import TapeTrainer
from .test_fused_training import CONFIG_MATRIX

EPOCHS = 3


@st.composite
def worlds(draw):
    num_items = draw(st.integers(2, 7))
    num_entities = num_items + draw(st.integers(1, 4))
    num_relations = draw(st.integers(1, 3))
    entity = st.integers(0, num_entities - 1)
    triples = draw(
        st.lists(
            st.tuples(entity, st.integers(0, num_relations - 1), entity), max_size=12
        )
    )
    kg = KnowledgeGraph(num_entities, num_relations, triples)

    size = draw(st.integers(2, 3))
    num_users = size + draw(st.integers(0, 3))
    num_groups = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    members = np.stack(
        [rng.choice(num_users, size, replace=False) for _ in range(num_groups)]
    )
    user_pairs = draw(
        st.lists(
            st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1)),
            max_size=10,
        )
    )
    # Every group likes at least one item and leaves one as a negative.
    group_pairs = [(g, int(rng.integers(num_items - 1))) for g in range(num_groups)]
    group_pairs += draw(
        st.lists(
            st.tuples(
                st.integers(0, num_groups - 1), st.integers(0, num_items - 2)
            ),
            max_size=8,
        )
    )
    return GroupRecommendationDataset(
        name="drawn",
        num_users=num_users,
        num_items=num_items,
        groups=GroupSet(members, num_users),
        user_item=InteractionTable(num_users, num_items, user_pairs),
        group_item=InteractionTable(num_groups, num_items, group_pairs),
        kg=kg,
    )


configs = st.builds(
    lambda override, **fields: KGAGConfig(**{**fields, **override}),
    override=st.sampled_from(CONFIG_MATRIX),
    embedding_dim=st.integers(2, 6),
    num_layers=st.integers(1, 2),
    num_neighbors=st.integers(1, 5),
    loss=st.sampled_from(["margin", "margin_raw", "bpr"]),
    max_grad_norm=st.sampled_from([None, 0.5]),
    batch_size=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)


def cold_item_delta(dataset):
    """One new item wired to item 0, and a new group that likes it."""
    return DeltaBatch.from_records(
        [
            {"op": "add_item"},
            {"op": "add_edge", "head": f"item:{dataset.num_items}",
             "relation": 0, "tail": "item:0"},
            {"op": "add_group", "members": list(range(dataset.groups.group_size))},
            {"op": "add_group_interaction", "group": dataset.groups.num_groups,
             "item": dataset.num_items},
        ]
    )


def trainer_pair(dataset, config, grow_tables):
    """(compiled, oracle) trainers on identical models."""
    if not grow_tables:
        return tuple(
            cls(build_model(dataset, config), dataset.group_item, dataset.user_item)
            for cls in (KGAGTrainer, TapeTrainer)
        )
    warm = KGAGTrainer(
        build_model(dataset, config), dataset.group_item, dataset.user_item
    )
    warm.train_epoch()
    state = TrainState.capture(warm, epoch=0)
    grown, plan = apply_delta(dataset, cold_item_delta(dataset))
    compiled = warm_start(grown, state, plan, grown.group_item, rng=1)
    with mock.patch.object(grow, "KGAGTrainer", TapeTrainer):
        oracle = warm_start(grown, state, plan, grown.group_item, rng=1)
    return compiled, oracle


def step(trainer, batch):
    """``train_step``, returning the loss and the pre-clipping gradients."""
    loss = trainer._forward_backward(batch).item()
    grads = [
        None if p.grad is None else p.grad.copy() for p in trainer.model.parameters()
    ]
    if trainer.config.max_grad_norm is not None:
        clip_grad_norm(trainer.model.parameters(), trainer.config.max_grad_norm)
    trainer.optimizer.step()
    return loss, grads


# derandomize: tier-1 replays the same worlds on every run; widen the
# search locally by raising max_examples.
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(dataset=worlds(), config=configs, grow_tables=st.booleans())
def test_compiled_step_equals_tape(dataset, config, grow_tables):
    compiled, oracle = trainer_pair(dataset, config, grow_tables)
    batches = [batch for _ in range(EPOCHS) for batch in compiled.loader.epoch()]
    for batch in batches:
        loss, grads = step(compiled, batch)
        expected_loss, expected_grads = step(oracle, batch)
        assert loss == expected_loss
        for grad, expected in zip(grads, expected_grads):
            assert (grad is None) == (expected is None)
            assert grad is None or np.array_equal(grad, expected)
        for left, right in zip(compiled.model.parameters(), oracle.model.parameters()):
            assert np.array_equal(left.data, right.data)

    signatures = {(len(b.group_triplets), len(b.user_pairs)) for b in batches}
    stats = compiled.compile_stats
    assert stats["fallbacks"] == 0
    assert stats["traces"] == len(signatures)
    assert stats["replays"] == len(batches) - stats["traces"]
