"""grow_state / warm_start / finetune: bit-exact preservation and fresh-row init."""

import multiprocessing
import multiprocessing.connection
import os
import threading

import numpy as np
import pytest

from repro.core import KGAG, KGAGTrainer
from repro.core.checkpoint import TrainState
from repro.data.interactions import InteractionTable
from repro.nn.serialization import CheckpointError
from repro.stream import DeltaBatch, apply_delta, finetune, grow_state, warm_start
from repro.stream import grow
from repro.stream.grow import parameter_order

from ..core.tape_oracle import TapeTrainer


def _model_for(dataset, config):
    return KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )


def _growing_delta(dataset):
    group_size = dataset.groups.group_size
    return DeltaBatch.from_records(
        [
            {"op": "add_user"},
            {"op": "add_item"},
            {"op": "add_entity"},
            {"op": "add_relation"},
            {
                "op": "add_edge",
                "head": f"item:{dataset.num_items}",
                "relation": 0,
                "tail": "attr:0",
            },
            {"op": "add_interaction", "user": dataset.num_users, "item": 0},
            {"op": "add_group", "members": list(range(group_size))},
        ]
    )


def _assert_states_bit_exact(a: TrainState, b: TrainState):
    assert sorted(a.model_state) == sorted(b.model_state)
    for name in a.model_state:
        assert np.array_equal(a.model_state[name], b.model_state[name]), name
    assert a.optimizer_state["kind"] == b.optimizer_state["kind"]
    assert a.optimizer_state["scalars"] == b.optimizer_state["scalars"]
    for buffer_name in a.optimizer_state["buffers"]:
        for x, y in zip(
            a.optimizer_state["buffers"][buffer_name],
            b.optimizer_state["buffers"][buffer_name],
        ):
            assert np.array_equal(x, y), buffer_name
    assert a.rng_states == b.rng_states
    assert a.history == b.history
    assert a.patience_left == b.patience_left
    assert (a.best_state is None) == (b.best_state is None)
    if a.best_state is not None:
        for name in a.best_state:
            assert np.array_equal(a.best_state[name], b.best_state[name]), name


class TestWarmStartEquivalence:
    """Satellite: the zero-delta warm start must be an exact no-op."""

    def test_identity_grow_is_bit_exact(self, dataset, state, config):
        _, plan = apply_delta(dataset, DeltaBatch())
        names = parameter_order(_model_for(dataset, config))
        grown = grow_state(state, plan, names)
        _assert_states_bit_exact(state, grown)

    def test_zero_epoch_finetune_roundtrip(self, dataset, split, state):
        _, plan = apply_delta(dataset, DeltaBatch())
        trainer = warm_start(
            dataset,
            state,
            plan,
            split.train,
            group_validation=split.validation,
        )
        assert finetune(trainer, 0) == []
        recaptured = TrainState.capture(trainer, epoch=state.epoch)
        _assert_states_bit_exact(state, recaptured)


class TestGrowState:
    def test_old_rows_and_moments_preserved(self, dataset, state, config):
        grown_dataset, plan = apply_delta(dataset, _growing_delta(dataset))
        model = _model_for(dataset, config)
        names = parameter_order(model)
        grown = grow_state(state, plan, names, rng=11)

        entity_remap = plan.ckg_entity_remap()
        relation_remap = plan.relation_slot_remap()
        table_remaps = {
            "propagation.entity_embedding.weight": entity_remap,
            "propagation.relation_embedding.weight": relation_remap,
        }
        for name, old_value in state.model_state.items():
            new_value = grown.model_state[name]
            remap = table_remaps.get(name)
            if remap is None:
                assert np.array_equal(new_value, old_value), name
            else:
                assert np.array_equal(new_value[remap], old_value), name
        for buffer_name, buffers in state.optimizer_state["buffers"].items():
            for i, name in enumerate(names):
                old_buf = buffers[i]
                new_buf = grown.optimizer_state["buffers"][buffer_name][i]
                remap = table_remaps.get(name)
                if remap is None:
                    assert np.array_equal(new_buf, old_buf), (buffer_name, name)
                else:
                    assert np.array_equal(new_buf[remap], old_buf), (buffer_name, name)
                    # Never-stepped rows carry zero moments.
                    new_rows = np.setdiff1d(np.arange(len(new_buf)), remap)
                    assert not new_buf[new_rows].any(), (buffer_name, name)

    def test_fresh_rows_are_seeded_draws(self, dataset, state, config):
        _, plan = apply_delta(dataset, _growing_delta(dataset))
        names = parameter_order(_model_for(dataset, config))
        once = grow_state(state, plan, names, rng=5)
        again = grow_state(state, plan, names, rng=5)
        other = grow_state(state, plan, names, rng=6)
        table = "propagation.entity_embedding.weight"
        new_rows = plan.new_entity_rows()
        assert np.array_equal(
            once.model_state[table][new_rows], again.model_state[table][new_rows]
        )
        assert not np.array_equal(
            once.model_state[table][new_rows], other.model_state[table][new_rows]
        )
        # Best snapshot (when present) shares the fresh rows with the live table.
        if once.best_state is not None:
            assert np.array_equal(
                once.model_state[table][new_rows], once.best_state[table][new_rows]
            )

    def test_neighbor_mean_init(self, dataset, state, config):
        delta = DeltaBatch.from_records(
            [
                {"op": "add_item"},
                {
                    "op": "add_edge",
                    "head": f"item:{dataset.num_items}",
                    "relation": 0,
                    "tail": "attr:0",
                },
                {
                    "op": "add_edge",
                    "head": f"item:{dataset.num_items}",
                    "relation": 0,
                    "tail": "attr:1",
                },
            ]
        )
        grown_dataset, plan = apply_delta(dataset, delta)
        grown_model = _model_for(grown_dataset, config)
        names = parameter_order(grown_model)
        grown = grow_state(
            state, plan, names, init="neighbor_mean", rng=5, ckg=grown_model.ckg
        )
        table = "propagation.entity_embedding.weight"
        old_table = state.model_state[table]
        # The cold item's row is the mean of its two attribute neighbors
        # (old attr j sits at old entity num_items + j before the remap).
        expected = old_table[[dataset.num_items, dataset.num_items + 1]].mean(axis=0)
        new_item_row = grown.model_state[table][dataset.num_items]
        assert np.allclose(new_item_row, expected)

    def test_neighbor_mean_requires_ckg(self, dataset, state, config):
        _, plan = apply_delta(dataset, _growing_delta(dataset))
        names = parameter_order(_model_for(dataset, config))
        with pytest.raises(ValueError, match="neighbor_mean"):
            grow_state(state, plan, names, init="neighbor_mean")

    def test_bad_init_rejected(self, dataset, state, config):
        _, plan = apply_delta(dataset, DeltaBatch())
        names = parameter_order(_model_for(dataset, config))
        with pytest.raises(ValueError, match="init"):
            grow_state(state, plan, names, init="zeros")

    def test_mismatched_param_names_rejected(self, dataset, state):
        _, plan = apply_delta(dataset, DeltaBatch())
        with pytest.raises(CheckpointError, match="param_names"):
            grow_state(state, plan, ["nope"])


class TestWarmStartTraining:
    def test_finetune_trains_on_grown_world(self, dataset, split, state):
        grown_dataset, plan = apply_delta(dataset, _growing_delta(dataset))
        from repro.data.interactions import InteractionTable

        group_train = InteractionTable(
            grown_dataset.groups.num_groups,
            grown_dataset.num_items,
            split.train.pairs,
        )
        trainer = warm_start(grown_dataset, state, plan, group_train, rng=5)
        losses = finetune(trainer, 2)
        assert len(losses) == 2
        assert all(np.isfinite(losses))
        # The grown model scores the new group and the cold item.
        new_group = dataset.groups.num_groups
        cold_item = dataset.num_items
        score = trainer.model.group_item_scores(
            np.array([new_group]), np.array([cold_item])
        )
        assert np.isfinite(score.numpy()).all()


class _SignatureTapeTrainer(TapeTrainer):
    """The tape oracle, recording each batch's shape signature."""

    def _forward_backward(self, batch):
        self.signatures = getattr(self, "signatures", [])
        self.signatures.append((len(batch.group_triplets), len(batch.user_pairs)))
        return super()._forward_backward(batch)


class TestFinetuneRetraces:
    def test_one_trace_per_batch_signature_after_a_delta(
        self, dataset, split, config, monkeypatch
    ):
        # Batches of 4 over 10 group rows: two full batches, one partial.
        small_batches = config.with_overrides(batch_size=4)
        trainer = KGAGTrainer(
            _model_for(dataset, small_batches), split.train, dataset.user_item
        )
        trainer.train_epoch()
        state = TrainState.capture(trainer, epoch=0)
        grown_dataset, plan = apply_delta(dataset, _growing_delta(dataset))
        group_train = InteractionTable(
            grown_dataset.groups.num_groups,
            grown_dataset.num_items,
            split.train.pairs,
        )
        compiled = warm_start(grown_dataset, state, plan, group_train, rng=5)
        monkeypatch.setattr(grow, "KGAGTrainer", _SignatureTapeTrainer)
        oracle = warm_start(grown_dataset, state, plan, group_train, rng=5)
        for _ in range(2):
            assert compiled.train_epoch() == oracle.train_epoch()

        stats = compiled.compile_stats
        assert stats["traces"] == len(set(oracle.signatures)) == 2
        assert stats["fallbacks"] == 0
        assert stats["replays"] == len(oracle.signatures) - stats["traces"]
        for (name, left), (_, right) in zip(
            compiled.model.named_parameters(), oracle.model.named_parameters()
        ):
            assert np.array_equal(left.data, right.data), name


class TestForkedFinetune:
    """finetune trains in a forked child and restores the result here."""

    def _warm_trainer(self, dataset, split, state):
        grown_dataset, plan = apply_delta(dataset, _growing_delta(dataset))
        group_train = InteractionTable(
            grown_dataset.groups.num_groups,
            grown_dataset.num_items,
            split.train.pairs,
        )
        return warm_start(grown_dataset, state, plan, group_train, rng=5)

    def test_forked_epochs_match_in_process_training(self, dataset, split, state):
        forked = self._warm_trainer(dataset, split, state)
        twin = self._warm_trainer(dataset, split, state)
        losses = finetune(forked, 2)
        expected = [twin.train_epoch() for _ in range(2)]
        assert losses == expected
        _assert_states_bit_exact(
            TrainState.capture(forked, epoch=2), TrainState.capture(twin, epoch=2)
        )
        # The RNG streams came back too: the next epoch draws the same batches.
        assert forked.train_epoch() == twin.train_epoch()
        assert multiprocessing.active_children() == []

    def _parameters(self, trainer):
        return {name: p.data.copy() for name, p in trainer.model.named_parameters()}

    def _assert_untouched(self, trainer, before):
        for name, parameter in trainer.model.named_parameters():
            assert np.array_equal(parameter.data, before[name]), name
        assert multiprocessing.active_children() == []

    def test_child_exception_reraised_with_its_type(self, dataset, split, state):
        trainer = self._warm_trainer(dataset, split, state)
        before = self._parameters(trainer)

        def broken_epoch():
            raise ValueError("bad batch in the child")

        trainer.train_epoch = broken_epoch  # only the forked child calls it
        with pytest.raises(ValueError, match="bad batch in the child"):
            finetune(trainer, 2)
        self._assert_untouched(trainer, before)

    def test_child_death_names_exit_code(self, dataset, split, state):
        trainer = self._warm_trainer(dataset, split, state)
        before = self._parameters(trainer)
        trainer.train_epoch = lambda: os._exit(3)
        with pytest.raises(RuntimeError, match="code 3"):
            finetune(trainer, 1)
        self._assert_untouched(trainer, before)

    def test_interrupted_parent_reaps_a_blocked_child(
        self, dataset, split, state, monkeypatch
    ):
        # A reply larger than the pipe buffer blocks the child until the
        # parent reads it; a parent that stops reading must still reap it.
        trainer = self._warm_trainer(dataset, split, state)
        trainer.train_epoch = lambda: 0.0
        monkeypatch.setattr(
            grow.TrainState,
            "capture",
            classmethod(lambda cls, trainer, epoch: np.zeros(1 << 20)),
        )

        def interrupted(connection):
            raise RuntimeError("parent interrupted")

        monkeypatch.setattr(multiprocessing.connection.Connection, "recv", interrupted)
        raised = []

        def run():
            try:
                finetune(trainer, 1)
            except RuntimeError as error:
                raised.append(error)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert [str(error) for error in raised] == ["parent interrupted"]
        assert multiprocessing.active_children() == []

    def test_parallel_trainer_rejected(self, dataset, split, config):
        model = _model_for(dataset, config)
        trainer = KGAGTrainer(model, split.train, dataset.user_item, workers=2)
        with pytest.raises(ValueError, match="workers"):
            finetune(trainer, 1)
        assert multiprocessing.active_children() == []
