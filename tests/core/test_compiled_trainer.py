"""Trainer integration for the compiled executor (every KGAG step).

The contract under test: the trainer is *indistinguishable* from the
dynamic-tape oracle (:class:`~tests.core.tape_oracle.TapeTrainer`) —
identical loss trajectory (exact float equality) and identical final
parameters (``np.array_equal``) — across the config matrix, while
actually replaying compiled programs; and every documented fallback
trigger drops to the dynamic tape instead of failing.
"""

import numpy as np
import pytest

from repro.core import KGAGTrainer
from repro.data.loader import MixedBatch
from repro.nn import Tensor, install_tape_hooks, ops, uninstall_tape_hooks

from .conftest import build_model
from .tape_oracle import TapeTrainer


def _fit(small_dataset, small_split, config, *, cls=KGAGTrainer, **kw):
    model = build_model(small_dataset, config)
    trainer = cls(model, small_split.train, small_dataset.user_item, **kw)
    history = trainer.fit()
    return trainer, history


def _assert_same_run(small_dataset, small_split, config):
    dynamic, dyn_history = _fit(small_dataset, small_split, config, cls=TapeTrainer)
    compiled, cmp_history = _fit(small_dataset, small_split, config)
    assert cmp_history.losses == dyn_history.losses
    for (name, a), (_, b) in zip(
        dynamic.model.named_parameters(), compiled.model.named_parameters()
    ):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    return compiled


class _NullHooks:
    def on_make(self, data, parents, backward):
        pass

    def on_accumulate(self, tensor, grad):
        pass


class _UncompilableTrainer(KGAGTrainer):
    """Injects ``ops.where`` (outside the compiled set) into the loss."""

    def _planned_loss(self, plan):
        loss = super()._planned_loss(plan)
        gate = ops.where(Tensor(np.array(True)), loss, loss * 0.0)
        return gate


class TestCompiledMatchesDynamic:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"aggregator": "graphsage"},
            {"loss": "bpr"},
            {"loss": "margin_raw"},
            {"uniform_neighbor_weights": True},
            {"num_layers": 0},
            {"num_layers": 2},
            {"pi_pooling": "mean"},
            {"max_grad_norm": 1.0},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "default",
    )
    def test_config_matrix_bit_exact(
        self, small_dataset, small_split, fast_config, overrides
    ):
        config = fast_config.with_overrides(epochs=2, batch_size=32, **overrides)
        compiled = _assert_same_run(small_dataset, small_split, config)
        assert compiled.compile_stats["traces"] >= 1
        assert compiled.compile_stats["replays"] >= 1
        assert compiled.compile_stats["fallbacks"] == 0

    @pytest.mark.parametrize("ablate", ["ablate_kg", "ablate_sp", "ablate_pi"])
    def test_ablations_bit_exact(
        self, small_dataset, small_split, fast_config, ablate
    ):
        config = getattr(fast_config.with_overrides(epochs=2, batch_size=32), ablate)()
        compiled = _assert_same_run(small_dataset, small_split, config)
        assert compiled.compile_stats["fallbacks"] == 0


class TestFallbacks:
    def test_ragged_batches_trace_one_program_per_signature(
        self, small_dataset, small_split, fast_config
    ):
        # batch_size=16 leaves a ragged tail batch: a second signature.
        config = fast_config.with_overrides(epochs=3, batch_size=16)
        compiled = _assert_same_run(small_dataset, small_split, config)
        assert compiled.compile_stats["traces"] == len(compiled._programs) == 2
        assert compiled.compile_stats["fallbacks"] == 0

    def test_tape_hooks_force_dynamic_fallback(
        self, small_dataset, small_split, fast_config
    ):
        config = fast_config.with_overrides(epochs=2, batch_size=32)
        hooks = _NullHooks()
        install_tape_hooks(hooks)
        try:
            compiled, history = _fit(small_dataset, small_split, config)
        finally:
            uninstall_tape_hooks(hooks)
        assert compiled.compile_stats["traces"] == 0
        assert compiled.compile_stats["replays"] == 0
        assert compiled.compile_stats["fallbacks"] > 0
        _, dyn_history = _fit(small_dataset, small_split, config, cls=TapeTrainer)
        assert history.losses == dyn_history.losses

    def test_sanitize_mode_forces_dynamic_fallback(
        self, small_dataset, small_split, fast_config
    ):
        config = fast_config.with_overrides(epochs=2, batch_size=32)
        compiled, history = _fit(small_dataset, small_split, config, sanitize=True)
        assert compiled.compile_stats["replays"] == 0
        assert compiled.compile_stats["fallbacks"] > 0
        _, dyn_history = _fit(small_dataset, small_split, config, cls=TapeTrainer)
        assert history.losses == dyn_history.losses

    def test_unsupported_op_caches_failure_and_trains_dynamically(
        self, small_dataset, small_split, fast_config
    ):
        config = fast_config.with_overrides(epochs=2, batch_size=32)
        compiled, history = _fit(
            small_dataset, small_split, config, cls=_UncompilableTrainer
        )
        assert compiled.compile_stats["traces"] == 0
        assert compiled.compile_stats["replays"] == 0
        assert compiled.compile_stats["fallbacks"] > 0
        _, dyn_history = _fit(small_dataset, small_split, config, cls=TapeTrainer)
        assert history.losses == dyn_history.losses

    def test_metrics_counters_mirror_stats(
        self, small_dataset, small_split, fast_config
    ):
        config = fast_config.with_overrides(epochs=2, batch_size=32)
        model = build_model(small_dataset, config)
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        trainer = KGAGTrainer(
            model,
            small_split.train,
            small_dataset.user_item,
            metrics=registry,
        )
        trainer.fit()
        snapshot = registry.snapshot()
        for key in ("traces", "replays", "fallbacks"):
            assert snapshot[f"compile/{key}"]["value"] == trainer.compile_stats[key]


def _held_arrays(program):
    """Every array a program keeps: its attributes and kernel closures.

    ``_param_leaves`` is skipped: holding the live parameters is the
    point of a program, and their data is not the program's memory.
    """
    found, seen = [], set()
    stack = [v for k, v in vars(program).items() if k != "_param_leaves"]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(
                cell.cell_contents
                for cell in obj.__closure__
                if cell.cell_contents is not None
            )
    return found


def _storage(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


class TestRetainedMemory:
    def test_programs_share_one_arena_and_keep_no_values(
        self, small_dataset, small_split, fast_config
    ):
        # batch_size=16 leaves a partial last batch: a second program.
        config = fast_config.with_overrides(batch_size=16)
        model = build_model(small_dataset, config)
        trainer = KGAGTrainer(model, small_split.train, small_dataset.user_item)
        for _ in range(2):
            trainer.train_epoch()
        assert trainer.compile_stats["fallbacks"] == 0
        programs = list(trainer._programs.values())
        assert len(programs) == 2
        full, partial = trainer._programs
        assert full[0] > partial[0], "the full batch is traced first"

        block = trainer._arena.base
        assert all(program.arena_base is block for program in programs)
        assert block.nbytes == max(program.arena_nbytes for program in programs)
        for program in programs:
            constants = {id(a) for a in program._template if a is not None}
            for array in _held_arrays(program):
                if _storage(array) is _storage(block) or id(array) in constants:
                    continue
                # Left: build-time index arrays.  A forward value or a
                # scatter buffer would be a float array outside the arena.
                assert array.dtype.kind in "iub", (array.shape, array.dtype)

    def test_a_larger_program_replaces_the_block_and_drops_older_ones(
        self, small_dataset, small_split, fast_config
    ):
        config = fast_config.with_overrides(batch_size=16)
        trainers = [
            cls(build_model(small_dataset, config), small_split.train,
                small_dataset.user_item)
            for cls in (KGAGTrainer, TapeTrainer)
        ]
        full = next(iter(trainers[0].loader.epoch()))
        partial = MixedBatch(full.group_triplets[:3], full.user_pairs[:5])
        # The partial batch traces first, so the full batch's trace
        # must grow the block; the partial program then traces again.
        for batch in (partial, full, partial, partial, full, full, partial):
            losses = [trainer.train_step(batch) for trainer in trainers]
            assert losses[0] == losses[1]
        compiled = trainers[0]
        assert compiled.compile_stats == {"traces": 3, "replays": 4, "fallbacks": 0}
        block = compiled._arena.base
        assert all(p.arena_base is block for p in compiled._programs.values())
        assert block.nbytes == max(p.arena_nbytes for p in compiled._programs.values())
        for left, right in zip(
            compiled.model.parameters(), trainers[1].model.parameters()
        ):
            assert np.array_equal(left.data, right.data)
