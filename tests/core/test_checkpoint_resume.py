"""Crash-safe training: TrainState round-trips and bit-exact resume.

The fault-injection harness interrupts training at every epoch boundary
of the canonical small workload and proves the resumed run's loss
trajectory and final parameter arrays equal the uninterrupted run's
under ``np.array_equal`` — no tolerance.
"""

import numpy as np
import pytest

from repro.core import CheckpointManager, KGAGTrainer, TrainState
from repro.core.checkpoint import TRAIN_STATE_FORMAT_VERSION
from repro.nn.serialization import CheckpointError

from .conftest import build_model
from .tape_oracle import TapeTrainer


class SimulatedCrash(RuntimeError):
    """Raised by the fault injector to model a process dying."""


class CrashingTrainer(KGAGTrainer):
    """Trainer that dies at the start of epoch ``crash_at`` (0-indexed).

    Dying *before* ``train_epoch`` models a kill at the epoch boundary:
    every completed epoch was checkpointed, the in-flight one is lost.
    """

    crash_at: int | None = None

    def train_epoch(self):
        if self.crash_at is not None and self.history.num_epochs == self.crash_at:
            raise SimulatedCrash(f"killed before epoch {self.crash_at}")
        return super().train_epoch()


def _trainer(small_dataset, small_split, config, cls=KGAGTrainer, **kwargs):
    model = build_model(small_dataset, config)
    return cls(
        model,
        small_split.train,
        small_dataset.user_item,
        small_split.validation,
        **kwargs,
    )


@pytest.fixture()
def resume_config(fast_config):
    return fast_config.with_overrides(epochs=4)


def _assert_state_dicts_equal(a, b):
    assert sorted(a) == sorted(b)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


class TestBitExactResume:
    def test_fault_injection_at_every_epoch_boundary(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        straight = _trainer(small_dataset, small_split, resume_config)
        straight_history = straight.fit()
        straight_state = straight.model.state_dict()

        for crash_at in range(1, resume_config.epochs):
            ckpt_dir = tmp_path / f"crash-{crash_at}"
            interrupted = _trainer(
                small_dataset, small_split, resume_config, cls=CrashingTrainer
            )
            interrupted.crash_at = crash_at
            with pytest.raises(SimulatedCrash):
                interrupted.fit(checkpoint_dir=ckpt_dir)

            resumed = _trainer(small_dataset, small_split, resume_config)
            resumed_history = resumed.fit(checkpoint_dir=ckpt_dir, resume=True)

            assert resumed_history.losses == straight_history.losses, crash_at
            assert resumed_history.validation == straight_history.validation
            assert resumed_history.best_epoch == straight_history.best_epoch
            _assert_state_dicts_equal(
                resumed.model.state_dict(), straight_state
            )

    def test_fault_injection_with_compiled_executor(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        """Kill-and-resume through the compiled executor stays bit-exact.

        The resumed process starts with an empty program cache and
        re-traces; by the executor's bit-exactness contract the replayed
        steps still reproduce the uninterrupted run (which in turn
        equals the dynamic-tape oracle) exactly.
        """
        straight = _trainer(small_dataset, small_split, resume_config)
        straight_history = straight.fit()
        straight_state = straight.model.state_dict()
        assert straight.compile_stats["replays"] > 0
        oracle = _trainer(small_dataset, small_split, resume_config, cls=TapeTrainer)
        assert oracle.fit().losses == straight_history.losses
        _assert_state_dicts_equal(oracle.model.state_dict(), straight_state)

        for crash_at in (1, resume_config.epochs - 1):
            ckpt_dir = tmp_path / f"compiled-crash-{crash_at}"
            interrupted = _trainer(
                small_dataset,
                small_split,
                resume_config,
                cls=CrashingTrainer,
            )
            interrupted.crash_at = crash_at
            with pytest.raises(SimulatedCrash):
                interrupted.fit(checkpoint_dir=ckpt_dir)

            resumed = _trainer(small_dataset, small_split, resume_config)
            resumed_history = resumed.fit(checkpoint_dir=ckpt_dir, resume=True)

            assert resumed_history.losses == straight_history.losses, crash_at
            _assert_state_dicts_equal(resumed.model.state_dict(), straight_state)

    def test_resume_restores_optimizer_step_count(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        first = _trainer(small_dataset, small_split, resume_config, cls=CrashingTrainer)
        first.crash_at = 2
        with pytest.raises(SimulatedCrash):
            first.fit(checkpoint_dir=tmp_path)
        steps_done = first.optimizer._step_count
        assert steps_done > 0

        resumed = _trainer(small_dataset, small_split, resume_config)
        assert resumed.optimizer._step_count == 0
        resumed.fit(checkpoint_dir=tmp_path, resume=True)
        assert resumed.optimizer._step_count > steps_done

    def test_resume_from_empty_directory_starts_fresh(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        trainer = _trainer(small_dataset, small_split, resume_config)
        history = trainer.fit(checkpoint_dir=tmp_path / "empty", resume=True)
        assert history.num_epochs == resume_config.epochs

    def test_resume_requires_checkpoint_dir(
        self, small_dataset, small_split, resume_config
    ):
        trainer = _trainer(small_dataset, small_split, resume_config)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            trainer.fit(resume=True)

    def test_resume_after_completion_is_a_noop_run(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        done = _trainer(small_dataset, small_split, resume_config)
        done_history = done.fit(checkpoint_dir=tmp_path)
        again = _trainer(small_dataset, small_split, resume_config)
        again_history = again.fit(checkpoint_dir=tmp_path, resume=True)
        assert again_history.losses == done_history.losses
        _assert_state_dicts_equal(
            again.model.state_dict(), done.model.state_dict()
        )

    def test_resume_with_early_stopping(
        self, small_dataset, small_split, fast_config, tmp_path
    ):
        config = fast_config.with_overrides(epochs=6, patience=1)
        straight = _trainer(small_dataset, small_split, config)
        straight_history = straight.fit()

        interrupted = _trainer(small_dataset, small_split, config, cls=CrashingTrainer)
        interrupted.crash_at = 2
        with pytest.raises(SimulatedCrash):
            interrupted.fit(checkpoint_dir=tmp_path)
        resumed = _trainer(small_dataset, small_split, config)
        resumed_history = resumed.fit(checkpoint_dir=tmp_path, resume=True)

        assert resumed_history.losses == straight_history.losses
        assert resumed_history.stopped_early == straight_history.stopped_early
        _assert_state_dicts_equal(
            resumed.model.state_dict(), straight.model.state_dict()
        )

    def test_save_every_skips_intermediate_epochs(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        trainer = _trainer(small_dataset, small_split, resume_config)
        trainer.fit(checkpoint_dir=tmp_path, save_every=2)
        epochs = [epoch for epoch, _ in CheckpointManager(tmp_path).checkpoints()]
        assert epochs == [1, 3]

    def test_resume_emits_run_log_record(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        import io
        import json

        from repro.obs import JsonlRunLog

        first = _trainer(small_dataset, small_split, resume_config, cls=CrashingTrainer)
        first.crash_at = 2
        with pytest.raises(SimulatedCrash):
            first.fit(checkpoint_dir=tmp_path)

        stream = io.StringIO()
        resumed = _trainer(small_dataset, small_split, resume_config)
        resumed.run_log = JsonlRunLog(stream)
        resumed.fit(checkpoint_dir=tmp_path, resume=True)
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        resume_records = [r for r in records if r["kind"] == "resume"]
        assert len(resume_records) == 1
        assert resume_records[0]["epoch"] == 1
        assert resume_records[0]["step"] == resumed.loader.num_batches() * 2
        assert "ckpt-000001" in resume_records[0]["checkpoint"]


class TestTrainStateRoundTrip:
    def test_save_load_preserves_everything(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        trainer = _trainer(small_dataset, small_split, resume_config)
        trainer.fit(checkpoint_dir=tmp_path)
        state = TrainState.load(CheckpointManager(tmp_path).latest_path())
        assert state.epoch == resume_config.epochs - 1
        assert state.model_class == "KGAG"
        assert state.config["embedding_dim"] == resume_config.embedding_dim
        assert state.optimizer_state["kind"] == "Adam"
        assert state.history["losses"] == trainer.history.losses
        assert state.rng_states["trainer"]["bit_generator"]
        _assert_state_dicts_equal(state.best_state, trainer._best_state)

    def test_rng_stream_restored_exactly(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        trainer = _trainer(small_dataset, small_split, resume_config)
        trainer.fit(checkpoint_dir=tmp_path)
        expected = trainer.rng.integers(0, 1_000_000, size=16)

        fresh = _trainer(small_dataset, small_split, resume_config)
        state = TrainState.load(CheckpointManager(tmp_path).latest_path())
        state.restore(fresh)
        np.testing.assert_array_equal(
            fresh.rng.integers(0, 1_000_000, size=16), expected
        )

    def test_loader_rng_state_roundtrip(self, small_dataset, small_split, fast_config):
        trainer = _trainer(small_dataset, small_split, fast_config)
        snapshot = trainer.loader.rng_state()
        expected = [batch.group_triplets.copy() for batch in trainer.loader.epoch()]
        trainer.loader.set_rng_state(snapshot)
        replayed = [batch.group_triplets.copy() for batch in trainer.loader.epoch()]
        assert len(expected) == len(replayed)
        for a, b in zip(expected, replayed):
            np.testing.assert_array_equal(a, b)

    def test_wrong_model_class_rejected(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        trainer = _trainer(small_dataset, small_split, resume_config)
        trainer.fit(checkpoint_dir=tmp_path)
        state = TrainState.load(CheckpointManager(tmp_path).latest_path())
        state.model_class = "SomethingElse"
        with pytest.raises(CheckpointError, match="SomethingElse"):
            state.restore(trainer)

    def test_state_without_weight_decay_is_refused_on_resume(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        # A TrainState written while L2 was part of the loss carries an
        # Adam weight_decay of 0; resuming it must not drop the L2 term.
        trainer = _trainer(small_dataset, small_split, resume_config)
        trainer.fit(checkpoint_dir=tmp_path)
        manager = CheckpointManager(tmp_path)
        state = TrainState.load(manager.latest_path())
        assert state.optimizer_state["scalars"]["weight_decay"] == (
            2.0 * resume_config.l2_weight
        )
        state.optimizer_state["scalars"]["weight_decay"] = 0.0
        state.save(manager.latest_path())

        resumed = _trainer(small_dataset, small_split, resume_config)
        before = resumed.model.state_dict()
        with pytest.raises(CheckpointError, match="weight decay"):
            resumed.fit(checkpoint_dir=tmp_path, resume=True)
        assert resumed.optimizer.weight_decay == 2.0 * resume_config.l2_weight
        _assert_state_dicts_equal(resumed.model.state_dict(), before)

    def test_corrupt_checkpoint_raises_checkpoint_error(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        trainer = _trainer(small_dataset, small_split, resume_config)
        trainer.fit(checkpoint_dir=tmp_path)
        path = CheckpointManager(tmp_path).latest_path()
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(CheckpointError):
            TrainState.load(path)

    def test_model_checkpoint_is_not_a_train_state(
        self, small_dataset, resume_config, tmp_path
    ):
        from repro.nn.serialization import save_checkpoint

        model = build_model(small_dataset, resume_config)
        path = save_checkpoint(model, tmp_path / "weights")
        with pytest.raises(CheckpointError, match="train-state"):
            TrainState.load(path)

    def test_format_version_checked(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        trainer = _trainer(small_dataset, small_split, resume_config)
        trainer.fit(checkpoint_dir=tmp_path)
        path = CheckpointManager(tmp_path).latest_path()
        state = TrainState.load(path)
        assert TRAIN_STATE_FORMAT_VERSION == 1
        # Rewrite with a bumped version marker and expect a refusal.
        import json

        from repro.nn.serialization import METADATA_KEY, read_npz_archive, atomic_write_npz, pack_metadata

        arrays, metadata = read_npz_archive(path)
        metadata["format_version"] = 99
        arrays[METADATA_KEY] = pack_metadata(metadata)
        atomic_write_npz(path, arrays)
        with pytest.raises(CheckpointError, match="format version"):
            TrainState.load(path)

    def test_load_model_prefers_best_snapshot(
        self, small_dataset, small_split, resume_config, tmp_path
    ):
        trainer = _trainer(small_dataset, small_split, resume_config)
        trainer.fit(checkpoint_dir=tmp_path)  # fit() ends on best weights
        state = TrainState.load(CheckpointManager(tmp_path).latest_path())

        best = build_model(small_dataset, resume_config)
        state.load_model(best)
        _assert_state_dicts_equal(best.state_dict(), trainer.model.state_dict())

        last = build_model(small_dataset, resume_config)
        state.load_model(last, prefer_best=False)
        _assert_state_dicts_equal(last.state_dict(), state.model_state)


class TestCheckpointManager:
    def _dummy_state(self, small_dataset, small_split, fast_config, epoch, best_epoch):
        trainer = _trainer(small_dataset, small_split, fast_config)
        state = TrainState.capture(trainer, epoch)
        state.history["best_epoch"] = best_epoch
        return state

    def test_retention_keeps_last_n_plus_best(
        self, small_dataset, small_split, fast_config, tmp_path
    ):
        manager = CheckpointManager(tmp_path, keep_last=2, keep_best=True)
        for epoch in range(5):
            manager.save(
                self._dummy_state(
                    small_dataset, small_split, fast_config, epoch, best_epoch=1
                )
            )
        epochs = [epoch for epoch, _ in manager.checkpoints()]
        assert epochs == [1, 3, 4]  # window of 2 plus the protected best

    def test_retention_without_keep_best(
        self, small_dataset, small_split, fast_config, tmp_path
    ):
        manager = CheckpointManager(tmp_path, keep_last=2, keep_best=False)
        for epoch in range(5):
            manager.save(
                self._dummy_state(
                    small_dataset, small_split, fast_config, epoch, best_epoch=1
                )
            )
        epochs = [epoch for epoch, _ in manager.checkpoints()]
        assert epochs == [3, 4]

    def test_load_latest_skips_corrupt_newest(
        self, small_dataset, small_split, fast_config, tmp_path
    ):
        manager = CheckpointManager(tmp_path, keep_last=3)
        for epoch in range(2):
            manager.save(
                self._dummy_state(
                    small_dataset, small_split, fast_config, epoch, best_epoch=0
                )
            )
        newest = manager.latest_path()
        newest.write_bytes(b"externally damaged")
        state = manager.load_latest()
        assert state is not None
        assert state.epoch == 0

    def test_load_latest_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_stray_tmp_files_ignored(
        self, small_dataset, small_split, fast_config, tmp_path
    ):
        manager = CheckpointManager(tmp_path)
        manager.save(
            self._dummy_state(small_dataset, small_split, fast_config, 0, best_epoch=0)
        )
        # A writer killed hard (no cleanup) leaves a tmp file behind; it
        # must be invisible to discovery and resume.
        (tmp_path / ".ckpt-000001.npz.tmp-12345").write_bytes(b"torn half-write")
        assert [epoch for epoch, _ in manager.checkpoints()] == [0]
        assert manager.load_latest().epoch == 0

    def test_keep_last_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path, keep_last=0)
