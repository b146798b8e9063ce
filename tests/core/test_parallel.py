"""Data-parallel trainer tests (:mod:`repro.core.parallel`).

Three contracts from the PR-9 issue:

* ``workers=1`` is **bit-exact** with the sequential trainer across the
  config matrix (``np.array_equal``, no tolerance) — it runs the same
  untouched step loop.
* ``workers=4`` is **convergence-equivalent** on the canonical tiny
  workload: deterministic run-to-run, loss decreasing, and final eval
  metrics within a committed tolerance of the sequential run (the
  parallel schedule takes fewer, averaged, sparse-Adam steps, so
  bit-exactness is not the contract — see docs/parallelism.md).
* Kill-and-resume fault injection mid-epoch restores the per-worker RNG
  streams bit-exactly: the resumed run equals the uninterrupted one.

Plus unit coverage of the building blocks (sparse extraction, the
deterministic merge, ``step_rows``, the shared-memory store lifecycle).
"""

import numpy as np
import pytest

from repro.core import KGAGConfig, KGAGTrainer
from repro.core.parallel import (
    ParallelStats,
    SharedParamStore,
    extract_gradients,
    leaked_segments,
    merge_gradients,
)
from repro.nn import Adam, SGD, no_grad
from repro.nn.module import Parameter

from .conftest import build_model

#: Committed tolerance for workers=4 convergence equivalence: final
#: hit@5 / rec@5 may differ from the sequential run by at most this much
#: on the canonical tiny workload.
CONVERGENCE_TOLERANCE = 0.15


def make_trainer(small_dataset, small_split, config, **kwargs):
    model = build_model(small_dataset, config)
    return KGAGTrainer(
        model,
        small_split.train,
        small_dataset.user_item,
        small_split.validation,
        **kwargs,
    )


def params_of(trainer):
    return [p.data.copy() for p in trainer.model.parameters()]


# ---------------------------------------------------------------------------
# workers=1 bit-exact parity across the config matrix
# ---------------------------------------------------------------------------


class TestWorkersOneParity:
    @pytest.mark.parametrize(
        "loss,fused,compile",
        [
            ("margin", True, False),
            ("margin", False, False),
            ("margin", True, True),
            ("bpr", True, False),
            ("bpr", True, True),
        ],
    )
    def test_bit_exact_with_sequential_trainer(
        self, small_dataset, small_split, loss, fused, compile
    ):
        config = KGAGConfig(
            embedding_dim=8,
            num_layers=1,
            num_neighbors=3,
            epochs=2,
            batch_size=32,
            patience=0,
            loss=loss,
            seed=0,
        )
        sequential = make_trainer(
            small_dataset, small_split, config, fused=fused, compile=compile
        )
        one_worker = make_trainer(
            small_dataset,
            small_split,
            config,
            fused=fused,
            compile=compile,
            workers=1,
        )
        for _ in range(2):
            assert sequential.train_epoch() == one_worker.train_epoch()
        for left, right in zip(params_of(sequential), params_of(one_worker)):
            assert np.array_equal(left, right)

    def test_workers_one_fit_matches(self, small_dataset, small_split, fast_config):
        sequential = make_trainer(small_dataset, small_split, fast_config)
        one_worker = make_trainer(
            small_dataset, small_split, fast_config, workers=1
        )
        h_seq = sequential.fit()
        h_par = one_worker.fit()
        assert h_seq.losses == h_par.losses
        for left, right in zip(params_of(sequential), params_of(one_worker)):
            assert np.array_equal(left, right)

    def test_workers_must_be_positive(self, small_dataset, small_split, fast_config):
        with pytest.raises(ValueError, match="workers"):
            make_trainer(small_dataset, small_split, fast_config, workers=0)


# ---------------------------------------------------------------------------
# parallel training: determinism + convergence equivalence
# ---------------------------------------------------------------------------


class TestParallelTraining:
    def _run(self, small_dataset, small_split, workers, epochs=3, **kwargs):
        config = KGAGConfig(
            embedding_dim=8,
            num_layers=1,
            num_neighbors=3,
            epochs=epochs,
            batch_size=16,
            patience=0,
            seed=0,
        )
        trainer = make_trainer(
            small_dataset, small_split, config, workers=workers, **kwargs
        )
        try:
            losses = [trainer.train_epoch() for _ in range(epochs)]
            metrics = trainer.validate()
            final = params_of(trainer)
        finally:
            trainer.close()
        return losses, metrics, final

    def test_run_to_run_deterministic(self, small_dataset, small_split):
        first = self._run(small_dataset, small_split, workers=2)
        second = self._run(small_dataset, small_split, workers=2)
        assert first[0] == second[0]
        assert all(np.array_equal(a, b) for a, b in zip(first[2], second[2]))

    def test_workers4_convergence_equivalent(self, small_dataset, small_split):
        # One parallel round = one averaged step over N batches, so an
        # equal-update budget needs ~N x the epochs; both runs below are
        # trained to convergence on the canonical tiny workload.
        par_losses, par_metrics, _ = self._run(
            small_dataset, small_split, workers=4, epochs=12
        )
        seq_losses, seq_metrics, _ = self._run(
            small_dataset, small_split, workers=1, epochs=4
        )
        assert par_losses[-1] < par_losses[0], "parallel loss did not decrease"
        for key in ("hit@5", "rec@5"):
            assert par_metrics[key] == pytest.approx(
                seq_metrics[key], abs=CONVERGENCE_TOLERANCE
            )

    def test_compiled_workers_run(self, small_dataset, small_split):
        losses, _, _ = self._run(
            small_dataset, small_split, workers=2, compile=True
        )
        assert all(np.isfinite(loss) for loss in losses)

    def test_parallel_metrics_and_stats(self, small_dataset, small_split):
        from repro.obs import MetricsRegistry

        config = KGAGConfig(
            embedding_dim=8,
            num_layers=1,
            num_neighbors=3,
            epochs=1,
            batch_size=16,
            patience=0,
            seed=0,
        )
        registry = MetricsRegistry()
        trainer = make_trainer(
            small_dataset, small_split, config, workers=2, metrics=registry
        )
        try:
            trainer.train_epoch()
            snapshot = registry.snapshot()
            assert snapshot["parallel/workers"]["value"] == 2.0
            assert snapshot["parallel/rounds_total"]["value"] >= 1.0
            assert snapshot["parallel/batches_total"]["value"] >= (
                snapshot["parallel/rounds_total"]["value"]
            )
            assert "parallel/worker0/step_seconds" in snapshot
            assert "parallel/worker1/step_seconds" in snapshot
            stats = trainer._pool.stats.snapshot()
            assert stats["epochs"] == 1
            assert stats["batches"] == snapshot["parallel/batches_total"]["value"]
        finally:
            trainer.close()

    def test_close_releases_segments_and_is_idempotent(
        self, small_dataset, small_split, fast_config
    ):
        trainer = make_trainer(
            small_dataset, small_split, fast_config, workers=2
        )
        trainer.train_epoch()
        names = trainer._pool.store.segment_names
        assert names, "no shared segments created"
        trainer.close()
        trainer.close()
        leaked = set(leaked_segments())
        assert not (leaked & {name.lstrip("/") for name in names})
        # A fresh pool forks on the next parallel epoch.
        loss = trainer.train_epoch()
        assert np.isfinite(loss)
        trainer.close()


# ---------------------------------------------------------------------------
# kill-and-resume: per-worker RNG streams restore bit-exactly
# ---------------------------------------------------------------------------


class TestKillAndResume:
    def _build(self, small_dataset, small_split, epochs):
        config = KGAGConfig(
            embedding_dim=8,
            num_layers=1,
            num_neighbors=3,
            epochs=epochs,
            batch_size=16,
            patience=0,
            seed=0,
        )
        return make_trainer(small_dataset, small_split, config, workers=2)

    def test_mid_epoch_kill_resumes_bit_exactly(
        self, small_dataset, small_split, tmp_path
    ):
        from repro.core.checkpoint import CheckpointManager, TrainState

        # Reference: uninterrupted 4-epoch parallel run.
        reference = self._build(small_dataset, small_split, epochs=4)
        ref_losses = [reference.train_epoch() for _ in range(4)]
        ref_params = params_of(reference)
        reference.close()

        # Victim: checkpoint after epoch 0, then crash MID-epoch during
        # epoch 1 — after at least one merged optimizer round, so the
        # per-worker RNG streams have advanced past the checkpoint.
        victim = self._build(small_dataset, small_split, epochs=4)
        assert victim.train_epoch() == ref_losses[0]
        manager = CheckpointManager(str(tmp_path))
        manager.save(TrainState.capture(victim, 0))
        real_step_rows = victim.optimizer.step_rows
        calls = {"n": 0}

        def crashing_step_rows(updates):
            real_step_rows(updates)
            calls["n"] += 1
            if calls["n"] >= 1:
                raise KeyboardInterrupt("injected mid-epoch crash")

        victim.optimizer.step_rows = crashing_step_rows
        with pytest.raises(KeyboardInterrupt):
            victim.train_epoch()
        victim.close()

        # Resume: fresh trainer + fresh pool, restore the epoch-0
        # checkpoint, run the remaining epochs.  Worker streams must
        # restore bit-exactly for the trajectories to coincide.
        resumed = self._build(small_dataset, small_split, epochs=4)
        state = manager.load_latest()
        assert state is not None
        assert state.rng_states["workers"]["count"] == 2
        state.restore(resumed)
        losses = [resumed.train_epoch() for _ in range(state.epoch + 1, 4)]
        resumed_params = params_of(resumed)
        resumed.close()

        assert losses == ref_losses[state.epoch + 1:]
        for left, right in zip(ref_params, resumed_params):
            assert np.array_equal(left, right)

    def test_worker_count_mismatch_refuses(
        self, small_dataset, small_split, tmp_path
    ):
        from repro.core.checkpoint import CheckpointManager, TrainState
        from repro.nn.serialization import CheckpointError

        trainer = self._build(small_dataset, small_split, epochs=2)
        trainer.train_epoch()
        manager = CheckpointManager(str(tmp_path))
        manager.save(TrainState.capture(trainer, 0))
        trainer.close()

        config = KGAGConfig(
            embedding_dim=8,
            num_layers=1,
            num_neighbors=3,
            epochs=2,
            batch_size=16,
            patience=0,
            seed=0,
        )
        other = make_trainer(small_dataset, small_split, config, workers=4)
        state = manager.load_latest()
        with pytest.raises(CheckpointError, match="worker"):
            state.restore(other)
        other.close()

    def test_capture_before_pool_creation_matches_fresh_pool(
        self, small_dataset, small_split
    ):
        # Capturing a checkpoint before the first parallel epoch must
        # record the same streams a fresh pool would actually start from.
        trainer = self._build(small_dataset, small_split, epochs=2)
        before = trainer.worker_rng_states()
        trainer.train_epoch()  # forks the pool (streams now advanced)
        trainer.close()

        fresh = self._build(small_dataset, small_split, epochs=2)
        pool = fresh._pool_handle()
        handshake = pool.rng_states()["streams"]
        fresh.close()
        assert before == handshake


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


class TestSparsePayloads:
    def _param(self, rows, dim=4, seed=0, row_sparse=True):
        rng = np.random.default_rng(seed)
        return Parameter(
            rng.standard_normal((rows, dim)), name=f"p{rows}", row_sparse=row_sparse
        )

    def test_extract_sparse_for_large_tables(self):
        parameter = self._param(128)
        grad = np.zeros_like(parameter.data)
        grad[3] = 1.0
        grad[17] = 2.0
        parameter.grad = grad
        [payload] = extract_gradients([parameter])
        kind, rows, values = payload
        assert kind == "rows"
        assert rows.tolist() == [3, 17]
        assert np.array_equal(values[0], grad[3])

    def test_extract_picks_form_from_parameter_not_shape(self):
        # A 2-D non-embedding weight stays dense however large it is; an
        # embedding table ships rows even when every row is touched.
        linear = self._param(128, row_sparse=False)
        linear.grad = np.ones_like(linear.data)
        saturated = self._param(4)
        saturated.grad = np.ones_like(saturated.data)
        none = self._param(8)
        payloads = extract_gradients([linear, saturated, none])
        assert payloads[0][0] == "dense"
        assert payloads[1][0] == "rows"
        assert payloads[1][1].tolist() == [0, 1, 2, 3]
        assert payloads[2] is None

    def test_merge_matches_dense_average(self):
        rng = np.random.default_rng(1)
        dense_a = np.zeros((128, 3))
        dense_b = np.zeros_like(dense_a)
        dense_a[[2, 5, 9]] = rng.standard_normal((3, 3))
        dense_b[[5, 9, 40]] = rng.standard_normal((3, 3))
        sparse_a = ("rows", np.array([2, 5, 9]), dense_a[[2, 5, 9]].copy())
        sparse_b = ("rows", np.array([5, 9, 40]), dense_b[[5, 9, 40]].copy())
        [merged] = merge_gradients([[sparse_a], [sparse_b]], 1)
        kind, rows, values = merged
        assert kind == "rows"
        expected = (dense_a + dense_b) / 2.0
        assert rows.tolist() == [2, 5, 9, 40]
        assert np.allclose(values, expected[rows])

    def test_merge_is_order_deterministic(self):
        sparse_a = ("rows", np.array([7, 1]), np.ones((2, 2)))
        sparse_b = ("rows", np.array([1, 7]), np.full((2, 2), 2.0))
        [first] = merge_gradients([[sparse_a], [sparse_b]], 1)
        [second] = merge_gradients([[sparse_a], [sparse_b]], 1)
        assert np.array_equal(first[1], second[1])
        assert np.array_equal(first[2], second[2])
        assert first[1].tolist() == [1, 7]


class TestStepRows:
    def _pair(self, optimizer_cls, **kwargs):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((6, 2))
        left = Parameter(data.copy(), name="left")
        right = Parameter(data.copy(), name="right")
        return (
            left,
            optimizer_cls([left], **kwargs),
            right,
            optimizer_cls([right], **kwargs),
        )

    @pytest.mark.parametrize("optimizer_cls", [Adam, SGD])
    def test_dense_step_rows_matches_step(self, optimizer_cls):
        left, opt_rows, right, opt_step = self._pair(optimizer_cls, lr=0.05)
        rng = np.random.default_rng(4)
        for _ in range(3):
            grad = rng.standard_normal(left.data.shape)
            opt_rows.step_rows([("dense", grad.copy())])
            right.grad = grad.copy()
            opt_step.step()
        assert np.array_equal(left.data, right.data)

    @pytest.mark.parametrize(
        "optimizer_cls,kwargs",
        [(Adam, {"lr": 0.05}), (SGD, {"lr": 0.05, "momentum": 0.9})],
    )
    def test_sparse_rows_touch_only_listed_rows(self, optimizer_cls, kwargs):
        left, opt_rows, _, _ = self._pair(optimizer_cls, **kwargs)
        before = left.data.copy()
        rows = np.array([1, 4])
        opt_rows.step_rows([("rows", rows, np.ones((2, 2)))])
        untouched = np.setdiff1d(np.arange(6), rows)
        assert np.array_equal(left.data[untouched], before[untouched])
        assert not np.array_equal(left.data[rows], before[rows])

    def test_length_mismatch_raises(self):
        parameter = Parameter(np.zeros((2, 2)), name="p")
        optimizer = Adam([parameter], lr=0.01)
        with pytest.raises(ValueError, match="updates"):
            optimizer.step_rows([])

    def test_sparse_adam_identity_preserved(self):
        # step_rows must update the parameter array in place (the
        # shared-memory mapping the workers read depends on it).
        parameter = Parameter(np.ones((4, 2)), name="p")
        optimizer = Adam([parameter], lr=0.1)
        buffer = parameter.data
        optimizer.step_rows([("rows", np.array([0]), np.ones((1, 2)))])
        assert parameter.data is buffer


class TestSharedParamStore:
    def test_round_trip_and_release(self):
        parameter = Parameter(np.arange(6, dtype=np.float64).reshape(3, 2), name="p")
        original = parameter.data.copy()
        store = SharedParamStore([("p", parameter)])
        try:
            assert np.array_equal(parameter.data, original)
            with no_grad():
                parameter.data[0, 0] = 42.0  # in-place write lands in the segment
            assert store.nbytes() == original.nbytes
        finally:
            store.close()
        assert parameter.data[0, 0] == 42.0  # values survive detach
        store.close()  # idempotent
        assert not (set(leaked_segments()) & set())

    def test_sync_repairs_rebound_parameter(self):
        parameter = Parameter(np.zeros((2, 2)), name="p")
        store = SharedParamStore([("p", parameter)])
        try:
            shared = parameter.data
            with no_grad():
                parameter.data = np.ones((2, 2))  # load_state_dict-style rebind
            store.sync()
            assert parameter.data is shared
            assert np.array_equal(parameter.data, np.ones((2, 2)))
        finally:
            store.close()


class TestParallelStats:
    def test_snapshot_reflects_recorded_rounds(self):
        stats = ParallelStats()
        stats.record_round(batches=3, sparse_rows=10)
        stats.record_round(batches=2, sparse_rows=0)
        stats.record_epoch()
        snapshot = stats.snapshot()
        assert snapshot == {
            "rounds": 2,
            "batches": 5,
            "sparse_rows": 10,
            "epochs": 1,
        }
