"""Mini-batch training loop for KGAG (Sec. III-E).

Adam over mixed group+user mini-batches, optional early stopping on
validation hit@5, per-epoch history for the experiment harnesses.
Each step backpropagates the data loss of Eq. 20 (:func:`combined_loss`),
clips it, and hands it to ``Adam.step()``, which applies the row-sparse
rule of :mod:`repro.nn.optim`: embedding tables step only the rows the
batch touched, and the regularizer ``λ||Θ||²`` enters as weight decay
``2λθ`` on exactly those rows (and on every dense parameter).  Reported
losses are data losses; they exclude the regularizer.
Optional observability (`metrics=` / `run_log=` / `diagnostics=`): a
:class:`~repro.obs.metrics.MetricsRegistry` receives loss, gradient
norm and epoch/step timing series, and a
:class:`~repro.obs.metrics.JsonlRunLog` collects per-epoch records plus
:class:`~repro.core.diagnostics.DiagnosticsRecorder` snapshots in one
file.  All three default to disabled no-ops (the ``sanitize=True``
pattern): the unobserved path computes nothing extra.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..data.interactions import InteractionTable
from ..data.loader import MixedBatchLoader
from ..eval.evaluator import evaluate_group_recommender
from ..nn import Adam, Tensor, clip_grad_norm, grad_l2_norm, no_grad, tape_hooks_active
from ..obs.metrics import NULL_REGISTRY
from .losses import combined_loss
from .model import KGAG, TrainStepPlan

__all__ = ["TrainingHistory", "KGAGTrainer"]

#: Per-signature cache sentinel: tracing failed once for this signature,
#: so every later step with it goes straight to the dynamic tape.
_COMPILE_FAILED = object()


@dataclass
class TrainingHistory:
    """Per-epoch record of the optimization."""

    losses: list[float] = field(default_factory=list)
    validation: list[dict[str, float]] = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = -np.inf
    stopped_early: bool = False

    @property
    def num_epochs(self) -> int:
        return len(self.losses)


class KGAGTrainer:
    """Trains a :class:`KGAG` model on one dataset split.

    Parameters
    ----------
    model:
        The model (its config supplies all hyper-parameters).
    group_train:
        Group-item training positives.
    user_train:
        User-item positives (the sparsity-alleviation signal of Eq. 18).
    group_validation:
        Optional validation positives for early stopping / history.
    sanitize:
        Run every training step under
        :class:`~repro.analysis.sanitizer.TapeSanitizer`: a NaN/Inf
        produced anywhere in the forward or backward pass raises
        :class:`~repro.analysis.sanitizer.TapeAnomalyError` naming the
        op that produced it, and parameters that backward never touched
        are recorded in :attr:`untouched_parameters`.  Off by default —
        the unsanitized path runs the pristine tape code with zero
        instrumentation overhead.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When
        given, the trainer maintains ``train/steps_total`` and
        ``train/epochs_total`` counters, ``train/loss`` (data loss) and
        ``train/grad_norm`` (data gradient before clipping; the weight
        decay is added after it) gauges, and ``train/step_seconds`` /
        ``train/epoch_seconds`` histograms.  Defaults to the shared
        no-op registry: disabled training computes no gradient norm and
        installs no tape hooks.
    run_log:
        Optional :class:`~repro.obs.metrics.JsonlRunLog`.  ``fit()``
        emits one ``epoch`` record per epoch (loss, validation metrics,
        epoch seconds) and — when ``diagnostics`` is also given — one
        ``diagnostics`` record per epoch, so metrics and diagnostics
        land in a single run log.
    diagnostics:
        Optional :class:`~repro.core.diagnostics.DiagnosticsRecorder`
        bound to ``model``; ``fit()`` records one snapshot per epoch.
    fused:
        Score the positive and negative candidates of each group batch
        in one propagation pass
        (:meth:`~repro.core.model.KGAG.group_item_scores_pair`) instead
        of two.  Per-row math is identical; scores and gradients match
        the two-call path to float round-off.  On by default; disable to
        A/B against the reference path.
    compile:
        Execute train steps through the compiled tape executor
        (:mod:`repro.nn.compile`).  The first step of each shape
        signature ``(group_triplets, user_pairs)`` is traced through the
        tape-hook registry and specialized into a flat replayable
        program; later steps of the same signature replay it.  The first
        replay of every program is verified gradient-for-gradient
        (``np.array_equal``) against the dynamic tape before its result
        is trusted; compiled training is bit-exact with ``compile=False``.
        Fallback to the dynamic tape is automatic — on a new shape
        signature (a fresh trace), on installed tape hooks (sanitizer /
        profiler, including ``sanitize=True``), and on any op outside
        the compiled set — and is observable via the ``compile/traces``,
        ``compile/replays`` and ``compile/fallbacks`` counters plus the
        :attr:`compile_stats` dict.  The compiled path always scores
        through the fused pair plan, regardless of ``fused``.  Off by
        default.
    tape_free_eval:
        Route :meth:`evaluate` / :meth:`validate` through a
        :class:`~repro.serve.engine.RankingEngine` built directly over
        the live model weights (no tape, no ``.npz`` round-trip)
        whenever the model's config is inside the engine's supported
        matrix; otherwise fall back to the tape path under ``no_grad``.
        Rankings are identical; raw scores match to ~1e-9 (BLAS
        reassociation in the batched engine kernels).
    workers:
        Number of data-parallel training processes
        (:mod:`repro.core.parallel`).  ``workers=1`` (the default) is the
        sequential step loop: one ``Adam.step()`` per batch.  With
        ``workers=N`` the first parallel epoch forks N workers around a
        shared-memory parameter store; each epoch splits the batch
        schedule across fixed row shards and applies one merged
        ``Adam.step_rows`` per round of N batches.  Both use the same
        row-sparse update rule and lazy L2; the parallel schedule is
        deterministic at a fixed worker count but *not* bit-exact with
        the sequential one (fewer steps, on gradients averaged over N
        batches).  Call :meth:`close` (or use the trainer as a context
        manager) to stop the workers and release the shared segments.
    """

    def __init__(
        self,
        model: KGAG,
        group_train: InteractionTable,
        user_train: InteractionTable,
        group_validation: InteractionTable | None = None,
        sanitize: bool = False,
        metrics=None,
        run_log=None,
        diagnostics=None,
        fused: bool = True,
        tape_free_eval: bool = True,
        compile: bool = False,
        workers: int = 1,
    ):
        if int(workers) < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.model = model
        self.config = model.config
        self.group_train = group_train
        self.user_train = user_train
        self.group_validation = group_validation
        self.rng = np.random.default_rng(self.config.seed + 1)
        self.loader = MixedBatchLoader(
            group_train,
            user_train,
            batch_size=self.config.batch_size,
            rng=self.rng,
        )
        # λ||Θ||² of Eq. 20 as coupled weight decay (gradient 2λθ), applied
        # by the row-sparse rule on the rows each batch touches.
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=2.0 * self.config.l2_weight,
        )
        self.history = TrainingHistory()
        self._best_state: dict | None = None
        self._patience_left = self.config.patience
        self.sanitize = sanitize
        self.fused = bool(fused)
        self.tape_free_eval = bool(tape_free_eval)
        self.compile = bool(compile)
        self.workers = int(workers)
        self._pool = None
        self._restored_worker_states: list | None = None
        self.compile_stats = {"traces": 0, "replays": 0, "fallbacks": 0}
        self._programs: dict[tuple[int, int], object] = {}
        self.untouched_parameters: list[str] = []
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.run_log = run_log
        self.diagnostics = diagnostics
        # Instruments are resolved once; with the null registry these are
        # shared no-op singletons, so the hot loop pays only a method call.
        self._m_steps = self.metrics.counter(
            "train/steps_total", help="optimizer steps taken"
        )
        self._m_epochs = self.metrics.counter(
            "train/epochs_total", help="training epochs completed"
        )
        self._m_loss = self.metrics.gauge("train/loss", help="last batch loss")
        self._m_grad_norm = self.metrics.gauge(
            "train/grad_norm", help="global gradient norm before clipping"
        )
        self._m_step_seconds = self.metrics.histogram(
            "train/step_seconds", help="wall time per optimizer step"
        )
        self._m_epoch_seconds = self.metrics.histogram(
            "train/epoch_seconds",
            buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0),
            help="wall time per training epoch",
        )
        self._m_compile_traces = self.metrics.counter(
            "compile/traces", help="train steps traced into compiled programs"
        )
        self._m_compile_replays = self.metrics.counter(
            "compile/replays", help="train steps executed as compiled replays"
        )
        self._m_compile_fallbacks = self.metrics.counter(
            "compile/fallbacks", help="compiled-path steps run on the dynamic tape"
        )

    # ------------------------------------------------------------------
    def train_step(self, batch) -> float:
        """One optimization step on a mixed batch; returns the data loss.

        With ``sanitize=True`` the forward/backward runs inside a
        :class:`~repro.analysis.sanitizer.TapeSanitizer`, so numerical
        anomalies raise at the producing op instead of surfacing as a
        corrupted metric epochs later.
        """
        step_start = time.perf_counter() if self.metrics.enabled else 0.0
        if self.sanitize:
            # Imported lazily: the default path must not even load the
            # sanitizer machinery.
            from ..analysis.sanitizer import TapeSanitizer

            with TapeSanitizer() as tape:
                loss = self._forward_backward(batch)
            self.untouched_parameters = [
                anomaly.op
                for anomaly in tape.check_parameters(self.model.named_parameters())
            ]
        else:
            loss = self._forward_backward(batch)
        if self.metrics.enabled:
            # Pre-clipping global norm; guarded so the disabled path does
            # not pay the extra reduction over every parameter.
            self._m_grad_norm.set(self._gradient_norm())
        # Norm and clip see the data gradient only; Adam adds the weight
        # decay (the L2 term) after clipping, on the rows it steps.
        if self.config.max_grad_norm is not None:
            clip_grad_norm(self.model.parameters(), self.config.max_grad_norm)
        self.optimizer.step()
        value = float(loss.item())
        self._m_steps.inc()
        self._m_loss.set(value)
        if self.metrics.enabled:
            self._m_step_seconds.observe(time.perf_counter() - step_start)
        return value

    def _gradient_norm(self) -> float:
        # One shared implementation with clip_grad_norm (repro.nn.optim),
        # so the metric and the clipping threshold can't drift.
        return grad_l2_norm(self.model.parameters())

    def _forward_backward(self, batch):
        """Compute the data loss for one batch and run backward."""
        if self.compile:
            return self._forward_backward_compiled(batch)
        self.optimizer.zero_grad()
        triplets = batch.group_triplets
        if self.fused and hasattr(self.model, "group_item_scores_pair"):
            pos_scores, neg_scores = self.model.group_item_scores_pair(
                triplets[:, 0], triplets[:, 1], triplets[:, 2]
            )
        else:
            pos_scores = self.model.group_item_scores(triplets[:, 0], triplets[:, 1])
            neg_scores = self.model.group_item_scores(triplets[:, 0], triplets[:, 2])
        if len(batch.user_pairs):
            user_scores = self.model.user_item_scores(
                batch.user_pairs[:, 0], batch.user_pairs[:, 1]
            )
            user_labels = Tensor(batch.user_pairs[:, 2].astype(np.float64))
        else:
            user_scores, user_labels = None, None
        loss = combined_loss(
            pos_scores,
            neg_scores,
            user_scores,
            user_labels,
            beta=self.config.beta,
            loss_kind=self.config.loss,
            margin=self.config.margin,
        )
        loss.backward()
        return loss

    # ------------------------------------------------------------------
    # compiled train path (repro.nn.compile)
    # ------------------------------------------------------------------
    def _planned_loss(self, plan: TrainStepPlan) -> Tensor:
        """Data loss over a precomputed plan (no backward)."""
        pos_scores, neg_scores, user_scores, user_labels = (
            self.model.scores_from_plan(plan)
        )
        return combined_loss(
            pos_scores,
            neg_scores,
            user_scores,
            user_labels,
            beta=self.config.beta,
            loss_kind=self.config.loss,
            margin=self.config.margin,
        )

    def _dynamic_step_from_plan(self, plan: TrainStepPlan) -> Tensor:
        loss = self._planned_loss(plan)
        loss.backward()
        return loss

    def _count_fallback(self) -> None:
        self.compile_stats["fallbacks"] += 1
        self._m_compile_fallbacks.inc()

    def _forward_backward_compiled(self, batch) -> Tensor:
        """Trace-once/replay-many step with automatic dynamic fallback.

        Fallback triggers (each counted in ``compile/fallbacks``): tape
        hooks installed (sanitizer/profiler — compiled kernels bake in
        the pristine donation fast paths hooks disable), a signature
        whose trace failed (op outside the compiled set), a replay whose
        slots stopped matching the traced signature, and a first replay
        whose gradients do not reproduce the dynamic tape bit for bit.
        A *new* shape signature is not a fallback: it traces a fresh
        program and that step trains on the dynamic tape it just traced.
        """
        from ..nn.compile import TraceError, trace_step

        self.optimizer.zero_grad()
        triplets = batch.group_triplets
        plan = self.model.train_step_plan(
            triplets[:, 0],
            triplets[:, 1],
            triplets[:, 2],
            user_pairs=batch.user_pairs,
        )
        signature = plan.signature
        program = self._programs.get(signature)
        if tape_hooks_active() or program is _COMPILE_FAILED:
            self._count_fallback()
            return self._dynamic_step_from_plan(plan)
        slots = plan.slot_arrays()
        if program is None:
            program, loss, failure = trace_step(
                lambda: self._planned_loss(plan), slots
            )
            if program is None:
                self._programs[signature] = _COMPILE_FAILED
                self._count_fallback()
            else:
                program.failure = None
                program.verified = False
                self._programs[signature] = program
                self.compile_stats["traces"] += 1
                self._m_compile_traces.inc()
            # The traced step itself trains on the dynamic tape (the
            # graph is still live; specialization walked it first).
            loss.backward()
            return loss
        if not program.verified:
            return self._verify_first_replay(signature, program, plan, slots)
        try:
            value = program.replay(slots)
        except TraceError:
            self._programs[signature] = _COMPILE_FAILED
            self._count_fallback()
            return self._dynamic_step_from_plan(plan)
        self.compile_stats["replays"] += 1
        self._m_compile_replays.inc()
        return Tensor(value)

    def _verify_first_replay(
        self, signature, program, plan: TrainStepPlan, slots
    ) -> Tensor:
        """Gate a program's first replay against the dynamic tape.

        Runs the step both ways on the *same* plan and requires the loss
        and every parameter gradient to match ``np.array_equal``.  On
        success the replay's gradients stand (they are identical) and
        the program is trusted for plain replays; on any mismatch the
        dynamic results are restored and the signature is marked failed.
        """
        from ..nn.compile import TraceError

        loss = self._dynamic_step_from_plan(plan)
        parameters = list(self.model.parameters())
        expected = [None if p.grad is None else p.grad.copy() for p in parameters]
        expected_loss = loss.item()
        try:
            value = program.replay(slots)
            exact = value == expected_loss and all(
                (e is None and p.grad is None)
                or (e is not None and p.grad is not None and np.array_equal(e, p.grad))
                for e, p in zip(expected, parameters)
            )
        except TraceError:
            exact = False
        if not exact:
            for parameter, grad in zip(parameters, expected):
                parameter.grad = grad
            self._programs[signature] = _COMPILE_FAILED
            self._count_fallback()
            return loss
        program.verified = True
        self.compile_stats["replays"] += 1
        self._m_compile_replays.inc()
        return loss

    def train_epoch(self) -> float:
        """One pass over the training data; returns the mean batch data loss.

        With ``workers > 1`` the pass runs data-parallel through the
        worker pool (created lazily on the first parallel epoch);
        otherwise it is the sequential step loop.
        """
        self.model.train()
        epoch_start = time.perf_counter() if self.metrics.enabled else 0.0
        if self.workers > 1:
            losses = self._pool_handle().train_epoch()
            self._m_steps.inc(len(losses))
        else:
            losses = [self.train_step(batch) for batch in self.loader.epoch()]
        mean_loss = float(np.mean(losses))
        self._m_epochs.inc()
        if self.metrics.enabled:
            self._m_epoch_seconds.observe(time.perf_counter() - epoch_start)
            self._m_loss.set(mean_loss)
        return mean_loss

    # ------------------------------------------------------------------
    # data-parallel pool (repro.core.parallel)
    # ------------------------------------------------------------------
    def _pool_handle(self):
        """The live worker pool, created on first use."""
        if self._pool is None:
            # Imported lazily: sequential training must not pull in the
            # multiprocessing machinery.
            from .parallel import WorkerPool

            self._pool = WorkerPool(self, self.workers)
            if self._restored_worker_states is not None:
                self._pool.set_rng_states(self._restored_worker_states)
                self._restored_worker_states = None
        return self._pool

    def worker_rng_states(self) -> list | None:
        """Per-worker RNG stream snapshots, or ``None`` when sequential."""
        if self.workers <= 1:
            return None
        if self._pool is not None:
            return self._pool.rng_states()["streams"]
        if self._restored_worker_states is not None:
            return list(self._restored_worker_states)
        from .parallel import initial_worker_rng_states

        return initial_worker_rng_states(self, self.workers)

    def set_worker_rng_states(self, streams: list) -> None:
        """Restore per-worker streams (checkpoint resume)."""
        if self.workers <= 1:
            raise ValueError("sequential trainer has no worker RNG streams")
        if len(streams) != self.workers:
            raise ValueError(
                f"checkpoint holds {len(streams)} worker streams, "
                f"trainer runs {self.workers} workers"
            )
        if self._pool is not None:
            self._pool.set_rng_states(list(streams))
        else:
            self._restored_worker_states = list(streams)

    def close(self) -> None:
        """Stop the worker pool (if any) and release its shared memory.

        Idempotent and a no-op for sequential trainers; after closing,
        the next parallel epoch forks a fresh pool.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.close()

    def __enter__(self) -> "KGAGTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def validate(self, k: int = 5) -> dict[str, float]:
        """hit@k / rec@k on the validation split."""
        if self.group_validation is None:
            raise ValueError("no validation split provided")
        return self.evaluate(self.group_validation, k=k)

    def evaluate(self, interactions: InteractionTable, k: int = 5) -> dict[str, float]:
        """hit@k / rec@k of the current model on any split.

        When ``tape_free_eval`` is on and the model config is inside the
        serving engine's supported matrix, scoring runs through a
        :class:`~repro.serve.engine.RankingEngine` over a zero-copy view
        of the live weights — no autograd tape is built and member/item
        receptive fields are shared across the whole catalog.  Otherwise
        this falls back to the reference tape path under ``no_grad``.
        """
        self.model.eval()
        if self.tape_free_eval:
            engine = self._ranking_engine()
            if engine is not None:
                return evaluate_group_recommender(
                    None,
                    interactions,
                    k=k,
                    train_interactions=self.group_train,
                    index=engine,
                )
        with no_grad():
            return evaluate_group_recommender(
                lambda g, v: self.model.group_item_scores(g, v).numpy(),
                interactions,
                k=k,
                train_interactions=self.group_train,
            )

    def _ranking_engine(self):
        """A live-weights RankingEngine, or None when unsupported."""
        # Imported lazily: training must not pull in the serving layer
        # unless the tape-free path is actually taken.
        from ..serve.engine import RankingEngine, engine_supports

        if not engine_supports(self.model):
            return None
        return RankingEngine.from_model(self.model)

    # ------------------------------------------------------------------
    def fit(
        self,
        verbose: bool = False,
        checkpoint_dir: str | None = None,
        save_every: int = 1,
        resume: bool = False,
        keep_last: int = 3,
        keep_best: bool = True,
    ) -> TrainingHistory:
        """Run the configured number of epochs with early stopping.

        Tracks validation hit@5; on improvement the parameters are
        snapshotted and restored at the end, so the returned model is the
        best-on-validation one (standard practice, and what makes the
        hyper-parameter sweeps of Figs. 4-5 well-defined).

        Parameters
        ----------
        checkpoint_dir:
            When given, a full :class:`~repro.core.checkpoint.TrainState`
            (model + optimizer + RNG states + history + best snapshot) is
            written atomically every ``save_every`` epochs, managed by a
            :class:`~repro.core.checkpoint.CheckpointManager` with a
            keep-last-``keep_last`` + keep-best retention policy.
        resume:
            Restore the newest checkpoint in ``checkpoint_dir`` before
            training and continue from the epoch after it.  The resumed
            run is **bit-exact**: its loss trajectory and final parameter
            arrays equal an uninterrupted run's (``np.array_equal``).  A
            ``resume`` record naming the restored epoch/step is emitted to
            the run log when one is attached.  With an empty directory
            this silently starts from scratch.
        save_every:
            Epoch interval between checkpoints (the final and the
            early-stopping epoch are always checkpointed).
        """
        if save_every <= 0:
            raise ValueError("save_every must be positive")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        manager = None
        start_epoch = 0
        if checkpoint_dir is not None:
            # Imported lazily: plain fit() must not pull in the
            # durability layer.
            from .checkpoint import CheckpointManager, TrainState

            manager = CheckpointManager(
                checkpoint_dir, keep_last=keep_last, keep_best=keep_best
            )
            if resume:
                state = manager.load_latest()
                if state is not None:
                    state.restore(self)
                    start_epoch = state.epoch + 1
                    if verbose:
                        print(
                            f"resumed from {state.source_path} "
                            f"(epoch {state.epoch} complete)"
                        )
                    if self.run_log is not None:
                        step = state.optimizer_state.get("scalars", {}).get(
                            "step_count"
                        )
                        self.run_log.emit(
                            "resume",
                            epoch=state.epoch,
                            step=step,
                            checkpoint=str(state.source_path),
                        )
        if start_epoch == 0:
            self._patience_left = self.config.patience
        for epoch in range(start_epoch, self.config.epochs):
            if self.history.stopped_early:
                break
            mean_loss = self.train_epoch()
            self.history.losses.append(mean_loss)
            validation_metrics: dict[str, float] | None = None
            if self.group_validation is not None:
                validation_metrics = self.validate()
            self._observe_epoch(epoch, mean_loss, validation_metrics)
            if validation_metrics is not None:
                metrics = validation_metrics
                self.history.validation.append(metrics)
                metric = metrics["hit@5"] + metrics["rec@5"]
                if verbose:
                    print(
                        f"epoch {epoch:3d}  loss {mean_loss:.4f}  "
                        f"hit@5 {metrics['hit@5']:.4f}  rec@5 {metrics['rec@5']:.4f}"
                    )
                if metric > self.history.best_metric:
                    self.history.best_metric = metric
                    self.history.best_epoch = epoch
                    self._best_state = self.model.state_dict()
                    self._patience_left = self.config.patience
                elif self.config.patience:
                    self._patience_left -= 1
                    if self._patience_left <= 0:
                        self.history.stopped_early = True
            elif verbose:
                print(f"epoch {epoch:3d}  loss {mean_loss:.4f}")
            if manager is not None and (
                (epoch + 1) % save_every == 0
                or epoch == self.config.epochs - 1
                or self.history.stopped_early
            ):
                manager.save(TrainState.capture(self, epoch))
            if self.history.stopped_early:
                break
        if self._best_state is not None:
            self.model.load_state_dict(self._best_state)
        if self.run_log is not None:
            self.run_log.emit_snapshot(self.metrics, kind="final_metrics")
        return self.history

    def _observe_epoch(
        self, epoch: int, mean_loss: float, validation_metrics: dict[str, float] | None
    ) -> None:
        """Record one epoch in the diagnostics recorder and the run log."""
        snapshot = None
        if self.diagnostics is not None:
            snapshot = self.diagnostics.record()
        if self.run_log is None:
            return
        record = {"epoch": epoch, "loss": mean_loss}
        if validation_metrics is not None:
            record.update(validation_metrics)
        if self.metrics.enabled:
            record["grad_norm"] = self._m_grad_norm.value
        self.run_log.emit("epoch", **record)
        if snapshot is not None:
            self.run_log.emit("diagnostics", epoch=epoch, **snapshot.as_dict())
