"""Crash-safe training checkpoints: full :class:`TrainState` bundles.

``repro.nn.serialization`` persists *model weights*; that is enough to
ship a trained recommender but not to survive a crash mid-training: Adam
resumed with zeroed moments, a re-seeded shuffle stream, or a lost epoch
cursor produces a different trajectory than the uninterrupted run.  This
module checkpoints **everything the training loop mutates**:

* the model ``state_dict`` (and the best-on-validation snapshot),
* the optimizer state (:meth:`~repro.nn.optim.Optimizer.state_dict` —
  Adam ``m``/``v`` moments and step count, SGD velocity),
* every random-number-generator state the loop draws from (trainer,
  loader, both negative samplers),
* the epoch cursor, :class:`~repro.core.trainer.TrainingHistory` and the
  early-stopping patience counter.

Restoring a :class:`TrainState` into a freshly constructed trainer and
continuing is **bit-exact**: the resumed run's loss trajectory and final
parameter arrays equal the uninterrupted run's under
``np.array_equal`` (no tolerance) — enforced by the fault-injection
tests in ``tests/core/test_checkpoint_resume.py`` and ``make ckpt-smoke``.

Files are written through
:func:`~repro.nn.serialization.atomic_write_npz` (tmp file + fsync +
``os.replace``), so a checkpoint write killed at any instant leaves
either the complete new archive or the untouched previous one — never a
torn file the loader would accept.  :class:`CheckpointManager` adds the
retention policy: keep the last *N* checkpoints plus the one from the
best-on-validation epoch.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np

from ..nn.serialization import (
    CheckpointError,
    atomic_write_npz,
    pack_metadata,
    read_npz_archive,
    METADATA_KEY,
)
from ..rng import generator_state, set_generator_state

__all__ = ["TRAIN_STATE_FORMAT_VERSION", "TrainState", "CheckpointManager"]

TRAIN_STATE_FORMAT_VERSION = 1

_MODEL_PREFIX = "model/"
_BEST_PREFIX = "best/"
_OPT_PREFIX = "opt/"

_CKPT_PATTERN = re.compile(r"^ckpt-(\d{6})\.npz$")


@dataclasses.dataclass
class TrainState:
    """Everything needed to resume :meth:`KGAGTrainer.fit` bit-exactly.

    Attributes
    ----------
    epoch:
        Index of the last *completed* epoch; resume continues at
        ``epoch + 1``.
    model_state:
        The model's flat ``state_dict`` after ``epoch``.
    optimizer_state:
        :meth:`~repro.nn.optim.Optimizer.state_dict` snapshot.
    rng_states:
        ``{"trainer": ..., "loader": {...}}`` generator snapshots (the
        loader entry nests its two negative samplers).  A parallel
        trainer (``workers > 1``) extends the registry with a
        ``"workers"`` entry — ``{"count": N, "streams": [...]}``, one
        loader-stream snapshot per worker (``None`` for a worker whose
        shard is empty) — so the per-worker shuffle and negative-sampling
        streams resume bit-exactly too.
    history:
        ``TrainingHistory`` as a plain dict (JSON-serializable).
    patience_left:
        Early-stopping budget remaining after ``epoch``.
    best_state:
        Best-on-validation parameter snapshot, or None.
    model_class / config:
        Provenance: the model class name and its config dict, so a
        checkpoint can rebuild (and refuse to load into) the right model.
    """

    epoch: int
    model_state: dict[str, np.ndarray]
    optimizer_state: dict
    rng_states: dict
    history: dict
    patience_left: int
    best_state: dict[str, np.ndarray] | None
    model_class: str
    config: dict | None
    source_path: Path | None = None

    # -- trainer coupling --------------------------------------------------
    @classmethod
    def capture(cls, trainer, epoch: int) -> "TrainState":
        """Snapshot ``trainer`` after it completed ``epoch``."""
        from ..nn.serialization import _config_to_dict

        best = trainer._best_state
        rng_states = {
            "trainer": generator_state(trainer.rng),
            "loader": trainer.loader.rng_state(),
        }
        state_fn = getattr(trainer, "worker_rng_states", None)
        worker_streams = state_fn() if state_fn is not None else None
        if worker_streams is not None:
            rng_states["workers"] = {
                "count": int(trainer.workers),
                "streams": worker_streams,
            }
        return cls(
            epoch=int(epoch),
            model_state=trainer.model.state_dict(),
            optimizer_state=trainer.optimizer.state_dict(),
            rng_states=rng_states,
            history=dataclasses.asdict(trainer.history),
            patience_left=int(trainer._patience_left),
            best_state={k: v.copy() for k, v in best.items()} if best else None,
            model_class=type(trainer.model).__name__,
            config=_config_to_dict(getattr(trainer, "config", None)),
        )

    def restore(self, trainer) -> None:
        """Load this state into ``trainer`` (model, optimizer, RNGs, history)."""
        from .trainer import TrainingHistory

        if self.model_class != type(trainer.model).__name__:
            raise CheckpointError(
                f"train state was captured from {self.model_class!r}, "
                f"refusing to restore into {type(trainer.model).__name__!r}"
            )
        saved_decay = self.optimizer_state.get("scalars", {}).get("weight_decay")
        decay = getattr(trainer.optimizer, "weight_decay", None)
        if saved_decay is not None and decay is not None and saved_decay != decay:
            # The L2 term of Eq. 20 is the optimizer's weight decay
            # (2·l2_weight); a state written while L2 lived in the loss
            # carries weight_decay=0 and would silently drop it.
            raise CheckpointError(
                f"train state applies weight decay {saved_decay}, this "
                f"trainer applies {decay} (2 x l2_weight): resume with the "
                f"l2_weight it was trained with; a state saved while L2 was "
                f"part of the loss (weight decay 0) cannot be resumed"
            )
        try:
            trainer.model.load_state_dict(self.model_state)
            trainer.optimizer.load_state_dict(self.optimizer_state)
        except (KeyError, ValueError) as error:
            raise CheckpointError(f"incompatible train state: {error}") from error
        set_generator_state(trainer.rng, self.rng_states["trainer"])
        trainer.loader.set_rng_state(self.rng_states["loader"])
        workers = self.rng_states.get("workers")
        trainer_workers = int(getattr(trainer, "workers", 1))
        if workers is not None and trainer_workers > 1:
            if int(workers.get("count", -1)) != trainer_workers:
                raise CheckpointError(
                    f"checkpoint captured {workers.get('count')} worker RNG "
                    f"streams, trainer runs {trainer_workers} workers — the "
                    f"parallel schedule is only reproducible at the original "
                    f"worker count"
                )
            trainer.set_worker_rng_states(list(workers["streams"]))
        history = dict(self.history)
        trainer.history = TrainingHistory(
            losses=[float(x) for x in history.get("losses", [])],
            validation=[dict(v) for v in history.get("validation", [])],
            best_epoch=int(history.get("best_epoch", -1)),
            best_metric=float(history.get("best_metric", -np.inf)),
            stopped_early=bool(history.get("stopped_early", False)),
        )
        trainer._patience_left = int(self.patience_left)
        trainer._best_state = (
            {k: v.copy() for k, v in self.best_state.items()}
            if self.best_state is not None
            else None
        )

    def load_model(self, module, prefer_best: bool = True) -> None:
        """Load just the model weights into a bare ``module``.

        With ``prefer_best`` (default) the best-on-validation snapshot is
        used when present — that is what ``evaluate`` / ``build-index``
        want from a mid-run training checkpoint; pass False for the
        last-epoch weights.
        """
        if self.model_class != type(module).__name__:
            raise CheckpointError(
                f"train state was captured from {self.model_class!r}, "
                f"refusing to load into {type(module).__name__!r}"
            )
        state = self.model_state
        if prefer_best and self.best_state is not None:
            state = self.best_state
        try:
            module.load_state_dict(state)
        except (KeyError, ValueError) as error:
            raise CheckpointError(f"incompatible train state: {error}") from error

    # -- persistence -------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write this state to ``path`` atomically; returns the path."""
        arrays: dict[str, np.ndarray] = {}
        for name, value in self.model_state.items():
            arrays[_MODEL_PREFIX + name] = value
        if self.best_state is not None:
            for name, value in self.best_state.items():
                arrays[_BEST_PREFIX + name] = value
        buffer_counts: dict[str, int] = {}
        for buffer_name, buffers in self.optimizer_state.get("buffers", {}).items():
            buffer_counts[buffer_name] = len(buffers)
            for i, value in enumerate(buffers):
                arrays[f"{_OPT_PREFIX}{buffer_name}/{i:04d}"] = value
        metadata = {
            "kind": "train_state",
            "format_version": TRAIN_STATE_FORMAT_VERSION,
            "epoch": self.epoch,
            "model_class": self.model_class,
            "config": self.config,
            "optimizer": {
                "kind": self.optimizer_state.get("kind"),
                "scalars": self.optimizer_state.get("scalars", {}),
                "buffers": buffer_counts,
            },
            "rng_states": self.rng_states,
            "history": self.history,
            "patience_left": self.patience_left,
            "has_best": self.best_state is not None,
            "parameters": sorted(self.model_state),
        }
        arrays[METADATA_KEY] = pack_metadata(metadata)
        return atomic_write_npz(path, arrays)

    @classmethod
    def load(cls, path: str | Path) -> "TrainState":
        """Read a state written by :meth:`save`.

        Raises :class:`~repro.nn.serialization.CheckpointError` when the
        archive is corrupt, truncated, or not a train-state checkpoint.
        """
        path = Path(path)
        arrays, metadata = read_npz_archive(path)
        if metadata is None or metadata.get("kind") != "train_state":
            raise CheckpointError(f"{path} is not a train-state checkpoint")
        if metadata.get("format_version") != TRAIN_STATE_FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported train-state format version "
                f"{metadata.get('format_version')!r} in {path} "
                f"(this build reads version {TRAIN_STATE_FORMAT_VERSION})"
            )
        model_state: dict[str, np.ndarray] = {}
        best_state: dict[str, np.ndarray] = {}
        for name, value in arrays.items():
            if name.startswith(_MODEL_PREFIX):
                model_state[name[len(_MODEL_PREFIX):]] = value
            elif name.startswith(_BEST_PREFIX):
                best_state[name[len(_BEST_PREFIX):]] = value
        opt_meta = metadata.get("optimizer", {})
        buffers: dict[str, list[np.ndarray]] = {}
        for buffer_name, count in opt_meta.get("buffers", {}).items():
            try:
                buffers[buffer_name] = [
                    arrays[f"{_OPT_PREFIX}{buffer_name}/{i:04d}"]
                    for i in range(int(count))
                ]
            except KeyError as error:
                raise CheckpointError(
                    f"{path} is missing optimizer buffer array {error}"
                ) from error
        optimizer_state = {
            "kind": opt_meta.get("kind"),
            "scalars": dict(opt_meta.get("scalars", {})),
            "buffers": buffers,
        }
        state = cls(
            epoch=int(metadata["epoch"]),
            model_state=model_state,
            optimizer_state=optimizer_state,
            rng_states=metadata.get("rng_states", {}),
            history=dict(metadata.get("history", {})),
            patience_left=int(metadata.get("patience_left", 0)),
            best_state=best_state or None,
            model_class=str(metadata.get("model_class")),
            config=metadata.get("config"),
        )
        state.source_path = path
        return state


class CheckpointManager:
    """Directory of numbered train-state checkpoints with retention.

    Checkpoints are named ``ckpt-NNNNNN.npz`` by completed-epoch index.
    After every save the directory is pruned to the ``keep_last`` most
    recent epochs; with ``keep_best`` (default) the checkpoint written at
    the best-on-validation epoch is additionally protected, so the best
    weights stay recoverable even after the window slides past them.

    Writes go through :meth:`TrainState.save`'s atomic replace, so the
    directory never contains a torn archive under any crash timing; stray
    ``.tmp-*`` files from a killed writer are ignored (and are invisible
    to :meth:`load_latest` because they do not match the name pattern).
    """

    def __init__(
        self,
        directory: str | Path,
        keep_last: int = 3,
        keep_best: bool = True,
    ):
        if keep_last <= 0:
            raise ValueError("keep_last must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = int(keep_last)
        self.keep_best = bool(keep_best)

    def path_for(self, epoch: int) -> Path:
        """Canonical path of the checkpoint for ``epoch``."""
        return self.directory / f"ckpt-{int(epoch):06d}.npz"

    def checkpoints(self) -> list[tuple[int, Path]]:
        """``(epoch, path)`` pairs present on disk, oldest first."""
        found = []
        for entry in self.directory.iterdir():
            match = _CKPT_PATTERN.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        return sorted(found)

    def latest_path(self) -> Path | None:
        """Path of the newest checkpoint, or None when the dir is empty."""
        existing = self.checkpoints()
        return existing[-1][1] if existing else None

    def save(self, state: TrainState) -> Path:
        """Persist ``state`` and apply the retention policy."""
        path = state.save(self.path_for(state.epoch))
        self._prune(best_epoch=int(state.history.get("best_epoch", -1)))
        return path

    def _prune(self, best_epoch: int) -> None:
        existing = self.checkpoints()
        keep_epochs = {epoch for epoch, _ in existing[-self.keep_last:]}
        if self.keep_best:
            keep_epochs.add(best_epoch)
        for epoch, path in existing:
            if epoch not in keep_epochs:
                path.unlink(missing_ok=True)

    def load_latest(self) -> TrainState | None:
        """Newest loadable :class:`TrainState`, or None when none exists.

        A corrupt archive (possible only through external damage — the
        writer is atomic) is skipped in favour of the next older one.
        """
        for _, path in reversed(self.checkpoints()):
            try:
                return TrainState.load(path)
            except CheckpointError:
                continue
        return None
