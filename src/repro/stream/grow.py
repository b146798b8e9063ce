"""Embedding-table growth: move a :class:`TrainState` to a grown vocabulary.

The delta path renumbers entities (see :mod:`repro.stream.delta`), so a
checkpoint captured before a delta indexes embedding rows — and Adam
moment rows — by ids that no longer exist.  :func:`grow_state` rebuilds
the state for the grown layout:

* every surviving row is *moved*, not recomputed: old entity row ``e``
  lands at ``plan.ckg_entity_remap()[e]`` with its weights, its Adam
  ``m``/``v`` moments and its best-snapshot value byte-for-byte intact;
* brand-new rows are initialized from a :mod:`repro.rng` stream with the
  same ``N(0, 0.1)`` law as fresh :class:`~repro.nn.layers.Embedding`
  tables (``init="rng"``), or from the mean of their already-known
  collaborative-KG neighbors (``init="neighbor_mean"`` — a cold-start
  prior: a new item described by known attributes starts near them);
* new rows get *zero* Adam moments, exactly like rows an optimizer has
  never stepped.

For an identity plan (a delta that grew nothing) the output is bit-exact
with the input under ``np.array_equal`` — the warm-start equivalence
test pins this.  :func:`warm_start` packages the full loop: build the
grown model, grow the state, restore it into a fresh trainer; because
``KGAGTrainer.fit`` would restore the *pre-delta* best snapshot at the
end, fine-tuning runs through :func:`finetune` (plain ``train_epoch``
calls in a forked child) instead.
"""

from __future__ import annotations

import copy
import dataclasses
import traceback
from multiprocessing import get_context

import numpy as np

from ..core.checkpoint import TrainState
from ..core.config import KGAGConfig
from ..core.model import KGAG
from ..core.trainer import KGAGTrainer
from ..data.interactions import InteractionTable
from ..nn.serialization import CheckpointError
from ..rng import ensure_rng
from .delta import GrowthPlan

__all__ = [
    "GROW_INITS",
    "EMBEDDING_INIT_STD",
    "parameter_order",
    "grow_state",
    "warm_start",
    "finetune",
]

GROW_INITS = ("rng", "neighbor_mean")

# Fresh-row law, matching repro.nn.init.normal's default used by Embedding.
EMBEDDING_INIT_STD = 0.1

_ENTITY_TABLE = "propagation.entity_embedding.weight"
_RELATION_TABLE = "propagation.relation_embedding.weight"


def parameter_order(model) -> list[str]:
    """Parameter names in optimizer-buffer order.

    ``Adam(model.parameters())`` keeps its ``m``/``v`` buffer lists in
    ``named_parameters()`` iteration order, but a saved
    :class:`TrainState` only records the *sorted* name set — so growing
    the optimizer buffers needs this explicit order from a freshly built
    model of the same architecture.
    """
    return [name for name, _ in model.named_parameters()]


def _grown_rows(
    table: np.ndarray,
    new_num_rows: int,
    remap: np.ndarray,
    fresh_rows: np.ndarray | None,
) -> np.ndarray:
    """Scatter ``table``'s rows through ``remap``; fill the rest.

    ``fresh_rows`` must cover the new row indices in sorted order; None
    fills with zeros (the optimizer-moment case).
    """
    grown = np.zeros((new_num_rows,) + table.shape[1:], dtype=table.dtype)
    grown[remap] = table
    if fresh_rows is not None:
        new_rows = np.setdiff1d(np.arange(new_num_rows), remap)
        grown[new_rows] = fresh_rows
    return grown


def _fresh_entity_rows(
    plan: GrowthPlan,
    dim: int,
    init: str,
    rng: np.random.Generator,
    old_table: np.ndarray,
    ckg,
) -> np.ndarray:
    """Initial values for entity rows that did not exist before the delta."""
    new_rows = plan.new_entity_rows()
    drawn = rng.normal(0.0, EMBEDDING_INIT_STD, size=(len(new_rows), dim))
    drawn = drawn.astype(old_table.dtype)
    if init == "rng" or not len(new_rows):
        return drawn
    if ckg is None:
        raise ValueError("init='neighbor_mean' needs the grown collaborative KG")
    if ckg.num_entities != plan.new_ckg_entities:
        raise ValueError(
            f"grown collaborative KG has {ckg.num_entities} entities, "
            f"plan expects {plan.new_ckg_entities}"
        )
    # Old rows already sit at their new indices after the scatter; a new
    # row averages its neighbors that carry pre-delta knowledge.  A new
    # entity with only new neighbors keeps its rng draw.
    remap = plan.ckg_entity_remap()
    old_at = np.full(plan.new_ckg_entities, -1, dtype=np.int64)
    old_at[remap] = np.arange(len(remap))
    for j, row in enumerate(new_rows):
        known = [
            old_at[neighbor]
            for _, neighbor in ckg.neighbors(int(row))
            if old_at[neighbor] >= 0
        ]
        if known:
            drawn[j] = old_table[known].mean(axis=0)
    return drawn


def grow_state(
    state: TrainState,
    plan: GrowthPlan,
    param_names: list[str],
    *,
    init: str = "rng",
    rng: np.random.Generator | int | None = None,
    ckg=None,
) -> TrainState:
    """Return a copy of ``state`` living in ``plan``'s grown id layout.

    Parameters
    ----------
    state:
        The pre-delta checkpoint.
    plan:
        The :class:`~repro.stream.delta.GrowthPlan` from ``apply_delta``.
    param_names:
        Optimizer-buffer parameter order (:func:`parameter_order` on a
        model of the same architecture).
    init:
        Fresh-row initializer: ``"rng"`` (seeded ``N(0, 0.1)`` draws) or
        ``"neighbor_mean"`` (mean of already-known collaborative-KG
        neighbors, falling back to the draw for isolated rows).
    rng:
        Seed or generator for the fresh draws (:func:`repro.rng.ensure_rng`).
    ckg:
        The *grown* collaborative KG; required for ``neighbor_mean``.
    """
    if init not in GROW_INITS:
        raise ValueError(f"init must be one of {GROW_INITS}, got {init!r}")
    if sorted(param_names) != sorted(state.model_state):
        raise CheckpointError(
            "param_names do not match the checkpoint's parameter set: "
            f"{sorted(param_names)} vs {sorted(state.model_state)}"
        )
    entity_table = state.model_state.get(_ENTITY_TABLE)
    relation_table = state.model_state.get(_RELATION_TABLE)
    if entity_table is None or relation_table is None:
        raise CheckpointError(
            "train state has no propagation embedding tables; "
            "only KGAG checkpoints can be grown"
        )
    if entity_table.shape[0] != plan.old_ckg_entities:
        raise CheckpointError(
            f"entity table has {entity_table.shape[0]} rows, plan expects "
            f"{plan.old_ckg_entities} pre-delta collaborative entities"
        )
    if relation_table.shape[0] != plan.old_relation_slots:
        raise CheckpointError(
            f"relation table has {relation_table.shape[0]} rows, plan expects "
            f"{plan.old_relation_slots} pre-delta relation slots"
        )

    if plan.is_identity:
        # Zero growth: pure deep copies, bit-exact by construction.
        grown = dataclasses.replace(
            state,
            model_state={k: v.copy() for k, v in state.model_state.items()},
            optimizer_state=copy.deepcopy(state.optimizer_state),
            rng_states=copy.deepcopy(state.rng_states),
            history=copy.deepcopy(state.history),
            best_state=(
                {k: v.copy() for k, v in state.best_state.items()}
                if state.best_state is not None
                else None
            ),
            source_path=None,
        )
        return grown

    rng = ensure_rng(rng)
    dim = entity_table.shape[1]
    entity_remap = plan.ckg_entity_remap()
    relation_remap = plan.relation_slot_remap()
    fresh_entities = _fresh_entity_rows(plan, dim, init, rng, entity_table, ckg)
    fresh_relations = rng.normal(
        0.0, EMBEDDING_INIT_STD, size=(len(plan.new_relation_rows()), dim)
    ).astype(relation_table.dtype)

    def grow_table(name: str, table: np.ndarray, fresh: bool) -> np.ndarray:
        if name == _ENTITY_TABLE:
            return _grown_rows(
                table,
                plan.new_ckg_entities,
                entity_remap,
                fresh_entities if fresh else None,
            )
        if name == _RELATION_TABLE:
            return _grown_rows(
                table,
                plan.new_relation_slots,
                relation_remap,
                fresh_relations if fresh else None,
            )
        return table.copy()

    model_state = {
        name: grow_table(name, value, fresh=True)
        for name, value in state.model_state.items()
    }
    # Best-on-validation snapshot grows with the *same* fresh rows, so
    # the two views of a new entity cannot diverge before it is trained.
    best_state = (
        {
            name: grow_table(name, value, fresh=True)
            for name, value in state.best_state.items()
        }
        if state.best_state is not None
        else None
    )
    optimizer_state = copy.deepcopy(state.optimizer_state)
    for buffers in optimizer_state.get("buffers", {}).values():
        if len(buffers) != len(param_names):
            raise CheckpointError(
                f"optimizer has {len(buffers)} buffers for "
                f"{len(param_names)} parameters"
            )
        for i, name in enumerate(param_names):
            # New rows keep zero moments — an optimizer that has never
            # stepped them, exactly like a fresh table's rows.
            buffers[i] = grow_table(name, buffers[i], fresh=False)

    return dataclasses.replace(
        state,
        model_state=model_state,
        optimizer_state=optimizer_state,
        rng_states=copy.deepcopy(state.rng_states),
        history=copy.deepcopy(state.history),
        best_state=best_state,
        source_path=None,
    )


def _config_from_state(state: TrainState) -> KGAGConfig:
    """Rebuild the model config recorded in a checkpoint."""
    recorded = dict(state.config or {})
    fields = {f.name for f in dataclasses.fields(KGAGConfig)}
    return KGAGConfig(**{k: v for k, v in recorded.items() if k in fields})


def warm_start(
    dataset,
    state: TrainState,
    plan: GrowthPlan,
    group_train: InteractionTable,
    *,
    group_validation: InteractionTable | None = None,
    init: str = "rng",
    rng: np.random.Generator | int | None = None,
) -> KGAGTrainer:
    """Build a trainer over the grown ``dataset`` resuming from ``state``.

    Constructs a fresh :class:`KGAG` for the grown vocabularies (which
    re-samples neighbor tables over the *grown* KG — new edges must be
    re-propagated, per the KGCN motivation, and the sampling is
    deterministic from the config seed), grows ``state`` to match, and
    restores it.  With an identity plan and the same dataset this
    round-trips bit-exactly.
    """
    config = _config_from_state(state)
    model = KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )
    grown = grow_state(
        state,
        plan,
        parameter_order(model),
        init=init,
        rng=rng,
        ckg=model.ckg,
    )
    trainer = KGAGTrainer(
        model,
        group_train,
        dataset.user_item,
        group_validation=group_validation,
    )
    grown.restore(trainer)
    return trainer


def finetune(trainer: KGAGTrainer, epochs: int) -> list[float]:
    """Run ``epochs`` plain training epochs; returns the epoch losses.

    ``fit()`` restores the best-on-validation snapshot when it finishes —
    correct for from-scratch training, wrong for a warm start whose best
    snapshot predates the delta.  Fine-tuning therefore drives
    ``train_epoch`` directly; zero epochs is an exact no-op (the
    warm-start equivalence guarantee) and forks nothing.

    The epochs run in a child forked from the caller, so a serving
    process's reads never wait on the fine-tune for the GIL, and the
    server's resident set no longer includes the epochs' working memory
    (it moves to the child).  The child sends back the losses and a
    :class:`TrainState` capture over a one-way pipe, and the parent
    restores it into ``trainer``: parameters, Adam moments and every RNG
    stream end bit-identical to training in process.  Instruments the
    child updates — the trainer's metrics registry, ``compile_stats``,
    compiled programs — are not carried back.

    The child only runs ``train_epoch`` and ``TrainState.capture`` on the
    trainer's own objects, so it takes no lock a server thread can hold
    at fork time.  If it raises, the same exception type is raised here
    with the child's traceback in the message; if it dies without
    answering (``os._exit``, a signal, ``KeyboardInterrupt``),
    ``RuntimeError`` names its exit code.  Either way ``trainer`` is left
    untouched.  A parallel trainer (``workers > 1``) is refused: its
    worker pool cannot live inside the forked child.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    epochs = int(epochs)
    if epochs == 0:
        return []
    if trainer.workers > 1:
        raise ValueError(
            f"finetune needs a sequential trainer (workers=1), got "
            f"workers={trainer.workers}"
        )
    context = get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    with receiver, sender:
        child = context.Process(
            target=_finetune_child,
            args=(trainer, epochs, receiver, sender),
            name="repro-finetune",
            daemon=True,
        )
        child.start()
        try:
            # The child now holds the only write end: its death reads as EOF.
            sender.close()
            try:
                reply = receiver.recv()
            except EOFError:
                reply = None
        finally:
            # Close the read end first: a child blocked sending into a
            # pipe nobody reads (the parent interrupted) would never exit.
            receiver.close()
            child.join()
    if reply is None:
        raise RuntimeError(
            f"fine-tune child exited with code {child.exitcode} "
            f"without sending a result"
        )
    if reply[0] == "error":
        _, error_type, child_traceback = reply
        message = f"in the fine-tune child:\n{child_traceback}"
        try:
            error = error_type(message)
        except TypeError:  # a type that takes no single message argument
            error = RuntimeError(f"{error_type.__name__} {message}")
        raise error
    _, losses, state = reply
    state.restore(trainer)
    trainer.model.train()  # as train_epoch leaves it in process
    return losses


def _finetune_child(trainer: KGAGTrainer, epochs: int, receiver, sender) -> None:
    """Forked child of :func:`finetune`: train, capture, reply once."""
    # The inherited read end would keep the pipe open after the parent
    # closes its own, and a large reply would then block forever.
    receiver.close()
    try:
        losses = [float(trainer.train_epoch()) for _ in range(epochs)]
        # restore() ignores the epoch number; the caller records its own.
        reply = ("done", losses, TrainState.capture(trainer, epoch=0))
    except Exception as error:
        reply = ("error", type(error), traceback.format_exc())
    try:
        sender.send(reply)
    except BrokenPipeError:  # the parent stopped reading
        pass
