"""Child processes that train: the ``train_wide`` run and the serve-world prep.

Run as ``python perfbench/train_proc.py <command> --seed N ...`` with
``src`` on ``PYTHONPATH``.  Each command writes one JSON result file;
with ``--spans`` it installs the tracing wrappers first and writes the
spans next to the result.  Training runs in its own process so that its
``VmHWM`` is the trainer's alone.

* ``train-wide``: build ``KGAG`` + ``KGAGTrainer`` on the wide world
  (several times, for ``setup_s``), then alternate ``train_epoch()`` and
  ``validate()`` as ``fit()`` does until ``--seconds`` have passed, then
  time trained-weights -> built, saved and loaded index -> first answer.
* ``prep-serve``: train the serve world's checkpoint (timed epochs and
  validations), save dataset, ``TrainState`` and the index artifact, and
  write the read sequence and the delta feed.
* ``serve-epochs``: train the serve world again from scratch, timing the
  same epochs and validations; nothing is saved.  It runs between the
  two timed read phases, so the serve workloads' ``epoch_s`` and
  ``validate_s`` samples come from two stretches of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import worlds  # noqa: E402
from common import vm_hwm_mb  # noqa: E402

MIN_CYCLES = 4  # 4 epochs of 27 steps: enough samples for a p90
SERVE_EPOCHS = 3  # per serve-world process; two processes per run
READ_SEQUENCE_LENGTH = 200_000
DELTA_FILES = 64


def _tracer(spans_path):
    if not spans_path:
        return None
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _build(dataset, split, config):
    from repro.core import KGAG, KGAGTrainer

    model = KGAG(dataset.kg, dataset.num_users, dataset.num_items,
                 dataset.user_item.pairs, dataset.groups, config)
    return KGAGTrainer(model, split.train, dataset.user_item,
                       group_validation=split.validation)


def _timed_steps(trainer, step_ms: list) -> None:
    """Time every ``train_step`` the trainer's own epoch loop makes."""
    inner = trainer.train_step

    def train_step(batch):
        start = time.perf_counter()
        try:
            return inner(batch)
        finally:
            step_ms.append((time.perf_counter() - start) * 1000.0)

    trainer.train_step = train_step


def train_wide(args) -> dict:
    """Cycles of epoch, validation, delivery and a fresh build until time is up.

    The first cycle is a warm-up and is not timed: the first epoch runs
    about 1.6x slower than the rest (fresh allocations), and as 1 of ~6
    epochs its steps would sit right at the p90 of the step latencies.
    Interleaving the stages spreads every metric's samples over the whole
    run, so a slow or fast stretch of the machine weighs on all of them
    alike.
    """
    tracer = _tracer(args.spans)
    dataset, split, config = worlds.make_world("train_wide", args.seed)
    workdir = Path(args.workdir)
    start = time.perf_counter()
    trainer = _build(dataset, split, config)
    setup = [time.perf_counter() - start]
    losses = [trainer.train_epoch()]
    trainer.validate()
    _deliver(trainer, split, dataset, workdir, tracer)

    step_ms: list[float] = []
    _timed_steps(trainer, step_ms)
    epochs, validations, delivery = [], [], []
    timed_start = time.perf_counter()
    deadline = timed_start + args.seconds
    while len(epochs) < MIN_CYCLES or time.perf_counter() < deadline:
        start = time.perf_counter()
        losses.append(trainer.train_epoch())
        epochs.append(time.perf_counter() - start)
        start = time.perf_counter()
        trainer.validate()
        validations.append(time.perf_counter() - start)
        delivery.append(_deliver(trainer, split, dataset, workdir, tracer))
        start = time.perf_counter()
        spare = _build(dataset, split, config)
        setup.append(time.perf_counter() - start)
        del spare

    answers = _answers(trainer, split, dataset, workdir)
    result = {
        "setup_s": setup,
        "epoch_s": epochs,
        "validate_s": validations,
        "step_ms": step_ms,
        # a non-finite loss is written as a string (JSON has no NaN)
        "losses": [float(v) if math.isfinite(v) else str(v) for v in losses],
        "delivery_s": delivery,
        "answers": answers,
        "peak_rss_mb": vm_hwm_mb(),
        "timed_start": timed_start,
    }
    if tracer is not None:
        tracer.dump(args.spans)
    return result


def _deliver(trainer, split, dataset, workdir: Path, tracer) -> float:
    """Seconds from trained weights to the first top-k of a loaded index."""
    from repro.serve import EmbeddingIndex, RankingEngine, build_index

    path = workdir / "train_wide.index.npz"
    start = time.perf_counter()
    with tracer.span("serve.index.build") if tracer else nullcontext():
        built = build_index(trainer.model, train_interactions=split.train,
                            user_interactions=dataset.user_item)
    built.save(path)
    RankingEngine(EmbeddingIndex.load(path)).top_k(0, k=5)
    elapsed = time.perf_counter() - start
    path.unlink()
    return elapsed


def _answers(trainer, split, dataset, workdir: Path) -> dict:
    """Top-k of every group from the in-memory index and from its saved copy."""
    from repro.serve import EmbeddingIndex, RankingEngine, build_index

    built = build_index(trainer.model, train_interactions=split.train,
                        user_interactions=dataset.user_item)
    path = built.save(workdir / "train_wide.index.npz")
    reference, served = RankingEngine(built), RankingEngine(EmbeddingIndex.load(path))
    answers = {
        str(group): {
            "reference": [r.item for r in reference.top_k(group, k=5)],
            "served": [r.item for r in served.top_k(group, k=5)],
        }
        for group in range(dataset.groups.num_groups)
    }
    path.unlink()
    return answers


def serve_epochs(args) -> dict:
    """``SERVE_EPOCHS`` timed epochs + validations; ``prep-serve`` also saves."""
    tracer = _tracer(args.spans)
    dataset, split, config = worlds.make_world("serve", args.seed)
    trainer = _build(dataset, split, config)
    epochs, validations = [], []
    for _ in range(SERVE_EPOCHS):
        start = time.perf_counter()
        trainer.train_epoch()
        epochs.append(time.perf_counter() - start)
        start = time.perf_counter()
        trainer.validate()
        validations.append(time.perf_counter() - start)
    result = {"epoch_s": epochs, "validate_s": validations}
    if args.command == "prep-serve":
        result.update(_save_serve_inputs(args, trainer, dataset, split))
    if tracer is not None:
        tracer.dump(args.spans)
    return result


def _save_serve_inputs(args, trainer, dataset, split) -> dict:
    """Dataset, checkpoint, index artifact, read sequence and delta feed."""
    from repro.core.checkpoint import TrainState
    from repro.data.io import save_dataset
    from repro.serve import build_index

    out = Path(args.workdir)
    save_dataset(dataset, out / "dataset")
    TrainState.capture(trainer, epoch=SERVE_EPOCHS - 1).save(out / "state.npz")
    index = build_index(trainer.model, train_interactions=split.train,
                        user_interactions=dataset.user_item)
    index_path = index.save(out / "serve.index.npz")
    sequence = worlds.zipf_sequence(args.seed, dataset.groups.num_groups,
                                    READ_SEQUENCE_LENGTH)
    np.save(out / "reads.npy", sequence)
    worlds.write_delta_files(dataset, out / "staging", DELTA_FILES)
    return {
        "index": str(index_path),
        "index_version": index.version,
        "num_groups": int(dataset.groups.num_groups),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("train-wide", "prep-serve", "serve-epochs"):
        command = commands.add_parser(name)
        command.add_argument("--seed", type=int, required=True)
        command.add_argument("--workdir", required=True)
        command.add_argument("--out", required=True)
        command.add_argument("--spans", default="")
        if name == "train-wide":
            command.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    run = train_wide if args.command == "train-wide" else serve_epochs
    Path(args.out).write_text(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
