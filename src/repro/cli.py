"""Command-line interface: the full pipeline without writing Python.

Subcommands
-----------
``dataset``   generate / inspect datasets::

    python -m repro dataset generate --kind rand --out data/rand
    python -m repro dataset stats --path data/rand

``train``     train KGAG (or a baseline) and write a checkpoint::

    python -m repro train --data data/rand --out models/kgag.npz --epochs 20

    # crash-safe: full TrainState checkpoints every epoch, bit-exact resume
    python -m repro train --data data/rand --out models/kgag.npz \
        --checkpoint-dir runs/kgag --resume

``evaluate``  score a checkpoint on the test split::

    python -m repro evaluate --data data/rand --checkpoint models/kgag.npz

``recommend`` top-k items (optionally explained) for one group::

    python -m repro recommend --data data/rand --checkpoint models/kgag.npz \
        --group 0 -k 5 --explain
    python -m repro recommend --index models/kgag.index.npz --group 0 -k 5

``build-index`` freeze a checkpoint into a serving index::

    python -m repro build-index --data data/rand --checkpoint models/kgag.npz \
        --out models/kgag.index.npz

``serve`` answer recommendation requests over HTTP::

    python -m repro serve --index models/kgag.index.npz --port 8080

    # live ingestion: tail a delta feed directory, fine-tune + hot-swap
    python -m repro serve --data data/rand --checkpoint runs/kgag/ckpt-000019.npz \
        --watch-deltas feeds/rand

``ingest-delta`` apply a JSONL delta feed offline (grow + fine-tune)::

    python -m repro ingest-delta --data data/rand --state runs/kgag/ckpt-000019.npz \
        --delta feeds/rand/0001.jsonl --out-data data/rand-v2 \
        --out-state runs/kgag/ckpt-grown.npz --index-out models/kgag.index.npz

``experiment`` regenerate a paper table/figure::

    python -m repro experiment table2 --profile quick
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

# Each command imports the layers it runs, so ``serve --index`` loads the
# serving stack alone and not the trainer or the data generators.
__all__ = ["main", "build_parser"]

EXPERIMENT_MODULES = {
    "table1": "repro.experiments.table1_datasets",
    "table2": "repro.experiments.table2_overall",
    "table3": "repro.experiments.table3_ablation",
    "table4": "repro.experiments.table4_aggregator",
    "fig4": "repro.experiments.fig4_margin_depth",
    "fig5": "repro.experiments.fig5_beta_dim",
    "fig6": "repro.experiments.fig6_case_study",
    "cold-items": "repro.experiments.ext_cold_items",
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="KGAG reproduction command line"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # dataset ---------------------------------------------------------------
    dataset = subparsers.add_parser("dataset", help="generate / inspect datasets")
    dataset_sub = dataset.add_subparsers(dest="dataset_command", required=True)

    generate = dataset_sub.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("--kind", choices=("rand", "simi", "yelp"), required=True)
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--users", type=int, default=None)
    generate.add_argument("--items", type=int, default=None)
    generate.add_argument("--groups", type=int, default=None)
    generate.add_argument("--seed", type=int, default=0)

    stats = dataset_sub.add_parser("stats", help="print Table I statistics")
    stats.add_argument("--path", required=True, help="dataset directory")

    # train ------------------------------------------------------------------
    train = subparsers.add_parser("train", help="train KGAG and save a checkpoint")
    train.add_argument("--data", required=True, help="dataset directory")
    train.add_argument("--out", required=True, help="checkpoint path (.npz)")
    train.add_argument("--dim", type=int, default=32)
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--neighbors", type=int, default=4)
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--batch-size", type=int, default=128)
    train.add_argument("--lr", type=float, default=0.005)
    train.add_argument("--margin", type=float, default=0.4)
    train.add_argument("--beta", type=float, default=0.7)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--quiet", action="store_true")
    train.add_argument(
        "--checkpoint-dir",
        help="directory for crash-safe TrainState checkpoints (model + "
        "optimizer + RNG states); enables --resume",
    )
    train.add_argument(
        "--save-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint every N epochs (default 1)",
    )
    train.add_argument(
        "--resume",
        action="store_true",
        help="resume bit-exactly from the newest checkpoint in "
        "--checkpoint-dir (starts fresh when the directory is empty)",
    )
    train.add_argument(
        "--keep-last",
        type=int,
        default=3,
        metavar="N",
        help="retain the N newest checkpoints plus the best-epoch one",
    )
    train.add_argument(
        "--metrics-out",
        help="write a JSONL run log (per-epoch loss/validation, diagnostics "
        "snapshots, final metrics) to this path",
    )
    train.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="data-parallel training processes over shared-memory parameter "
        "tables (repro.core.parallel); 1 = the sequential trainer",
    )

    # evaluate ----------------------------------------------------------------
    evaluate = subparsers.add_parser("evaluate", help="evaluate a checkpoint")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("-k", type=int, default=5)
    evaluate.add_argument("--seed", type=int, default=0, help="split seed")

    # recommend ----------------------------------------------------------------
    recommend = subparsers.add_parser("recommend", help="top-k for one group")
    recommend.add_argument("--data", help="dataset directory (with --checkpoint)")
    recommend.add_argument("--checkpoint", help="model checkpoint (.npz)")
    recommend.add_argument(
        "--index", help="prebuilt serving index (.npz); answers without the model"
    )
    recommend.add_argument("--group", type=int, required=True)
    recommend.add_argument("-k", type=int, default=5)
    recommend.add_argument("--explain", action="store_true")
    recommend.add_argument("--seed", type=int, default=0, help="split seed")
    recommend.add_argument(
        "--metrics-out",
        help="write load/score trace spans and a metrics snapshot (JSONL) "
        "to this path",
    )

    # build-index ----------------------------------------------------------------
    build_index = subparsers.add_parser(
        "build-index", help="freeze a checkpoint into a serving index"
    )
    build_index.add_argument("--data", required=True)
    build_index.add_argument("--checkpoint", required=True)
    build_index.add_argument("--out", required=True, help="index path (.npz)")
    build_index.add_argument("--seed", type=int, default=0, help="split seed")

    # serve ----------------------------------------------------------------
    serve = subparsers.add_parser("serve", help="HTTP recommendation API")
    serve.add_argument("--index", help="prebuilt serving index (.npz)")
    serve.add_argument("--data", help="dataset directory (to build an index)")
    serve.add_argument("--checkpoint", help="model checkpoint (to build an index)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--cache-size", type=int, default=256)
    serve.add_argument("--deadline-ms", type=float, default=250.0)
    serve.add_argument("--seed", type=int, default=0, help="split seed")
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pre-forked serving processes sharing the port; >1 requires "
        "--index (the artifact is memory-mapped into every worker)",
    )
    serve.add_argument(
        "--scorer-threads",
        type=int,
        default=4,
        help="deadline-executor threads per process (pools keep this small)",
    )
    serve.add_argument(
        "--mmap",
        action="store_true",
        help="open the --index artifact memory-mapped (implied by --workers>1)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        help="admission control: concurrent scoring requests per process "
        "(0 disables admission control)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="admission control: waiters beyond --max-inflight before "
        "shedding with 429",
    )
    serve.add_argument(
        "--queue-timeout-ms",
        type=float,
        default=100.0,
        help="admission control: longest a queued request waits for a permit",
    )
    serve.add_argument(
        "--metrics-out",
        help="write a final registry snapshot (JSONL) to this path on shutdown",
    )
    serve.add_argument(
        "--watch-deltas",
        metavar="DIR",
        help="tail this directory for *.jsonl delta files: each one is "
        "ingested, fine-tuned and hot-swapped into the live index "
        "(requires --data and --checkpoint so training can resume)",
    )
    serve.add_argument(
        "--finetune-epochs",
        type=int,
        default=2,
        help="fine-tune budget per ingested delta (with --watch-deltas)",
    )
    serve.add_argument(
        "--grow-init",
        choices=("rng", "neighbor_mean"),
        default="rng",
        help="initializer for embedding rows a delta introduces",
    )

    # ingest-delta ----------------------------------------------------------------
    ingest = subparsers.add_parser(
        "ingest-delta",
        help="apply a JSONL delta feed offline: grow + warm-start fine-tune",
    )
    ingest.add_argument("--data", required=True, help="dataset directory")
    ingest.add_argument(
        "--state", required=True, help="TrainState checkpoint to warm-start from"
    )
    ingest.add_argument(
        "--delta",
        required=True,
        help="delta feed: one .jsonl file or a directory of them "
        "(ingested in sorted order)",
    )
    ingest.add_argument("--out-data", help="write the grown dataset here")
    ingest.add_argument("--out-state", help="write the fine-tuned TrainState here")
    ingest.add_argument(
        "--index-out", help="write the rebuilt serving index here (.npz)"
    )
    ingest.add_argument("--finetune-epochs", type=int, default=2)
    ingest.add_argument(
        "--grow-init", choices=("rng", "neighbor_mean"), default="rng"
    )
    ingest.add_argument("--seed", type=int, default=0, help="split seed")

    # experiment ----------------------------------------------------------------
    experiment = subparsers.add_parser("experiment", help="regenerate a paper result")
    experiment.add_argument("name", choices=sorted(EXPERIMENT_MODULES))
    experiment.add_argument("--profile", default="default")

    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------
def _cmd_dataset_generate(args) -> int:
    from .data import MovieLensLikeConfig, YelpLikeConfig, movielens_like, yelp_like
    from .data.io import save_dataset

    if args.kind in ("rand", "simi"):
        config = MovieLensLikeConfig(seed=args.seed)
        if args.users:
            config.num_users = args.users
        if args.items:
            config.num_items = args.items
        if args.groups:
            config.num_groups = args.groups
        dataset = movielens_like(args.kind, config)
    else:
        config = YelpLikeConfig(seed=args.seed)
        if args.users:
            config.num_users = args.users
        if args.items:
            config.num_items = args.items
        if args.groups:
            config.num_groups = args.groups
        dataset = yelp_like(config)
    path = save_dataset(dataset, args.out)
    print(f"wrote {dataset.name} to {path}")
    print(json.dumps(dataset.stats(), indent=2))
    return 0


def _cmd_dataset_stats(args) -> int:
    from .data.io import load_dataset

    dataset = load_dataset(args.path)
    print(f"dataset: {dataset.name}")
    print(json.dumps(dataset.stats(), indent=2))
    print(f"kg: {json.dumps(dataset.kg.describe(), indent=2)}")
    return 0


def _load_with_split(path: str, seed: int):
    from .data import split_interactions
    from .data.io import load_dataset

    dataset = load_dataset(path)
    split = split_interactions(dataset.group_item, rng=np.random.default_rng(seed))
    return dataset, split


def _build_model(dataset, config):
    from .core import KGAG

    return KGAG(
        dataset.kg,
        dataset.num_users,
        dataset.num_items,
        dataset.user_item.pairs,
        dataset.groups,
        config,
    )


def _cmd_train(args) -> int:
    from .core import KGAGConfig, KGAGTrainer
    from .nn.serialization import save_checkpoint

    dataset, split = _load_with_split(args.data, args.seed)
    config = KGAGConfig(
        embedding_dim=args.dim,
        num_layers=args.layers,
        num_neighbors=args.neighbors,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        margin=args.margin,
        beta=args.beta,
        seed=args.seed,
    )
    model = _build_model(dataset, config)
    registry = run_log = diagnostics = None
    if args.metrics_out:
        from .core.diagnostics import DiagnosticsRecorder
        from .obs import JsonlRunLog, MetricsRegistry

        registry = MetricsRegistry()
        run_log = JsonlRunLog(args.metrics_out)
        probe = split.train.pairs[: min(128, len(split.train.pairs))]
        diagnostics = DiagnosticsRecorder(model, probe[:, 0], probe[:, 1])
    trainer = None
    try:
        trainer = KGAGTrainer(
            model,
            split.train,
            dataset.user_item,
            split.validation,
            metrics=registry,
            run_log=run_log,
            diagnostics=diagnostics,
            workers=args.workers,
        )
        history = trainer.fit(
            verbose=not args.quiet,
            checkpoint_dir=args.checkpoint_dir,
            save_every=args.save_every,
            resume=args.resume,
            keep_last=args.keep_last,
        )
        metrics = trainer.evaluate(split.test)
    finally:
        if trainer is not None:
            trainer.close()
        if run_log is not None:
            run_log.close()
    path = save_checkpoint(model, args.out, config=config)
    print(f"checkpoint written to {path}")
    if args.metrics_out:
        print(f"run log written to {args.metrics_out}")
    print(
        f"test hit@5 {metrics['hit@5']:.4f}  rec@5 {metrics['rec@5']:.4f}  "
        f"(best epoch {history.best_epoch})"
    )
    return 0


def _restore(args):
    """Rebuild the model from a checkpoint's stored config and load weights.

    Accepts both plain model checkpoints (``save_checkpoint``) and full
    training checkpoints (:class:`~repro.core.checkpoint.TrainState`) —
    for the latter the best-on-validation weights are used when present,
    so ``evaluate`` / ``build-index`` / ``serve`` can run straight off a
    training run's checkpoint directory.
    """
    dataset, split, model, _ = _restore_with_state(args)
    return dataset, split, model


def _restore_with_state(args):
    """:func:`_restore` plus the loaded ``TrainState`` (None for a plain
    model checkpoint), so a caller that needs both reads the file once."""
    from .core import KGAGConfig
    from .nn.serialization import load_checkpoint, read_npz_archive

    dataset, split = _load_with_split(args.data, args.seed)
    path = _checkpoint_path(args.checkpoint)
    _, metadata = read_npz_archive(path)
    metadata = metadata or {}
    config_dict = metadata.get("config") or {}
    valid = {f for f in KGAGConfig.__dataclass_fields__}
    config = KGAGConfig(**{k: v for k, v in config_dict.items() if k in valid})
    model = _build_model(dataset, config)
    state = None
    if metadata.get("kind") == "train_state":
        from .core.checkpoint import TrainState

        state = TrainState.load(path)
        state.load_model(model)
    else:
        load_checkpoint(model, path)
    return dataset, split, model, state


def _checkpoint_path(path: str) -> Path:
    candidate = Path(path)
    if candidate.exists():
        return candidate
    with_suffix = candidate.with_suffix(candidate.suffix + ".npz")
    if with_suffix.exists():
        return with_suffix
    raise FileNotFoundError(path)


def _cmd_evaluate(args) -> int:
    from .core import evaluate_model

    dataset, split, model = _restore(args)
    metrics = evaluate_model(model, split.test, args.k, split.train)
    print(json.dumps(metrics, indent=2))
    return 0


def _cmd_recommend(args) -> int:
    import time

    from .obs import NULL_TRACER, Tracer
    from .serve import RankingEngine

    tracer = Tracer() if args.metrics_out else NULL_TRACER
    if args.index:
        from .serve import EmbeddingIndex

        load_start = time.perf_counter()
        with tracer.span("load"):
            index = EmbeddingIndex.load(args.index)
            engine = RankingEngine(index)
        members = index.group_members[args.group].tolist()
        path_label = f"index {index.version}"
        load_ms = (time.perf_counter() - load_start) * 1000.0
    elif args.data and args.checkpoint:
        load_start = time.perf_counter()
        with tracer.span("load"):
            dataset, split, model = _restore(args)
            engine = RankingEngine.from_model(model, train_interactions=split.train)
        members = dataset.groups[args.group].tolist()
        path_label = "full model"
        load_ms = (time.perf_counter() - load_start) * 1000.0
    else:
        print(
            "recommend needs either --index or both --data and --checkpoint",
            file=sys.stderr,
        )
        return 2
    score_start = time.perf_counter()
    with tracer.span("score"):
        recommendations = engine.top_k(args.group, k=args.k)
    score_ms = (time.perf_counter() - score_start) * 1000.0
    print(f"group {args.group} (members {members}):")
    for rank, rec in enumerate(recommendations, start=1):
        print(f"  #{rank}: item {rec.item}  p={rec.probability:.4f}")
        if args.explain:
            raw = engine.explain(args.group, rec.item)
            for i in np.argsort(-raw["attention"], kind="stable"):
                print(
                    f"       user {raw['members'][i]}: "
                    f"attention {raw['attention'][i]:.3f} "
                    f"(SP {raw['sp'][i]:+.3f}, PI {raw['pi'][i]:+.3f})"
                )
    print(
        f"timing: load {load_ms:.1f} ms, scoring {score_ms:.1f} ms ({path_label})"
    )
    if args.metrics_out:
        from .obs import JsonlRunLog

        with JsonlRunLog(args.metrics_out) as log:
            for span in tracer.spans:
                log.emit(
                    "span",
                    name=span.name,
                    duration_s=span.duration,
                    depth=span.depth,
                )
            log.emit("breakdown", phases=tracer.breakdown())
        print(f"run log written to {args.metrics_out}")
    return 0


def _cmd_build_index(args) -> int:
    import time

    from .serve import build_index

    dataset, split, model = _restore(args)
    start = time.perf_counter()
    index = build_index(
        model, train_interactions=split.train, user_interactions=dataset.user_item
    )
    build_ms = (time.perf_counter() - start) * 1000.0
    path = index.save(args.out)
    print(f"index written to {path} (built in {build_ms:.1f} ms)")
    print(json.dumps(index.describe(), indent=2))
    return 0


def _train_state_for(state, dataset, split, model):
    """A warm :class:`TrainState` for the streaming path.

    A ``TrainState`` checkpoint (``state``, as :func:`_restore_with_state`
    loaded it) is used as-is (optimizer moments and RNG streams intact).
    A plain model checkpoint (``state`` None) gets a fresh trainer
    captured around the restored weights — fine-tuning then starts with
    cold Adam moments, exactly like resuming from a weights-only export.
    """
    if state is not None:
        return state
    from .core import KGAGTrainer
    from .core.checkpoint import TrainState

    trainer = KGAGTrainer(model, split.train, dataset.user_item, split.validation)
    return TrainState.capture(trainer, epoch=-1)


def _serve_admission(args):
    if args.max_inflight <= 0:
        return None
    from .serve import AdmissionConfig

    return AdmissionConfig(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        queue_timeout_ms=args.queue_timeout_ms,
    )


def _cmd_serve_pool(args) -> int:
    """``serve --workers N``: pre-forked pool over one mmap'd artifact."""
    import time

    from .serve import ServingPool

    pool = ServingPool(
        args.index,
        workers=args.workers,
        host=args.host,
        port=args.port,
        service_config=dict(
            cache_capacity=args.cache_size,
            deadline_ms=args.deadline_ms,
            scorer_threads=args.scorer_threads,
        ),
        admission=_serve_admission(args),
    )
    print(
        f"serving index {pool.version} on {pool.url} with {args.workers} "
        f"mmap-shared workers (/recommend /explain /healthz /stats /metrics; "
        f"Ctrl-C to stop)"
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down pool")
    finally:
        if args.metrics_out:
            try:
                stats = pool.stats()
            except RuntimeError:
                stats = None
            if stats is not None:
                with open(args.metrics_out, "a", encoding="utf-8") as handle:
                    json.dump({"kind": "pool_stats", **stats["aggregate"]}, handle)
                    handle.write("\n")
                print(f"pool stats written to {args.metrics_out}")
        pool.close()
    return 0


def _cmd_serve(args) -> int:
    from .serve import EmbeddingIndex, RecommendationServer, RecommendationService, build_index

    watcher = None
    if args.watch_deltas and not (args.data and args.checkpoint):
        print(
            "serve --watch-deltas needs --data and --checkpoint (a frozen "
            "--index cannot be fine-tuned)",
            file=sys.stderr,
        )
        return 2
    if args.workers > 1:
        if not args.index:
            print(
                "serve --workers needs a prebuilt --index artifact "
                "(build one with `python -m repro build-index`)",
                file=sys.stderr,
            )
            return 2
        if args.watch_deltas:
            print(
                "serve --watch-deltas is single-process; drop --workers",
                file=sys.stderr,
            )
            return 2
        return _cmd_serve_pool(args)
    if args.index:
        index = EmbeddingIndex.load(args.index, mmap=args.mmap)
    elif args.data and args.checkpoint:
        dataset, split, model, checkpoint_state = _restore_with_state(args)
        index = build_index(
            model, train_interactions=split.train, user_interactions=dataset.user_item
        )
    else:
        print(
            "serve needs either --index or both --data and --checkpoint",
            file=sys.stderr,
        )
        return 2
    from .obs import MetricsRegistry

    registry = MetricsRegistry()
    service = RecommendationService(
        index,
        cache_capacity=args.cache_size,
        deadline_ms=args.deadline_ms,
        metrics=registry,
        scorer_threads=args.scorer_threads,
        admission=_serve_admission(args),
    )
    if args.watch_deltas:
        from .stream import DeltaFeedWatcher, OnlineUpdater

        state = _train_state_for(checkpoint_state, dataset, split, model)
        updater = OnlineUpdater(
            service,
            dataset,
            state,
            split.train,
            group_validation=split.validation,
            finetune_epochs=args.finetune_epochs,
            init=args.grow_init,
            seed=args.seed,
        )
        watcher = DeltaFeedWatcher(updater, args.watch_deltas).start()
        print(f"watching {args.watch_deltas} for *.jsonl delta files")
    server = RecommendationServer(service, host=args.host, port=args.port)
    print(
        f"serving index {index.version} on {server.url} "
        f"(/recommend /explain /healthz /stats /metrics; Ctrl-C to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if watcher is not None:
            watcher.close()
        if args.metrics_out:
            from .obs import JsonlRunLog

            with JsonlRunLog(args.metrics_out) as log:
                log.emit_snapshot(registry, kind="final_metrics")
            print(f"run log written to {args.metrics_out}")
    return 0


def _cmd_ingest_delta(args) -> int:
    from .core.checkpoint import TrainState
    from .data.io import save_dataset
    from .stream import OnlineUpdater

    dataset, split = _load_with_split(args.data, args.seed)
    state = TrainState.load(_checkpoint_path(args.state))
    updater = OnlineUpdater(
        None,
        dataset,
        state,
        split.train,
        group_validation=split.validation,
        finetune_epochs=args.finetune_epochs,
        init=args.grow_init,
        seed=args.seed,
    )
    delta_path = Path(args.delta)
    if delta_path.is_dir():
        feed = sorted(delta_path.glob("*.jsonl"))
        if not feed:
            print(f"no *.jsonl delta files in {delta_path}", file=sys.stderr)
            return 2
    else:
        feed = [delta_path]
    for path in feed:
        report = updater.ingest_path(path)
        print(
            f"ingested {path}: {report['delta']} -> index "
            f"{report['index_version']} "
            f"(fine-tune {report['finetune_seconds']}s)"
        )
    grown_dataset, grown_state, _, _ = updater.snapshot()
    if args.out_data:
        out = save_dataset(grown_dataset, args.out_data)
        print(f"grown dataset written to {out}")
    if args.out_state:
        out = grown_state.save(args.out_state)
        print(f"fine-tuned train state written to {out}")
    if args.index_out:
        out = updater.last_index.save(args.index_out)
        print(f"serving index written to {out}")
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    module = importlib.import_module(EXPERIMENT_MODULES[args.name])
    module.main(["--profile", args.profile])
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "dataset":
        if args.dataset_command == "generate":
            return _cmd_dataset_generate(args)
        return _cmd_dataset_stats(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "recommend":
        return _cmd_recommend(args)
    if args.command == "build-index":
        return _cmd_build_index(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "ingest-delta":
        return _cmd_ingest_delta(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
