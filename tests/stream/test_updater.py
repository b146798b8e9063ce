"""OnlineUpdater ingestion, DeltaFeedWatcher tailing, and the CLI path."""

import json
import time
import urllib.request

import pytest

from repro.cli import main
from repro.core import KGAG, KGAGConfig, KGAGTrainer, TrainState
from repro.data import MovieLensLikeConfig, movielens_like, split_interactions
from repro.data.io import save_dataset
from repro.obs.metrics import MetricsRegistry
from repro.rng import ensure_rng
from repro.serve import (
    EmbeddingIndex,
    RecommendationServer,
    RecommendationService,
    build_index,
)
from repro.stream import DeltaBatch, OnlineUpdater, DeltaFeedWatcher, write_delta_jsonl


def _cold_item_delta(dataset):
    members = [int(u) for u in dataset.groups.members[0]]
    records = [
        {"op": "add_item", "name": "cold-item"},
        {
            "op": "add_edge",
            "head": f"item:{dataset.num_items}",
            "relation": 0,
            "tail": "attr:0",
        },
        {"op": "add_group", "members": members},
    ]
    records += [
        {"op": "add_interaction", "user": int(u), "item": dataset.num_items}
        for u in members
    ]
    return DeltaBatch.from_records(records)


def _cold_item_delta_near_taste(dataset):
    """One cold item, a new group of group 0's members, and no group pair.

    The item copies every attribute edge of the items those members
    interacted with, so propagation places it near their taste; without a
    group-item training pair the exclude-seen mask cannot hide it.
    """
    members = [int(u) for u in dataset.groups[0]]
    cold_item = num_items = dataset.num_items
    liked = {
        int(item) for user, item in dataset.user_item.pairs if int(user) in members
    }
    edges = {
        (int(relation), int(tail) - num_items)
        for head, relation, tail in dataset.kg.triples
        if int(head) in liked and int(tail) >= num_items
    }
    records = [
        {"op": "add_item", "name": "cold-item"},
        {"op": "add_group", "members": members},
    ]
    records += [
        {
            "op": "add_edge",
            "head": f"item:{cold_item}",
            "relation": relation,
            "tail": f"attr:{attr}",
        }
        for relation, attr in sorted(edges)
    ]
    records += [
        {"op": "add_interaction", "user": user, "item": cold_item} for user in members
    ]
    return DeltaBatch.from_records(records)


def _get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


class TestOnlineUpdater:
    def test_offline_ingest_grows_the_world(self, dataset, split, state):
        registry = MetricsRegistry()
        updater = OnlineUpdater(
            None,
            dataset,
            state,
            split.train,
            group_validation=split.validation,
            finetune_epochs=1,
            seed=3,
            metrics=registry,
        )
        assert updater.deltas_applied == 0
        assert updater.last_index is None

        report = updater.ingest(_cold_item_delta(dataset))
        grown_dataset, grown_state, group_train, _ = updater.snapshot()
        assert updater.deltas_applied == 1
        assert grown_dataset.num_items == dataset.num_items + 1
        assert grown_dataset.groups.num_groups == dataset.groups.num_groups + 1
        assert grown_state.epoch == state.epoch + 1
        assert group_train.num_rows == grown_dataset.groups.num_groups
        assert report["swap"] is None
        assert len(report["losses"]) == 1
        assert report["index_version"] == updater.last_index.version
        assert registry.get("stream/deltas_total").value == 1
        assert registry.get("stream/new_items_total").value == 1
        assert registry.get("stream/new_groups_total").value == 1

    def test_zero_epoch_budget_still_builds_an_index(self, dataset, split, state):
        updater = OnlineUpdater(
            None, dataset, state, split.train, finetune_epochs=0, seed=3
        )
        report = updater.ingest(_cold_item_delta(dataset))
        assert report["losses"] == []
        assert updater.last_index is not None
        # The grown index serves the cold item and the new group.
        index = updater.last_index
        assert index.num_items == dataset.num_items + 1
        assert index.num_groups == dataset.groups.num_groups + 1

    def test_live_ingest_hot_swaps_the_service(
        self, dataset, split, state, trained_index
    ):
        service = RecommendationService(trained_index, deadline_ms=None)
        try:
            updater = OnlineUpdater(
                service,
                dataset,
                state,
                split.train,
                group_validation=split.validation,
                finetune_epochs=1,
                seed=3,
            )
            old_version = service.index.version
            report = updater.ingest(_cold_item_delta(dataset))
            assert service.index.version == report["index_version"]
            assert report["swap"]["old_version"] == old_version
            new_group = dataset.groups.num_groups
            resp = service.recommend(new_group, k=3)
            assert resp["index_version"] == report["index_version"]
            # Stream metrics land in the service registry -> /metrics.
            text = service.metrics.render_text()
            assert "stream_deltas_total 1" in text
        finally:
            service.close()

    def test_bad_arguments_rejected(self, dataset, split, state):
        with pytest.raises(ValueError, match="finetune_epochs"):
            OnlineUpdater(None, dataset, state, split.train, finetune_epochs=-1)
        with pytest.raises(ValueError, match="init"):
            OnlineUpdater(None, dataset, state, split.train, init="zeros")


class TestDeltaFeedWatcher:
    def test_files_claimed_exactly_once(self, dataset, split, state, tmp_path):
        updater = OnlineUpdater(
            None, dataset, state, split.train, finetune_epochs=0, seed=3
        )
        watcher = DeltaFeedWatcher(updater, tmp_path)
        write_delta_jsonl(_cold_item_delta(dataset), tmp_path / "0001.jsonl")
        assert watcher.poll_once() == 1
        assert watcher.poll_once() == 0
        assert updater.deltas_applied == 1
        (report,) = watcher.reports()
        assert report["path"].endswith("0001.jsonl")
        assert "error" not in report

    def test_malformed_file_recorded_not_fatal(
        self, dataset, split, state, tmp_path
    ):
        updater = OnlineUpdater(
            None, dataset, state, split.train, finetune_epochs=0, seed=3
        )
        watcher = DeltaFeedWatcher(updater, tmp_path)
        (tmp_path / "0001.jsonl").write_text("{broken\n")
        write_delta_jsonl(_cold_item_delta(dataset), tmp_path / "0002.jsonl")
        assert watcher.poll_once() == 2
        bad, good = watcher.reports()
        assert "0001.jsonl:1" in bad["error"]
        assert "error" not in good
        assert updater.deltas_applied == 1

    def test_background_thread_ingests_and_joins(
        self, dataset, split, state, tmp_path
    ):
        updater = OnlineUpdater(
            None, dataset, state, split.train, finetune_epochs=0, seed=3
        )
        with DeltaFeedWatcher(updater, tmp_path, poll_interval=0.05) as watcher:
            write_delta_jsonl(_cold_item_delta(dataset), tmp_path / "0001.jsonl")
            deadline = time.monotonic() + 30.0
            while updater.deltas_applied < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
        assert updater.deltas_applied == 1
        assert watcher._thread is None  # joined on close
        assert watcher.reports()[0]["path"].endswith("0001.jsonl")

    def test_watcher_ingest_serves_the_cold_item_live(self, tmp_path):
        # The full loop through HTTP: a served index, a feed file claimed
        # by the watcher, a warm-started fine-tune, a hot swap, and the
        # cold item in the new group's top-5 on the new index version.
        # Top-5 placement needs this world's lr 0.05 / 6 fine-tune epochs
        # and a delta that copies every attribute edge the members reach;
        # weaker settings swap correctly but rank the item lower.
        dataset = movielens_like(
            "rand",
            MovieLensLikeConfig(num_users=30, num_items=40, num_groups=8, seed=7),
        )
        split = split_interactions(dataset.group_item, rng=ensure_rng(7))
        model = KGAG(
            dataset.kg,
            dataset.num_users,
            dataset.num_items,
            dataset.user_item.pairs,
            dataset.groups,
            KGAGConfig(
                embedding_dim=8,
                num_layers=1,
                num_neighbors=2,
                learning_rate=0.05,
                batch_size=64,
                seed=7,
            ),
        )
        trainer = KGAGTrainer(model, split.train, dataset.user_item)
        trainer.train_epoch()
        state = TrainState.capture(trainer, epoch=0)
        index = build_index(
            model, train_interactions=split.train, user_interactions=dataset.user_item
        )
        service = RecommendationService(index)
        server = RecommendationServer(service, port=0).start()
        try:
            updater = OnlineUpdater(
                service,
                dataset,
                state,
                split.train,
                group_validation=split.validation,
                finetune_epochs=6,
                seed=7,
            )
            write_delta_jsonl(
                _cold_item_delta_near_taste(dataset), tmp_path / "0001.jsonl"
            )
            watcher = DeltaFeedWatcher(updater, tmp_path)
            assert watcher.poll_once() == 1
            (report,) = watcher.reports()
            assert "error" not in report
            assert report["swap"] is not None
            new_version = report["index_version"]
            assert new_version != index.version

            new_group, cold_item = dataset.groups.num_groups, dataset.num_items
            answer = _get_json(f"{server.url}/recommend?group={new_group}&k=5")
            assert answer["index_version"] == new_version
            assert cold_item in [entry["item"] for entry in answer["items"]]
            stats = _get_json(f"{server.url}/stats")
            assert stats["cache"]["swap_invalidations"] >= 1
            assert stats["index"]["version"] == new_version
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as response:
                text = response.read().decode("utf-8")
            assert "stream_deltas_total 1" in text
            assert "serve_index_swaps_total 1" in text
        finally:
            server.stop()

    def test_bad_poll_interval(self, dataset, split, state, tmp_path):
        updater = OnlineUpdater(
            None, dataset, state, split.train, finetune_epochs=0, seed=3
        )
        with pytest.raises(ValueError, match="poll_interval"):
            DeltaFeedWatcher(updater, tmp_path, poll_interval=0.0)


class TestCLIIngestDelta:
    def test_end_to_end_offline_ingest(self, dataset, state, tmp_path):
        data_dir = save_dataset(dataset, tmp_path / "data")
        state_path = state.save(tmp_path / "state.npz")
        write_delta_jsonl(_cold_item_delta(dataset), tmp_path / "0001.jsonl")
        code = main(
            [
                "ingest-delta",
                "--data",
                str(data_dir),
                "--state",
                str(state_path),
                "--delta",
                str(tmp_path / "0001.jsonl"),
                "--seed",
                "3",
                "--finetune-epochs",
                "1",
                "--out-data",
                str(tmp_path / "grown"),
                "--out-state",
                str(tmp_path / "grown-state.npz"),
                "--index-out",
                str(tmp_path / "grown-index.npz"),
            ]
        )
        assert code == 0
        from repro.data.io import load_dataset

        grown = load_dataset(tmp_path / "grown")
        assert grown.num_items == dataset.num_items + 1
        index = EmbeddingIndex.load(tmp_path / "grown-index.npz")
        assert index.num_items == dataset.num_items + 1
        grown_state = TrainState.load(tmp_path / "grown-state.npz")
        assert grown_state.epoch == state.epoch + 1

    def test_empty_feed_directory_is_an_error(self, dataset, state, tmp_path):
        data_dir = save_dataset(dataset, tmp_path / "data")
        state_path = state.save(tmp_path / "state.npz")
        (tmp_path / "feed").mkdir()
        code = main(
            [
                "ingest-delta",
                "--data",
                str(data_dir),
                "--state",
                str(state_path),
                "--delta",
                str(tmp_path / "feed"),
            ]
        )
        assert code == 2
