"""EmbeddingIndex: extraction, persistence, versioning, validation."""

import numpy as np
import pytest

from repro.core import KGAG, KGAGConfig
from repro.serve import EmbeddingIndex, build_index
from repro.serve.index import INDEX_FORMAT_VERSION, IndexError_


class TestExtraction:
    def test_describe_counts(self, index, dataset):
        info = index.describe()
        assert info["num_users"] == dataset.num_users
        assert info["num_items"] == dataset.num_items
        assert info["num_groups"] == dataset.groups.num_groups
        assert info["group_size"] == dataset.groups.group_size
        assert info["dim"] == 8
        assert info["bytes"] > 0

    def test_arrays_frozen(self, index):
        with pytest.raises(ValueError):
            index.entity_embeddings[0, 0] = 1.0

    def test_arrays_are_copies(self, model, index):
        original = model.propagation.entity_embedding.weight.data[0, 0]
        assert index.entity_embeddings[0, 0] == original
        assert (
            index.entity_embeddings is not model.propagation.entity_embedding.weight.data
        )

    def test_seen_items_match_split(self, index, split):
        for group in range(index.num_groups):
            np.testing.assert_array_equal(
                index.seen_items(group), split.train.items_of(group)
            )

    def test_live_view_seen_items_match_frozen_index(self, model, dataset, split):
        from repro.data.interactions import InteractionTable
        from repro.serve.engine import LiveModelIndex

        # Drop groups 0 and 2 from train so some groups have no pairs.
        pairs = split.train.pairs
        train = InteractionTable(
            split.train.num_rows,
            split.train.num_cols,
            pairs[~np.isin(pairs[:, 0], [0, 2])],
        )
        live = LiveModelIndex(model, train_interactions=train)
        frozen = EmbeddingIndex.from_model(model, train, dataset.user_item)
        for group in range(dataset.groups.num_groups):
            expected = train.items_of(group)
            np.testing.assert_array_equal(live.seen_items(group), expected)
            np.testing.assert_array_equal(frozen.seen_items(group), expected)
        assert live.seen_items(0).size == frozen.seen_items(2).size == 0
        with pytest.raises(ValueError, match="train_interactions"):
            LiveModelIndex(model).seen_items(1)

    def test_live_top_k_without_train_interactions_raises(self, model, split):
        from repro.core import GroupRecommender
        from repro.serve.engine import RankingEngine

        bare = RankingEngine.from_model(model)
        with pytest.raises(ValueError, match="exclude_seen=False"):
            bare.top_k(1, k=5)
        assert len(bare.top_k(1, k=model.num_items, exclude_seen=False)) == model.num_items
        masked = RankingEngine.from_model(model, train_interactions=split.train)
        seen = set(split.train.items_of(1).tolist())
        assert seen
        served = [r.item for r in masked.top_k(1, k=5)]
        assert seen.isdisjoint(served)
        # The recommender masks seen items itself over a bare live view.
        recommender = GroupRecommender(model, split.train)
        assert [r.item for r in recommender.recommend(1, k=5)] == served

    def test_popularity_vector(self, index, dataset):
        assert index.item_popularity.shape == (dataset.num_items,)
        assert (index.item_popularity >= 0).all()
        assert index.item_popularity.max() > 0

    def test_query_dependent_model_has_no_final(self, index):
        assert index.entity_final is None

    def test_query_independent_model_has_final(self, dataset):
        model = KGAG(
            dataset.kg,
            dataset.num_users,
            dataset.num_items,
            dataset.user_item.pairs,
            dataset.groups,
            KGAGConfig(
                embedding_dim=8, num_layers=1, num_neighbors=3,
                uniform_neighbor_weights=True, seed=11,
            ),
        )
        frozen = build_index(model)
        assert frozen.entity_final is not None
        assert frozen.entity_final.shape == frozen.entity_embeddings.shape


class TestPersistence:
    def test_roundtrip(self, index, tmp_path):
        path = index.save(tmp_path / "model.index")
        assert path.suffix == ".npz"
        loaded = EmbeddingIndex.load(path)
        assert loaded.version == index.version
        assert loaded.metadata["format_version"] == INDEX_FORMAT_VERSION
        np.testing.assert_array_equal(loaded.entity_embeddings, index.entity_embeddings)
        np.testing.assert_array_equal(loaded.group_members, index.group_members)

    def test_version_is_content_addressed(self, model, dataset, split):
        a = build_index(model, train_interactions=split.train)
        b = build_index(model, train_interactions=split.train)
        assert a.version == b.version
        c = build_index(model)  # different seen mask -> different artifact
        assert c.version != a.version

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EmbeddingIndex.load(tmp_path / "nope.npz")

    def test_load_rejects_non_index_npz(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(IndexError_):
            EmbeddingIndex.load(path)

    def test_load_rejects_tampered_artifact(self, index, tmp_path):
        path = index.save(tmp_path / "model.index")
        with np.load(path) as archive:
            arrays = {name: archive[name].copy() for name in archive.files}
        arrays["entity_embeddings"][0, 0] += 1.0
        np.savez(path, **arrays)
        with pytest.raises(IndexError_, match="fingerprint"):
            EmbeddingIndex.load(path)

    def test_wrong_format_version_rejected(self, index):
        metadata = dict(index.metadata, format_version=INDEX_FORMAT_VERSION + 1)
        with pytest.raises(IndexError_, match="format version"):
            EmbeddingIndex(dict(index._arrays), metadata)

    def test_missing_required_array_rejected(self, index):
        arrays = dict(index._arrays)
        del arrays["neighbor_entities"]
        with pytest.raises(IndexError_, match="neighbor_entities"):
            EmbeddingIndex(arrays, dict(index.metadata))


class TestMmap:
    """``load(mmap=True)``: zero-copy views, shared page cache, integrity."""

    @pytest.fixture()
    def artifact(self, index, tmp_path):
        return index.save(tmp_path / "model.index")

    def test_mmap_roundtrip_matches_heap_load(self, index, artifact):
        mapped = EmbeddingIndex.load(artifact, mmap=True)
        assert mapped.version == index.version
        assert mapped.mmapped is True
        assert mapped.describe()["mmapped"] is True
        np.testing.assert_array_equal(
            mapped.entity_embeddings, index.entity_embeddings
        )
        np.testing.assert_array_equal(mapped.group_members, index.group_members)

    def test_mmap_arrays_are_views_over_one_map(self, artifact):
        mapped = EmbeddingIndex.load(artifact, mmap=True)
        # Every array is a zero-copy view whose backing buffer is the
        # memory map of the archive — not a heap copy.
        for name, array in mapped._arrays.items():
            assert isinstance(array.base, np.memmap), name
            assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            mapped.entity_embeddings[0, 0] = 1.0

    def test_heap_load_is_not_mmapped(self, artifact):
        loaded = EmbeddingIndex.load(artifact)
        assert loaded.mmapped is False
        assert loaded.describe()["mmapped"] is False

    def test_two_mmap_loads_serve_identical_answers(self, artifact):
        from repro.serve import RecommendationService

        answers = []
        for _ in range(2):
            service = RecommendationService(
                EmbeddingIndex.load(artifact, mmap=True),
                cache_capacity=0,
                deadline_ms=None,
            )
            try:
                answers.append(service.recommend(0, k=5)["items"])
            finally:
                service.close()
        assert answers[0] == answers[1]

    def test_mmap_serving_parity_with_heap(self, artifact):
        # mmap views may be unaligned, which can route the dot products
        # through a different BLAS kernel: scores agree to rounding, and
        # the ranked item lists agree outright on this workload.
        from repro.serve import RecommendationService

        payloads = {}
        for mode in (False, True):
            service = RecommendationService(
                EmbeddingIndex.load(artifact, mmap=mode),
                cache_capacity=0,
                deadline_ms=None,
            )
            try:
                payloads[mode] = service.recommend(1, k=5)["items"]
            finally:
                service.close()
        assert [i["item"] for i in payloads[False]] == [
            i["item"] for i in payloads[True]
        ]
        for heap_item, mapped_item in zip(payloads[False], payloads[True]):
            assert heap_item["score"] == pytest.approx(
                mapped_item["score"], rel=1e-12
            )

    def test_mmap_seen_items_parity(self, index, artifact):
        mapped = EmbeddingIndex.load(artifact, mmap=True)
        for group in range(index.num_groups):
            np.testing.assert_array_equal(
                mapped.seen_items(group), index.seen_items(group)
            )

    def test_corrupt_payload_rejected_without_materializing(self, artifact):
        import zipfile

        with zipfile.ZipFile(artifact) as archive:
            info = archive.getinfo("entity_embeddings.npy")
        # Flip one byte inside the member's array payload (past the
        # local file header and the npy header).
        blob = bytearray(artifact.read_bytes())
        offset = info.header_offset + 200
        blob[offset] ^= 0xFF
        artifact.write_bytes(bytes(blob))
        with pytest.raises(IndexError_, match="fingerprint"):
            EmbeddingIndex.load(artifact, mmap=True)

    def test_truncated_archive_rejected(self, artifact):
        blob = artifact.read_bytes()
        artifact.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IndexError_):
            EmbeddingIndex.load(artifact, mmap=True)

    def test_compressed_archive_rejected(self, index, tmp_path):
        # np.savez_compressed members cannot be mapped zero-copy; the
        # loader must say so instead of silently decompressing to heap.
        path = tmp_path / "compressed.npz"
        arrays = {name: np.asarray(arr) for name, arr in index._arrays.items()}
        np.savez_compressed(path, **arrays)
        with pytest.raises(IndexError_):
            EmbeddingIndex.load(path, mmap=True)
