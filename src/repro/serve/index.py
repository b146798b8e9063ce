"""The serving index: frozen model state as plain numpy arrays.

Training needs the autograd tape; serving does not.  An
:class:`EmbeddingIndex` runs the expensive extraction once over a
trained :class:`~repro.core.model.KGAG` — zero-order entity/relation
representations, per-layer aggregator weights, the SP/PI attention
parameters, the fixed neighbor tables of the sampler, group membership
and the train-time interacted-item mask — and materializes everything as
read-only numpy arrays.  When the propagation is query-independent
(``uniform_neighbor_weights`` or ``num_layers == 0``) the index
additionally materializes the *final* propagated representation of every
entity, so online scoring degenerates to gathers plus attention.

The artifact is a single ``.npz`` file with a JSON metadata blob, using
the same packing helpers as :mod:`repro.nn.serialization`, and carries a
content fingerprint (``version``) that score caches key on: reloading a
retrained index changes the version and implicitly invalidates every
cached score vector.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from pathlib import Path

import numpy as np

from ..nn.serialization import (
    CheckpointError,
    atomic_write_npz,
    pack_metadata,
    read_npz_archive,
    resolve_npz_path,
)

__all__ = ["INDEX_FORMAT_VERSION", "IndexError_", "EmbeddingIndex", "build_index"]

INDEX_FORMAT_VERSION = 1

_METADATA_KEY = "__index_metadata__"

# Arrays every index must carry (beyond the optional ones).
_REQUIRED_ARRAYS = (
    "entity_embeddings",
    "relation_embeddings",
    "neighbor_entities",
    "neighbor_relations",
    "attn_w_member",
    "attn_w_peers",
    "attn_bias",
    "attn_context",
    "group_members",
    "item_entities",
    "seen_pairs",
    "item_popularity",
)


def _compute_fingerprint(arrays: dict, metadata: dict) -> str:
    """Content digest over raw arrays + metadata (sans the fingerprint).

    Module-level so :meth:`EmbeddingIndex.load` can verify an artifact
    *before* constructing an index from it.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode("utf-8"))
        array = np.asarray(arrays[name])
        if array.flags.c_contiguous:
            # Byte-identical to ``tobytes()`` for C-contiguous data, but
            # streams straight from the buffer — a memory-mapped artifact
            # is verified without materializing its tables on the heap.
            digest.update(array.data)
        else:
            digest.update(np.ascontiguousarray(array).tobytes())
    stable = {k: v for k, v in metadata.items() if k != "fingerprint"}
    digest.update(repr(sorted(stable.items())).encode("utf-8"))
    return digest.hexdigest()[:16]


def _mmap_npz_arrays(path: Path) -> dict[str, np.ndarray]:
    """Zero-copy views over every member of an uncompressed ``.npz``.

    ``np.savez`` stores members uncompressed (``ZIP_STORED``), so each
    ``.npy`` payload sits contiguously in the file.  The whole archive is
    mapped once (``np.memmap``) and each array becomes an ndarray view at
    its payload offset: N server processes mapping the same artifact
    share a single page-cache copy instead of N heap copies.
    """
    raw = np.memmap(path, dtype=np.uint8, mode="r")
    arrays: dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                name = info.filename
                if name.endswith(".npy"):
                    name = name[: -len(".npy")]
                if info.compress_type != zipfile.ZIP_STORED:
                    raise IndexError_(
                        f"{path}: member {name!r} is compressed; only "
                        f"uncompressed archives (np.savez) can be "
                        f"memory-mapped"
                    )
                # Local file header: 30 fixed bytes, then name + extra.
                # The extra field can differ from the central directory's
                # copy, so read the lengths from the local header itself.
                base = info.header_offset
                if bytes(raw[base : base + 4]) != b"PK\x03\x04":
                    raise zipfile.BadZipFile(f"bad local header for {name!r}")
                name_len = int(raw[base + 26]) | (int(raw[base + 27]) << 8)
                extra_len = int(raw[base + 28]) | (int(raw[base + 29]) << 8)
                data_start = base + 30 + name_len + extra_len
                head = io.BytesIO(bytes(raw[data_start : data_start + 4096]))
                version = np.lib.format.read_magic(head)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(head)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(head)
                else:
                    raise IndexError_(
                        f"{path}: member {name!r} uses npy format "
                        f"{version}; cannot memory-map"
                    )
                if dtype.hasobject:
                    raise IndexError_(
                        f"{path}: member {name!r} holds Python objects; "
                        f"cannot memory-map"
                    )
                arrays[name] = np.ndarray(
                    shape,
                    dtype=dtype,
                    buffer=raw,
                    offset=data_start + head.tell(),
                    order="F" if fortran else "C",
                )
    except IndexError_:
        raise
    except (zipfile.BadZipFile, ValueError, TypeError, OSError, EOFError) as error:
        raise IndexError_(
            f"corrupt or truncated index archive {path}: {error}"
        ) from error
    return arrays


class IndexError_(CheckpointError):
    """Raised when an index artifact is malformed or incompatible.

    (Trailing underscore: the builtin ``IndexError`` is taken.)
    """


class EmbeddingIndex:
    """Frozen, numpy-only view of a trained KGAG model for serving.

    Parameters
    ----------
    arrays:
        Mapping of array name to ``np.ndarray`` (see module docstring for
        the catalogue).  Arrays are stored read-only.
    metadata:
        JSON-serializable descriptor: format version, model hyper-
        parameters, counts, and the attention/aggregator switches.

    Use :func:`build_index` (or :meth:`from_model`) rather than the raw
    constructor.
    """

    def __init__(self, arrays: dict[str, np.ndarray], metadata: dict, *, copy: bool = True):
        for name in _REQUIRED_ARRAYS:
            if name not in arrays:
                raise IndexError_(f"index is missing required array {name!r}")
        if metadata.get("format_version") != INDEX_FORMAT_VERSION:
            raise IndexError_(
                f"unsupported index format version "
                f"{metadata.get('format_version')!r} "
                f"(this build reads version {INDEX_FORMAT_VERSION})"
            )
        self._arrays = {}
        for name, array in arrays.items():
            if copy:
                frozen = np.asarray(array).copy()
                frozen.setflags(write=False)
            else:
                # ``copy=False`` keeps memory-mapped views as-is so the
                # backing pages stay shared across processes.  Views of a
                # read-only mmap are already non-writeable; freeze any
                # that are not.
                frozen = np.asarray(array)
                if frozen.flags.writeable:
                    frozen.setflags(write=False)
            self._arrays[name] = frozen
        self.mmapped = not copy
        self.metadata = dict(metadata)
        self.version = self.metadata.get("fingerprint") or self._fingerprint()
        self.metadata["fingerprint"] = self.version
        # Sorted keys ``group * num_items + item``: a group's train items
        # are one slice, found by binary search on every served read.
        seen = self.seen_pairs.astype(np.int64, copy=False)
        self._seen_keys = np.sort(seen[:, 0] * self.num_items + seen[:, 1])

    # -- array accessors -------------------------------------------------
    def __getattr__(self, name: str) -> np.ndarray:
        try:
            return self.__dict__["_arrays"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def entity_final(self) -> np.ndarray | None:
        """Final propagated representations, if query-independent."""
        return self._arrays.get("entity_final")

    @property
    def aggregator_layers(self) -> list[tuple[np.ndarray, np.ndarray, str]]:
        """Per-layer ``(weight, bias, activation)`` of the propagation."""
        layers = []
        for i, activation in enumerate(self.metadata["activations"]):
            layers.append(
                (self._arrays[f"agg_weight_{i}"], self._arrays[f"agg_bias_{i}"], activation)
            )
        return layers

    # -- metadata shorthands ---------------------------------------------
    @property
    def dim(self) -> int:
        return int(self.metadata["embedding_dim"])

    @property
    def num_layers(self) -> int:
        return int(self.metadata["num_layers"])

    @property
    def num_neighbors(self) -> int:
        return int(self.metadata["num_neighbors"])

    @property
    def num_users(self) -> int:
        return int(self.metadata["num_users"])

    @property
    def num_items(self) -> int:
        return int(self.metadata["num_items"])

    @property
    def num_groups(self) -> int:
        return int(self.group_members.shape[0])

    @property
    def group_size(self) -> int:
        return int(self.group_members.shape[1])

    @property
    def user_entity_offset(self) -> int:
        return int(self.metadata["user_entity_offset"])

    @property
    def aggregator(self) -> str:
        return str(self.metadata["aggregator"])

    @property
    def uniform_weights(self) -> bool:
        return bool(self.metadata["uniform_neighbor_weights"])

    @property
    def use_sp(self) -> bool:
        return bool(self.metadata["use_sp"])

    @property
    def use_pi(self) -> bool:
        return bool(self.metadata["use_pi"])

    @property
    def pi_pooling(self) -> str:
        return str(self.metadata["pi_pooling"])

    def seen_items(self, group_id: int) -> np.ndarray:
        """Items ``group_id`` interacted with at train time (sorted)."""
        base = int(group_id) * self.num_items
        lo, hi = np.searchsorted(self._seen_keys, (base, base + self.num_items))
        return self._seen_keys[lo:hi] - base

    # -- construction ----------------------------------------------------
    @classmethod
    def from_model(cls, model, train_interactions=None, user_interactions=None):
        """Extract a serving index from a trained model.

        Parameters
        ----------
        model:
            A trained :class:`~repro.core.model.KGAG` (duck-typed: any
            object exposing ``propagation``, ``aggregation``, ``sampler``,
            ``ckg``, ``groups`` and ``config``).
        train_interactions:
            Group-item train positives; becomes the serving-time
            interacted-item exclusion mask.
        user_interactions:
            User-item interactions; feeds the popularity fallback scores
            stored alongside the embeddings.
        """
        config = model.config
        propagation = model.propagation
        aggregation = model.aggregation
        sampler = model.sampler

        neighbor_entities, neighbor_relations = sampler.neighbor_tables()
        arrays: dict[str, np.ndarray] = {
            "entity_embeddings": propagation.entity_embedding.weight.data,
            "relation_embeddings": propagation.relation_embedding.weight.data,
            "neighbor_entities": neighbor_entities,
            "neighbor_relations": neighbor_relations,
            "attn_w_member": aggregation.w_member.data,
            "attn_w_peers": aggregation.w_peers.data,
            "attn_bias": aggregation.bias.data,
            "attn_context": aggregation.context.data,
            "peer_index": aggregation.peer_index,
            "group_members": model.groups.members,
            "item_entities": model.ckg.item_map.entities_of(
                np.arange(model.num_items)
            ),
        }
        activations = []
        for i, aggregator in enumerate(propagation._aggregators):
            arrays[f"agg_weight_{i}"] = aggregator.linear.weight.data
            arrays[f"agg_bias_{i}"] = aggregator.linear.bias.data
            activations.append(aggregator.activation)

        if train_interactions is not None and train_interactions.num_interactions:
            arrays["seen_pairs"] = train_interactions.pairs
        else:
            arrays["seen_pairs"] = np.zeros((0, 2), dtype=np.int64)

        arrays["item_popularity"] = _popularity_scores(
            model.num_items, user_interactions, train_interactions
        )

        depth = propagation.num_layers
        metadata = {
            "format_version": INDEX_FORMAT_VERSION,
            "model_class": type(model).__name__,
            "embedding_dim": int(config.embedding_dim),
            "num_layers": int(depth),
            "num_neighbors": int(sampler.num_neighbors),
            "num_users": int(model.num_users),
            "num_items": int(model.num_items),
            "user_entity_offset": int(model.ckg.num_kg_entities),
            "aggregator": str(config.aggregator),
            "uniform_neighbor_weights": bool(config.uniform_neighbor_weights),
            "use_sp": bool(aggregation.use_sp),
            "use_pi": bool(aggregation.use_pi),
            "pi_pooling": str(aggregation.pi_pooling),
            "activations": activations,
        }
        index = cls(arrays, metadata)
        if depth == 0 or config.uniform_neighbor_weights:
            # Query-independent propagation: run the GCN once over every
            # entity and freeze the outputs.
            from .engine import propagate  # local import avoids a cycle

            all_entities = np.arange(index.entity_embeddings.shape[0])
            dummy_queries = np.zeros((len(all_entities), index.dim))
            final = propagate(index, all_entities, dummy_queries)
            final.setflags(write=False)
            index._arrays["entity_final"] = final
            index.version = index._fingerprint()
            index.metadata["fingerprint"] = index.version
        return index

    # -- persistence -----------------------------------------------------
    def _fingerprint(self) -> str:
        return _compute_fingerprint(self._arrays, self.metadata)

    def save(self, path: str | Path) -> Path:
        """Write the index to ``path`` (``.npz`` appended if missing)."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        payload = dict(self._arrays)
        if _METADATA_KEY in payload:
            raise ValueError(f"array name {_METADATA_KEY!r} is reserved")
        payload[_METADATA_KEY] = pack_metadata(self.metadata)
        # tmp + fsync + os.replace: reloading servers never observe a
        # torn artifact, even when the builder is killed mid-write.
        return atomic_write_npz(path, payload)

    @classmethod
    def load(cls, path: str | Path, *, mmap: bool = False) -> "EmbeddingIndex":
        """Load an index previously written by :meth:`save`.

        The stored content fingerprint is verified *before* the index is
        constructed (and before anything can reference its arrays): an
        archive with no fingerprint, or whose recomputed digest differs,
        raises :class:`IndexError_` — so a half-written or hand-edited
        swap candidate can never be installed into a server.

        With ``mmap=True`` the arrays are zero-copy views over a single
        read-only memory map of the archive.  The fingerprint check
        streams over the mapped pages, so verification never materializes
        the tables, and N worker processes opening the same artifact
        share one page-cache copy.  The digest is computed the same way
        in both modes, so heap and mmap loads of one file always agree on
        ``version``.
        """
        path = resolve_npz_path(path)
        if mmap:
            arrays = _mmap_npz_arrays(path)
            if _METADATA_KEY not in arrays:
                raise IndexError_(f"{path} is not a serving index (no metadata)")
            blob = arrays.pop(_METADATA_KEY)
            try:
                metadata = json.loads(blob.tobytes().decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                raise IndexError_(
                    f"{path}: metadata blob is not valid JSON: {error}"
                ) from error
        else:
            arrays, metadata = read_npz_archive(path, metadata_key=_METADATA_KEY)
        if metadata is None:
            raise IndexError_(f"{path} is not a serving index (no metadata)")
        stored = metadata.get("fingerprint")
        if stored is None:
            raise IndexError_(
                f"{path} carries no fingerprint: refusing to install a "
                f"half-written or foreign artifact"
            )
        actual = _compute_fingerprint(arrays, metadata)
        if actual != stored:
            raise IndexError_(
                f"{path} fingerprint mismatch (stored {stored}, computed "
                f"{actual}): artifact corrupted or edited"
            )
        return cls(arrays, metadata, copy=not mmap)

    def describe(self) -> dict:
        """Human-readable summary (the ``build-index`` CLI prints this)."""
        return {
            "version": self.version,
            "format_version": INDEX_FORMAT_VERSION,
            "entities": int(self.entity_embeddings.shape[0]),
            "dim": self.dim,
            "num_layers": self.num_layers,
            "num_neighbors": self.num_neighbors,
            "num_users": self.num_users,
            "num_items": self.num_items,
            "num_groups": self.num_groups,
            "group_size": self.group_size,
            "query_independent": self.entity_final is not None,
            "seen_pairs": int(self.seen_pairs.shape[0]),
            "bytes": int(sum(a.nbytes for a in self._arrays.values())),
            "mmapped": bool(self.mmapped),
        }


def _popularity_scores(num_items, user_interactions, group_interactions) -> np.ndarray:
    """Popularity fallback scores, reusing the baseline's weighting."""
    if user_interactions is None and group_interactions is None:
        return np.zeros(num_items, dtype=np.float64)
    from ..baselines.popularity import PopularityRecommender
    from ..data.interactions import InteractionTable

    if user_interactions is None:
        # Popularity from group interactions alone.
        user_interactions = InteractionTable(1, num_items, [])
    return PopularityRecommender(
        user_interactions, group_train=group_interactions
    ).scores.astype(np.float64)


def build_index(model, train_interactions=None, user_interactions=None) -> EmbeddingIndex:
    """Convenience alias for :meth:`EmbeddingIndex.from_model`."""
    return EmbeddingIndex.from_model(
        model,
        train_interactions=train_interactions,
        user_interactions=user_interactions,
    )
