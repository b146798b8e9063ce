"""Tape-free ranking engine over an :class:`~repro.serve.index.EmbeddingIndex`.

Answers top-K group recommendation requests in pure numpy.  The math
mirrors the training stack — propagation follows
:class:`~repro.core.propagation.InformationPropagation` (Eqs. 1-8) and
the SP/PI attention follows
:class:`~repro.core.attention.PreferenceAggregation` (Eqs. 9-13).  There
is no tape, no ``Tensor`` wrapper and no parameter extraction per
request: everything reads from the frozen index arrays.

Two scoring paths:

* **the pair path** — :meth:`RankingEngine.score_pairs` and
  :meth:`RankingEngine.explain` score explicit ``(group, item)`` pairs
  with the tape's operation order: ``score_pairs`` matches the
  autograd path bit for bit on identical batches (the oracle against
  the tape), and ``explain`` agrees with :meth:`KGAG.explain` within
  1e-12;
* **the catalog path** — every full-catalog read
  (:meth:`RankingEngine.score_matrix`, ``scores_for_group(s)``,
  ``top_k``) gathers each member and item receptive field once and
  reuses it across the whole catalog, propagating each distinct member
  user once per item chunk.  It reorders float sums, so it agrees with
  the tape to round-off, not bit for bit.  Served and cached vectors
  are scored one group per call, so a group's vector depends only on
  the group and the index, never on which other groups shared its
  engine call.

:class:`MicroBatcher` is the server's per-group single flight: a miss
scores at once on its own thread, and concurrent misses of one group
share that one engine call.  :meth:`RankingEngine.top_k` reproduces the
serving semantics of
:meth:`~repro.core.predict.GroupRecommender.recommend`, including the
``-inf`` exclusion mask and stable tie-breaking.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAIR_CHUNK",
    "RankedItem",
    "propagate",
    "LiveModelIndex",
    "RankingEngine",
    "MicroBatcher",
]

# Pairs per forward pass of every pair-scoring loop: ``score_pairs``
# below and the tape scorer calls of ``repro.eval.score_all_items``
# share it, so the pair path sees the tape's batch shapes (float sums
# depend on the batch shape, so bit-exact parity needs equal shapes).
PAIR_CHUNK = 4096

# Bytes one catalog tile may hold: ``score_matrix`` sizes its item
# chunks so one chunk's propagation and member block stay near this.
TILE_BYTES = 24 * 2**20
# Fewest items per catalog chunk, so a member propagation is shared by
# several candidates even when a single item overflows the budget.
MIN_TILE_ITEMS = 8


@dataclass(frozen=True)
class RankedItem:
    """One ranked candidate: raw score plus sigmoid probability."""

    item: int
    score: float
    probability: float


def _activate(x: np.ndarray, name: str) -> np.ndarray:
    # Mirrors repro.core.propagation._activate on raw arrays.
    if name == "tanh":
        return np.tanh(x)
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "sigmoid":
        return np.where(
            x >= 0,
            1.0 / (1.0 + np.exp(-np.abs(x))),
            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
        )
    if name == "identity":
        return x
    raise ValueError(f"unknown activation {name!r}")


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    # Mirrors repro.nn.ops.softmax (max-shifted, same op order).
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def propagate(index, seed_entities: np.ndarray, query_vectors: np.ndarray) -> np.ndarray:
    """H-layer relation-attentive propagation from frozen arrays.

    Line-for-line numpy mirror of
    :meth:`~repro.core.propagation.InformationPropagation.forward`; see
    that docstring for the math.  ``seed_entities`` is ``(batch,)``,
    ``query_vectors`` is ``(batch, d)``; returns ``(batch, d)``.
    """
    seeds = np.asarray(seed_entities, dtype=np.int64)
    dim = index.dim
    if index.num_layers == 0:
        return index.entity_embeddings[seeds]
    if index.entity_final is not None:
        # Query-independent: the GCN already ran at build time.
        return index.entity_final[seeds]

    batch = len(seeds)
    k = index.num_neighbors
    layers = index.aggregator_layers
    aggregator = index.aggregator
    depth = index.num_layers

    entities = [seeds]
    relations: list[np.ndarray] = []
    for _hop in range(depth):
        current = entities[-1]
        entities.append(index.neighbor_entities[current].reshape(batch, -1))
        relations.append(index.neighbor_relations[current].reshape(batch, -1))

    entity_vectors = [
        index.entity_embeddings[level].reshape(batch, -1, dim) for level in entities
    ]
    query = query_vectors.reshape(batch, dim)
    # Same formulation as the tape path (one (B, R) logit GEMM against
    # the relation table, per-edge scalar gathers, weights hoisted out
    # of the layer loop), so the two stay bit-identical.
    if index.uniform_weights:
        hop_weights = [
            np.full((batch, level.shape[1] // k, k), 1.0 / k) for level in relations
        ]
    else:
        logit_table = query @ index.relation_embeddings.T
        hop_weights = [
            _softmax(
                np.take_along_axis(logit_table, level, axis=1).reshape(
                    batch, -1, k
                ),
                axis=-1,
            )
            for level in relations
        ]

    for iteration in range(depth):
        weight, bias, activation = layers[iteration]
        next_vectors: list[np.ndarray] = []
        for hop in range(depth - iteration):
            neighbors = entity_vectors[hop + 1].reshape(batch, -1, k, dim)
            neighborhood = np.einsum("bwk,bwkd->bwd", hop_weights[hop], neighbors)
            self_vectors = entity_vectors[hop].reshape(-1, dim)
            neighbor_flat = neighborhood.reshape(-1, dim)
            if aggregator == "gcn":
                updated = (self_vectors + neighbor_flat) @ weight.T + bias
            else:  # graphsage
                updated = (
                    np.concatenate([self_vectors, neighbor_flat], axis=-1) @ weight.T
                    + bias
                )
            updated = _activate(updated, activation)
            next_vectors.append(updated.reshape(batch, -1, dim))
        entity_vectors = next_vectors
    return entity_vectors[0].reshape(batch, dim)


def _activate_inplace(x: np.ndarray, name: str) -> np.ndarray:
    # _activate writing into ``x`` where numpy allows (tanh, relu); the
    # catalog path owns its fresh (M, n, Q, d) buffers, so no copy.
    if name == "tanh":
        return np.tanh(x, out=x)
    if name == "relu":
        return np.maximum(x, 0.0, out=x)
    return _activate(x, name)


def _linear(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    # ``x @ weight.T`` over the last axis as ONE GEMM; a stacked matmul
    # would loop over the leading axes in many small products.
    flat = x.reshape(-1, x.shape[-1]) @ weight.T
    return flat.reshape(*x.shape[:-1], weight.shape[0])


def _catalog_propagate(index, seed_rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Shared-receptive-field propagation for full-catalog scoring.

    ``seed_rows`` is ``(M, S)`` — M independent seed tuples whose
    receptive fields are gathered **once**: one tuple of a call's
    distinct member users, or one item per row — and ``queries`` is
    ``(Q, d)`` — Q interaction-object queries (an item chunk's
    candidates, or the call's group queries), each applied against
    every seed.  Returns ``(M, S, Q, d)`` final representations.

    This computes the same per-row math as :func:`propagate` over the
    full ``M x Q`` cross product, but without materializing the cross
    product's index tensors: the entity gathers are per seed tuple, the
    relation-attention logits come from one ``(R, d) @ (d, Q)`` GEMM
    against the whole relation table (each edge gathers its scalar
    column), and the neighborhood mixing is a batched matmul.

    The first aggregation layer sees query-independent ``(M, n, d)``
    entity vectors on both sides; only the attention weights carry the
    Q axis.  Writing the layer as ``W_self e + W_nb (Σ_k w_k e_k) + b``
    (``W_self = W_nb = W`` for GCN, the two column halves of ``W`` for
    GraphSage), distributivity gives ``Σ_k w_k (W_nb e_k)``: when
    ``Q > K`` the ``(d, d)`` GEMM runs over the ``M·n·K`` neighbor rows
    before the mixing instead of the ``M·n·Q`` mixed rows after it.
    When ``Q <= K`` (the item side of a call with at most K groups)
    mixing first is the smaller GEMM and is kept.  Deeper layers are already
    ``(M, n, Q, d)`` and mix first.  Only the float summation order
    differs from :func:`propagate`, so results agree to round-off, not
    bit-for-bit.
    """
    m_rows, _size = seed_rows.shape
    q_rows, dim = queries.shape
    k = index.num_neighbors
    depth = index.num_layers
    layers = index.aggregator_layers
    gcn = index.aggregator == "gcn"

    entities = [seed_rows]
    relations: list[np.ndarray] = []
    for _hop in range(depth):
        current = entities[-1]
        entities.append(index.neighbor_entities[current].reshape(m_rows, -1))
        relations.append(index.neighbor_relations[current].reshape(m_rows, -1))
    # hidden[h] is (M, n_h, d) while query-independent and gains a Q
    # axis — (M, n_h, Q, d) — after the first aggregation layer.
    hidden: list[np.ndarray] = [index.entity_embeddings[level] for level in entities]

    # Per-hop attention weights (M, n, Q, K), built once: logits for
    # every (relation, query) pair come from one small GEMM, then each
    # sampled edge gathers its column.
    if index.uniform_weights:
        hop_weights = [
            np.full((m_rows, entities[hop].shape[1], q_rows, k), 1.0 / k)
            for hop in range(depth)
        ]
    else:
        rel_logits = index.relation_embeddings @ queries.T  # (R, Q)
        hop_weights = [
            _softmax(
                np.swapaxes(
                    rel_logits[relations[hop]].reshape(
                        m_rows, entities[hop].shape[1], k, q_rows
                    ),
                    2,
                    3,
                ),
                axis=-1,
            )
            for hop in range(depth)
        ]

    for iteration in range(depth):
        weight, bias, activation = layers[iteration]
        w_self, w_nb = (weight, weight) if gcn else (weight[:, :dim], weight[:, dim:])
        next_hidden: list[np.ndarray] = []
        for hop in range(depth - iteration):
            n = entities[hop].shape[1]
            weights = hop_weights[hop]  # (M, n, Q, K)
            self_vectors = hidden[hop]
            neighbors = hidden[hop + 1]
            query_free = neighbors.ndim == 3  # layer 0: no Q axis yet
            if query_free:
                neighbors = neighbors.reshape(m_rows, n, k, dim)
                self_vectors = self_vectors[:, :, None, :]  # broadcasts over Q
            if query_free and q_rows > k:  # project the K rows, then mix
                updated = np.matmul(weights, _linear(neighbors, w_nb))
                base = _linear(self_vectors, w_self) + bias
            else:
                if query_free:  # mix into Q <= K rows, then project
                    mixed = np.matmul(weights, neighbors)
                else:  # already query-dependent: contract K per (m, n, q)
                    nb = neighbors.reshape(m_rows, n, k, q_rows, dim)
                    mixed = np.matmul(
                        weights[..., None, :], nb.transpose(0, 1, 3, 2, 4)
                    ).reshape(m_rows, n, q_rows, dim)
                if gcn:  # W(e + e_N) + b: one GEMM over the summed rows
                    mixed += self_vectors
                    base = bias
                else:  # graphsage
                    base = _linear(self_vectors, w_self) + bias
                updated = _linear(mixed, w_nb)
            updated += base
            next_hidden.append(_activate_inplace(updated, activation))
        hidden = next_hidden
    return hidden[0]  # (M, S, Q, d)


# Source of LiveModelIndex versions: each view gets its own, so score
# vectors cached under one view are never served for later weights.
_LIVE_VERSIONS = itertools.count()


class LiveModelIndex:
    """Zero-copy engine view over a live (possibly training) model.

    Exposes the same attribute surface as
    :class:`~repro.serve.index.EmbeddingIndex` but reads the model's
    parameter arrays **in place**: no array copies, no fingerprint
    hashing, no ``.npz`` round-trip.  Building one per validation pass
    costs microseconds, which is what makes per-epoch tape-free
    evaluation practical.  The view is only coherent while the
    parameters are not being updated — score, then let the optimizer
    step, then build a fresh view.  Every view gets a fresh ``version``,
    so a score cache shared across views never serves vectors scored
    under earlier weights.
    """

    def __init__(self, model, train_interactions=None):
        from ..core.model import KGAG  # deferred: serving stays light

        if not isinstance(model, KGAG):
            raise TypeError(
                f"a live engine view needs a KGAG model, got {type(model).__name__}"
            )
        propagation = model.propagation
        aggregation = model.aggregation
        self.entity_embeddings = propagation.entity_embedding.weight.data
        self.relation_embeddings = propagation.relation_embedding.weight.data
        tables = model.sampler.neighbor_table_views()
        self.neighbor_entities, self.neighbor_relations = tables
        self.attn_w_member = aggregation.w_member.data
        self.attn_w_peers = aggregation.w_peers.data
        self.attn_bias = aggregation.bias.data
        self.attn_context = aggregation.context.data
        self.peer_index = aggregation.peer_index
        self.group_members = model.groups.members
        self.item_entities = model.ckg.item_map.entities_of(
            np.arange(model.num_items)
        )
        self.dim = int(model.config.embedding_dim)
        self.num_layers = int(propagation.num_layers)
        self.num_neighbors = int(model.sampler.num_neighbors)
        self.num_groups = int(model.groups.num_groups)
        self.num_items = int(model.num_items)
        self.user_entity_offset = int(model.ckg.num_kg_entities)
        self.aggregator = str(model.config.aggregator)
        self.uniform_weights = bool(propagation.uniform_weights)
        self.use_sp = bool(aggregation.use_sp)
        self.use_pi = bool(aggregation.use_pi)
        self.pi_pooling = str(aggregation.pi_pooling)
        self.aggregator_layers = [
            (agg.linear.weight.data, agg.linear.bias.data, agg.activation)
            for agg in propagation._aggregators
        ]
        self.version = f"live-{next(_LIVE_VERSIONS)}"
        self.entity_final = None
        if self.num_layers > 0 and self.uniform_weights:
            # Query-independent propagation: run the GCN once over every
            # entity so scoring degenerates to gathers plus attention.
            all_entities = np.arange(self.entity_embeddings.shape[0])
            self.entity_final = propagate(
                self, all_entities, np.zeros((len(all_entities), self.dim))
            )
        self._train_interactions = train_interactions

    def seen_items(self, group_id: int) -> np.ndarray:
        """Items the group interacted with at train time (sorted).

        Reads :meth:`~repro.data.interactions.InteractionTable.items_of`,
        a read-only view of the table's sorted pairs found by binary
        search; the table is immutable and keeps no lazily built state,
        so no lock is needed.  A view built without
        ``train_interactions`` cannot tell seen items from unseen ones,
        so it raises ``ValueError`` rather than exclude nothing.
        """
        if self._train_interactions is None:
            raise ValueError(
                "this live view has no train interactions to exclude: pass "
                "train_interactions= when building it, or exclude_seen=False"
            )
        return self._train_interactions.items_of(group_id)


class RankingEngine:
    """Vectorized, cache-aware top-K scoring over a serving index.

    Parameters
    ----------
    index:
        The frozen :class:`~repro.serve.index.EmbeddingIndex`.
    cache:
        Optional :class:`~repro.serve.cache.ScoreCache`; full per-group
        score vectors are cached under ``(group, index.version)`` so
        repeated requests for a group (any ``k``) skip the forward pass.

    Work per forward pass follows from the call, not from an option:
    :meth:`score_pairs` scores ``PAIR_CHUNK`` pairs at a time, the
    tape evaluator's chunking, and :meth:`score_matrix` sizes its item
    chunks by bytes (``TILE_BYTES``, at least ``MIN_TILE_ITEMS``
    items).  Served reads (``scores_for_group(s)``, ``top_k``) score
    one group per call.
    """

    def __init__(self, index, cache=None):
        self.index = index
        self.cache = cache

    @classmethod
    def from_model(cls, model, train_interactions=None, cache=None) -> "RankingEngine":
        """Engine over a **live** model: no copies, no ``.npz`` round-trip.

        Wraps ``model`` in a :class:`LiveModelIndex` — the constructor
        :func:`~repro.core.trainer.evaluate_model` and
        :class:`~repro.core.predict.GroupRecommender` use; both mask
        seen items themselves.  Raises ``TypeError`` for a model that is
        not a :class:`~repro.core.model.KGAG`.  Without
        ``train_interactions``, :meth:`top_k` needs ``exclude_seen=False``.
        """
        view = LiveModelIndex(model, train_interactions=train_interactions)
        return cls(view, cache=cache)

    # -- core scoring ----------------------------------------------------
    # Every public entry point captures ``self.index`` ONCE and threads
    # that snapshot through the private helpers below.  A concurrent
    # ``reload_index`` then flips requests atomically between coherent
    # indices instead of tearing one request across two.
    def score_pairs(self, group_ids, item_ids) -> np.ndarray:
        """ŷ scores for aligned ``(group, item)`` id arrays (Eq. 14)."""
        return self._score_pairs(self.index, group_ids, item_ids)

    def _score_pairs(self, index, group_ids, item_ids) -> np.ndarray:
        group_ids = np.asarray(group_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if group_ids.shape != item_ids.shape or group_ids.ndim != 1:
            raise ValueError("group_ids and item_ids must be aligned 1-D arrays")
        scores = np.empty(len(group_ids), dtype=np.float64)
        for start in range(0, len(group_ids), PAIR_CHUNK):
            stop = start + PAIR_CHUNK
            scores[start:stop] = self._score_chunk(
                index, group_ids[start:stop], item_ids[start:stop]
            )
        return scores

    def _score_chunk(
        self, index, group_ids: np.ndarray, item_ids: np.ndarray
    ) -> np.ndarray:
        """One propagation + attention pass; mirrors ``KGAG.group_item_scores``."""
        dim = index.dim
        members = index.group_members[group_ids]  # (B, S)
        size = members.shape[1]
        batch = len(group_ids)
        member_entities = index.user_entity_offset + members
        item_entities = index.item_entities[item_ids]

        # Member representations: candidate item as query (Eq. 2).
        item_queries = index.entity_embeddings[item_entities]  # (B, d)
        flat_queries = (
            np.broadcast_to(item_queries.reshape(batch, 1, dim), (batch, size, dim))
        ).reshape(batch * size, dim)
        member_vectors = propagate(
            index, member_entities.reshape(-1), flat_queries
        ).reshape(batch, size, dim)

        # Item representations: mean member zero-order as query (Eq. 2).
        member_zero = index.entity_embeddings[member_entities]  # (B, S, d)
        item_query = member_zero.sum(axis=1) * (1.0 / size)  # Tensor.mean mirror
        item_vectors = propagate(index, item_entities, item_query)

        group_vectors = self._aggregate(index, member_vectors, item_vectors)
        return (group_vectors * item_vectors).sum(axis=-1)

    def _raw_attention(
        self, index, member_vectors: np.ndarray, item_vectors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sp, pi, combined) raw scores; mirror of Eqs. 9-11."""
        batch, size, dim = member_vectors.shape
        zeros = np.zeros((batch, size))
        sp = pi = None
        if index.use_sp:
            item = item_vectors.reshape(batch, 1, dim)
            sp = (member_vectors * item).sum(axis=-1) * (1.0 / np.sqrt(dim))
        if index.use_pi:
            peers = size - 1
            peer_vectors = member_vectors[
                :, index.peer_index.reshape(-1), :
            ].reshape(batch, size, peers, dim)
            if index.pi_pooling == "concat":
                peer_input = peer_vectors.reshape(batch, size, peers * dim)
            else:  # mean pooling
                peer_input = peer_vectors.sum(axis=2) * (1.0 / peers)
            hidden = np.maximum(
                member_vectors @ index.attn_w_member.T
                + peer_input @ index.attn_w_peers.T
                + index.attn_bias,
                0.0,
            )
            pi = hidden @ index.attn_context
        if sp is not None and pi is not None:
            combined = sp + pi
        elif sp is not None:
            combined = sp
        elif pi is not None:
            combined = pi
        else:
            combined = zeros
        return (sp if sp is not None else zeros, pi if pi is not None else zeros, combined)

    def _aggregate(
        self, index, member_vectors: np.ndarray, item_vectors: np.ndarray
    ) -> np.ndarray:
        """Group representation g = Σ α̃ u_i (Eqs. 12-13)."""
        __, __, combined = self._raw_attention(index, member_vectors, item_vectors)
        weights = _softmax(combined, axis=-1)
        weights = weights.reshape(weights.shape[0], weights.shape[1], 1)
        return (weights * member_vectors).sum(axis=1)

    def _pi_mixing_matrix(self, index, size: int) -> np.ndarray:
        """Fold Eq. 10's member + pooled-peer projections into one
        ``(S*d, S*d)`` block matrix over the flattened member axis.

        ``mixing[t*d:(t+1)*d, s*d:(s+1)*d]`` maps member slot t's
        vector into slot s's pre-activation: ``w_member.T`` on the
        diagonal, the matching ``w_peers`` column block (concat
        pooling) or ``w_peers.T / peers`` (mean pooling) off it.  One
        GEMM then replaces the ``(B, S, S-1, d)`` peer gather.  The
        single pass reorders Eq. 10's additions, so this serves only
        the round-off-parity catalog path, never the bit-exact pair
        path (:meth:`_raw_attention`).
        """
        dim = index.dim
        peers = size - 1
        mixing = np.zeros((size * dim, size * dim))
        for s in range(size):
            col = slice(s * dim, (s + 1) * dim)
            mixing[col, col] = index.attn_w_member.T
            for j, t in enumerate(index.peer_index[s]):
                row = slice(t * dim, (t + 1) * dim)
                if index.pi_pooling == "concat":
                    block = index.attn_w_peers[:, j * dim : (j + 1) * dim]
                else:  # mean pooling spreads one projection over peers
                    block = index.attn_w_peers * (1.0 / peers)
                mixing[row, col] += block.T
        return mixing

    def _aggregate_catalog(
        self,
        index,
        member_vectors: np.ndarray,
        item_vectors: np.ndarray,
        mixing: np.ndarray | None,
    ) -> np.ndarray:
        """Catalog-path mirror of :meth:`_aggregate` (Eqs. 9-13).

        Same math, gather-free: the SP/PI/softmax reductions run as
        einsum contractions and the peer mixing as one block GEMM
        (:meth:`_pi_mixing_matrix`, built once per call and passed in
        as ``mixing``; ``None`` when PI is off), which matters at
        catalog-tile batch sizes (``groups x chunk`` rows).  Agrees
        with the pair path to float round-off, like the rest of the
        catalog route.
        """
        batch, size, dim = member_vectors.shape
        combined = np.zeros((batch, size))
        if index.use_sp:
            combined += np.einsum(
                "bsd,bd->bs", member_vectors, item_vectors
            ) * (1.0 / np.sqrt(dim))
        if index.use_pi:
            hidden = member_vectors.reshape(batch, size * dim) @ mixing
            hidden += np.tile(index.attn_bias, size)
            np.maximum(hidden, 0.0, out=hidden)
            combined += (hidden.reshape(batch * size, dim) @ index.attn_context).reshape(
                batch, size
            )
        weights = _softmax(combined, axis=-1)
        return np.einsum("bs,bsd->bd", weights, member_vectors)

    # -- request-level API ------------------------------------------------
    def scores_for_group(self, group_id: int) -> np.ndarray:
        """Full-catalog score vector for one group (cached)."""
        return self.scores_for_groups([int(group_id)])[0]

    def scores_for_groups(self, group_ids) -> np.ndarray:
        """``(B, num_items)`` score matrix for a batch of groups.

        Cached groups are answered from the score cache; each distinct
        miss is scored through :meth:`score_matrix` as a one-group
        call, so a row never depends on the rest of the batch — this is
        the primitive the server's :class:`MicroBatcher` calls.
        """
        return self._scores_for_groups(self.index, group_ids)

    def _scores_for_groups(self, index, group_ids) -> np.ndarray:
        group_ids = [int(g) for g in group_ids]
        for group in group_ids:
            if not 0 <= group < index.num_groups:
                raise KeyError(f"group {group} out of range [0, {index.num_groups})")
        out = np.empty((len(group_ids), index.num_items), dtype=np.float64)
        misses: dict[int, list[int]] = {}
        for row, group in enumerate(group_ids):
            cached = self._cache_get(index, group)
            if cached is not None:
                out[row] = cached
            else:
                misses.setdefault(group, []).append(row)
        for group, rows in misses.items():
            vector = self._score_matrix(index, [group])[0]
            self._cache_put(index, group, vector)
            out[rows] = vector
        return out

    def score_matrix(self, group_ids) -> np.ndarray:
        """``(G, num_items)`` full-catalog scores via shared gathers.

        The one full-catalog path — per-epoch validation and every
        served read: receptive fields are gathered once per seed and
        reused across the whole cross product (see
        :func:`_catalog_propagate`), instead of once per ``(group,
        item)`` pair as :meth:`score_pairs` does.  Scores agree with the
        pair path to float round-off.

        The loop is item-major.  A member's representation depends only
        on ``(member, candidate item)`` (Eq. 2), never on its group, so
        each distinct member user of the call is propagated once per
        item chunk and its vectors are shared by every group slot it
        fills.  Items go in chunks sized by bytes: each item of a chunk
        costs ``((U + G) * F + G * S) * d`` floats, for the call's U
        distinct member seeds and G item seeds, each propagating an
        ``F = 1 + K + ... + K^H`` receptive field, plus the ``(G, S)``
        member block.  A chunk holds ``TILE_BYTES`` worth of items, and
        at least ``MIN_TILE_ITEMS``, so the working set stays bounded
        whatever the catalog size.  A one-group call propagates its
        members directly: ``GroupSet`` members are distinct, so there is
        nothing to share.
        """
        return self._score_matrix(self.index, group_ids)

    def _score_matrix(self, index, group_ids) -> np.ndarray:
        group_ids = np.asarray(group_ids, dtype=np.int64)
        for group in group_ids:
            if not 0 <= group < index.num_groups:
                raise KeyError(f"group {group} out of range [0, {index.num_groups})")
        dim = index.dim
        groups = len(group_ids)
        num_items = index.num_items
        out = np.empty((groups, num_items), dtype=np.float64)
        if groups == 0:
            return out
        members = index.group_members[group_ids]  # (G, S)
        size = members.shape[1]
        member_entities = index.user_entity_offset + members
        # Item-seed query (Eq. 2): the mean member zero-order.
        member_zero = index.entity_embeddings[member_entities]  # (G, S, d)
        group_queries = member_zero.sum(axis=1) * (1.0 / size)  # (G, d)

        # Query-independent final vectors (no KG, or uniform weights),
        # else None and each chunk propagates.
        table = index.entity_embeddings if index.num_layers == 0 else index.entity_final
        if table is not None:
            member_rows = table[member_entities][:, None]  # (G, 1, S, d)
        elif groups == 1:  # GroupSet members are distinct: no dedup, no gather
            seeds, slots = member_entities, None
        else:  # each distinct user once; ``slots`` maps group slots to it
            users, slots = np.unique(member_entities, return_inverse=True)
            seeds, slots = users.reshape(1, -1), slots.reshape(groups, size)
        mixing = None  # PI block matrix, built once per call (see below)

        distinct = 0 if table is not None else seeds.size  # U: propagated seeds
        field = sum(index.num_neighbors**hop for hop in range(index.num_layers + 1))
        item_bytes = ((distinct + groups) * field + groups * size) * dim * 8
        width = max(MIN_TILE_ITEMS, TILE_BYTES // item_bytes)
        for start in range(0, num_items, width):
            items = index.item_entities[start : start + width]
            chunk = len(items)
            if table is not None:
                member_block = np.broadcast_to(member_rows, (groups, chunk, size, dim))
                item_block = np.broadcast_to(table[items][None], (groups, chunk, dim))
            else:
                # Member-seed queries (Eq. 2): the candidates' zero-order.
                seed_final = _catalog_propagate(
                    index, seeds, index.entity_embeddings[items]
                )[0]  # (U, c, d): one row per seed user
                member_block = (
                    seed_final[None] if slots is None else seed_final[slots]
                ).transpose(0, 2, 1, 3)  # (G, S, c, d) -> (G, c, S, d)
                item_block = (
                    _catalog_propagate(index, items.reshape(-1, 1), group_queries)
                    .reshape(chunk, groups, dim)
                    .transpose(1, 0, 2)  # (G, c, d)
                )
            if index.use_pi and mixing is None:
                # Built after the first chunk's propagation, not before:
                # concurrent served misses then never hold it at their
                # propagation peak (the server's peak RSS).
                mixing = self._pi_mixing_matrix(index, size)
            member_flat = member_block.reshape(groups * chunk, size, dim)
            item_flat = np.ascontiguousarray(item_block).reshape(groups * chunk, dim)
            group_vectors = self._aggregate_catalog(index, member_flat, item_flat, mixing)
            scores = np.einsum("bd,bd->b", group_vectors, item_flat)
            out[:, start : start + chunk] = scores.reshape(groups, chunk)
        return out

    def _cache_get(self, index, group: int) -> np.ndarray | None:
        if self.cache is None:
            return None
        return self.cache.get((group, index.version))

    def _cache_put(self, index, group: int, vector: np.ndarray) -> None:
        if self.cache is not None:
            self.cache.put((group, index.version), vector)

    def top_k(
        self, group_id: int, k: int = 5, exclude_seen: bool = True
    ) -> list[RankedItem]:
        """Top-k items for one group; semantics of ``GroupRecommender.recommend``."""
        if k <= 0:
            raise ValueError("k must be positive")
        index = self.index
        seen = index.seen_items(group_id) if exclude_seen else None
        scores = self._scores_for_groups(index, [int(group_id)])[0]
        return self.rank(scores, seen, k)

    @staticmethod
    def rank(scores: np.ndarray, seen: np.ndarray | None, k: int) -> list[RankedItem]:
        """Mask, stable-sort and package a score vector (shared helper)."""
        if seen is not None and len(seen):
            scores = scores.copy()
            scores[seen] = -np.inf
        order = np.argsort(-scores, kind="stable")[:k]
        return [
            RankedItem(
                item=int(item),
                score=float(scores[item]),
                probability=float(1.0 / (1.0 + np.exp(-scores[item]))),
            )
            for item in order
            if np.isfinite(scores[item])
        ]

    def explain(self, group_id: int, item_id: int) -> dict:
        """Attention decomposition; mirror of :meth:`KGAG.explain`."""
        index = self.index
        group_ids = np.array([int(group_id)], dtype=np.int64)
        item_ids = np.array([int(item_id)], dtype=np.int64)
        dim = index.dim
        members = index.group_members[group_ids]
        size = members.shape[1]
        member_entities = index.user_entity_offset + members
        item_entities = index.item_entities[item_ids]

        item_queries = index.entity_embeddings[item_entities]
        flat_queries = (
            np.broadcast_to(item_queries.reshape(1, 1, dim), (1, size, dim))
        ).reshape(size, dim)
        member_vectors = propagate(
            index, member_entities.reshape(-1), flat_queries
        ).reshape(1, size, dim)
        member_zero = index.entity_embeddings[member_entities]
        item_query = member_zero.sum(axis=1) * (1.0 / size)
        item_vectors = propagate(index, item_entities, item_query)

        sp, pi, combined = self._raw_attention(index, member_vectors, item_vectors)
        weights = _softmax(combined, axis=-1)
        group_vector = (
            weights.reshape(1, size, 1) * member_vectors
        ).sum(axis=1)
        score = float((group_vector * item_vectors).sum(axis=-1)[0])
        return {
            "group": int(group_id),
            "item": int(item_id),
            "members": members[0].tolist(),
            "sp": sp[0].copy(),
            "pi": pi[0].copy(),
            "combined": combined[0].copy(),
            "attention": weights[0].copy(),
            "score": score,
            "probability": float(1.0 / (1.0 + np.exp(-score))),
        }


class MicroBatcher:
    """Per-group single flight: concurrent misses of one group score once.

    Server threads call :meth:`scores_for_group`.  The first miss for a
    group starts a *flight*: it calls
    :meth:`RankingEngine.scores_for_groups` for that one group at once,
    on its own thread.  A concurrent miss for the same group joins the
    flight and waits for its row instead of scoring again; a miss for
    another group starts its own flight.  Nothing waits for company: a
    lone miss reaches the engine without a timed wait.

    Flights are keyed by ``(group, engine.index.version)``, read when the
    request joins, so a read that sees a swapped-in index never receives
    a row a flight started on the old one.
    """

    def __init__(self, engine: RankingEngine):
        self.engine = engine
        self._lock = threading.Lock()
        self._flights: dict[tuple[int, str], _Flight] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._batches_run = 0  # guarded-by: _lock
        self._requests_served = 0  # guarded-by: _lock

    @property
    def batches_run(self) -> int:
        """Flights flown (engine calls made)."""
        with self._lock:
            return self._batches_run

    @property
    def requests_served(self) -> int:
        """Requests those flights answered, joiners included."""
        with self._lock:
            return self._requests_served

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def scores_for_group(self, group_id: int) -> np.ndarray:
        key = (int(group_id), self.engine.index.version)
        with self._lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            flight = self._flights.get(key)
            lead = flight is None
            if lead:
                flight = self._flights[key] = _Flight()
            flight.requests += 1
        if lead:
            self._fly(key, flight)
        else:
            flight.done.wait()
        if flight.error is not None:
            raise flight.error
        return flight.result

    def close(self) -> None:
        """Refuse new work; idempotent, flights in the air still land.

        A request either joined a flight before the close, and that
        flight's leader answers it, or it is refused, so closing never
        strands a waiter.
        """
        with self._lock:
            self._closed = True

    def _fly(self, key: tuple[int, str], flight: "_Flight") -> None:
        try:
            flight.result = self.engine.scores_for_groups([key[0]])[0]
        except Exception as error:  # propagate to every joiner
            flight.error = error
        finally:
            # Land before waking: a later miss starts a fresh flight and
            # the counters already include this one.
            with self._lock:
                del self._flights[key]
                self._batches_run += 1
                self._requests_served += flight.requests
            flight.done.set()


class _Flight:
    """One in-flight engine call and the requests waiting on it."""

    __slots__ = ("done", "requests", "result", "error")

    def __init__(self):
        self.done = threading.Event()
        self.requests = 0
        self.result: np.ndarray | None = None
        self.error: Exception | None = None
