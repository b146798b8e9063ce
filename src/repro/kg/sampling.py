"""Fixed-size neighbor sampling and receptive-field construction.

The propagation block (Sec. III-C) aggregates each entity's neighborhood
recursively for ``H`` layers.  Real KG degree distributions are heavy
tailed, so — exactly as KGCN does — we sample a *fixed* number ``K`` of
neighbors per entity (with replacement when the degree is below ``K``).
Fixed K makes the H-hop receptive field a dense integer tensor of shape
``(batch, K^h)`` per hop, which lets the whole propagation run as batched
numpy matmuls instead of per-node Python loops.

Entities with no neighbors at all receive a self-loop with a dedicated
``self_relation`` id so that propagation is well-defined everywhere.
"""

from __future__ import annotations

import numpy as np

from .graph import KnowledgeGraph
from ..rng import ensure_rng

__all__ = ["NeighborSampler", "ReceptiveField"]


class ReceptiveField:
    """The H-hop sampled neighborhood of a batch of entities.

    Attributes
    ----------
    entities:
        ``entities[h]`` has shape ``(batch, K**h)``; ``entities[0]`` is the
        seed batch itself.
    relations:
        ``relations[h]`` has shape ``(batch, K**h)`` and holds the relation
        connecting each hop-``h`` entity to its hop-``h-1`` parent
        (``relations[0]`` is unused and absent: list starts at hop 1).
    """

    def __init__(self, entities: list[np.ndarray], relations: list[np.ndarray]):
        if len(entities) != len(relations) + 1:
            raise ValueError("need exactly one relation level per expansion")
        self.entities = entities
        self.relations = relations

    @property
    def depth(self) -> int:
        """Number of hops H."""
        return len(self.relations)

    @property
    def batch_size(self) -> int:
        return self.entities[0].shape[0]


class NeighborSampler:
    """Pre-materialized fixed-K neighbor tables for a knowledge graph.

    Parameters
    ----------
    kg:
        The (collaborative) knowledge graph.
    num_neighbors:
        K — neighbors sampled per entity per hop.
    rng:
        Seeded generator; the sampled tables are fixed at construction,
        so a run is deterministic — but the draw itself matters at this
        scale: one re-draw of the table moved ML-Rand seed-0 rec@5 from
        .6771 to .3611, more than the gaps Table II is read for (ROADMAP.md,
        open item 1).  Compare configurations over several seeds.  The
        ablation bench ``bench_ablation_extras`` quantifies the effect of
        K itself.
    self_relation:
        Relation id used for padding self-loops on isolated entities.
        Defaults to a fresh id equal to ``kg.num_relations`` (embedding
        tables must therefore allocate ``kg.num_relations + 1`` rows;
        :attr:`num_relation_slots` exposes that count).
    stratify_by_relation:
        If True, the K slots are spread round-robin across the entity's
        *relation types* before sampling within each type.  The paper's
        Eq. 1 aggregates the full neighborhood, where the attention can
        reweight rare relations; plain uniform sampling starves rare
        relations on hub entities (e.g. an item with many Interact edges
        but few attribute edges), so stratification is the closer
        approximation of full-neighborhood attention.  The effect is
        quantified in ``benchmarks/bench_ablation_extras.py``.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        num_neighbors: int,
        rng: np.random.Generator | None = None,
        self_relation: int | None = None,
        stratify_by_relation: bool = True,
    ):
        if num_neighbors <= 0:
            raise ValueError("num_neighbors must be positive")
        rng = ensure_rng(rng)
        self.kg = kg
        self.num_neighbors = int(num_neighbors)
        self.stratify_by_relation = bool(stratify_by_relation)
        self.self_relation = (
            kg.num_relations if self_relation is None else int(self_relation)
        )

        count = kg.num_entities
        k = self.num_neighbors
        # Self-loop defaults: isolated entities keep these rows untouched,
        # so the fill passes below only ever visit entities with edges.
        self._neighbor_entities = np.tile(
            np.arange(count, dtype=np.int64)[:, None], (1, k)
        )
        self._neighbor_relations = np.full(
            (count, k), self.self_relation, dtype=np.int64
        )

        # The graph's edges, sorted by source (forward edges first).
        src, dst, edge_rel = kg.edges()
        if len(src) == 0:
            return
        order = np.argsort(src, kind="stable")
        src, dst, edge_rel = src[order], dst[order], edge_rel[order]
        degrees = np.bincount(src, minlength=count)
        offsets = np.concatenate(([0], np.cumsum(degrees)))
        if self.stratify_by_relation:
            self._fill_stratified(src, dst, edge_rel, degrees, offsets, k, rng)
        else:
            self._fill_uniform(dst, edge_rel, degrees, offsets, k, rng)

    def _fill_uniform(
        self,
        dst: np.ndarray,
        edge_rel: np.ndarray,
        degrees: np.ndarray,
        offsets: np.ndarray,
        k: int,
        rng: np.random.Generator,
    ) -> None:
        """Plain uniform sampling, batched over entities of equal degree.

        Degree >= k entities draw k *distinct* edges (random-key top-k,
        the vectorized equivalent of ``choice(..., replace=False)``);
        smaller degrees sample with replacement, as before.
        """
        active = np.flatnonzero(degrees)
        for degree in np.unique(degrees[active]):
            rows = active[degrees[active] == degree]
            m = len(rows)
            if degree >= k:
                keys = rng.random((m, int(degree)))
                picks = np.argpartition(keys, k - 1, axis=1)[:, :k]
            else:
                picks = (rng.random((m, k)) * degree).astype(np.int64)
            flat = (offsets[rows][:, None] + picks).reshape(-1)
            self._neighbor_entities[rows] = dst[flat].reshape(m, k)
            self._neighbor_relations[rows] = edge_rel[flat].reshape(m, k)

    def _fill_stratified(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        edge_rel: np.ndarray,
        degrees: np.ndarray,
        offsets: np.ndarray,
        k: int,
        rng: np.random.Generator,
    ) -> None:
        """Relation-stratified round-robin sampling, batched.

        Per entity, each (entity, relation) pool is randomly permuted and
        the pools visited round-robin in a random order — an edge popped
        in round ``q`` from the ``p``-th pool sorts at key ``(q, p)``, so
        one triple-key lexsort reproduces the per-entity round-robin walk
        for *all* entities at once.  Entities with degree < k pre-fill
        every slot with replacement draws, then the first ``degree``
        slots are overwritten by the distinct round-robin picks.
        """
        num_edges = len(src)
        # Within-pool pop order: random permutation inside each
        # (entity, relation) pool.
        order = np.lexsort((rng.random(num_edges), edge_rel, src))
        s_src = src[order]
        s_rel = edge_rel[order]
        new_pool = np.concatenate(
            ([True], (s_src[1:] != s_src[:-1]) | (s_rel[1:] != s_rel[:-1]))
        )
        pool_ids = np.cumsum(new_pool) - 1
        pool_starts = np.flatnonzero(new_pool)
        within_pool = np.arange(num_edges) - pool_starts[pool_ids]

        # Pool visit order: shuffle each entity's pools.
        num_pools = int(pool_ids[-1]) + 1
        pool_entity = s_src[pool_starts]
        pool_order = np.lexsort((rng.random(num_pools), pool_entity))
        p_src = pool_entity[pool_order]
        p_new = np.concatenate(([True], p_src[1:] != p_src[:-1]))
        p_starts = np.flatnonzero(p_new)
        pool_rank = np.empty(num_pools, dtype=np.int64)
        pool_rank[pool_order] = np.arange(num_pools) - p_starts[np.cumsum(p_new) - 1]

        # Round-robin order: per entity, sort edges by (round, pool rank).
        rr = np.lexsort((pool_rank[pool_ids], within_pool, s_src))
        rr_src = s_src[rr]
        slot = np.arange(num_edges) - offsets[rr_src]

        # Replacement pre-fill for entities that cannot fill k slots.
        short = np.flatnonzero((degrees > 0) & (degrees < k))
        if len(short):
            draws = (rng.random((len(short), k)) * degrees[short][:, None]).astype(
                np.int64
            )
            flat = (offsets[short][:, None] + draws).reshape(-1)
            self._neighbor_entities[short] = dst[flat].reshape(-1, k)
            self._neighbor_relations[short] = edge_rel[flat].reshape(-1, k)

        keep = slot < k
        edge_idx = order[rr[keep]]
        self._neighbor_entities[rr_src[keep], slot[keep]] = dst[edge_idx]
        self._neighbor_relations[rr_src[keep], slot[keep]] = edge_rel[edge_idx]

    @property
    def num_relation_slots(self) -> int:
        """Rows a relation embedding table needs (relations + self-loop)."""
        return max(self.kg.num_relations, self.self_relation) + 1

    def neighbor_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The frozen ``(entities, relations)`` tables, both ``(E, K)``.

        Exposed so the serving index can freeze the exact neighborhoods
        the model was trained with (read-only copies).
        """
        return self._neighbor_entities.copy(), self._neighbor_relations.copy()

    def neighbor_table_views(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(entities, relations)`` table views, both ``(E, K)``.

        Used by the live-model serving index, which must track the
        sampler's tables without a snapshot copy.  Callers must treat the
        arrays as read-only.
        """
        return self._neighbor_entities, self._neighbor_relations

    def sampled_neighbors(self, entities) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbor_entities, neighbor_relations)`` for an id array.

        Both outputs have shape ``entities.shape + (K,)``.
        """
        entities = np.asarray(entities, dtype=np.int64)
        return self._neighbor_entities[entities], self._neighbor_relations[entities]

    def receptive_field(self, seed_entities, depth: int) -> ReceptiveField:
        """Expand a seed batch ``depth`` hops outward.

        Returns a :class:`ReceptiveField` whose level ``h`` arrays have
        shape ``(batch, K**h)``.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        seeds = np.asarray(seed_entities, dtype=np.int64)
        if seeds.ndim != 1:
            raise ValueError("seed_entities must be a 1-D id array")
        entities = [seeds]
        relations: list[np.ndarray] = []
        k = self.num_neighbors
        for hop in range(depth):
            current = entities[-1]
            neighbor_e, neighbor_r = self.sampled_neighbors(current)
            batch = current.shape[0]
            entities.append(neighbor_e.reshape(batch, -1))
            relations.append(neighbor_r.reshape(batch, -1))
        return ReceptiveField(entities, relations)
