"""Knowledge graph triple store.

The paper represents a knowledge graph as a set of (head, relation, tail)
triples over integer-identified entities and relations (Sec. III-A).
:class:`KnowledgeGraph` stores the triples as one sorted int64 array and
answers neighborhood queries from it; the GCN propagation code reads the
fixed-K tables that :class:`~repro.kg.sampling.NeighborSampler` draws from
the same array.

Following KGCN/KGAT practice, the graph is treated as *bidirectional* for
message passing: every stored triple ``(h, r, t)`` is also the reverse
edge ``t --r--> h`` (with the same relation id), so information can flow
both ways along a fact.

This module also owns the mixed-radix row keys (:func:`row_keys`) that
:mod:`repro.data.interactions` deduplicates and searches pairs with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["Triple", "KnowledgeGraph", "row_keys", "unique_rows"]

_INT64_SPAN = 1 << 63  # keys run over [0, span); int64 holds [0, 2**63)


def row_keys(columns: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray | None:
    """One int64 key per row, from the row's int64 ``columns``.

    Column ``j`` must lie in ``[0, sizes[j])``.  The mixed-radix key
    ``((c0 * s1 + c1) * s2 + c2) ...`` sorts exactly as the rows sort
    lexicographically, and equal keys are equal rows.  Returns None when
    ``prod(sizes)`` exceeds the int64 range.
    """
    span = 1
    for size in sizes:
        span *= int(size)
    if span > _INT64_SPAN:
        return None
    keys = np.asarray(columns[0], dtype=np.int64).copy()
    for column, size in zip(columns[1:], sizes[1:]):
        keys *= int(size)
        keys += column
    return keys


def unique_rows(
    rows: np.ndarray, sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(np.unique(rows, axis=0), sorted keys)`` through :func:`row_keys`.

    Sorting one int64 key per row is several times faster and smaller
    than ``np.unique(axis=0)``'s row sort, and gives the same rows in the
    same order.  Past the int64 key range it falls back to
    ``np.unique(axis=0)`` and returns None for the keys.
    """
    keys = row_keys(rows.T, sizes)
    if keys is None:
        return np.unique(rows, axis=0), None
    keys = np.unique(keys)
    out = np.empty((len(keys), len(sizes)), dtype=np.int64)
    rest = keys
    for column in range(len(sizes) - 1, 0, -1):
        rest, out[:, column] = np.divmod(rest, int(sizes[column]))
    out[:, 0] = rest
    return out, keys


def _triple_array(triples) -> np.ndarray:
    """``(n, 3)`` int64 array from an array, or an iterable of tuples/Triples."""
    if isinstance(triples, np.ndarray):
        array = triples.astype(np.int64, copy=False)
    else:
        rows = [
            (t.head, t.relation, t.tail) if isinstance(t, Triple) else t
            for t in triples
        ]
        array = np.array(rows, dtype=np.int64)
    if array.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 3:
        raise ValueError("triples must be (head, relation, tail) rows")
    return array


@dataclass(frozen=True)
class Triple:
    """One (head, relation, tail) fact."""

    head: int
    relation: int
    tail: int

    def reversed(self) -> "Triple":
        """The same fact read in the opposite direction."""
        return Triple(self.tail, self.relation, self.head)


class KnowledgeGraph:
    """Immutable triple store over one sorted int64 triple array.

    Parameters
    ----------
    num_entities:
        Size of the entity vocabulary; entity ids are ``[0, num_entities)``.
    num_relations:
        Size of the relation vocabulary; relation ids are
        ``[0, num_relations)``.
    triples:
        ``(n, 3)`` int array of ``(head, relation, tail)`` rows, or an
        iterable of such tuples (or :class:`Triple`).  Duplicates are
        removed.
    entity_names / relation_names:
        Optional human-readable labels used by explanations and examples.
    bidirectional:
        If True (default) neighborhoods include reverse edges.  The
        stored triple array is unaffected.

    Examples
    --------
    >>> kg = KnowledgeGraph(3, 1, [(0, 0, 1), (1, 0, 2)])
    >>> sorted(t for _, t in kg.neighbors(1))
    [0, 2]
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        triples: Iterable[tuple[int, int, int] | Triple],
        entity_names: Mapping[int, str] | None = None,
        relation_names: Mapping[int, str] | None = None,
        bidirectional: bool = True,
    ):
        if num_entities <= 0:
            raise ValueError("num_entities must be positive")
        if num_relations <= 0:
            raise ValueError("num_relations must be positive")
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.bidirectional = bool(bidirectional)
        self.entity_names = dict(entity_names or {})
        self.relation_names = dict(relation_names or {})

        array = _triple_array(triples)
        self._validate(array)
        # Deduplicate to keep neighbor sampling unbiased.
        sizes = (self.num_entities, self.num_relations, self.num_entities)
        self._triples, _ = unique_rows(array, sizes)

    def _validate(self, array: np.ndarray) -> None:
        if len(array) == 0:
            return
        heads, relations, tails = array[:, 0], array[:, 1], array[:, 2]
        if heads.min() < 0 or heads.max() >= self.num_entities:
            raise ValueError("triple head out of entity range")
        if tails.min() < 0 or tails.max() >= self.num_entities:
            raise ValueError("triple tail out of entity range")
        if relations.min() < 0 or relations.max() >= self.num_relations:
            raise ValueError("triple relation out of relation range")

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def triples(self) -> np.ndarray:
        """``(num_triples, 3)`` int array of unique stored triples."""
        return self._triples

    @property
    def num_triples(self) -> int:
        return len(self._triples)

    def __len__(self) -> int:
        return self.num_triples

    def __iter__(self) -> Iterator[Triple]:
        for head, relation, tail in self._triples:
            yield Triple(int(head), int(relation), int(tail))

    def __contains__(self, triple) -> bool:
        if isinstance(triple, Triple):
            key = (triple.head, triple.relation, triple.tail)
        else:
            key = tuple(int(x) for x in triple)
        if self.num_triples == 0:
            return False
        matches = (self._triples == np.array(key, dtype=np.int64)).all(axis=1)
        return bool(matches.any())

    def _incident(self, entity: int) -> np.ndarray:
        """Sorted positions of the triples that give ``entity`` neighbors.

        Its own triples (a contiguous block: rows sort by head) plus, on
        a bidirectional graph, every triple it is the tail of.
        """
        heads = self._triples[:, 0]
        if self.bidirectional:
            return np.flatnonzero((heads == entity) | (self._triples[:, 2] == entity))
        start, stop = np.searchsorted(heads, (entity, entity + 1))
        return np.arange(start, stop)

    def neighbors(self, entity: int) -> tuple[tuple[int, int], ...]:
        """All ``(relation, neighbor)`` pairs of ``entity`` (N_e in Eq. 1).

        One pair per incident triple, in sorted triple order: ``(r, t)``
        where ``entity`` is the head, ``(r, h)`` where it is the tail
        (a self-loop counts once).  Read from the triple array on each
        call; no adjacency is stored.
        """
        entity = int(entity)
        rows = self._triples[self._incident(entity)]
        others = np.where(rows[:, 0] == entity, rows[:, 2], rows[:, 0])
        return tuple(zip(rows[:, 1].tolist(), others.tolist()))

    def degree(self, entity: int) -> int:
        """Number of neighborhood edges incident to ``entity``."""
        return len(self._incident(int(entity)))

    def degrees(self) -> np.ndarray:
        """Degree of every entity, shape ``(num_entities,)``."""
        out = np.bincount(self.edges()[0], minlength=self.num_entities)
        return out.astype(np.int64, copy=False)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(src, dst, relation)`` arrays of every neighborhood edge.

        One forward edge per triple plus — on bidirectional graphs — a
        reverse edge whenever head and tail differ; ``src == e`` selects
        exactly the edges behind :meth:`neighbors` of ``e``.
        """
        heads, relations, tails = self._triples.T
        if not self.bidirectional:
            return heads, tails, relations
        reverse = heads != tails
        return (
            np.concatenate([heads, tails[reverse]]),
            np.concatenate([tails, heads[reverse]]),
            np.concatenate([relations, relations[reverse]]),
        )

    def entity_name(self, entity: int) -> str:
        """Readable label for ``entity`` (falls back to ``entity:<id>``)."""
        return self.entity_names.get(int(entity), f"entity:{int(entity)}")

    def relation_name(self, relation: int) -> str:
        """Readable label for ``relation`` (falls back to ``relation:<id>``)."""
        return self.relation_names.get(int(relation), f"relation:{int(relation)}")

    # ------------------------------------------------------------------
    # analysis helpers (used by generators, experiments and tests)
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export as a ``networkx.MultiDiGraph`` with relation edge labels."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        graph.add_nodes_from(range(self.num_entities))
        for head, relation, tail in self._triples:
            graph.add_edge(int(head), int(tail), relation=int(relation))
        return graph

    def bfs_distances(self, source: int, max_hops: int | None = None) -> dict[int, int]:
        """Hop distance from ``source`` to every reachable entity.

        Follows the (possibly bidirectional) edges of :meth:`neighbors` —
        i.e. the same connectivity the GCN propagation sees.
        """
        source = int(source)
        if not 0 <= source < self.num_entities:
            return {source: 0}
        src, dst, _ = self.edges()
        hops_to = np.full(self.num_entities, -1, dtype=np.int64)
        hops_to[source] = 0
        frontier = np.zeros(self.num_entities, dtype=bool)
        frontier[source] = True
        hops = 0
        while frontier.any() and (max_hops is None or hops < max_hops):
            hops += 1
            reached = dst[frontier[src]]
            reached = reached[hops_to[reached] < 0]
            frontier[:] = False
            frontier[reached] = True
            hops_to[reached] = hops
        found = np.flatnonzero(hops_to >= 0)
        return dict(zip(found.tolist(), hops_to[found].tolist()))

    def connected_within(self, a: int, b: int, max_hops: int) -> bool:
        """Whether ``b`` is reachable from ``a`` in at most ``max_hops`` steps."""
        return int(b) in self.bfs_distances(a, max_hops=max_hops)

    def relation_histogram(self) -> np.ndarray:
        """Triple count per relation id."""
        counts = np.bincount(self._triples[:, 1], minlength=self.num_relations)
        return counts.astype(np.int64, copy=False)

    def describe(self) -> dict[str, float]:
        """Summary statistics (used by the Table I harness)."""
        degrees = self.degrees()
        return {
            "num_entities": self.num_entities,
            "num_relations": self.num_relations,
            "num_triples": self.num_triples,
            "mean_degree": float(degrees.mean()) if self.num_entities else 0.0,
            "max_degree": int(degrees.max()) if self.num_entities else 0,
            "isolated_entities": int((degrees == 0).sum()),
        }

    def grown(
        self,
        num_new_entities: int = 0,
        num_new_relations: int = 0,
        new_triples=(),
        entity_remap: np.ndarray | None = None,
        entity_names: Mapping[int, str] | None = None,
        relation_names: Mapping[int, str] | None = None,
    ) -> "KnowledgeGraph":
        """Vocabulary-growing copy: remap old ids, append new facts.

        The incremental-ingestion path (:mod:`repro.stream`) needs to add
        entities *inside* the existing id layout — new items must slot in
        before the attribute block so the item == entity-id convention
        survives — which renumbers every old entity.  ``entity_remap``
        carries that renumbering: ``entity_remap[old_id] == new_id`` (it
        must be injective and land inside the grown vocabulary; identity
        append when omitted).  Relations are append-only: old relation
        ids never move.

        Parameters
        ----------
        num_new_entities / num_new_relations:
            Vocabulary growth (non-negative).
        new_triples:
            ``(n, 3)`` facts already expressed in the *new* numbering.
        entity_remap:
            Old-entity-id -> new-entity-id array of length
            ``self.num_entities``.
        entity_names / relation_names:
            Labels for new ids (old labels are carried over, entity
            labels through the remap).
        """
        if num_new_entities < 0 or num_new_relations < 0:
            raise ValueError("vocabulary growth must be non-negative")
        new_num_entities = self.num_entities + int(num_new_entities)
        new_num_relations = self.num_relations + int(num_new_relations)
        if entity_remap is None:
            remap = np.arange(self.num_entities, dtype=np.int64)
        else:
            remap = np.asarray(entity_remap, dtype=np.int64)
            if remap.shape != (self.num_entities,):
                raise ValueError(
                    f"entity_remap must have shape ({self.num_entities},), "
                    f"got {remap.shape}"
                )
            if len(remap) and (remap.min() < 0 or remap.max() >= new_num_entities):
                raise ValueError("entity_remap target out of the grown range")
            if len(np.unique(remap)) != len(remap):
                raise ValueError("entity_remap must be injective")
        remapped = self._triples.copy()
        if len(remapped):
            remapped[:, 0] = remap[remapped[:, 0]]
            remapped[:, 2] = remap[remapped[:, 2]]
        appended = np.asarray(new_triples, dtype=np.int64)
        if appended.size == 0:
            appended = np.zeros((0, 3), dtype=np.int64)
        if appended.ndim != 2 or appended.shape[1] != 3:
            raise ValueError("new_triples must have shape (n, 3)")
        combined = np.concatenate([remapped, appended], axis=0)
        names = {int(remap[old]): label for old, label in self.entity_names.items()}
        names.update({int(k): v for k, v in (entity_names or {}).items()})
        rel_names = dict(self.relation_names)
        rel_names.update({int(k): v for k, v in (relation_names or {}).items()})
        return KnowledgeGraph(
            new_num_entities,
            new_num_relations,
            combined,
            entity_names=names,
            relation_names=rel_names,
            bidirectional=self.bidirectional,
        )

    def merge(self, other: "KnowledgeGraph") -> "KnowledgeGraph":
        """Union of two graphs over the same vocabularies."""
        if (self.num_entities, self.num_relations) != (
            other.num_entities,
            other.num_relations,
        ):
            raise ValueError("cannot merge graphs with different vocabularies")
        combined = np.concatenate([self._triples, other._triples], axis=0)
        names = {**other.entity_names, **self.entity_names}
        rel_names = {**other.relation_names, **self.relation_names}
        return KnowledgeGraph(
            self.num_entities,
            self.num_relations,
            combined,
            entity_names=names,
            relation_names=rel_names,
            bidirectional=self.bidirectional,
        )
