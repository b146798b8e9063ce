"""Collaborative knowledge graph construction (Sec. III-A).

The paper augments the item knowledge graph with the recommendation data:
users become entities, and every observed user-item interaction
``y^U_{u,v} = 1`` adds a triple ``(user, Interact, f(v))``.  Formally
``E' = E ∪ U`` and ``R' = R ∪ {Interact}``.

Entity id layout in the collaborative graph:

* ``[0, num_kg_entities)`` — original KG entities (items map into these),
* ``[num_kg_entities, num_kg_entities + num_users)`` — user entities.

Relation id ``num_kg_relations`` is the new ``Interact`` relation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import KnowledgeGraph

__all__ = ["ItemEntityMap", "CollaborativeKnowledgeGraph", "build_collaborative_graph"]


class ItemEntityMap:
    """The single-shot mapping ``f: V -> E`` of items to KG entities.

    Parameters
    ----------
    item_to_entity:
        ``item_to_entity[v]`` is the KG entity id of item ``v``.  The map
        must be injective (two items cannot share an entity); the paper
        removes items with multiple or missing matches, so by the time a
        dataset reaches the model this property always holds.
    """

    def __init__(self, item_to_entity: Sequence[int]):
        array = np.asarray(item_to_entity, dtype=np.int64)
        if array.ndim != 1:
            raise ValueError("item_to_entity must be 1-D")
        if len(np.unique(array)) != len(array):
            raise ValueError("item->entity map must be injective")
        self._forward = array

    @property
    def num_items(self) -> int:
        return len(self._forward)

    def entity_of(self, item: int) -> int:
        """Entity id for ``item``."""
        return int(self._forward[item])

    def entities_of(self, items) -> np.ndarray:
        """Vectorized :meth:`entity_of`."""
        return self._forward[np.asarray(items, dtype=np.int64)]

    def item_of(self, entity: int) -> int | None:
        """Item id for ``entity``, or None if the entity is not an item.

        A scan of the forward map: no inverse is kept, since nothing on
        the build, training or serving path asks for one.
        """
        hits = np.flatnonzero(self._forward == int(entity))
        return int(hits[0]) if len(hits) else None

    @classmethod
    def identity(cls, num_items: int) -> "ItemEntityMap":
        """Items occupy entity ids ``[0, num_items)`` directly."""
        return cls(np.arange(num_items))


class CollaborativeKnowledgeGraph(KnowledgeGraph):
    """A :class:`KnowledgeGraph` extended with user entities and Interact edges.

    Besides the graph structure, this class remembers the id layout so the
    model can translate between user/item ids and entity ids.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        num_users: int,
        user_item_pairs: np.ndarray,
        item_map: ItemEntityMap,
    ):
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        pairs = np.asarray(user_item_pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("user_item_pairs must have shape (n, 2)")
        if len(pairs) and (pairs[:, 0].min() < 0 or pairs[:, 0].max() >= num_users):
            raise ValueError("user id out of range in interaction pairs")
        if len(pairs) and (
            pairs[:, 1].min() < 0 or pairs[:, 1].max() >= item_map.num_items
        ):
            raise ValueError("item id out of range in interaction pairs")

        self.num_kg_entities = kg.num_entities
        self.num_kg_relations = kg.num_relations
        self.num_users = int(num_users)
        self.interact_relation = kg.num_relations
        self.item_map = item_map

        user_entities = self.num_kg_entities + pairs[:, 0]
        item_entities = item_map.entities_of(pairs[:, 1])
        interact_triples = np.stack(
            [user_entities, np.full(len(pairs), self.interact_relation), item_entities],
            axis=1,
        ) if len(pairs) else np.zeros((0, 3), dtype=np.int64)

        all_triples = np.concatenate([kg.triples, interact_triples], axis=0)
        relation_names = dict(kg.relation_names)
        relation_names[self.interact_relation] = "Interact"
        entity_names = dict(kg.entity_names)
        for user in range(num_users):
            entity_names.setdefault(self.num_kg_entities + user, f"user:{user}")

        super().__init__(
            num_entities=self.num_kg_entities + num_users,
            num_relations=self.num_kg_relations + 1,
            triples=all_triples,
            entity_names=entity_names,
            relation_names=relation_names,
            bidirectional=kg.bidirectional,
        )

    # -- id translation -------------------------------------------------
    def user_entity(self, user: int) -> int:
        """Entity id of ``user``."""
        if not 0 <= user < self.num_users:
            raise IndexError(f"user {user} out of range [0, {self.num_users})")
        return self.num_kg_entities + int(user)

    def user_entities(self, users) -> np.ndarray:
        """Vectorized :meth:`user_entity`."""
        users = np.asarray(users, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() >= self.num_users):
            raise IndexError("user id out of range")
        return self.num_kg_entities + users

    def item_entity(self, item: int) -> int:
        """Entity id of ``item`` under the f: V -> E map."""
        return self.item_map.entity_of(item)

    def item_entities(self, items) -> np.ndarray:
        """Vectorized :meth:`item_entity`."""
        return self.item_map.entities_of(items)

    def is_user_entity(self, entity: int) -> bool:
        """Whether ``entity`` is one of the added user nodes."""
        return entity >= self.num_kg_entities


def build_collaborative_graph(
    kg: KnowledgeGraph,
    num_users: int,
    user_item_pairs,
    item_map: ItemEntityMap | None = None,
) -> CollaborativeKnowledgeGraph:
    """Convenience constructor; defaults to the identity item->entity map."""
    pairs = np.asarray(user_item_pairs, dtype=np.int64)
    if item_map is None:
        num_items = int(pairs[:, 1].max()) + 1 if len(pairs) else kg.num_entities
        item_map = ItemEntityMap.identity(num_items)
    return CollaborativeKnowledgeGraph(kg, num_users, pairs, item_map)
