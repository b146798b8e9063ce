"""Group structures and the paper's group-construction protocols (Sec. IV-B).

Three construction rules are implemented:

* :func:`random_groups` — MovieLens-20M-**Rand**: members sampled uniformly
  with no similarity restriction.
* :func:`similarity_groups` — MovieLens-20M-**Simi**: every within-group
  user pair must exceed a Pearson-correlation threshold (0.27 in the
  paper).
* :func:`covisit_groups` — **Yelp**: sets of befriended users who visited
  the same business "at the same time" (here: share a sampled event).

A group's positive items follow the paper's rule: a group selects an item
iff *every* member rated it >= 4 (:func:`group_positive_items`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interactions import InteractionTable, RatingsTable
from .similarity import pairwise_pearson
from ..rng import ensure_rng

__all__ = [
    "GroupSet",
    "random_groups",
    "similarity_groups",
    "covisit_groups",
    "group_positive_items",
]


class GroupSet:
    """A collection of fixed-size groups.

    The paper's datasets use a fixed group size per dataset (8, 5 and 3 —
    Table I), and KGAG's peer-influence attention concatenates peer
    representations into a fixed-width vector (Eq. 10), so fixed size is a
    structural assumption of the model, not a simplification.

    Parameters
    ----------
    members:
        ``(num_groups, group_size)`` int array; each row lists distinct
        user ids.
    num_users:
        User vocabulary size (for validation).
    """

    def __init__(self, members, num_users: int):
        array = np.asarray(members, dtype=np.int64)
        if array.ndim != 2:
            raise ValueError("members must be (num_groups, group_size)")
        if array.shape[1] < 2:
            raise ValueError("groups must have at least two members")
        if array.size and (array.min() < 0 or array.max() >= num_users):
            raise ValueError("member id out of range")
        ordered = np.sort(array, axis=1)
        if (ordered[:, 1:] == ordered[:, :-1]).any():
            raise ValueError("group members must be distinct")
        self.members = array
        self.num_users = int(num_users)

    @property
    def num_groups(self) -> int:
        return self.members.shape[0]

    @property
    def group_size(self) -> int:
        return self.members.shape[1]

    def __len__(self) -> int:
        return self.num_groups

    def __getitem__(self, group: int) -> np.ndarray:
        return self.members[group]

    def members_of(self, groups) -> np.ndarray:
        """Vectorized member lookup: ``(batch, group_size)``."""
        return self.members[np.asarray(groups, dtype=np.int64)]

    def extended(self, new_members=None, num_users: int | None = None) -> "GroupSet":
        """Growing copy: append groups and/or raise the user vocabulary.

        Existing group ids are stable (new groups take the next ids), so
        interaction tables and serving caches keyed by group id survive a
        delta unchanged.  ``new_members`` rows must match the existing
        ``group_size`` — fixed size is a structural assumption of the
        model's peer-influence attention, so a delta cannot change it.
        """
        num_users = self.num_users if num_users is None else int(num_users)
        if num_users < self.num_users:
            raise ValueError("the user vocabulary can only grow")
        members = self.members
        appended = np.asarray(
            new_members if new_members is not None else [], dtype=np.int64
        )
        if appended.size:
            if appended.ndim != 2:
                raise ValueError("new_members must be (num_new_groups, group_size)")
            if appended.shape[1] != self.group_size:
                raise ValueError(
                    f"new groups must have {self.group_size} members "
                    f"(got rows of {appended.shape[1]})"
                )
            members = np.concatenate([members, appended], axis=0)
        return GroupSet(members, num_users)

    def groups_containing(self, user: int) -> np.ndarray:
        """Ids of groups that include ``user``."""
        return np.nonzero((self.members == int(user)).any(axis=1))[0]

    def participation_counts(self) -> np.ndarray:
        """How many groups each user belongs to."""
        counts = np.zeros(self.num_users, dtype=np.int64)
        uniq, freq = np.unique(self.members, return_counts=True)
        counts[uniq] = freq
        return counts


def random_groups(
    num_groups: int,
    group_size: int,
    num_users: int,
    rng: np.random.Generator | None = None,
) -> GroupSet:
    """Uniformly random member sampling (the -Rand protocol)."""
    if group_size > num_users:
        raise ValueError("group_size cannot exceed the user population")
    rng = ensure_rng(rng)
    members = np.stack(
        [rng.choice(num_users, size=group_size, replace=False) for _ in range(num_groups)]
    )
    return GroupSet(members, num_users)


def similarity_groups(
    num_groups: int,
    group_size: int,
    ratings: RatingsTable,
    threshold: float = 0.27,
    rng: np.random.Generator | None = None,
    max_attempts_per_group: int = 500,
) -> GroupSet:
    """Groups whose every member pair has PCC >= ``threshold`` (the -Simi protocol).

    Grows each group greedily: start from a random seed user and add users
    similar to *all* current members.  Groups that cannot be completed
    within the attempt budget are skipped, so the returned set may be
    smaller than requested (mirroring why the paper's -Simi dataset has
    fewer groups than -Rand; see Table I).
    """
    rng = ensure_rng(rng)
    similarity = pairwise_pearson(ratings.to_dense())
    num_users = ratings.num_users
    rows: list[np.ndarray] = []
    attempts = 0
    budget = num_groups * max_attempts_per_group
    while len(rows) < num_groups and attempts < budget:
        attempts += 1
        seed = int(rng.integers(num_users))
        group = [seed]
        # Candidates similar to every member so far.
        compatible = np.nonzero(similarity[seed] >= threshold)[0]
        compatible = compatible[compatible != seed]
        rng.shuffle(compatible)
        for candidate in compatible:
            if all(similarity[candidate, member] >= threshold for member in group):
                group.append(int(candidate))
                if len(group) == group_size:
                    break
        if len(group) == group_size:
            rows.append(np.array(sorted(group)))
    if not rows:
        raise ValueError(
            "could not form any similarity group; lower the threshold or "
            "densify the ratings"
        )
    return GroupSet(np.stack(rows), num_users)


def covisit_groups(
    friendships: np.ndarray,
    group_size: int,
    num_groups: int,
    rng: np.random.Generator | None = None,
    max_attempts_per_group: int = 200,
) -> GroupSet:
    """Yelp-style groups: mutually befriended users attending one event.

    Parameters
    ----------
    friendships:
        Symmetric boolean adjacency ``(num_users, num_users)``.
    group_size:
        Members per group (3 for the paper's Yelp dataset).

    Each group is a clique-ish sample: a random seed user plus friends of
    the current group (every added member must be a friend of at least one
    existing member — check-in companions need not be a full clique).
    """
    rng = ensure_rng(rng)
    friendships = np.asarray(friendships, dtype=bool)
    num_users = friendships.shape[0]
    if friendships.shape != (num_users, num_users):
        raise ValueError("friendships must be square")
    rows: list[np.ndarray] = []
    attempts = 0
    budget = num_groups * max_attempts_per_group
    while len(rows) < num_groups and attempts < budget:
        attempts += 1
        seed = int(rng.integers(num_users))
        group = [seed]
        while len(group) < group_size:
            # Friends of any current member, excluding members.
            frontier = np.nonzero(friendships[group].any(axis=0))[0]
            frontier = np.setdiff1d(frontier, np.array(group))
            if len(frontier) == 0:
                break
            group.append(int(rng.choice(frontier)))
        if len(group) == group_size:
            rows.append(np.array(sorted(group)))
    if not rows:
        raise ValueError("friendship graph too sparse to form any group")
    return GroupSet(np.stack(rows), num_users)


def group_positive_items(
    groups: GroupSet, ratings: RatingsTable, threshold: float = 4.0
) -> InteractionTable:
    """Group-item positives: items every member rated >= ``threshold``.

    This is the paper's group-selection rule for the MovieLens datasets
    ("if every member in the group gives a rating to movie which is higher
    than 4 or equal to 4, we consider that the group will select this
    movie").
    """
    dense = ratings.to_dense()
    liked = ~np.isnan(dense) & (dense >= threshold)
    pairs: list[tuple[int, int]] = []
    for group_id in range(groups.num_groups):
        members = groups[group_id]
        all_liked = liked[members].all(axis=0)
        for item in np.nonzero(all_liked)[0]:
            pairs.append((group_id, int(item)))
    return InteractionTable(groups.num_groups, ratings.num_items, pairs)
