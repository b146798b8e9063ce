"""Seeded inputs of the benchmark: worlds, read sequences and delta files.

Everything here is a pure function of the ``--seed`` argument, so two
runs with one seed see identical worlds, identical request sequences and
byte-identical delta files.  Nothing in this module is timed.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

# train_wide: the wide world of the data-parallel study (100 users, 0.5%
# observed interactions, 2 groups, batch 8, H=2, K=4), with the catalog
# cut from 24k items so an epoch takes about a second on one core.  The
# embedding tables (~6k entity rows x d=64) dwarf the few hundred rows
# one batch of 8 references.
TRAIN_WIDE_DATASET = {
    "num_users": 100,
    "num_items": 6000,
    "num_groups": 2,
    "observed_interaction_fraction": 0.005,
}
# Interactions kept per world (a seeded subset).  The generator's counts
# vary by 10-40% between seeds; a fixed count keeps the number of steps
# per epoch, and so the epoch time, independent of the seed.  The counts
# sit below the generator's minimum over the first 300 seeds (serve) or
# 60 seeds (train_wide); a rarer seed with fewer keeps all it has.
TRAIN_WIDE_PAIRS = {"user_item": 1050, "group_item": 360}
TRAIN_WIDE_MODEL = {
    "embedding_dim": 64,
    "num_layers": 2,
    "num_neighbors": 4,
    "batch_size": 8,
}

# serve_read / serve_ingest: a small dense world with ~1000 groups, about
# 4x the server's default 256-entry score cache.  A training batch of 128
# references most of its ~700 entity rows (the dense contrast to
# train_wide).
SERVE_DATASET = {"num_users": 400, "num_items": 200, "num_groups": 1000}
SERVE_PAIRS = {"user_item": 5200, "group_item": 4800}
SERVE_MODEL: dict = {}  # KGAGConfig defaults: d=16, H=2, K=4, batch 128

ZIPF_EXPONENT = 1.0


def make_world(kind: str, seed: int):
    """``(dataset, split, config)`` for ``kind`` in {"train_wide", "serve"}.

    The split uses ``default_rng(seed)``, which is what ``repro serve
    --seed <seed>`` recomputes from a saved dataset.
    """
    from repro.core import KGAGConfig
    from repro.data import MovieLensLikeConfig, movielens_like, split_interactions

    if kind == "train_wide":
        data_spec, pairs, model_spec = TRAIN_WIDE_DATASET, TRAIN_WIDE_PAIRS, TRAIN_WIDE_MODEL
    elif kind == "serve":
        data_spec, pairs, model_spec = SERVE_DATASET, SERVE_PAIRS, SERVE_MODEL
    else:
        raise ValueError(f"unknown world {kind!r}")
    dataset = movielens_like("rand", MovieLensLikeConfig(seed=seed, **data_spec))
    dataset = fixed_size(dataset, pairs, np.random.default_rng([seed, 0xF1]))
    split = split_interactions(dataset.group_item, rng=np.random.default_rng(seed))
    config = KGAGConfig(seed=seed, **model_spec)
    return dataset, split, config


def fixed_size(dataset, pairs: dict, rng: np.random.Generator):
    """``dataset`` with at most ``pairs[table]`` rows kept in each table."""
    from repro.data.interactions import InteractionTable

    tables = {}
    for name, count in pairs.items():
        table = getattr(dataset, name)
        count = min(count, table.num_interactions)
        keep = np.sort(rng.choice(table.num_interactions, size=count, replace=False))
        tables[name] = InteractionTable(table.num_rows, table.num_cols, table.pairs[keep])
    return dataclasses.replace(dataset, **tables)


def zipf_sequence(seed: int, population: int, length: int) -> np.ndarray:
    """``length`` group ids drawn Zipf(``ZIPF_EXPONENT``) over ``population`` groups.

    Popularity ranks are assigned to groups by a seeded permutation, so
    the hot set is not simply the lowest group ids.
    """
    if population <= 0 or length <= 0:
        raise ValueError("population and length must be positive")
    rng = np.random.default_rng([seed, 0x5EED])
    weights = 1.0 / np.arange(1, population + 1, dtype=np.float64) ** ZIPF_EXPONENT
    ranks = rng.choice(population, size=length, p=weights / weights.sum())
    return rng.permutation(population)[ranks].astype(np.int64)


def cold_item_records(dataset, tag: int) -> list[dict]:
    """Delta ``tag`` of the cold-item feed, against the *initial* dataset.

    A new item wired into the KG through the attributes of its members'
    observed items, a brand-new group of an existing group's members,
    and one interaction per member with the new item.  Deltas are
    ingested strictly in order, so delta ``tag`` finds
    ``dataset.num_items + tag`` items: its new item takes that id.
    """
    groups = dataset.groups
    members = [int(u) for u in groups.members[tag % groups.num_groups]]
    new_item = dataset.num_items + tag
    records: list[dict] = [
        {"op": "add_item", "name": f"cold-item-{tag}"},
        {"op": "add_group", "members": members},
    ]
    pairs = dataset.user_item.pairs
    triples = np.asarray(dataset.kg.triples)
    attr_offset = dataset.num_items
    linked: set[tuple[int, int]] = set()
    for user in members[:2]:
        for item in pairs[pairs[:, 0] == user][:3, 1]:
            for _, relation, tail in triples[triples[:, 0] == item]:
                if tail >= attr_offset:
                    linked.add((int(relation), int(tail - attr_offset)))
    records += [
        {"op": "add_edge", "head": f"item:{new_item}", "relation": relation,
         "tail": f"attr:{attr}"}
        for relation, attr in sorted(linked)
    ]
    records += [{"op": "add_interaction", "user": user, "item": new_item}
                for user in members]
    return records


def write_delta_files(dataset, directory: Path, count: int) -> list[Path]:
    """Write ``count`` cold-item deltas as ``NNNN.jsonl`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for tag in range(count):
        path = directory / f"{tag:04d}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in cold_item_records(dataset, tag):
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        paths.append(path)
    return paths
