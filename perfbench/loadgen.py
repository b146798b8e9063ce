"""Closed-loop load generator: keep-alive readers and an optional delta writer.

``python perfbench/loadgen.py --port P --reads reads.npy --seconds S
--out result.json [--feed-dir DIR --staging-dir DIR --base-groups N]``

Each of ``CLIENTS`` threads holds one HTTP/1.1 keep-alive connection
and sends ``/recommend?group=G&k=5`` as soon as its previous answer
arrived, taking ``G`` from the shared seeded sequence in ``--reads``.
Reads during the first ``WARMUP_S`` seconds fill the score cache and are
not recorded.

With ``--feed-dir`` a writer thread moves one delta file at a time from
``--staging-dir`` into the watched feed directory (an atomic rename, so
the watcher never sees a partial file), then waits until a reader is
answered by an index version it had not seen before: that answer is the
first one that contains the delta.  It then checks that the delta's new
group is servable before landing the next file.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from common import (  # noqa: E402
    CLIENTS,
    DELTA_TIMEOUT_S,
    FAILED_READ_MS,
    WARMUP_S,
    classify_read,
    get_json,
)

HOST = "127.0.0.1"


class LoadGenerator:
    def __init__(self, port: int, sequence: np.ndarray):
        self.port = port
        self.sequence = sequence
        self._lock = threading.Lock()
        self._next = 0  # guarded-by: _lock
        self._versions_cond = threading.Condition()
        self._versions: dict[str, float] = {}  # guarded-by: _versions_cond; first answer time
        self.reads: list[list] = []
        self.timed_start = 0.0
        self.stop_at = 0.0
        # Readers outlive stop_at while a landed delta is not yet served,
        # so its first answer can be observed; those reads are not recorded.
        self.delta_outstanding = threading.Event()

    def _take(self) -> int:
        with self._lock:
            group = int(self.sequence[self._next % len(self.sequence)])
            self._next += 1
            return group

    def _note_version(self, version, when: float) -> None:
        with self._versions_cond:
            if version not in self._versions:
                self._versions[version] = when
                self._versions_cond.notify_all()

    def reader(self) -> None:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=FAILED_READ_MS / 1000.0)
        try:
            while True:
                start = time.perf_counter()
                if start >= self.stop_at and not self.delta_outstanding.is_set():
                    return
                group = self._take()
                status, payload = get_json(conn, f"/recommend?group={group}&k=5")
                end = time.perf_counter()
                failure = classify_read(status, payload)
                version = payload.get("index_version") if failure is None else None
                if version is not None:
                    self._note_version(version, end)
                if not self.timed_start <= start < self.stop_at:
                    continue
                self.reads.append([
                    group, start, end, (end - start) * 1000.0, status,
                    payload.get("source") if isinstance(payload, dict) else None,
                    version,
                    [item["item"] for item in payload["items"]] if failure is None else None,
                    [item["score"] for item in payload["items"]] if failure is None else None,
                    failure,
                ])
        finally:
            conn.close()

    def wait_for_new_version(self, known: set, timeout: float):
        """``(version, first answer time)`` of a version not in ``known``."""
        deadline = time.perf_counter() + timeout
        with self._versions_cond:
            while True:
                fresh = [(t, v) for v, t in self._versions.items() if v not in known]
                if fresh:
                    when, version = min(fresh)
                    return version, when
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return None, None
                self._versions_cond.wait(remaining)

    def known_versions(self) -> set:
        with self._versions_cond:
            return set(self._versions)

    def writer(self, staging: Path, feed: Path, base_groups: int, deltas: list) -> None:
        probe = http.client.HTTPConnection(HOST, self.port, timeout=FAILED_READ_MS / 1000.0)
        try:
            for source in sorted(staging.glob("*.jsonl")):
                tag = int(source.stem)  # delta NNNN adds group base_groups + NNNN
                # Raise the flag before the deadline check: a reader that
                # sees the deadline passed then also sees the flag.
                self.delta_outstanding.set()
                if time.perf_counter() >= self.stop_at:
                    self.delta_outstanding.clear()
                    return
                known = self.known_versions()
                landed = time.perf_counter()
                os.rename(source, feed / source.name)
                try:
                    version, served = self.wait_for_new_version(known, DELTA_TIMEOUT_S)
                finally:
                    self.delta_outstanding.clear()
                record = {"tag": tag, "file": source.name, "landed": landed,
                          "served": served, "version": version, "failure": None}
                if version is None:
                    record["failure"] = "not served within timeout"
                    deltas.append(record)
                    return
                status, payload = get_json(
                    probe, f"/recommend?group={base_groups + tag}&k=5")
                failure = classify_read(status, payload)
                if failure is not None:
                    record["failure"] = f"new group: {failure}"
                deltas.append(record)
        finally:
            probe.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--reads", required=True, help=".npy group sequence")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--feed-dir")
    parser.add_argument("--staging-dir")
    parser.add_argument("--base-groups", type=int,
                        help="groups before the feed (the first new group's id)")
    args = parser.parse_args(argv)
    if args.feed_dir and (args.staging_dir is None or args.base_groups is None):
        parser.error("--feed-dir needs --staging-dir and --base-groups")

    load = LoadGenerator(args.port, np.load(args.reads))
    now = time.perf_counter()
    load.timed_start = now + WARMUP_S
    load.stop_at = load.timed_start + args.seconds
    threads = [threading.Thread(target=load.reader, name=f"reader-{i}")
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    deltas: list[dict] = []
    if args.feed_dir:
        time.sleep(max(0.0, load.timed_start - time.perf_counter()))
        load.writer(Path(args.staging_dir), Path(args.feed_dir), args.base_groups, deltas)
    for thread in threads:
        thread.join()
    Path(args.out).write_text(json.dumps({
        "timed_start": load.timed_start,
        "timed_end": max([r[2] for r in load.reads], default=load.stop_at),
        "reads": load.reads,
        "deltas": deltas,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
