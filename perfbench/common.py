"""Shared helpers: pinned environment, statistics, failure rules, leak checks."""

from __future__ import annotations

import http.client
import json
import math
import os
import platform
import socket
import statistics
import subprocess
from pathlib import Path

# One BLAS/OpenMP thread in every process the benchmark starts: on a
# 2-core box a second OpenBLAS thread spins against the load generator
# and makes catalog scoring slower and noisier.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# A failed read counts as slower than any success; this is the value it
# takes in the latency samples (the client timeout, in milliseconds).
FAILED_READ_MS = 5000.0

CLIENTS = 2             # keep-alive closed-loop readers (= nproc)
WARMUP_S = 2.0          # reads that fill the score cache before timing
DELTA_TIMEOUT_S = 60.0  # a landed delta not served by then is a failed operation


def child_environment(root: Path) -> dict:
    """Environment for a benchmark child: pinned threads, ``src`` importable."""
    env = {**os.environ, **PINNED_THREADS}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def environment_stamp(root: Path, seed: int) -> dict:
    """Commit, cpu_count, python, numpy, seed and the pinned thread counts."""
    import numpy

    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": int(seed),
        "threads": {k: PINNED_THREADS[k] for k in sorted(PINNED_THREADS)},
    }


# -- statistics ------------------------------------------------------------
def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """The ``q``-th percentile (0-100, nearest rank) of ``samples``.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie
    beyond the reported rank: a percentile resting on fewer tail samples
    is noise, not a measurement.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * n))  # 1-based nearest rank
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {min_beyond}"
        )
    return values[rank - 1]


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


# -- failure classification ------------------------------------------------
def classify_read(status: int | None, payload: dict | None) -> str | None:
    """Why a read failed, or ``None`` for a good answer.

    A read fails when the HTTP exchange failed (``status`` None), the
    status is not 200, the body is not a recommendation, or the answer
    came from a fallback (``source`` other than ``primary``/``cache``):
    a degraded answer is a failed operation even though it is a 200.
    """
    if status is None:
        return "transport"
    if status != 200:
        return f"http_{status}"
    if not isinstance(payload, dict) or not isinstance(payload.get("items"), list):
        return "malformed"
    source = payload.get("source")
    if source not in ("primary", "cache"):
        return "fallback" if str(source).startswith("fallback") else "malformed"
    return None


def get_json(conn: http.client.HTTPConnection, path: str):
    """``(status, payload)`` of one GET; status ``None`` when the exchange failed."""
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        return None, None
    try:
        return response.status, json.loads(body)
    except ValueError:
        return response.status, None


def read_latencies_ms(reads) -> list[float]:
    """Per-read latency samples; a failed read takes ``FAILED_READ_MS``."""
    return [
        FAILED_READ_MS if r["failure"] is not None else max(r["ms"], 0.0)
        for r in reads
    ]


# -- process memory and leak checks ----------------------------------------
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int | None = None) -> list[int]:
    """Live processes whose parent is ``pid`` (default: this process)."""
    pid = os.getpid() if pid is None else pid
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[1] the parent pid
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def port_is_free(port: int, host: str = "127.0.0.1") -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind((host, port))
        except OSError:
            return False
    return True


def free_port(host: str = "127.0.0.1") -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leak_report(shm_before: set[str], ports=()) -> list[str]:
    """Leaks left by a workload: live children, bound ports, new shm segments."""
    leaks = [f"child process {pid} still running" for pid in child_pids()]
    leaks += [f"port {port} still bound" for port in ports if not port_is_free(port)]
    leaks += [f"/dev/shm/{name} left behind" for name in sorted(shm_entries() - shm_before)]
    return leaks
