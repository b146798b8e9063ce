"""``repro serve`` as its own process: start-up imports, first answers, SIGINT.

Each mode the benchmark launches runs once per module through
``repro.cli.main`` in a fresh interpreter on ``--port 0``: the test
reads the bound URL from its banner, waits for the first ``/healthz``
200, compares one ``/recommend`` with an in-process
:class:`~repro.serve.engine.RankingEngine` over the same artifact, stops
the server with SIGINT and, once it has exited, reads the modules the
process loaded.
"""

import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.data.io import save_dataset
from repro.nn.serialization import save_checkpoint
from repro.serve import EmbeddingIndex, RankingEngine

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"
# Runs the CLI, then reports every module the process imported.
LAUNCHER = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('modules', json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)
# A server over a frozen index needs none of these.
TRAINING_STACK = (
    "scipy",
    "repro.core",
    "repro.data",
    "repro.eval",
    "repro.kg",
    "repro.stream",
    "repro.nn.compile",
    "repro.nn.optim",
)
GROUP = 1
STARTUP_TIMEOUT_S = 60.0


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, None


def _run_server(cli_args: list) -> dict:
    """Launch ``serve`` with ``cli_args``, probe it, stop it with SIGINT."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC_ROOT), os.environ.get("PYTHONPATH")])
        ),
        "PYTHONUNBUFFERED": "1",
    }
    proc = subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, "serve", *map(str, cli_args), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    lines: queue.Queue = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    output = []
    try:
        url = None
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while url is None:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            output.append(line)
            match = re.search(r"serving index \S+ on (http://\S+)", line)
            url = match.group(1) if match else None
        while True:
            status, _ = _get(f"{url}/healthz")
            if status == 200:
                break
            assert time.monotonic() < deadline, "no /healthz 200 before the deadline"
            time.sleep(0.01)
        _, recommend = _get(f"{url}/recommend?group={GROUP}&k=5")
        item = recommend["items"][0]["item"]
        _, explain = _get(f"{url}/explain?group={GROUP}&item={item}")
        proc.send_signal(signal.SIGINT)
        returncode = proc.wait(timeout=STARTUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=10)
    assert not reader.is_alive()
    while not lines.empty():
        output.append(lines.get())
    modules = [
        json.loads(line.split(" ", 1)[1]) for line in output if line.startswith("modules ")
    ]
    return {
        "returncode": returncode,
        "output": "".join(output),
        "recommend": recommend,
        "explain": explain,
        "modules": modules[0] if modules else None,
    }


@pytest.fixture(scope="module")
def world(tmp_path_factory, dataset, model):
    """A saved dataset, a model checkpoint and the index built from both."""
    root = tmp_path_factory.mktemp("serve-cli")
    data = save_dataset(dataset, root / "dataset")
    checkpoint = save_checkpoint(model, root / "model.npz", config=model.config)
    artifact = root / "model.index.npz"
    assert main([
        "build-index", "--data", str(data), "--checkpoint", str(checkpoint),
        "--out", str(artifact),
    ]) == 0
    feed = root / "feed"
    feed.mkdir()
    return {"data": data, "checkpoint": checkpoint, "artifact": artifact, "feed": feed}


@pytest.fixture(scope="module")
def index_server(world):
    return _run_server(["--index", world["artifact"]])


@pytest.fixture(scope="module")
def stream_server(world):
    return _run_server([
        "--data", world["data"], "--checkpoint", world["checkpoint"],
        "--watch-deltas", world["feed"],
    ])


def _expected(world) -> list:
    engine = RankingEngine(EmbeddingIndex.load(world["artifact"]))
    return [(r.item, r.score) for r in engine.top_k(GROUP, k=5)]


def _served(run) -> list:
    return [(entry["item"], entry["score"]) for entry in run["recommend"]["items"]]


@pytest.mark.parametrize("mode", ["index_server", "stream_server"])
def test_serve_answers_like_the_artifact_and_stops_on_sigint(mode, world, request):
    run = request.getfixturevalue(mode)
    assert _served(run) == _expected(world)
    assert run["explain"]["group"] == GROUP
    assert run["returncode"] == 0, run["output"]
    assert "shutting down" in run["output"]


def test_serve_index_loads_no_training_stack(index_server):
    modules = index_server["modules"]
    assert modules is not None, index_server["output"]
    loaded = sorted(
        name
        for name in modules
        if any(name == banned or name.startswith(banned + ".") for banned in TRAINING_STACK)
    )
    assert loaded == []


def test_recommend_index_ranks_without_the_training_stack(world):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC_ROOT), os.environ.get("PYTHONPATH")])
        ),
    }
    run = subprocess.run(
        [sys.executable, "-c", LAUNCHER, "recommend", "--index", str(world["artifact"]),
         "--group", str(GROUP), "-k", "5", "--explain"],
        capture_output=True,
        text=True,
        env=env,
        timeout=STARTUP_TIMEOUT_S,
    )
    assert run.returncode == 0, run.stderr
    ranked = [int(m) for m in re.findall(r"#\d+: item (\d+)", run.stdout)]
    assert ranked == [item for item, _ in _expected(world)]
    modules = json.loads(run.stdout.split("modules ", 1)[1])
    loaded = sorted(
        name
        for name in modules
        if any(
            name == banned or name.startswith(banned + ".")
            for banned in ("repro.core", "repro.data", "repro.eval", "repro.kg")
        )
    )
    assert loaded == []
