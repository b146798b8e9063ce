"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {train_wide,serve_read,serve_ingest}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program under test is the
checkout's ``src/repro``, started in child processes with BLAS/OpenMP
pinned to one thread.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it name every metric with its unit and stamp the environment.
``--trace 0`` reports the end-to-end metrics, measured from outside the
processes under test; ``--trace 1`` runs the workload untraced and then
traced, and reports the per-layer metrics and the tracing overhead.
See ``perfbench/README.md`` for the workloads and the metric -> layer
mapping.
"""

from __future__ import annotations

import argparse
import compileall
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import layers  # noqa: E402
from common import median  # noqa: E402

WORKLOADS = ("train_wide", "serve_read", "serve_ingest")
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("epoch_s", "s"),
    ("validate_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("delta_to_serve_s", "s"),
]

# Server launches before and after the timed read phase; setup_s is the
# median of all of them, and the last launch before serves the reads.
LAUNCHES_BEFORE = 3
LAUNCHES_AFTER = 3
FINETUNE_EPOCHS = 2       # per delta, serve_ingest
TOPK_SAMPLE = 200         # reads re-checked against an in-process engine
CHILD_TIMEOUT_S = 150.0
SCORE_TOLERANCE = 1e-9


class BenchError(RuntimeError):
    """The run could not produce a result; ``failures`` were seen before."""

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = list(failures)


def _measure(failures: list, compute) -> dict:
    """``compute()``'s metrics; too few samples end the run with ``failures``."""
    try:
        return compute()
    except ValueError as error:  # common.percentile / median
        raise BenchError(f"too few samples: {error}", failures) from error


# -- child processes ---------------------------------------------------------
def run_child(root: Path, script: str, args: list, log: Path) -> None:
    with open(log, "w") as out:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / script), *map(str, args)],
                cwd=root, env=common.child_environment(root), stdout=out,
                stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"{script} timed out") from error
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}:\n{log.read_text()[-2000:]}")


class Server:
    """``repro serve`` in its own process, via ``serve_host.py``."""

    def __init__(self, root: Path, cli_args: list, port: int, log: Path, spans: Path | None):
        self.port = port
        self.log = open(log, "w")
        host_args = ["--spans", str(spans)] if spans else []
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "serve_host.py"), *host_args, "--",
             *map(str, cli_args), "--port", str(port)],
            cwd=root, env=common.child_environment(root),
            stdout=self.log, stderr=subprocess.STDOUT,
        )

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            return common.get_json(conn, path)
        finally:
            conn.close()

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Seconds from process launch to the first 200 from ``/healthz``."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited {self.proc.returncode} during start-up")
            status, _ = self.get("/healthz")
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.005)
        raise BenchError("server not healthy within timeout")

    def stop(self) -> bool:
        """SIGINT (the CLI's shutdown path); True when it exited cleanly."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                clean = False
        self.log.close()
        return clean and self.proc.returncode == 0


# -- workloads ---------------------------------------------------------------
def train_wide(root: Path, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    out, spans = work / "train_wide.json", work / "train_wide.spans.json"
    args = ["train-wide", "--seed", seed, "--seconds", seconds, "--workdir", work, "--out", out]
    run_child(root, "train_proc.py", args + (["--spans", spans] if trace else []),
              work / "train_wide.log")
    result = json.loads(out.read_text())

    failures = []
    losses = result["losses"]
    if not all(isinstance(v, float) for v in losses):
        failures.append(f"non-finite loss: {losses}")
    elif not losses[-1] < losses[0]:
        failures.append(f"loss did not fall: {losses[0]:.5f} -> {losses[-1]:.5f}")
    for group, answer in result["answers"].items():
        if answer["served"] != answer["reference"]:
            failures.append(f"group {group}: served top-k differs from the reference")
    steps = result["step_ms"]
    attempted = len(steps) + len(result["validate_s"]) + len(result["delivery_s"]) + len(result["answers"])
    run = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": _measure(failures, lambda: {
            "setup_s": median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "epoch_s": median(result["epoch_s"]),
            "validate_s": median(result["validate_s"]),
            "latency_p50_ms": common.percentile(steps, 50),
            "latency_p90_ms": common.percentile(steps, 90),
            # steps of one epoch over the median epoch: robust to one slow epoch
            "throughput_per_s": len(steps) / len(result["epoch_s"]) / median(result["epoch_s"]),
            "delta_to_serve_s": median(result["delivery_s"]),
        }),
        "samples": {"steps": len(steps), "epochs": len(result["epoch_s"])},
    }
    run["overhead_base"] = run["metrics"]["epoch_s"]
    if trace:
        spans, rows = layers.load_spans(spans, "trainer", since=result["timed_start"])
        values = layers.train_layers(spans, rows)
        values.update(layers.validation_layers(spans))
        values.update(layers.index_layers(spans))
        run["layers"] = values
    return run


def serve(root: Path, work: Path, seed: int, seconds: float, trace: bool, ingest: bool) -> dict:
    """Training, launches and two read phases, interleaved over the run.

    In order: train the serve world (which also writes the checkpoint,
    artifact and inputs), launch the server ``LAUNCHES_BEFORE`` times
    (the last launch stays up), read for half of ``seconds``, train the
    serve world again in a fresh process while the server idles, read for
    the other half, stop, and launch ``LAUNCHES_AFTER`` more times.
    Every end-to-end metric thus takes its samples from more than one
    stretch of the run, so a slow or fast stretch of the machine weighs
    on all of them alike.
    """
    def train(command: str) -> tuple[dict, Path]:
        out, spans = work / f"{command}.json", work / f"{command}.spans.json"
        args = [command, "--seed", seed, "--workdir", work, "--out", out]
        run_child(root, "train_proc.py", args + (["--spans", spans] if trace else []),
                  work / f"{command}.log")
        return json.loads(out.read_text()), spans

    prep, prep_spans = train("prep-serve")
    artifact = prep["index"]
    base_groups = prep["num_groups"]
    if ingest:
        cli = ["serve", "--data", work / "dataset", "--checkpoint", work / "state.npz",
               "--seed", seed, "--finetune-epochs", FINETUNE_EPOCHS, "--watch-deltas"]
    else:
        cli = ["serve", "--index", artifact]

    failures, ports, setups, first_answers = [], [], [], []
    server_spans = work / "server.spans.json"

    def launch(number: int, spans: Path | None = None) -> Server:
        feed = work / f"feed-{number}"
        feed.mkdir()
        port = common.free_port()
        ports.append(port)
        server = Server(root, cli + ([feed] if ingest else []), port,
                        work / f"server-{number}.log", spans)
        try:
            setups.append(server.wait_healthy())
            status, payload = server.get("/recommend?group=0&k=5")
            first_answers.append(time.perf_counter() - server.started)
        except BaseException:
            server.stop()
            raise
        if common.classify_read(status, payload) is not None:
            failures.append(f"first read after launch failed: {status}")
        if payload and payload.get("index_version") != prep["index_version"]:
            failures.append("server index version differs from the artifact's")
        return server

    def launch_and_stop(number: int) -> None:
        server = launch(number)
        if not server.stop():
            failures.append("server did not stop cleanly")

    for number in range(LAUNCHES_BEFORE - 1):
        launch_and_stop(number)
    server = launch(LAUNCHES_BEFORE - 1, server_spans if trace else None)

    def read_phase(phase: int) -> dict:
        out = work / f"load-{phase}.json"
        args = ["--port", server.port, "--reads", work / "reads.npy",
                "--seconds", seconds / 2, "--out", out]
        if ingest:
            # the second phase lands the staging files the first left
            args += ["--feed-dir", work / f"feed-{LAUNCHES_BEFORE - 1}",
                     "--staging-dir", work / "staging", "--base-groups", base_groups]
        run_child(root, "loadgen.py", args, work / f"load-{phase}.log")
        return json.loads(out.read_text())

    try:
        loads = [read_phase(1)]
        post, post_spans = train("serve-epochs")
        loads.append(read_phase(2))
        peak_rss = common.vm_hwm_mb(server.proc.pid)
    finally:
        if not server.stop():
            failures.append("server did not stop cleanly")
    for number in range(LAUNCHES_BEFORE, LAUNCHES_BEFORE + LAUNCHES_AFTER):
        launch_and_stop(number)

    keys = ("group", "start", "end", "ms", "status", "source", "version", "items", "scores", "failure")
    reads = [dict(zip(keys, row)) for load in loads for row in load["reads"]]
    deltas = [delta for load in loads for delta in load["deltas"]]
    windows = [(load["timed_start"], load["timed_end"]) for load in loads]
    failures += _check_topk(reads, artifact, prep["index_version"], seed, deltas)
    failed_deltas = [d for d in deltas if d["failure"] is not None]
    failures += [f"delta {d['file']}: {d['failure']}" for d in failed_deltas]
    if not reads:
        failures.append("no reads completed")
    # Every message above is one failed operation; failed reads are
    # counted one by one but reported once per kind.
    failed_reads = sum(r["failure"] is not None for r in reads)
    failed = len(failures) + failed_reads
    for kind in sorted({r["failure"] for r in reads if r["failure"] is not None}):
        count = sum(r["failure"] == kind for r in reads)
        failures.append(f"{count} reads failed: {kind}")

    latencies = common.read_latencies_ms(reads)
    ok = [r for r in reads if r["failure"] is None]
    timed = sum(end - start for start, end in windows)
    served = [d["served"] - d["landed"] for d in deltas if d["failure"] is None]
    if ingest and not served:
        failures.append("no delta was served")
        failed += 1
    run = {
        "attempted": len(reads) + len(deltas),
        "failed": failed,
        "failures": failures,
        "metrics": _measure(failures, lambda: {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss,
            "epoch_s": median(prep["epoch_s"] + post["epoch_s"]),
            "validate_s": median(prep["validate_s"] + post["validate_s"]),
            "latency_p50_ms": common.percentile(latencies, 50),
            "latency_p90_ms": common.percentile(latencies, 90),
            "throughput_per_s": len(ok) / timed,
            "delta_to_serve_s": median(served if ingest else first_answers),
        }),
        "samples": {"reads": len(reads), "deltas": len(deltas), "launches": len(setups),
                    "hit_share": sum(r["source"] == "cache" for r in reads) / max(1, len(reads))},
        # tracing overhead is judged on the reads that succeeded
        "overhead_base": common.mean(r["ms"] for r in ok),
    }
    if trace:
        # epoch_s and validate_s are the serve-world training processes';
        # on serve_ingest the training steps measured are the server's
        # fine-tune steps, which delta_to_serve_s waits for.
        train_spans, train_rows = [], []
        for tag, path in (("prep", prep_spans), ("post", post_spans)):
            spans, rows = layers.load_spans(path, tag)
            train_spans += spans
            train_rows += rows
        spans, server_rows = layers.load_spans(server_spans, "server")
        values = (layers.train_layers(spans, server_rows) if ingest
                  else layers.train_layers(train_spans, train_rows))
        values.update(layers.validation_layers(train_spans))
        values.update(layers.serve_layers(spans, reads, windows, base_groups))
        values.update(layers.stream_layers(spans, deltas))
        run["layers"] = values
    run["ports"] = ports
    return run


def _check_topk(reads, artifact: str, version: str, seed: int, deltas=()) -> list[str]:
    """Re-rank a seeded sample of reads in process on the same artifact.

    A mismatch on a read that ended after the first delta landed also
    names where the read lay relative to that delta's landing and its
    first answer from a newer index version.
    """
    import numpy as np
    from repro.serve import EmbeddingIndex, RankingEngine

    engine = RankingEngine(EmbeddingIndex.load(artifact))
    candidates = [r for r in reads if r["failure"] is None and r["version"] == version]
    if not candidates:
        return ["no read was answered by the artifact's index version"]
    rng = np.random.default_rng([seed, 0x70C])
    picks = rng.choice(len(candidates), size=min(TOPK_SAMPLE, len(candidates)), replace=False)
    failures = []
    for pick in sorted(picks):
        read = candidates[pick]
        reference = engine.top_k(read["group"], k=5)
        expected = [r.score for r in reference]
        if len(read["scores"]) != len(expected) or any(
            abs(a - b) > SCORE_TOLERANCE * max(1.0, abs(b))
            for a, b in zip(read["scores"], expected)
        ):
            failures.append(
                f"group {read['group']}: served {read['items']} vs reference "
                f"{[r.item for r in reference]}" + _relative_to_first_delta(read, deltas))
    return failures


def _relative_to_first_delta(read, deltas) -> str:
    first = min(deltas, key=lambda d: d["landed"], default=None)
    if first is None or read["end"] <= first["landed"]:
        return ""
    def ms(t):
        return f"{(t - first['landed']) * 1000.0:+.1f} ms"
    served = f", first newer-version answer at {ms(first['served'])}" if first["served"] else ""
    return (f" (labelled {read['version']}; read from {ms(read['start'])} to "
            f"{ms(read['end'])} of the first delta landing{served})")


def run_workload(root: Path, work: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work.mkdir(parents=True)
    shm_before = common.shm_entries()
    if name == "train_wide":
        run = train_wide(root, work, seed, seconds, trace)
    else:
        run = serve(root, work, seed, seconds, trace, ingest=name == "serve_ingest")
    leaks = common.leak_report(shm_before, run.pop("ports", ()))
    run["failures"] += [f"leak: {leak}" for leak in leaks]
    run["failed"] += len(leaks)
    return run


# -- entry point ---------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {root / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # Compile the program and the benchmark's modules once, before any
    # timing: a child then loads bytecode instead of compiling every
    # module it imports at each launch (children write no bytecode).
    for tree in (root / "src", BENCH):
        compileall.compile_dir(tree, quiet=1)
    # The harness itself runs numpy only for the correctness re-check.
    os.environ.update(common.PINNED_THREADS)

    stamp = common.environment_stamp(root, args.seed)
    print("environment " + json.dumps(stamp, sort_keys=True), flush=True)
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runs = []
        for traced in ([False, True] if args.trace else [False]):
            runs.append(run_workload(root, workdir / ("traced" if traced else "plain"),
                                     args.workload, args.seed, args.seconds, traced))
    except BenchError as error:
        for failure in error.failures:
            print(f"FAILED {failure}")
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failures = [f for run in runs for f in run["failures"]]
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    for run in runs:
        print(f"samples {json.dumps(run['samples'], sort_keys=True)}")
        for name, unit in END_TO_END:
            print(f"{'traced' if 'layers' in run else 'untraced'} {name} = "
                  f"{run['metrics'][name]:.6g} {unit}")
    if args.trace:
        plain, traced = runs
        values = dict(traced["layers"])
        values["trace.overhead_pct"] = (
            traced["overhead_base"] / plain["overhead_base"] - 1.0) * 100.0
        metrics = layers.report(values)
        for name, metric in metrics.items():
            print(f"layer {name} = {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {name: {"value": float(runs[0]["metrics"][name]), "unit": unit}
                   for name, unit in END_TO_END}
    for failure in failures:
        print(f"FAILED {failure}")
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
