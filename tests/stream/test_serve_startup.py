"""``serve --data --checkpoint --watch-deltas`` start-up reads its checkpoint once."""

import repro.serve
from repro.cli import main
from repro.core.checkpoint import TrainState
from repro.data.io import save_dataset


class _StopAtStart:
    """Stands in for the HTTP server: the start-up path ends at its loop."""

    def __init__(self, service, host, port):
        self.url = "http://stub"

    def serve_forever(self):
        raise KeyboardInterrupt


def test_watch_deltas_start_up_loads_the_train_state_once(
    tmp_path, monkeypatch, dataset, state
):
    data = save_dataset(dataset, tmp_path / "dataset")
    checkpoint = state.save(tmp_path / "state.npz")
    feed = tmp_path / "feed"
    feed.mkdir()
    loads = []
    original = TrainState.load.__func__

    def counting_load(cls, path):
        loads.append(path)
        return original(cls, path)

    monkeypatch.setattr(TrainState, "load", classmethod(counting_load))
    monkeypatch.setattr(repro.serve, "RecommendationServer", _StopAtStart)
    assert main([
        "serve", "--data", str(data), "--checkpoint", str(checkpoint),
        "--watch-deltas", str(feed), "--port", "0",
    ]) == 0
    assert len(loads) == 1

