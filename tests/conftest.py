"""Fixtures shared by several test modules."""

from concurrent.futures import Future

import pytest

from spatialknn import evaluation


class RecordingPool:
    """Runs each task at once in this process; records its worker count."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def recording_pool(monkeypatch):
    """:class:`RecordingPool` in place of ``evaluation.ProcessPoolExecutor``,
    with an empty record of pool sizes."""
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    return RecordingPool
