import multiprocessing

import pytest

from lfns import finite_horizon


@pytest.fixture(autouse=True)
def no_stored_riccati_run(monkeypatch):
    """Start every test with no stored Riccati run, so that the order of the
    tests cannot hide a fault on the recursion's cold path."""
    monkeypatch.setattr(finite_horizon, "_stored", ())


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running: a fan-out must shut
    its workers down on every exit."""
    yield
    assert multiprocessing.active_children() == []
