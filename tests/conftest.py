"""Fixtures shared by the test modules."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's seeded request streams, ``bench/workloads.py``; ``bench/`` is only read."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads
