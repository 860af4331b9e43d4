"""Byte identity of every CLI answer on the benchmark's request streams.

Each workload's seed-7 stream from ``bench/workloads.py`` is replayed for
20,000 requests through ``kinematica.cli.main`` in this process, and
:func:`replay.digest` hashes each request's argv, exit code, stdout and
stderr, in order.  The digests are pinned like the goldens: a change that
alters an answer on purpose updates its pin and says why.  ``bench/`` is only
read.
"""

from pathlib import Path

import pytest

import replay
from kinematica import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED, REQUESTS = 7, 20000
DIGESTS = {
    "geometry-sweep": "f033d60ee378fe03bd9e1b740c4da6117885b7f7c1f5de0ecd5ce1c2de963f7e",
    "rotors-sweep": "b0cc200f4c3f1f45abb0f7509c67424246e9d1c07738596449e38358455061b9",
    "nine-geometries": "0ed944f945c21fbe23963f7fab0bc903e365f01d3a2dc490e50332bd257d1559",
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


def test_every_workload_is_pinned(workloads):
    assert set(DIGESTS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_the_replayed_answers_are_the_pinned_bytes(workloads, name):
    stream = workloads.WORKLOADS[name](SEED)
    assert replay.digest(cli.main, stream, REQUESTS) == DIGESTS[name]
