"""Byte identity of every CLI answer on the benchmark's request streams.

Each workload's seed-7 stream from ``bench/workloads.py`` is replayed for
20,000 requests through ``kinematica.cli.main`` in this process, and
:func:`replay.digest` hashes each request's argv, exit code, stdout and
stderr, in order.  The digests are pinned like the goldens, at the default
precision of 17 digits and at ``KINEMATICA_PRECISION=5``, since the command
line keeps its answer templates per precision: a change that alters an answer
on purpose updates its pin and says why.  ``bench/`` is only read.
"""

import pytest

import replay
from kinematica import cli

SEED, REQUESTS = 7, 20000
DIGESTS = {
    "geometry-sweep": "f033d60ee378fe03bd9e1b740c4da6117885b7f7c1f5de0ecd5ce1c2de963f7e",
    "rotors-sweep": "15c976853fcf3892ab66e62c5a326c4e5b3428c0d287b1b236006b598a3c5e85",
    "nine-geometries": "960b1e23e6399d9e42b208cb9b7323f7df0a7f53bf8598aab312db9c5aa3846a",
}
DIGESTS_AT_PRECISION_5 = {
    "geometry-sweep": "eb74db213116b9e8b302083fb4d65a53743a7914530435095a0c18e61e26584c",
    "rotors-sweep": "496390b20effdb8a85dbe159131773682c3e93b86cd39ffaad3c2da0aad4b2ba",
    "nine-geometries": "3945bbe67c46b5ffd35da58aa17ee5e344a4cd993ed5674ea2c40260c6c0476e",
}


def test_every_workload_is_pinned(workloads):
    assert set(DIGESTS) == set(DIGESTS_AT_PRECISION_5) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_the_replayed_answers_are_the_pinned_bytes(workloads, name):
    stream = workloads.WORKLOADS[name](SEED)
    assert replay.digest(cli.main, stream, REQUESTS) == DIGESTS[name]


@pytest.mark.parametrize("name", list(DIGESTS_AT_PRECISION_5))
def test_the_replayed_answers_at_precision_5_are_the_pinned_bytes(workloads, name, monkeypatch):
    monkeypatch.setenv("KINEMATICA_PRECISION", "5")
    stream = workloads.WORKLOADS[name](SEED)
    assert replay.digest(cli.main, stream, REQUESTS) == DIGESTS_AT_PRECISION_5[name]
