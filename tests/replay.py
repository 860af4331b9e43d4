"""Replay the benchmark's seeded request streams and print one digest per workload.

It checks that a change leaves every CLI answer byte for byte as it was;
``tests/test_replay.py`` pins the seed-7 digests of 20,000 requests.  For
each workload in ``bench/workloads.py`` it runs the first N requests of the
seeded stream through ``kinematica.cli.main`` in this process and hashes each
request's argv, exit code, stdout and stderr, in order, into one sha256.  Run
it on two checkouts and compare the lines:

    python tests/replay.py                          # this checkout
    python tests/replay.py --root ../other-checkout # any other one
    python tests/replay.py --requests 20000 --seed 7
    python tests/replay.py --workload rotors-sweep  # one stream; repeatable

``--root`` names the checkout whose ``src`` and ``bench`` are used; the
workloads are only read, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def call(main, argv: list[str]) -> tuple[object, str, str]:
    """(exit code or escaped exception's name, stdout, stderr) of one request."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code: object = main(argv)
        except Exception as exc:  # an escaped exception is part of the answer
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest(main, stream, requests: int) -> str:
    h = hashlib.sha256()
    for request in itertools.islice(stream, requests):
        record = [request.argv, *call(main, request.argv)]
        h.update(json.dumps(record).encode() + b"\n")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and bench/ to use (default: this one)")
    parser.add_argument("--requests", type=int, default=20000, help="requests per workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="replay only this workload; repeat for more (default: all)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from kinematica import cli

    names = args.workload or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)}")
    for name in names:
        stream = workloads.WORKLOADS[name](args.seed)
        print(name, args.requests, digest(cli.main, stream, args.requests), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
