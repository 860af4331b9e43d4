"""Time a fresh kinematica process per subcommand, for two checkouts side by side.

A process pays for every module it loads: where ``PYTHONDONTWRITEBYTECODE=1``
is set, no bytecode is cached, so each process compiles the layers its
command line runs.  ``bench/run.py``'s ``setup_s`` spawns only the first
request of a workload's stream; this tool spawns each subcommand.

Each row is one exact command line per subcommand, ``ab_timing.MAIN_LINES``,
named as ``ab_timing``'s ``main-*`` rows.  A spawn is a fresh interpreter
that runs ``kinematica.cli.main`` on that line, with the checkout's ``src``
as ``PYTHONPATH`` and ``PYTHONDONTWRITEBYTECODE=1``, its stdout discarded;
its figure is the wall time from start to exit.  A round spawns every root
once, the root that goes first switching from round to round, so the CPU's
drift in speed lands on the roots alike; each row starts with one untimed
round, which also checks that every line exits 0.  For each root and row the
tool prints the median and the quartiles of its spawns, in ms, and the
rounds it won (with two roots, the pairs).  A checkout's own
``__pycache__``, where one exists, is read, so time checkouts without one::

    python tests/start_timing.py --root ../parent --root . --spawns 21
    python tests/start_timing.py --root . --root . --rows main-rotate main-spin

Like ``tests/ab_timing.py``, pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ab_timing import MAIN_LINES, quartiles

# the console-script entry point, spelled out so that no installation is needed
ENTRY = "import sys; from kinematica.cli import main; sys.exit(main())"
ROWS = {f"main-{name}": argv for name, argv in MAIN_LINES.items()}
SPAWN_TIMEOUT = 60.0


def spawn(root: Path, argv: list[str]) -> float:
    """Wall seconds of one fresh process on ``argv`` over ``root``'s ``src``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=SPAWN_TIMEOUT)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{root}: {argv} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed


def time_row(roots: list[Path], argv: list[str], spawns: int) -> list[list[float]]:
    """Each root's wall seconds in each of ``spawns`` rounds, after one untimed round."""
    times: list[list[float]] = [[] for _ in roots]
    for r in range(-1, spawns):
        for k in (range(len(roots)) if r % 2 == 0 else reversed(range(len(roots)))):
            elapsed = spawn(roots[k], argv)
            if r >= 0:
                times[k].append(elapsed)
    return times


def report(name: str, times: list[list[float]]) -> str:
    """One line per row: each root's median and quartiles in ms and the rounds it won."""
    won = [0] * len(times)
    for round_times in zip(*times):
        fastest = min(round_times)
        if round_times.count(fastest) == 1:
            won[round_times.index(fastest)] += 1
    cells = [f"{name:<22}"]
    for k, side in enumerate(times):
        q1, median, q3 = (t * 1e3 for t in quartiles(side))
        cells.append(f"{k}: median {median:7.2f} quartiles {q1:7.2f} {q3:7.2f}"
                     f" won {won[k]:>3}/{len(side)}")
    return "  ".join(cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append", required=True,
                        help="checkout whose src/ to spawn; give two, or one twice for A/A")
    parser.add_argument("--spawns", type=int, default=21, help="timed spawns per root and row")
    parser.add_argument("--rows", nargs="+", choices=list(ROWS), default=list(ROWS),
                        help="rows to time (default: all)")
    args = parser.parse_args(argv)
    if args.spawns < 1:
        parser.error("--spawns must be positive")
    roots = [root.resolve() for root in args.root]
    for k, root in enumerate(roots):
        print(f"{k}: {root}", flush=True)
    for name in args.rows:
        print(report(name, time_row(roots, ROWS[name], args.spawns)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
