"""Time ``kinematica.cli.parse_args`` on four command lines and print the cost in µs.

The lines are the exact ``--name=value`` form of ``exp``, ``distance`` and
``rotate``, the form of every benchmark request, and an ``exp`` whose values
are spaced, which the parser first rewrites into that form.  Each figure is
the timeit best of 7 repeats, in µs per call.  Run it on one checkout, or
alternate two to compare them:

    python tests/parse_timing.py                             # this checkout
    python tests/parse_timing.py --root ../other-checkout    # any other one
    python tests/parse_timing.py --root ../other-checkout --root . --runs 4

``--root`` names a checkout whose ``src`` is timed; repeat it to alternate
checkouts.  With more than one checkout or run, each run times one checkout
in a fresh Python process, in turn, and a last line per checkout gives the
median of its runs.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

LINES = {
    "exp": ["exp", "--gen=H", "--param=0.5", "--kappa1=-1", "--kappa2=1"],
    "distance": ["distance", "--w1=0.1,0.2", "--w2=-0.3,0.4", "--kappa1=1", "--kappa2=-1"],
    "rotate": ["rotate", "--axis=0,0,1", "--angle=0.7", "--vector=1,2,3",
               "--kappa1=1", "--kappa2=1"],
    "spaced-exp": ["exp", "--gen", "H", "--param", "0.5", "--kappa1", "-1", "--kappa2", "1"],
}
NUMBER = 20000  # calls per timeit repeat


def time_parse(root: Path) -> dict[str, float]:
    """µs per ``parse_args`` call on each line, for the checkout at ``root``."""
    sys.path.insert(0, str(root / "src"))
    from kinematica.cli import parse_args

    return {
        name: min(timeit.repeat("parse_args(argv)", number=NUMBER, repeat=7,
                                globals={"parse_args": parse_args, "argv": argv})) / NUMBER * 1e6
        for name, argv in LINES.items()
    }


def row(root: Path, costs: dict[str, float]) -> str:
    return " ".join([str(root), *(f"{name} {us:.2f}" for name, us in costs.items())])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout whose src/ to time; repeat to alternate (default: this one)")
    parser.add_argument("--runs", type=int, default=1, help="runs of each checkout")
    args = parser.parse_args(argv)

    roots = [root.resolve() for root in args.root or [Path(__file__).resolve().parents[1]]]
    if len(roots) == 1 and args.runs == 1:
        print(row(roots[0], time_parse(roots[0])), flush=True)
        return 0
    runs: dict[Path, list[dict[str, float]]] = {root: [] for root in roots}
    for _ in range(args.runs):
        for root in roots:
            out = subprocess.run(
                [sys.executable, __file__, "--root", str(root)],
                check=True, capture_output=True, text=True).stdout
            print(out, end="", flush=True)
            words = out.split()[-2 * len(LINES):]
            runs[root].append({name: float(us) for name, us in zip(words[::2], words[1::2])})
    for root, costs in runs.items():
        median = {name: statistics.median(run[name] for run in costs) for name in LINES}
        print("median", row(root, median), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
