"""Time ``kinematica.cli.parse_args`` and the geometry paths, and print the cost in µs.

The first table times ``parse_args`` on four command lines: the exact
``--name=value`` form of ``exp``, ``distance`` and ``rotate``, the form of
every benchmark request, and an ``exp`` whose values are spaced, which the
parser first rewrites into that form.  The second table times the path of
``rotate``, ``spin`` and ``distance``: ``clifford.sandwich``,
``clifford.rotor``, ``spin.spin_from_axis`` and ``Multivector.vector`` on the
values of the ``rotate`` line, ``ckgeom.distance`` on the values of the
``distance`` line, and ``cli.main`` on the exact ``rotate``, ``spin`` and
``distance`` lines, its output sent to a writer that discards it.  Each
figure is the timeit best of 7 repeats, in µs per call.  Run it on one
checkout, or alternate two to compare them:

    python tests/parse_timing.py                             # this checkout
    python tests/parse_timing.py --root ../other-checkout    # any other one
    python tests/parse_timing.py --root ../other-checkout --root . --runs 4

``--root`` names a checkout whose ``src`` is timed; repeat it to alternate
checkouts.  With more than one checkout or run, each run times one checkout
in a fresh Python process, in turn, and a last line per checkout and table
gives the median of its runs.
"""

from __future__ import annotations

import argparse
import contextlib
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
SPIN = ["spin", "--gen=K", "--param=0.5", "--kappa1=1", "--kappa2=-1"]
# the rotor path's calls, on the values of the rotate line, then the distance path's
CALLS = {
    "sandwich": "clifford.sandwich(r, a)",
    "rotor": "clifford.rotor(kp, axis, 0.7)",
    "spin_from_axis": "spin.spin_from_axis(kp, 0.0, 0.0, 1.0, 0.7)",
    "vector": "clifford.Multivector.vector(kp, 1.0, 2.0, 3.0)",
    "main-rotate": "cli.main(rotate)",
    "main-spin": "cli.main(spin_line)",
    # the distance path's call, on the values of the distance line
    "distance": "ckgeom.distance(kp_d, w1, w2)",
    "main-distance": "cli.main(distance_line)",
}
NUMBER = 20000  # calls per timeit repeat


class NullWriter:
    """A stdout that discards what ``cli.main`` writes."""

    def write(self, text: str) -> int:
        return len(text)


def best_us(statement: str, names: dict, number: int = NUMBER) -> float:
    return min(timeit.repeat(statement, number=number, repeat=7, globals=names)) / number * 1e6


def time_parse() -> dict[str, float]:
    """µs per ``parse_args`` call on each line."""
    from kinematica.cli import parse_args

    return {name: best_us("parse_args(argv)", {"parse_args": parse_args, "argv": argv})
            for name, argv in LINES.items()}


def time_paths() -> dict[str, float]:
    """µs per call of each step of the rotor and distance paths."""
    from kinematica import ckgeom, cli, clifford, spin
    from kinematica.gencomplex import gc

    kp = ckgeom.KappaPair(1.0, 1.0)
    axis = clifford.UnitAxis(0.0, 0.0, 1.0)
    names = {"cli": cli, "clifford": clifford, "spin": spin, "kp": kp, "axis": axis,
             "r": clifford.rotor(kp, axis, 0.7),
             "a": clifford.Multivector.vector(kp, 1.0, 2.0, 3.0),
             "rotate": LINES["rotate"], "spin_line": SPIN,
             "ckgeom": ckgeom, "kp_d": ckgeom.KappaPair(1.0, -1.0),
             "w1": gc(0.1, 0.2, -1.0), "w2": gc(-0.3, 0.4, -1.0),
             "distance_line": LINES["distance"]}
    with contextlib.redirect_stdout(NullWriter()):
        return {name: best_us(statement, names, NUMBER // 4)
                for name, statement in CALLS.items()}


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
        sys.path.insert(0, str(roots[0] / "src"))
        print(row(roots[0], time_parse()), flush=True)
        print(row(roots[0], time_paths()), flush=True)
        return 0
    tables = (LINES, CALLS)
    runs: dict[Path, list[list[dict[str, float]]]] = {root: [] for root in roots}
    for _ in range(args.runs):
        for root in roots:
            out = subprocess.run(
                [sys.executable, __file__, "--root", str(root)],
                check=True, capture_output=True, text=True).stdout
            print(out, end="", flush=True)
            run = []
            for line, table in zip(out.splitlines(), tables):
                words = line.split()[-2 * len(table):]
                run.append({name: float(us) for name, us in zip(words[::2], words[1::2])})
            runs[root].append(run)
    for root, costs in runs.items():
        for k, table in enumerate(tables):
            median = {name: statistics.median(run[k][name] for run in costs) for name in table}
            print("median", row(root, median), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
