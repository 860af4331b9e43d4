"""Time two checkouts of kinematica side by side in one process, in µs per call.

Each ``--root`` names a checkout whose ``src`` is timed.  Each checkout's
package is imported with its own ``src`` first on ``sys.path``, all seven of
its lazy layers are made to load, and its modules are then kept under their
own ``sys.modules`` snapshot, which is put back in place before each of its
runs.  The checkouts are loaded COPIES times each, in turn: where a copy's
objects land in memory moves its rows by up to a few percent, so each side
times another copy in each burst.

For each row, a burst is REPEATS rounds, and a round runs ``--number`` calls
on each side, the side that goes first switching from round to round, so
the CPU's drift in speed lands on both sides alike.  A side's figure for the
burst is its fastest run, so a run that the machine interrupts does not
count.  For each side and row the tool prints the best burst, the median
burst and the bursts it won, in µs per call.  For each side after the first
it then prints the median and the quartiles of its per-burst ratio to side 0:
the two sides of a burst ran in the same rounds, so a spell in which the
machine runs slow moves both and leaves their ratio.

The rows:

- ``precision``: ``cli._precision``, the read of ``KINEMATICA_PRECISION``
  that starts every ``cli.main`` call;
- ``parse-*``: ``cli.parse_args`` on the exact ``--name=value`` lines of
  ``exp``, ``distance`` and ``rotate``, the form of every benchmark request,
  and on an ``exp`` line with spaced values, which the parser first rewrites;
- ``sandwich``, ``rotor``, ``spin_from_axis`` and ``vector``: the steps of the
  rotor path on the values of the ``rotate`` line, and ``sandwich_parts``,
  the float kernel in ``spin`` that the ``rotate`` request calls, on that
  rotor's even parts and that vector; ``sl2_parts`` and ``half_angle_parts``:
  the spin element's parts for library callers and the two that the ``spin``
  request calls, on the values of the ``spin`` line; ``cover_to_so3``: the
  3x3 motion of that line's spin element; ``exp_parts``: the exponential's plane
  entries that the ``exp`` and ``spin`` requests call, on the values of the
  ``exp`` line; ``distance``: ``ckgeom.distance`` on the values of the
  ``distance`` line;
- ``region-*``: ``ckgeom.region_svg`` on one label pair per boundary shape
  (an ellipse, two lines, hyperbola branches along t and along x, and none);
- ``main-*``: ``cli.main`` on one exact line per subcommand, its output sent
  to a writer that discards it.

Run it on two checkouts, or give one checkout twice for an A/A run, whose
medians should agree within 1% with neither side winning more than 40 of 60
bursts, and whose median ratio should be within 1% of 1.  A row that calls a
function one checkout lacks (``sl2_parts``, ``exp_parts`` or
``half_angle_parts`` before they were added, or ``sandwich_parts`` before it
moved from ``clifford`` to ``spin``) stops the run there; leave it out with
``--rows``::

    python tests/ab_timing.py --root ../parent --root .
    python tests/ab_timing.py --root . --root . --rows main-spin main-rotate

Like ``tests/exact.py``, pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import statistics
import sys
import timeit
import types
from pathlib import Path

COPIES = 20  # loads of each checkout; burst b times copy b % COPIES
REPEATS = 7  # rounds in one burst
LAYERS = ("gentrig", "gencomplex", "ckgeom", "spin", "clifford", "kinclass", "conformal")

PARSE_LINES = {
    "exp": ["exp", "--gen=H", "--param=0.5", "--kappa1=-1", "--kappa2=1"],
    "distance": ["distance", "--w1=0.1,0.2", "--w2=-0.3,0.4", "--kappa1=1", "--kappa2=-1"],
    "rotate": ["rotate", "--axis=0,0,1", "--angle=0.7", "--vector=1,2,3",
               "--kappa1=1", "--kappa2=1"],
    "spaced-exp": ["exp", "--gen", "H", "--param", "0.5", "--kappa1", "-1", "--kappa2", "1"],
}
# one exact line per subcommand, each ending in an answer
MAIN_LINES = {
    "classify": ["classify"],
    "contract": ["contract", "--from=dS", "--type=speed-space"],
    "graph": ["graph", "--format=json"],
    "exp": PARSE_LINES["exp"],
    "project": ["project", "--point=0.6,0.8,0", "--kappa1=1", "--kappa2=1"],
    "unproject": ["unproject", "--w=0.1,0.2", "--kappa1=-1", "--kappa2=1"],
    "distance": PARSE_LINES["distance"],
    "rotate": PARSE_LINES["rotate"],
    "spin": ["spin", "--gen=K", "--param=0.5", "--kappa1=1", "--kappa2=-1"],
    "conformal-table": ["conformal-table", "--kappa1=-1", "--kappa2=0"],
    "region": ["region", "--kappa1=1", "--kappa2=-1"],
}
# boundary shape -> a label pair whose region has it
REGION_LABELS = {
    "ellipse": (-1.0, 1.0),
    "lines": (-1.0, 0.0),
    "along-t": (-1.0, -1.0),
    "along-x": (1.0, -1.0),
    "none": (1.0, 1.0),
}
# row -> the statement it times, in the names of setup()
ROWS = {
    "precision": "cli._precision()",
    **{f"parse-{name}": f"cli.parse_args(lines[{name!r}])" for name in PARSE_LINES},
    "sandwich": "clifford.sandwich(r, a)",
    "sandwich_parts": "spin.sandwich_parts(kp, *rotor_parts, 1.0, 2.0, 3.0)",
    "rotor": "clifford.rotor(kp, axis, 0.7)",
    "spin_from_axis": "spin.spin_from_axis(kp, 0.0, 0.0, 1.0, 0.7)",
    "sl2_parts": "spin.sl2_parts(kp_spin, 'K', 0.5)",
    "half_angle_parts": "spin.half_angle_parts(kp_spin, 'K', 0.5)",
    "cover_to_so3": "spin.cover_to_so3(element)",
    "exp_parts": "ckgeom.exp_parts(kp_exp, 'H', 0.5)",
    "vector": "clifford.Multivector.vector(kp, 1.0, 2.0, 3.0)",
    "distance": "ckgeom.distance(kp_d, w1, w2)",
    **{f"region-{shape}": f"ckgeom.region_svg(regions[{shape!r}])" for shape in REGION_LABELS},
    **{f"main-{name}": f"cli.main(main_lines[{name!r}])" for name in MAIN_LINES},
}


class NullWriter:
    """A stdout that discards what ``cli.main`` writes."""

    def write(self, text: str) -> int:
        return len(text)


def _own_modules() -> dict[str, types.ModuleType]:
    return {name: module for name, module in sys.modules.items()
            if name == "kinematica" or name.startswith("kinematica.")}


def load(root: Path) -> dict[str, types.ModuleType]:
    """The modules of one checkout's package, every layer loaded, taken out of
    ``sys.modules`` so that another checkout can be imported next."""
    for name in _own_modules():
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        package = importlib.import_module("kinematica")
        importlib.import_module("kinematica.cli")
        for layer in LAYERS:
            module = getattr(package, layer)
            module.__doc__  # the first attribute access runs a lazy layer's body
            if type(module) is not types.ModuleType:
                raise RuntimeError(f"{root}: layer {layer} did not load")
        if Path(package.__file__).resolve().parents[1] != (root / "src").resolve():
            raise RuntimeError(f"{root}: imported {package.__file__}")
    finally:
        sys.path.remove(str(root / "src"))
    modules = _own_modules()
    for name in modules:
        del sys.modules[name]
    return modules


def setup(modules: dict[str, types.ModuleType]) -> dict[str, object]:
    """The names the row statements use, from one checkout's modules."""
    ckgeom, clifford = modules["kinematica.ckgeom"], modules["kinematica.clifford"]
    kp = ckgeom.KappaPair(1.0, 1.0)
    axis = clifford.UnitAxis(0.0, 0.0, 1.0)
    gc = modules["kinematica.gencomplex"].gc
    r = clifford.rotor(kp, axis, 0.7)
    kp_spin = ckgeom.KappaPair(1.0, -1.0)
    return {
        "cli": modules["kinematica.cli"], "ckgeom": ckgeom, "clifford": clifford,
        "spin": modules["kinematica.spin"], "lines": PARSE_LINES, "main_lines": MAIN_LINES,
        "kp": kp, "axis": axis, "r": r, "rotor_parts": tuple(r.coeffs[k] for k in (0, 4, 6, 5)),
        "a": clifford.Multivector.vector(kp, 1.0, 2.0, 3.0),
        "kp_spin": kp_spin, "element": modules["kinematica.spin"].sl2_of_exp(kp_spin, "K", 0.5),
        "kp_exp": ckgeom.KappaPair(-1.0, 1.0),
        "kp_d": ckgeom.KappaPair(1.0, -1.0), "w1": gc(0.1, 0.2, -1.0), "w2": gc(-0.3, 0.4, -1.0),
        "regions": {shape: ckgeom.KappaPair(*labels) for shape, labels in REGION_LABELS.items()},
    }


def run(modules: dict[str, types.ModuleType], timer: timeit.Timer, number: int) -> float:
    """µs per call over one run of ``number`` calls, with this side's modules in place."""
    for name in _own_modules():
        del sys.modules[name]
    sys.modules.update(modules)
    return timer.timeit(number) / number * 1e6


def time_row(sides: list[list[dict]], statement: str, bursts: int,
             number: int) -> list[list[float]]:
    """Each side's µs per call in each burst.

    A burst is REPEATS rounds, and each round runs every side once, the side
    that goes first switching from round to round; a side's figure for the
    burst is its fastest run, so that a run the machine interrupts does not
    count.  In burst b each side times its copy b % COPIES.
    """
    timers = [[(copy["modules"], timeit.Timer(statement, globals=copy["names"]))
               for copy in copies] for copies in sides]
    for copies in timers:  # one unrecorded run per copy, to warm the row
        for modules, timer in copies:
            run(modules, timer, number)
    times: list[list[float]] = [[] for _ in sides]
    rounds = 0
    for b in range(bursts):
        best = [math.inf] * len(sides)
        for _ in range(REPEATS):
            order = range(len(sides)) if rounds % 2 == 0 else reversed(range(len(sides)))
            rounds += 1
            for k in order:
                best[k] = min(best[k], run(*timers[k][b % COPIES], number))
        for k, us in enumerate(best):
            times[k].append(us)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(name: str, times: list[list[float]]) -> str:
    """One line per row: each side's best and median burst and the bursts it
    won, then each later side's median per-burst ratio to side 0 and its quartiles."""
    won = [0] * len(times)
    for burst_times in zip(*times):
        fastest = min(burst_times)
        if burst_times.count(fastest) == 1:
            won[burst_times.index(fastest)] += 1
    cells = [f"{name:<22}"]
    for k, side in enumerate(times):
        cells.append(f"{k}: best {min(side):7.2f} median {statistics.median(side):7.2f}"
                     f" won {won[k]:>3}/{len(side)}")
    for k, side in enumerate(times[1:], 1):
        q1, median, q3 = quartiles([t / t0 for t, t0 in zip(side, times[0])])
        cells.append(f"{k}/0: ratio {median:.3f} quartiles {q1:.3f} {q3:.3f}")
    return "  ".join(cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append", required=True,
                        help="checkout whose src/ to time; give two, or one twice for A/A")
    parser.add_argument("--bursts", type=int, default=60, help="recorded bursts per side and row")
    parser.add_argument("--number", type=int, default=300, help="calls per run")
    parser.add_argument("--rows", nargs="+", choices=list(ROWS), default=list(ROWS),
                        help="rows to time (default: all)")
    args = parser.parse_args(argv)
    if args.bursts < 1 or args.number < 1:
        parser.error("--bursts and --number must be positive")

    roots = [root.resolve() for root in args.root]
    saved = _own_modules()
    try:
        sides = [[] for _ in roots]
        # the sides' copies are loaded in turn, the first side switching from
        # copy to copy, so that the sides share the load order
        for i in range(COPIES):
            for k in (range(len(roots)) if i % 2 == 0 else reversed(range(len(roots)))):
                modules = load(roots[k])
                sides[k].append({"modules": modules, "names": setup(modules)})
        for k, root in enumerate(roots):
            print(f"{k}: {root}", flush=True)
        out = sys.stdout
        with contextlib.redirect_stdout(NullWriter()), contextlib.redirect_stderr(NullWriter()):
            for name in args.rows:
                times = time_row(sides, ROWS[name], args.bursts, args.number)
                print(report(name, times), file=out, flush=True)
    finally:
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
