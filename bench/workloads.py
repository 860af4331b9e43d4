"""Seeded request streams for the benchmark.

Each workload is an endless, deterministic stream of ``Request`` values: the
same seed gives the same argv list.  Every option is written as
``--name=value`` because argparse reads a separate ``-5e-07`` or
``-0.25,0.5`` as a flag and rejects the request with exit 2 (see NOTES.md).

The outcome of each request, success or a typed error, is decided by the
oracle from the request's parameters; draws that land within the oracle's
margin of an outcome boundary are discarded, so every answer is decidable.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple

import oracle


class Request(NamedTuple):
    argv: list[str]
    spec: dict


def _num(x: float) -> str:
    return repr(float(x))


def _pair(w) -> str:
    return f"{_num(w[0])},{_num(w[1])}"


def _triple(v) -> str:
    return ",".join(_num(c) for c in v)


def _labels(k1: float, k2: float) -> list[str]:
    return [f"--kappa1={_num(k1)}", f"--kappa2={_num(k2)}"]


def _pick(rng: random.Random, weighted) -> str:
    names, weights = zip(*weighted)
    return rng.choices(names, weights)[0]


def _sign(rng: random.Random) -> float:
    return -1.0 if rng.random() < 0.5 else 1.0


# -- request builders ---------------------------------------------------------


def exp_request(k1, k2, gen, param) -> Request:
    spec = {"cmd": "exp", "k1": k1, "k2": k2, "gen": gen, "param": param}
    return Request(["exp", f"--gen={gen}", f"--param={_num(param)}", *_labels(k1, k2)], spec)


def project_request(k1, k2, point, w=None) -> Request:
    spec = {"cmd": "project", "k1": k1, "k2": k2, "point": tuple(point)}
    if w is not None:
        spec["w"] = tuple(w)
    return Request(["project", f"--point={_triple(point)}", *_labels(k1, k2)], spec)


def unproject_request(k1, k2, w) -> Request:
    spec = {"cmd": "unproject", "k1": k1, "k2": k2, "w": tuple(w)}
    return Request(["unproject", f"--w={_pair(w)}", *_labels(k1, k2)], spec)


def distance_requests(k1, k2, w1, w2) -> list[Request]:
    """The pair and its mirror image, so the oracle can check symmetry."""
    out = []
    for a, b, swapped in ((w1, w2, False), (w2, w1, True)):
        spec = {"cmd": "distance", "k1": k1, "k2": k2, "w1": tuple(a), "w2": tuple(b),
                "swapped": swapped}
        argv = ["distance", f"--w1={_pair(a)}", f"--w2={_pair(b)}", *_labels(k1, k2)]
        out.append(Request(argv, spec))
    return out


def rotate_request(k1, k2, axis, angle, vector) -> Request:
    spec = {"cmd": "rotate", "k1": k1, "k2": k2, "axis": tuple(axis), "angle": angle,
            "vector": tuple(vector)}
    argv = ["rotate", f"--axis={_triple(axis)}", f"--angle={_num(angle)}",
            f"--vector={_triple(vector)}", *_labels(k1, k2)]
    return Request(argv, spec)


def spin_request(k1, k2, gen, param) -> Request:
    spec = {"cmd": "spin", "k1": k1, "k2": k2, "gen": gen, "param": param}
    return Request(["spin", f"--gen={gen}", f"--param={_num(param)}", *_labels(k1, k2)], spec)


def lift(k1: float, k2: float, w) -> tuple[float, float, float]:
    """The quadric point over w (inverse central projection)."""
    scale = 2.0 / oracle.unproject_denominator(k1, k2, w)
    return scale - 1.0, w[0] * scale, w[1] * scale


# -- geometry-sweep -------------------------------------------------------------

ZERO_LABEL_SHARE = 0.15  # labels exactly 0: the flat branch
TINY_LABEL_SHARE = 0.10  # |kappa| about 1e-6: kappa*phi^2 takes the series branch
GEOMETRY_MIX = (("exp", 25), ("project", 20), ("unproject", 20), ("distance", 35))
PROJECT_POLE_SHARE = 0.15  # z = -1: ProjectionPole
UNPROJECT_OUTSIDE_SHARE = 0.20  # 1 + kappa1*|w|^2 <= 0: OutsideModel
DISTANCE_OUTCOMES = (
    (None, 55),
    ("DenominatorNotInvertible", 10),
    ("NullOrImaginarySeparation", 15),
    ("DomainError", 20),
)
_TRIES = 200


def geometry_label(rng: random.Random) -> float:
    u = rng.random()
    if u < ZERO_LABEL_SHARE:
        return 0.0
    if u < ZERO_LABEL_SHARE + TINY_LABEL_SHARE:
        return _sign(rng) * 10.0 ** rng.uniform(-6.5, -5.5)
    return _sign(rng) * rng.uniform(0.05, 2.0)


def geometry_param(rng: random.Random) -> float:
    if rng.random() < 0.4:
        return _sign(rng) * 10.0 ** rng.uniform(-3.0, -1.0)
    return rng.uniform(-3.0, 3.0)


def _plane_point(rng: random.Random) -> tuple[float, float]:
    return rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)


def _exact_boundary(rng: random.Random) -> tuple[float, float]:
    """(kappa1, u) with kappa1*u^2 = -1 exactly: u a power of two."""
    u = _sign(rng) * 2.0 ** rng.randint(-2, 1)
    return -1.0 / (u * u), u


def _unproject_case(rng: random.Random, outside: bool):
    if outside and rng.random() < 0.25:
        k1, u = _exact_boundary(rng)  # 1 + kappa1*|w|^2 = 0 exactly
        return k1, geometry_label(rng), (u, 0.0)
    for _ in range(_TRIES):
        k1, k2 = geometry_label(rng), geometry_label(rng)
        w = _plane_point(rng)
        denom = oracle.unproject_denominator(k1, k2, w)
        if (denom <= -0.01) if outside else (denom >= 0.05):
            return k1, k2, w
    return (-1.0, 1.0, (1.5, 0.0)) if outside else (0.5, 1.0, w)


def _distance_case(rng: random.Random, target: str | None):
    if target == "DenominatorNotInvertible":
        k1, u = _exact_boundary(rng)
        if rng.random() < 0.5:  # den = 0
            return k1, geometry_label(rng), (u, 0.0), (u, 0.0)
        v = rng.uniform(-1.5, 1.5)  # den a nonzero zero divisor of the dual numbers
        return k1, 0.0, (u, v), (u, 0.0)
    for _ in range(_TRIES):
        k1, k2 = geometry_label(rng), geometry_label(rng)
        w1, w2 = _plane_point(rng), _plane_point(rng)
        error, _, ambiguous = oracle.distance_outcome(k1, k2, w1, w2)
        if not ambiguous and error == target:
            return k1, k2, w1, w2
    return {
        None: (0.5, 1.0, (0.1, 0.2), (-0.3, 0.1)),
        "NullOrImaginarySeparation": (0.0, -1.0, (0.0, 0.0), (0.1, 1.0)),
        "DomainError": (-1.0, 1.0, (0.0, 0.0), (1.5, 0.0)),
    }[target]


def geometry_sweep(seed: int) -> Iterator[Request]:
    """exp, project, unproject and distance with fresh labels on every request."""
    rng = random.Random(seed)
    while True:
        cmd = _pick(rng, GEOMETRY_MIX)
        if cmd == "exp":
            k1, k2 = geometry_label(rng), geometry_label(rng)
            yield exp_request(k1, k2, rng.choice("HPK"), geometry_param(rng))
        elif cmd == "project":
            if rng.random() < PROJECT_POLE_SHARE:
                k1, k2 = geometry_label(rng), geometry_label(rng)
                yield project_request(k1, k2, (-1.0, *_plane_point(rng)))
            else:
                k1, k2, w = _unproject_case(rng, outside=False)
                yield project_request(k1, k2, lift(k1, k2, w), w)
        elif cmd == "unproject":
            k1, k2, w = _unproject_case(rng, rng.random() < UNPROJECT_OUTSIDE_SHARE)
            yield unproject_request(k1, k2, w)
        else:
            target = _pick(rng, DISTANCE_OUTCOMES)
            yield from distance_requests(*_distance_case(rng, target))


# -- rotors-sweep ---------------------------------------------------------------

ROTOR_MIX = (("rotate", 50), ("spin", 50))


def rotor_label(rng: random.Random) -> float:
    return _sign(rng) * rng.uniform(0.05, 2.0)


def _axis(rng: random.Random) -> tuple[float, float, float]:
    while True:
        n = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if math.sqrt(sum(c * c for c in n)) >= 0.2:
            return n


def _vector(rng: random.Random) -> tuple[float, float, float]:
    return rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)


def rotors_sweep(seed: int) -> Iterator[Request]:
    """rotate and spin, each with a fresh continuous label pair."""
    rng = random.Random(seed)
    while True:
        k1, k2 = rotor_label(rng), rotor_label(rng)
        if _pick(rng, ROTOR_MIX) == "rotate":
            yield rotate_request(k1, k2, _axis(rng), rng.uniform(-math.pi, math.pi), _vector(rng))
        else:
            yield spin_request(k1, k2, rng.choice("HPK"), rng.uniform(-3.0, 3.0))


# -- nine-geometries --------------------------------------------------------------

NINE_PAIRS = tuple((k1, k2) for k1 in (1.0, 0.0, -1.0) for k2 in (1.0, 0.0, -1.0))
KINEMATICS = ("adS", "dS", "M", "M'", "M+", "N-", "N+", "G", "C", "SdS", "St")
CONTRACTIONS = ("speed-space", "speed-time", "space-time")
UNKNOWN_NAME_SHARE = 0.10  # contract --from=<unknown>: usage error
NINE_MIX = (
    ("classify", 6),
    ("contract", 10),
    ("graph", 10),
    ("conformal-table", 4),
    ("conformal-table-diff", 4),
    ("region", 8),
    ("rotate", 14),
    ("spin", 14),
    ("exp", 15),
    ("distance", 15),
)


def nine_geometries(seed: int) -> Iterator[Request]:
    """Every subcommand over the nine sign patterns of (kappa1, kappa2)."""
    rng = random.Random(seed)
    while True:
        cmd = _pick(rng, NINE_MIX)
        k1, k2 = rng.choice(NINE_PAIRS)
        if cmd == "classify":
            yield Request(["classify"], {"cmd": "classify"})
        elif cmd == "contract":
            if rng.random() < UNKNOWN_NAME_SHARE:
                name = f"X{rng.randint(0, 999)}"
            else:
                name = rng.choice(KINEMATICS)
            kind = rng.choice(CONTRACTIONS)
            spec = {"cmd": "contract", "from": name, "type": kind}
            yield Request(["contract", f"--from={name}", f"--type={kind}"], spec)
        elif cmd == "graph":
            fmt = rng.choice(("json", "dot"))
            yield Request(["graph", f"--format={fmt}"], {"cmd": "graph", "format": fmt})
        elif cmd.startswith("conformal-table"):
            diff = cmd.endswith("diff")
            spec = {"cmd": "conformal-table", "k1": k1, "k2": k2, "diff": diff}
            argv = ["conformal-table", *(["--diff-paper"] if diff else []), *_labels(k1, k2)]
            yield Request(argv, spec)
        elif cmd == "region":
            yield Request(["region", *_labels(k1, k2)], {"cmd": "region", "k1": k1, "k2": k2})
        elif cmd == "rotate":
            yield rotate_request(k1, k2, _axis(rng), rng.uniform(-math.pi, math.pi), _vector(rng))
        elif cmd in ("spin", "exp"):
            build = spin_request if cmd == "spin" else exp_request
            yield build(k1, k2, rng.choice("HPK"), rng.uniform(-3.0, 3.0))
        else:
            while True:
                w1, w2 = _plane_point(rng), _plane_point(rng)
                if not oracle.distance_outcome(k1, k2, w1, w2)[2]:
                    break
            yield from distance_requests(k1, k2, w1, w2)


WORKLOADS = {
    "geometry-sweep": geometry_sweep,
    "rotors-sweep": rotors_sweep,
    "nine-geometries": nine_geometries,
}


# -- known defects ----------------------------------------------------------------


def defect_probe(seed: int, missing_dir: str) -> list[Request]:
    """Non-finite and overflow inputs that should end in a typed error.

    ``missing_dir`` names a directory that does not exist, for the unwritable
    ``region --svg`` path.  Each of these is expected to exit 1 or 2 with a
    one-line JSON error on stderr; at the time the benchmark was written all
    of them print ``nan`` or end in a traceback instead.
    """
    rng = random.Random(seed)
    k1, k2, w = abs(rotor_label(rng)), rotor_label(rng), _plane_point(rng)
    return [
        Request(["exp", "--gen=H", "--param=nan", *_labels(k1, k2)], {"cmd": "exp"}),
        Request(["unproject", f"--w=inf,{_num(w[1])}", *_labels(k1, k2)], {"cmd": "unproject"}),
        Request(["distance", f"--w1={_pair(w)}", "--w2=0.0,0.0", "--kappa1=nan",
                 f"--kappa2={_num(k2)}"], {"cmd": "distance"}),
        Request(["rotate", "--axis=0,0,0", "--angle=0.5", f"--vector={_triple(_vector(rng))}",
                 *_labels(k1, k2)], {"cmd": "rotate"}),
        Request(["spin", "--gen=H", "--param=1e300", "--kappa1=-1", f"--kappa2={_num(k2)}"],
                {"cmd": "spin"}),
        Request(["region", f"--svg={missing_dir}/x.svg", *_labels(k1, k2)], {"cmd": "region"}),
    ]
