"""Command line front end. JSON on stdout, one-line JSON errors on stderr.

Exit codes: 0 success, 1 domain error (zero divisor, outside model, a
result that is not finite, ...), 2 usage error (including a nan or infinite
number on the command line and an ``--svg`` path that cannot be written).
Floats print with 17 significant digits unless the KINEMATICA_PRECISION
environment variable overrides the width, so output is byte-stable for fixed
inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import ckgeom, clifford, conformal, kinclass, spin
from .ckgeom import KappaPair
from .errors import KinematicaError, NonFiniteResult
from .gencomplex import GenComplex, gc


def _precision() -> int:
    raw = os.environ.get("KINEMATICA_PRECISION", "17")
    try:
        value = int(raw)
    except ValueError:
        value = 17
    return max(1, min(17, value))


def _fmt_float(x: float, precision: int) -> str:
    if x == 0.0:
        x = 0.0  # fold -0.0
    out = f"{x:.{precision}g}"
    return out


def dumps(obj, precision: int) -> str:
    """Minimal JSON writer with controlled float formatting, insertion order."""
    if isinstance(obj, dict):
        inner = ",".join(
            f"{dumps(str(k), precision)}:{dumps(v, precision)}"
            for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v, precision) for v in obj) + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NonFiniteResult(f"result {x} is not finite")
        return _fmt_float(x, precision)
    raise TypeError(f"cannot serialize {type(obj)}")


def _gc_json(w: GenComplex) -> dict:
    return {"re": w.re, "im": w.im, "kappa": w.kappa}


def _matrix_json(m: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(m)]


def _finite_float(text: str) -> float:
    """The type of every numeric option: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'u,v', got {text!r}")
    return _finite_float(parts[0]), _finite_float(parts[1])


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'a,b,c', got {text!r}")
    return _finite_float(parts[0]), _finite_float(parts[1]), _finite_float(parts[2])


def _add_kappas(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kappa1", type=_finite_float, required=True)
    parser.add_argument("--kappa2", type=_finite_float, required=True)


class UsageError(Exception):
    """A command line the parser or a name lookup rejects (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """argparse with one-line usage errors and negative values as separate tokens.

    ``error`` raises :class:`UsageError`, which :func:`main` reports as one
    JSON line with exit 2, instead of printing the usage text and exiting.
    argparse's own negative-number test covers plain integers and decimals
    but not ``-5e-07`` or ``-0.25,0.5``; no option here starts with a digit,
    so every token that starts with a minus sign and a digit (or ``.`` and a
    digit) is read as a value.  Subparsers are built from the same class.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared afterwards.

    ``parse_args`` starts every call from a fresh namespace and writes
    nothing back to the parser, so one instance serves every :func:`main`
    call in the process.
    """
    parser = _Parser(
        prog="kinematica",
        description="two-parameter plane kinematics and Cayley-Klein geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", help="the 27 bracket structures and counts")

    p = sub.add_parser("contract", help="contract a named kinematical algebra")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument(
        "--type", dest="kind", required=True,
        choices=sorted(kinclass.CONTRACTION_EXPONENTS),
    )

    p = sub.add_parser("graph", help="the contraction graph")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("exp", help="closed-form one-parameter subgroup element")
    p.add_argument("--gen", choices=("H", "P", "K"), required=True)
    p.add_argument("--param", type=_finite_float, required=True)
    _add_kappas(p)

    p = sub.add_parser("project", help="central projection of a quadric point")
    p.add_argument("--point", type=_parse_triple, required=True, metavar="z,t,x")
    _add_kappas(p)

    p = sub.add_parser("unproject", help="lift a plane point to the quadric")
    p.add_argument("--w", type=_parse_pair, required=True, metavar="u,v")
    _add_kappas(p)

    p = sub.add_parser("distance", help="closed-form distance between plane points")
    p.add_argument("--w1", type=_parse_pair, required=True, metavar="u,v")
    p.add_argument("--w2", type=_parse_pair, required=True, metavar="u,v")
    _add_kappas(p)

    p = sub.add_parser("rotate", help="rotor sandwich of a vector")
    p.add_argument("--axis", type=_parse_triple, required=True, metavar="n1,n2,n3")
    p.add_argument("--angle", type=_finite_float, required=True)
    p.add_argument("--vector", type=_parse_triple, required=True, metavar="a1,a2,a3")
    _add_kappas(p)

    p = sub.add_parser("spin", help="spin element over a generator exponential")
    p.add_argument("--gen", choices=("H", "P", "K"), required=True)
    p.add_argument("--param", type=_finite_float, required=True)
    _add_kappas(p)

    p = sub.add_parser("conformal-table", help="computed conformal bracket table")
    p.add_argument("--diff-paper", action="store_true", dest="diff",
                   help="include the diff against the published table")
    _add_kappas(p)

    p = sub.add_parser("region", help="SVG of the model region")
    p.add_argument("--svg", metavar="PATH", default=None,
                   help="output path (stdout when omitted)")
    _add_kappas(p)

    return parser


def _run_classify(args) -> dict:
    return {
        "counts": kinclass.classification_counts(),
        "algebras": kinclass.classification_rows(),
    }


def _run_contract(args) -> dict:
    try:
        triple = kinclass.triple_of_name(args.source)
    except KeyError as exc:
        raise UsageError(str(exc)) from None
    return {"to": kinclass.name_of(kinclass.contract_triple(triple, args.kind))}


def _graph_dot() -> str:
    lines = ["digraph contractions {"]
    for src, dst, kind in kinclass.contraction_graph():
        lines.append(f'  "{src}" -> "{dst}" [label="{kind}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _run_exp(args, kp: KappaPair) -> dict:
    return {
        "generator": args.gen,
        "param": args.param,
        "matrix": _matrix_json(ckgeom.exp_generator(kp, args.gen, args.param)),
    }


def _run_rotate(args, kp: KappaPair) -> dict:
    axis = clifford.UnitAxis(*args.axis)
    r = clifford.rotor(kp, axis, args.angle)
    vec = clifford.Multivector.vector(kp, *args.vector)
    out = clifford.sandwich(r, vec)
    return {
        "rotor": {
            "kappa1": kp.kappa1,
            "kappa2": kp.kappa2,
            "coeffs": [float(c) for c in r.coeffs],
        },
        "vector": [float(c) for c in out.vector_components()],
    }


def _run_spin(args, kp: KappaPair) -> dict:
    s = spin.SL2[args.gen](kp, args.param)
    return {
        "alpha": _gc_json(s.alpha),
        "beta": _gc_json(s.beta),
        "so3": _matrix_json(spin.cover_to_so3(s)),
    }


def _run_conformal(args, kp: KappaPair) -> dict:
    computed = conformal.computed_brackets(kp)
    brackets = {
        f"[{row},{col}]": coeffs
        for (row, col), coeffs in computed.items()
        if row != col and coeffs
    }
    out: dict = {"brackets": brackets}
    if args.diff:
        out["diff"] = diffs = []
        for record in conformal.diff_vs_tabulated(kp, computed):
            row, col = record["bracket"]
            diffs.append(
                {
                    "bracket": f"[{row},{col}]",
                    "computed": record["computed"],
                    "claimed": record["claimed"],
                }
            )
    return out


def _dispatch(args, emit) -> None:
    if args.command == "classify":
        emit(_run_classify(args))
    elif args.command == "contract":
        emit(_run_contract(args))
    elif args.command == "graph":
        if args.format == "dot":
            sys.stdout.write(_graph_dot())
        else:
            emit(
                [
                    {"from": s, "to": d, "type": k}
                    for s, d, k in kinclass.contraction_graph()
                ]
            )
    else:
        kp = KappaPair(args.kappa1, args.kappa2)
        if args.command == "exp":
            emit(_run_exp(args, kp))
        elif args.command == "project":
            emit(_gc_json(ckgeom.project(kp, args.point)))
        elif args.command == "unproject":
            u, v = args.w
            point = ckgeom.unproject(kp, gc(u, v, kp.kappa2))
            emit({"point": [float(c) for c in point]})
        elif args.command == "distance":
            w1 = gc(args.w1[0], args.w1[1], kp.kappa2)
            w2 = gc(args.w2[0], args.w2[1], kp.kappa2)
            emit({"distance": ckgeom.distance(kp, w1, w2)})
        elif args.command == "rotate":
            emit(_run_rotate(args, kp))
        elif args.command == "spin":
            emit(_run_spin(args, kp))
        elif args.command == "conformal-table":
            emit(_run_conformal(args, kp))
        elif args.command == "region":
            svg = ckgeom.region_svg(kp)
            if args.svg:
                try:
                    with open(args.svg, "w") as fh:
                        fh.write(svg)
                except OSError as exc:
                    raise UsageError(f"cannot write --svg: {exc}") from None
            else:
                sys.stdout.write(svg)


def main(argv: list[str] | None = None) -> int:
    precision = _precision()

    def emit(obj) -> None:
        sys.stdout.write(dumps(obj, precision) + "\n")

    try:
        args = build_parser().parse_args(argv)
        # a non-finite input is reported by the typed error it ends in, not
        # by numpy warnings printed ahead of that error's JSON line
        with np.errstate(all="ignore"):
            _dispatch(args, emit)
    except SystemExit as exc:  # --help prints its text and exits 0
        return int(exc.code or 0)
    except UsageError as exc:
        sys.stderr.write(dumps({"error": "usage", "message": str(exc)}, precision) + "\n")
        return 2
    except KinematicaError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(dumps(payload, precision) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
