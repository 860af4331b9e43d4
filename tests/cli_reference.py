"""The argparse command line parser the option table in ``kinematica.cli`` replaced.

Kept unchanged as the oracle of the differential tests in ``test_cli.py``:
the table-driven parser must accept what this parser accepts, with the same
values, and reject what it rejects, with the same message.
"""

from __future__ import annotations

import argparse
import functools
import math
import re

from kinematica import kinclass
from kinematica.cli import UsageError


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
