"""Classification and contraction of the 2+1 generator kinematical algebras.

A three-dimensional Lie algebra on a boost K, a time translation H, and a
space translation P that admits parity and time-reversal automorphisms must
have brackets of the form

    [K, H] = p*P,   [K, P] = h*H,   [H, P] = k*K,

and after rescaling the generators the constants k, h, p can be normalized to
{-1, 0, 1}.  That gives 27 algebras.  An algebra is kinematical when the
one-parameter group generated by the boost is non-compact, which happens
exactly when p*h != -1; the six failures are the motion algebras of the
elliptic, hyperbolic, and Euclidean planes.  Negating all three generators
while reversing bracket order is an isomorphism pairing (k, h, p) with
(-k, -h, -p), which groups the 21 kinematical algebras into 11 classes and
the 6 non-kinematical ones into 3.

Contractions rescale a subset of generators by epsilon and take the singular
limit, which keeps each constant or sets it to zero.  So they are exact
integer contractions: computed on the triple itself with integer epsilon
exponents, never with floats.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .errors import DivergentContraction


class BracketTriple(NamedTuple):
    """Normalized constants (k, h, p): [H,P]=kK, [K,P]=hH, [K,H]=pP."""

    k: int
    h: int
    p: int


def _sign(x: float) -> int:
    return 0 if x == 0 else (1 if x > 0 else -1)


# display constants from the standard naming tables, (k, h, p)
KINEMATICAL_NAMES: dict[str, BracketTriple] = {
    "adS": BracketTriple(1, 1, 1),    # anti-de Sitter
    "dS": BracketTriple(-1, 1, 1),    # de Sitter
    "M": BracketTriple(0, 1, 1),      # Minkowski
    "M'": BracketTriple(1, 1, 0),     # para-Minkowski
    "M+": BracketTriple(-1, 1, 0),    # expanding Minkowski universe
    "N-": BracketTriple(1, 0, 1),     # oscillating Newtonian universe
    "N+": BracketTriple(-1, 0, 1),    # expanding Newtonian universe
    "G": BracketTriple(0, 0, 1),      # Galilei
    "C": BracketTriple(0, 1, 0),      # Carroll
    "SdS": BracketTriple(1, 0, 0),    # static de Sitter universe
    "St": BracketTriple(0, 0, 0),     # static universe
}

# shell-safe spellings accepted by the CLI
NAME_ALIASES = {
    "Mp": "M'",
    "Mprime": "M'",
    "Mplus": "M+",
    "Nminus": "N-",
    "Nplus": "N+",
}

CONTRACTION_EXPONENTS: dict[str, tuple[int, int, int]] = {
    # (eK, eH, eP): which generators get the epsilon factor
    "speed-space": (1, 0, 1),
    "speed-time": (1, 1, 0),
    "space-time": (0, 1, 1),
}


def enumerate_all() -> list[BracketTriple]:
    """All 27 normalized bracket structures, lexicographically ordered."""
    return [
        BracketTriple(k, h, p)
        for k, h, p in itertools.product((-1, 0, 1), repeat=3)
    ]


def is_kinematical(t: BracketTriple) -> bool:
    """Non-compact boost test.

    ad_K acts on span{H, P} as [[0, h], [p, 0]]; its one-parameter group is
    compact exactly when the eigenvalues are imaginary, i.e. p*h < 0, which
    on normalized constants means p*h = -1.
    """
    return t.p * t.h != -1


def pair_image(t: BracketTriple) -> BracketTriple:
    """The isomorphic partner under negating K, H, P and reversing brackets."""
    return BracketTriple(-t.k, -t.h, -t.p)


def canonicalize(t: BracketTriple) -> BracketTriple:
    """Lexicographically largest representative of the pair {t, image(t)}."""
    return max(t, pair_image(t))


_CANONICAL_NAME = {canonicalize(t): name for name, t in KINEMATICAL_NAMES.items()}


def _non_kinematical_tag(t: BracketTriple) -> str:
    # discriminate by the Killing form diag(2hp, -2kp, 2kh) on (K, H, P):
    # definite -> elliptic motions, degenerate -> Euclidean, else hyperbolic
    if t.k == 0:
        return "Eu"
    diag = (2 * t.h * t.p, -2 * t.k * t.p, 2 * t.k * t.h)
    if all(d < 0 for d in diag):
        return "El"
    return "H"


def name_of(t: BracketTriple) -> str:
    """Class name; stable under canonicalize.

    Kinematical triples get the standard tags (adS, dS, M, M', M+, N-, N+,
    G, C, SdS, St); the six excluded triples get the motion-group tags El,
    H, Eu of the constant-curvature planes.
    """
    c = canonicalize(t)
    if c in _CANONICAL_NAME:
        return _CANONICAL_NAME[c]
    return _non_kinematical_tag(c)


def triple_of_name(name: str) -> BracketTriple:
    name = NAME_ALIASES.get(name, name)
    try:
        return KINEMATICAL_NAMES[name]
    except KeyError:
        raise KeyError(f"unknown kinematics name {name!r}") from None


def apply_symmetry(sym: str, t: BracketTriple) -> BracketTriple:
    """The involutions swapping two generators and relabeling constants.

    S_P swaps K and H (p -> -p, k <-> h); S_H swaps K and P (h -> -h,
    k <-> -p); S_K swaps H and P (k -> -k, h <-> p).
    """
    if sym == "S_P":
        return BracketTriple(t.h, t.k, -t.p)
    if sym == "S_H":
        return BracketTriple(-t.p, -t.h, -t.k)
    if sym == "S_K":
        return BracketTriple(-t.k, t.p, t.h)
    raise KeyError(f"unknown symmetry {sym!r}")


def contract(t: BracketTriple, exponents: tuple[int, int, int]) -> BracketTriple:
    """Singular limit after K -> eps^eK K, H -> eps^eH H, P -> eps^eP P.

    Each constant picks up eps to (sum of the two bracketed generators'
    exponents minus the product generator's exponent); the eps -> 0 limit
    keeps constants with exponent 0, kills positive exponents, and is
    divergent for a nonzero constant with negative exponent.  The constants
    need not be normalized: each comes back as it was or as 0.
    """
    ek, eh, ep = exponents
    if min(ek, eh, ep) < 0:
        raise ValueError("exponents must be nonnegative")
    powers = (eh + ep - ek, ek + ep - eh, ek + eh - ep)
    out = []
    for field, value, power in zip(("ck", "ch", "cp"), t, powers):
        if power < 0 and value != 0:
            raise DivergentContraction(
                f"constant {field} = {value} scales as eps^{power}"
            )
        out.append(value if power == 0 else 0)
    return BracketTriple(*out)


def contract_triple(t: BracketTriple, kind: str) -> BracketTriple:
    """Apply one of the three fundamental contraction types to a triple."""
    return contract(t, CONTRACTION_EXPONENTS[kind])


@functools.cache
def _contraction_targets() -> dict[tuple[str, str], str]:
    # (class name or alias, contraction type) -> the class it contracts to
    spellings = {**{name: name for name in KINEMATICAL_NAMES}, **NAME_ALIASES}
    return {
        (spelling, kind): name_of(contract_triple(KINEMATICAL_NAMES[name], kind))
        for spelling, name in spellings.items()
        for kind in CONTRACTION_EXPONENTS
    }


def contraction_target(name: str, kind: str) -> str:
    """The class that ``name`` (a class name or an alias) contracts to under ``kind``.

    Every name, alias and contraction type is contracted once per process, on
    the first call, into one table that later calls read.

    Raises:
        KeyError: for an unknown name, with :func:`triple_of_name`'s message,
            or an unknown contraction type.
    """
    target = _contraction_targets().get((name, kind))
    if target is None:
        triple_of_name(name)  # raises for an unknown name
        raise KeyError(f"unknown contraction type {kind!r}")
    return target


def contraction_graph() -> list[tuple[str, str, str]]:
    """Directed edges (source, target, type) over the 11 kinematical classes.

    One edge per (class, contraction type) pair with self-loops omitted, in a
    deterministic order, read from the table of :func:`contraction_target`;
    each call returns a fresh list.
    """
    order = {name: i for i, name in enumerate(KINEMATICAL_NAMES)}
    kinds = tuple(CONTRACTION_EXPONENTS)
    targets = _contraction_targets()
    edges = [(name, targets[name, kind], kind) for name in KINEMATICAL_NAMES for kind in kinds
             if targets[name, kind] != name]
    return sorted(edges, key=lambda e: (order[e[0]], order[e[1]], kinds.index(e[2])))


def classification_counts() -> dict[str, int]:
    """The headline counts: 27 total, 21 kinematical in 11 classes, 6 not."""
    triples = enumerate_all()
    kin = [t for t in triples if is_kinematical(t)]
    classes = {canonicalize(t) for t in kin}
    return {
        "total": len(triples),
        "kinematical": len(kin),
        "classes": len(classes),
        "non_kinematical": len(triples) - len(kin),
    }


def classification_rows() -> list[dict]:
    """One record per bracket structure, for the table emitters."""
    rows = []
    for t in enumerate_all():
        c = canonicalize(t)
        rows.append(
            {
                "k": t.k,
                "h": t.h,
                "p": t.p,
                "name": name_of(t),
                "kinematical": is_kinematical(t),
                "canonical": list(c),
            }
        )
    return rows


def so3_triple(kappa1: float, kappa2: float) -> BracketTriple:
    """Sign-normalized constants (k, h, p) = (sgn kappa1, -sgn kappa2, 1)."""
    return BracketTriple(_sign(kappa1), -_sign(kappa2), 1)


def reachable_by_contractions(start: str) -> set[str]:
    """Classes reachable from ``start`` by composing fundamental contractions."""
    edges = contraction_graph()
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for src, dst, _ in edges:
            if src == node and dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen
