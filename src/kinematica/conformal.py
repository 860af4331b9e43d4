"""The six-dimensional conformal algebra extending the motion algebra.

The traceless 2x2 matrices over the kappa2 algebra form a six-dimensional
real Lie algebra spanned by the motion generators H, P, K together with a
dilation D and two special maps G1, G2 whose Moebius actions are
w -> w/(t*w + 1), w -> w/(t*i*w + 1), and w -> e^t * w.  G1 and G2 are only
translations in the flat (kappa1 = 0) realization; in general their actions
need the projective completion to act globally.

Every coefficient of every bracket is one signed monomial: +-1, +-kappa1 or
+-kappa2.  The table of those monomials is derived once per process, on
first use, from the matrices themselves: the commutator of each unordered
pair of generators is decomposed over the six-generator basis at three label
points, and the reversed pairs are filled by antisymmetry.
``bracket_monomials`` gives that table with the monomials of a zero label
dropped, so it depends only on whether each label is 0, and
``computed_brackets`` only evaluates it at the labels.
``TABULATED_BRACKETS`` keeps the published form of the same table verbatim
as claimed data: it contains an undefined symbol "S2" in the [K, G1] slots
and a mislabeled [K, G2] entry.  ``errata`` names the slots where the two
disagree at the labels, with their published monomials, and
``diff_vs_tabulated`` reports them as values instead of silently correcting
either side.
"""

from __future__ import annotations

import functools
import math

from . import gencomplex
from .ckgeom import KappaPair
from .errors import DecompositionFailure
from .spin import ALGEBRA_TOL, AXES, sl2_of_exp, so3_matrix_generators

GENERATOR_TAGS = ("H", "P", "K", "G1", "G2", "D")


def conformal_basis(kp: KappaPair) -> dict[str, gencomplex.Mat2]:
    """The six generators as matrices over the kappa2 algebra."""
    k2 = kp.kappa2
    h, p, k = so3_matrix_generators(kp)
    zero = gencomplex.gc(0, 0, k2)
    g1 = gencomplex.Mat2(zero, zero, gencomplex.gc(1, 0, k2), zero)
    g2 = gencomplex.Mat2(zero, zero, gencomplex.gc(0, 1, k2), zero)
    d = gencomplex.Mat2(gencomplex.gc(0.5, 0, k2), zero, zero, gencomplex.gc(-0.5, 0, k2))
    return {"H": h, "P": p, "K": k, "G1": g1, "G2": g2, "D": d}


def decompose(kp: KappaPair, m: gencomplex.Mat2) -> dict[str, float]:
    """Coefficients of a traceless matrix over {H, P, K, G1, G2, D}.

    Writing m = [[a, b], [c, -a]], the basis triangularizes: H and P alone
    carry the b entry, so x_H = 2*Re(b), x_P = 2*Im(b), then K and D read off
    a and G1, G2 absorb what remains of c.  The six generators span exactly
    the traceless matrices, so no reconstruction is needed: a vanishing
    trace and finite coefficients are the whole check.

    Raises:
        DecompositionFailure: if a trace component exceeds ``ALGEBRA_TOL``
            (m not in the span) or a coefficient is not finite.
    """
    tr = m.trace()
    # written `not x <= ALGEBRA_TOL` so that a nan trace fails too
    if not (abs(tr.re) <= ALGEBRA_TOL and abs(tr.im) <= ALGEBRA_TOL):
        raise DecompositionFailure(f"trace {tr} is not zero: off the six-generator span")
    coeffs = {
        "H": 2.0 * m.b.re,
        "P": 2.0 * m.b.im,
        "K": 2.0 * m.a.im,
        "G1": m.c.re + kp.kappa1 * m.b.re,
        "G2": m.c.im - kp.kappa1 * m.b.im,
        "D": 2.0 * m.a.re,
    }
    if not all(math.isfinite(v) for v in coeffs.values()):
        raise DecompositionFailure(f"non-finite coefficients {coeffs}")
    return coeffs


@functools.cache
def _structure_constants() -> dict[tuple[str, str], dict[str, tuple[int, int, int]]]:
    """The bracket table as {(row, col): {tag: (c0, c1, c2)}} with exact ints.

    The coefficient of tag in [row, col] is c0 + c1*kappa1 + c2*kappa2; its
    values at the labels (0, 0), (1, 0) and (0, 1), read off the matrices by
    :func:`decompose`, give c0, c0 + c1 and c0 + c2.  Only the pairs with row
    before col are commuted; [col, row] is the negation and [x, x] is empty.

    Raises:
        DecompositionFailure: if a coefficient is not one signed monomial.
    """
    points = [KappaPair(0.0, 0.0), KappaPair(1.0, 0.0), KappaPair(0.0, 1.0)]
    bases = [conformal_basis(kp) for kp in points]
    out = {}
    for i, row in enumerate(GENERATOR_TAGS):
        for j, col in enumerate(GENERATOR_TAGS):
            if j < i:
                out[(row, col)] = _antisymmetric(out, row, col)
                continue
            out[(row, col)] = entry = {}
            if j == i:
                continue
            v0, v1, v2 = (
                decompose(kp, basis[row].commutator(basis[col]))
                for kp, basis in zip(points, bases)
            )
            for tag, c0 in v0.items():
                triple = (c0, v1[tag] - c0, v2[tag] - c0)
                if triple == (0.0, 0.0, 0.0):
                    continue
                if sorted(map(abs, triple)) != [0.0, 0.0, 1.0]:
                    raise DecompositionFailure(
                        f"[{row}, {col}] has {tag} coefficient {triple}: not one signed monomial"
                    )
                entry[tag] = tuple(int(c) for c in triple)
    return out


def _antisymmetric(table: dict, row: str, col: str):
    """table[(row, col)], or else the negation of table[(col, row)]."""
    if (row, col) in table:
        return table[(row, col)]
    entry = table[(col, row)]
    if entry == "S2":
        return entry
    return {t: (-c0, -c1, -c2) for t, (c0, c1, c2) in entry.items()}


def _nonzero(entry: dict, kappa1, kappa2) -> dict[str, tuple[int, int, int]]:
    """entry without the monomials of a zero label; only each label's truth value is read."""
    return {t: m for t, m in entry.items() if m[0] or m[1] and kappa1 or m[2] and kappa2}


def _evaluate(kp: KappaPair, entry: dict[str, tuple[int, int, int]]) -> dict[str, float]:
    """{tag: c0 + c1*kappa1 + c2*kappa2} over one entry of :func:`_nonzero` monomials."""
    return {t: float(c0 + c1 * kp.kappa1 + c2 * kp.kappa2) for t, (c0, c1, c2) in entry.items()}


@functools.cache
def _monomials(kappa1: bool, kappa2: bool):
    """The derived table and the published ``ERRATA`` entries in table order (a
    note for the undefined symbol), the monomials of a zero label dropped;
    kappa1 and kappa2 say whether each label is nonzero."""
    derived = {slot: _nonzero(e, kappa1, kappa2) for slot, e in _structure_constants().items()}
    published = tuple(
        (slot, "S2 (undefined symbol)" if e == "S2" else _nonzero(e, kappa1, kappa2))
        for slot in _ERRATA_ORDER
        for e in [_antisymmetric(TABULATED_BRACKETS, *slot)]
    )
    return derived, published


def bracket_monomials(kp: KappaPair) -> dict[tuple[str, str], dict[str, tuple[int, int, int]]]:
    """The table {(row, col): {tag: (c0, c1, c2)}} over every ordered pair of
    ``GENERATOR_TAGS``, the monomials of a zero label dropped: one table per
    pattern of zero labels, shared by its calls, to be read and not changed."""
    return _monomials(kp.kappa1 != 0.0, kp.kappa2 != 0.0)[0]


def computed_brackets(kp: KappaPair) -> dict[tuple[str, str], dict[str, float]]:
    """All brackets [row, col] over the basis at the labels, zeros dropped:
    :func:`bracket_monomials` evaluated at the labels."""
    return {slot: _evaluate(kp, entry) for slot, entry in bracket_monomials(kp).items()}


# The published bracket table, row = first argument. Each entry is a linear
# combination {tag: (const, coeff of kappa1, coeff of kappa2)}; "S2" marks the
# slots printed with a symbol the table never defines.
TABULATED_BRACKETS: dict[tuple[str, str], dict | str] = {
    ("H", "P"): {"K": (0, 1, 0)},
    ("H", "K"): {"P": (-1, 0, 0)},
    ("H", "G1"): {"D": (1, 0, 0)},
    ("H", "G2"): {"K": (1, 0, 0)},
    ("H", "D"): {"H": (-1, 0, 0), "G1": (0, -1, 0)},
    ("P", "K"): {"H": (0, 0, 1)},
    ("P", "G1"): {"K": (1, 0, 0)},
    ("P", "G2"): {"D": (0, 0, -1)},
    ("P", "D"): {"P": (-1, 0, 0), "G2": (0, 1, 0)},
    ("K", "G1"): "S2",
    ("K", "G2"): {"G2": (0, 0, 1)},
    ("K", "D"): {},
    ("G1", "G2"): {},
    ("G1", "D"): {"G1": (1, 0, 0)},
    ("G2", "D"): {"G2": (1, 0, 0)},
}

# The slots whose published entry differs from the derived one, in table order;
# every other slot evaluates to the same floats on both sides at every label.
_ERRATA_ORDER = (("K", "G1"), ("K", "G2"), ("G1", "K"), ("G2", "K"))
ERRATA = frozenset(_ERRATA_ORDER)


def errata(kp: KappaPair) -> tuple[tuple[tuple[str, str], dict | str], ...]:
    """The ``ERRATA`` slots where the published table disagrees at these labels,
    in table order, each with its published monomials as in
    :func:`bracket_monomials` or "S2 (undefined symbol)": the S2 slots always,
    the others where a coefficient differs from the derived one by more than
    ``ALGEBRA_TOL``."""
    derived, published = _monomials(kp.kappa1 != 0.0, kp.kappa2 != 0.0)
    out = []
    for slot, claimed in published:
        if isinstance(claimed, dict):
            a, b = _evaluate(kp, derived[slot]), _evaluate(kp, claimed)
            if not any(abs(a.get(t, 0.0) - b.get(t, 0.0)) > ALGEBRA_TOL for t in a.keys() | b):
                continue
        out.append((slot, claimed))
    return tuple(out)


def diff_vs_tabulated(
    kp: KappaPair, computed: dict[tuple[str, str], dict[str, float]]
) -> list[dict]:
    """The :func:`errata` at these labels as records of ``computed``, the table
    of :func:`computed_brackets`, and of the published entry's values."""
    return [
        {"bracket": list(slot), "computed": computed[slot],
         "claimed": claimed if isinstance(claimed, str) else _evaluate(kp, claimed)}
        for slot, claimed in errata(kp)
    ]


def conformal_moebius(kp: KappaPair, tag: str, t: float) -> gencomplex.Mat2:
    """exp(t * generator) in closed form, the Moebius map it induces on the
    kappa2 plane (:meth:`Mat2.apply`)."""
    k2 = kp.kappa2
    zero = gencomplex.gc(0, 0, k2)
    one = gencomplex.gc(1, 0, k2)
    if tag == "G1":
        return gencomplex.Mat2(one, zero, gencomplex.gc(t, 0, k2), one)
    if tag == "G2":
        return gencomplex.Mat2(one, zero, gencomplex.gc(0, t, k2), one)
    if tag == "D":
        return gencomplex.Mat2(gencomplex.gc(math.exp(0.5 * t), 0, k2), zero, zero,
                               gencomplex.gc(math.exp(-0.5 * t), 0, k2))
    if tag in AXES:
        return sl2_of_exp(kp, tag, t).as_mat2()
    raise KeyError(f"unknown conformal generator {tag!r}")
