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
``computed_brackets`` only evaluates that table at the labels.
``TABULATED_BRACKETS`` keeps the published form of the same table verbatim
as claimed data: it contains an undefined symbol "S2" in the [K, G1] slots
and a mislabeled [K, G2] entry, and ``diff_vs_tabulated`` reports those
discrepancies instead of silently correcting either side.
"""

from __future__ import annotations

import functools
import math

from .ckgeom import KappaPair
from .errors import DecompositionFailure
from .gencomplex import Mat2, gc
from .spin import ALGEBRA_TOL, SL2, so3_matrix_generators

GENERATOR_TAGS = ("H", "P", "K", "G1", "G2", "D")


def conformal_basis(kp: KappaPair) -> dict[str, Mat2]:
    """The six generators as matrices over the kappa2 algebra."""
    k2 = kp.kappa2
    h, p, k = so3_matrix_generators(kp)
    zero = gc(0, 0, k2)
    g1 = Mat2(zero, zero, gc(1, 0, k2), zero)
    g2 = Mat2(zero, zero, gc(0, 1, k2), zero)
    d = Mat2(gc(0.5, 0, k2), zero, zero, gc(-0.5, 0, k2))
    return {"H": h, "P": p, "K": k, "G1": g1, "G2": g2, "D": d}


def decompose(kp: KappaPair, m: Mat2) -> dict[str, float]:
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


def _evaluate(kp: KappaPair, entry: dict[str, tuple[int, int, int]]) -> dict[str, float]:
    """{tag: c0 + c1*kappa1 + c2*kappa2} over one table entry, zeros dropped."""
    out = {}
    for tag, (c0, c1, c2) in entry.items():
        value = c0 + c1 * kp.kappa1 + c2 * kp.kappa2
        if value != 0.0:
            out[tag] = float(value)
    return out


def computed_brackets(kp: KappaPair) -> dict[tuple[str, str], dict[str, float]]:
    """All brackets [row, col] over the basis at the labels, zeros dropped.

    Keys run over every ordered pair of ``GENERATOR_TAGS``; the monomials are
    derived from the matrices on the first call (:func:`_structure_constants`).
    """
    return {slot: _evaluate(kp, entry) for slot, entry in _structure_constants().items()}


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

# The slots whose published entry differs from the derived one; every other
# slot evaluates to the same floats on both sides at every label.
ERRATA = frozenset({("K", "G1"), ("G1", "K"), ("K", "G2"), ("G2", "K")})


def tabulated_bracket(kp: KappaPair, row: str, col: str):
    """Claimed entry for [row, col]; 'S2' where the symbol is undefined."""
    if row == col:
        return {}
    entry = _antisymmetric(TABULATED_BRACKETS, row, col)
    return entry if entry == "S2" else _evaluate(kp, entry)


# the ERRATA slots in table order, rows before columns
_ERRATA_ORDER = tuple(
    (row, col) for row in GENERATOR_TAGS for col in GENERATOR_TAGS if (row, col) in ERRATA
)


def _disagreement(kp: KappaPair, slot: tuple[str, str], actual: dict[str, float]):
    """The claimed entry of an ERRATA slot where it disagrees with ``actual``
    (see :func:`diff_vs_tabulated`), else None."""
    claimed = tabulated_bracket(kp, *slot)
    if claimed == "S2":
        return "S2 (undefined symbol)"
    tags = set(claimed) | set(actual)
    if any(abs(claimed.get(t, 0.0) - actual.get(t, 0.0)) > ALGEBRA_TOL for t in tags):
        return claimed
    return None


def reported_errata(kp: KappaPair) -> tuple[tuple[str, str], ...]:
    """The slots :func:`diff_vs_tabulated` reports at these labels, in its order."""
    table = _structure_constants()
    return tuple(
        slot for slot in _ERRATA_ORDER
        if _disagreement(kp, slot, _evaluate(kp, table[slot])) is not None
    )


def diff_vs_tabulated(
    kp: KappaPair, computed: dict[tuple[str, str], dict[str, float]]
) -> list[dict]:
    """Slots where ``computed``, the table of :func:`computed_brackets`,
    disagrees with the published one.

    Only the ``ERRATA`` slots can disagree.  Of those, undefined-symbol slots
    are always flagged, and numeric slots when any coefficient differs by
    more than ``ALGEBRA_TOL`` at these labels.
    """
    diffs = []
    for slot in _ERRATA_ORDER:
        actual = computed[slot]
        claimed = _disagreement(kp, slot, actual)
        if claimed is not None:
            diffs.append({"bracket": list(slot), "computed": actual, "claimed": claimed})
    return diffs


def conformal_moebius(kp: KappaPair, tag: str, t: float) -> Mat2:
    """exp(t * generator) in closed form, the Moebius map it induces on the
    kappa2 plane (:meth:`Mat2.apply`)."""
    k2 = kp.kappa2
    zero = gc(0, 0, k2)
    one = gc(1, 0, k2)
    if tag == "G1":
        return Mat2(one, zero, gc(t, 0, k2), one)
    if tag == "G2":
        return Mat2(one, zero, gc(0, t, k2), one)
    if tag == "D":
        return Mat2(gc(math.exp(0.5 * t), 0, k2), zero, zero, gc(math.exp(-0.5 * t), 0, k2))
    if tag in SL2:
        return SL2[tag](kp, t).as_mat2()
    raise KeyError(f"unknown conformal generator {tag!r}")
