"""The six-dimensional conformal algebra extending the motion algebra.

The traceless 2x2 matrices over the kappa2 algebra form a six-dimensional
real Lie algebra spanned by the motion generators H, P, K together with a
dilation D and two special maps G1, G2 whose Moebius actions are
w -> w/(t*w + 1), w -> w/(t*i*w + 1), and w -> e^t * w.  G1 and G2 are only
translations in the flat (kappa1 = 0) realization; in general their actions
need the projective completion to act globally.

``computed_brackets`` decomposes every commutator over the six-generator
basis from the matrices themselves.  ``TABULATED_BRACKETS`` keeps the
published form of the same table verbatim as claimed data: it contains an
undefined symbol "S2" in the [K, G1] slots and a mislabeled [K, G2] entry,
and ``diff_vs_tabulated`` reports those discrepancies instead of silently
correcting either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ckgeom import KappaPair
from .errors import DecompositionFailure
from .gencomplex import Mat2, gc
from .spin import SL2, so3_matrix_generators

GENERATOR_TAGS = ("H", "P", "K", "G1", "G2", "D")


@dataclass(frozen=True)
class ConformalGenerator:
    tag: str
    matrix: Mat2


def conformal_basis(kp: KappaPair) -> dict[str, ConformalGenerator]:
    """The six generators as matrices over the kappa2 algebra."""
    k2 = kp.kappa2
    h, p, k = so3_matrix_generators(kp)
    zero = gc(0, 0, k2)
    g1 = Mat2(zero, zero, gc(1, 0, k2), zero)
    g2 = Mat2(zero, zero, gc(0, 1, k2), zero)
    d = Mat2(gc(0.5, 0, k2), zero, zero, gc(-0.5, 0, k2))
    mats = {"H": h, "P": p, "K": k, "G1": g1, "G2": g2, "D": d}
    return {tag: ConformalGenerator(tag, mats[tag]) for tag in GENERATOR_TAGS}


def decompose(kp: KappaPair, m: Mat2, tol: float = 1e-12) -> dict[str, float]:
    """Coefficients of a traceless matrix over {H, P, K, G1, G2, D}.

    Writing m = [[a, b], [c, -a]], the basis triangularizes: H and P alone
    carry the b entry, so x_H = 2*Re(b), x_P = 2*Im(b), then K and D read off
    a and G1, G2 absorb what remains of c.

    Raises:
        DecompositionFailure: if the residual exceeds ``tol`` (m not in the
            span, e.g. not traceless).
    """
    coeffs = {
        "H": 2.0 * m.b.re,
        "P": 2.0 * m.b.im,
        "K": 2.0 * m.a.im,
        "G1": m.c.re + kp.kappa1 * m.b.re,
        "G2": m.c.im - kp.kappa1 * m.b.im,
        "D": 2.0 * m.a.re,
    }
    basis = conformal_basis(kp)
    recon = Mat2.zero(kp.kappa2)
    for tag, value in coeffs.items():
        recon = recon + basis[tag].matrix.scale(value)
    if (recon - m).max_abs() > tol:
        raise DecompositionFailure(
            f"residual {(recon - m).max_abs()} over the six-generator span"
        )
    return coeffs


def conformal_bracket(
    kp: KappaPair, x: ConformalGenerator, y: ConformalGenerator
) -> tuple[Mat2, dict[str, float]]:
    """Matrix commutator [x, y] and its basis decomposition."""
    bracket = x.matrix.commutator(y.matrix)
    return bracket, decompose(kp, bracket)


def computed_brackets(kp: KappaPair) -> dict[tuple[str, str], dict[str, float]]:
    """All brackets [row, col] decomposed over the basis, zeros dropped."""
    basis = conformal_basis(kp)
    out = {}
    for row in GENERATOR_TAGS:
        for col in GENERATOR_TAGS:
            _, coeffs = conformal_bracket(kp, basis[row], basis[col])
            out[(row, col)] = {t: v for t, v in coeffs.items() if v != 0.0}
    return out


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


def _evaluate_claimed(entry: dict, kp: KappaPair) -> dict[str, float]:
    out = {}
    for tag, (c0, c1, c2) in entry.items():
        value = c0 + c1 * kp.kappa1 + c2 * kp.kappa2
        if value != 0.0:
            out[tag] = float(value)
    return out


def tabulated_bracket(kp: KappaPair, row: str, col: str):
    """Claimed entry for [row, col]; 'S2' where the symbol is undefined."""
    if row == col:
        return {}
    if (row, col) in TABULATED_BRACKETS:
        entry = TABULATED_BRACKETS[(row, col)]
        if entry == "S2":
            return "S2"
        return _evaluate_claimed(entry, kp)
    entry = TABULATED_BRACKETS[(col, row)]
    if entry == "S2":
        return "S2"
    return {t: -v for t, v in _evaluate_claimed(entry, kp).items()}


def diff_vs_tabulated(
    kp: KappaPair,
    computed: dict[tuple[str, str], dict[str, float]],
    tol: float = 1e-12,
) -> list[dict]:
    """Slots where ``computed``, the table of :func:`computed_brackets`,
    disagrees with the published one.

    Undefined-symbol slots are always flagged; numeric slots are flagged when
    any coefficient differs by more than ``tol``.
    """
    diffs = []
    for row in GENERATOR_TAGS:
        for col in GENERATOR_TAGS:
            if row == col:
                continue
            claimed = tabulated_bracket(kp, row, col)
            actual = computed[(row, col)]
            if claimed == "S2":
                diffs.append(
                    {
                        "bracket": [row, col],
                        "computed": actual,
                        "claimed": "S2 (undefined symbol)",
                    }
                )
                continue
            tags = set(claimed) | set(actual)
            if any(
                abs(claimed.get(t, 0.0) - actual.get(t, 0.0)) > tol for t in tags
            ):
                diffs.append(
                    {"bracket": [row, col], "computed": actual, "claimed": claimed}
                )
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
