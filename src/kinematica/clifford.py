"""The eight-dimensional Clifford algebra behind the motion groups.

Basis order (fixed everywhere, including the JSON encoding):

    index 0: 1        scalar
    index 1: s1       |  vectors; s1^2 = 1, s2^2 = kappa1,
    index 2: s2       |  s3^2 = kappa1*kappa2
    index 3: s3       |
    index 4: i*s1     |  bivectors; squares -kappa2, -kappa1*kappa2,
    index 5: i*s2     |  -kappa1
    index 6: s3check  |  (the element written s3/i: i*s3check = s3)
    index 7: i        volume element, central, i^2 = -kappa2

The product table is derived once symbolically from the generator relations
s1^2 = 1, s2^2 = kappa1, s1*s2 = -s2*s1 = s3check, i central with
i^2 = -kappa2: every basis element is a reduced word i^a s1^b s2^c, and word
multiplication only ever produces a sign times a monomial kappa1^e1 *
kappa2^e2, so each row of the table is a signed permutation of the basis.
The table is the source of truth for all products, which gather its 64
signed monomial terms directly (the blade product of Dorst, Fontijne and
Mann, Geometric Algebra for Computer Science, 2007); the 2x2 matrix picture
is only an oracle (it is not faithful when kappa1 = 0, where s2 and s3check
share a matrix).

s3check is a primitive basis element: "division by i" never happens as an
arithmetic operation, since i is a zero divisor whenever kappa2 <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ckgeom import KappaPair
from .errors import (
    DegenerateAxis,
    DegeneratePlane,
    GradeError,
    KappaMismatch,
    NotAVector,
    NotUnitRotor,
)
from .gentrig import cosk_sink

BASIS_LABELS = ("1", "s1", "s2", "s3", "is1", "is2", "s3check", "i")

# reduced word i^a s1^b s2^c for each basis index
_WORDS = (
    (0, 0, 0),  # 1
    (0, 1, 0),  # s1
    (0, 0, 1),  # s2
    (1, 1, 1),  # s3 = i s1 s2
    (1, 1, 0),  # i s1
    (1, 0, 1),  # i s2
    (0, 1, 1),  # s3check = s1 s2
    (1, 0, 0),  # i
)
_WORD_INDEX = {w: idx for idx, w in enumerate(_WORDS)}

GRADES = (0, 1, 1, 1, 2, 2, 2, 3)
_REVERSE_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])

SCALAR, S1, S2, S3, IS1, IS2, S3CHECK, VOLUME = range(8)


def _symbolic_entry(i: int, j: int) -> tuple[int, int, int, int]:
    """(sign, kappa1 exponent, kappa2 exponent, result index) for e_i * e_j."""
    a1, b1, c1 = _WORDS[i]
    a2, b2, c2 = _WORDS[j]
    sign = -1 if (c1 and b2) else 1  # s2 past s1 anticommutes
    e1 = 1 if (c1 and c2) else 0     # s2*s2 = kappa1
    e2 = 1 if (a1 and a2) else 0     # i*i = -kappa2
    if e2:
        sign = -sign
    word = ((a1 + a2) % 2, (b1 + b2) % 2, (c1 + c2) % 2)
    return sign, e1, e2, _WORD_INDEX[word]


SYMBOLIC_TABLE = tuple(
    tuple(_symbolic_entry(i, j) for j in range(8)) for i in range(8)
)


# SYMBOLIC_TABLE flattened in (i, j) order: the sign of each e_i * e_j, which
# monomial 1, kappa1, kappa2, kappa1*kappa2 it carries, and its result index
_TERMS = [entry for row in SYMBOLIC_TABLE for entry in row]
_PRODUCT_SIGN = np.array([float(sign) for sign, _, _, _ in _TERMS])
_PRODUCT_MONOMIAL = np.array([e1 + 2 * e2 for _, e1, e2, _ in _TERMS])
_PRODUCT_INDEX = np.array([k for _, _, _, k in _TERMS])


@dataclass(frozen=True, eq=False)
class Multivector:
    """Eight real coefficients over the documented basis order.

    Compared with :meth:`approx_eq`; ``==`` is identity (ndarray field).
    """

    kp: KappaPair
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError("need exactly 8 coefficients")
        object.__setattr__(self, "coeffs", c)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, kp: KappaPair) -> "Multivector":
        return cls(kp, np.zeros(8))

    @classmethod
    def scalar(cls, kp: KappaPair, value: float) -> "Multivector":
        c = np.zeros(8)
        c[SCALAR] = value
        return cls(kp, c)

    @classmethod
    def vector(cls, kp: KappaPair, a1: float, a2: float, a3: float) -> "Multivector":
        c = np.zeros(8)
        c[S1], c[S2], c[S3] = a1, a2, a3
        return cls(kp, c)

    @classmethod
    def bivector(cls, kp: KappaPair, b1: float, b2: float, b3: float) -> "Multivector":
        """b1*is1 + b2*is2 + b3*s3check."""
        c = np.zeros(8)
        c[IS1], c[IS2], c[S3CHECK] = b1, b2, b3
        return cls(kp, c)

    @classmethod
    def volume(cls, kp: KappaPair, value: float) -> "Multivector":
        c = np.zeros(8)
        c[VOLUME] = value
        return cls(kp, c)

    @classmethod
    def basis(cls, kp: KappaPair, index: int) -> "Multivector":
        c = np.zeros(8)
        c[index] = 1.0
        return cls(kp, c)

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "Multivector") -> None:
        if self.kp != other.kp:
            raise KappaMismatch(f"{self.kp} vs {other.kp}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.kp, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.kp, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(self.kp, -self.coeffs)

    def __mul__(self, other: "Multivector | float") -> "Multivector":
        if isinstance(other, (int, float)):
            return Multivector(self.kp, self.coeffs * other)
        self._check(other)
        k1, k2 = self.kp.kappa1, self.kp.kappa2
        k12 = k1 * k2
        coef = np.array([1.0, k1, k2, k12])[_PRODUCT_MONOMIAL] * _PRODUCT_SIGN
        terms = (self.coeffs[:, None] * other.coeffs).ravel()
        if math.isfinite(k12):
            terms *= coef
        else:  # a zero term stays 0 where 0 * inf would be nan
            nonzero = terms != 0.0
            terms[nonzero] *= coef[nonzero]
        return Multivector(
            self.kp, np.bincount(_PRODUCT_INDEX, terms, minlength=8)
        )

    def __rmul__(self, other: float) -> "Multivector":
        return Multivector(self.kp, self.coeffs * other)

    def reverse(self) -> "Multivector":
        """Reversal anti-automorphism: bivector and volume parts negate."""
        return Multivector(self.kp, self.coeffs * _REVERSE_SIGNS)

    # -- grade bookkeeping ----------------------------------------------------

    def grade_part(self, grade: int) -> "Multivector":
        mask = np.array([1.0 if g == grade else 0.0 for g in GRADES])
        return Multivector(self.kp, self.coeffs * mask)

    def scalar_part(self) -> float:
        return float(self.coeffs[SCALAR])

    def vector_components(self) -> np.ndarray:
        return self.coeffs[[S1, S2, S3]].copy()

    def off_grade_norm(self, grades: tuple[int, ...]) -> float:
        mask = np.array([0.0 if g in grades else 1.0 for g in GRADES])
        return float(np.max(np.abs(self.coeffs * mask)))

    def is_vector(self) -> bool:
        return self.off_grade_norm((1,)) == 0.0

    def is_bivector(self) -> bool:
        return self.off_grade_norm((2,)) == 0.0

    def is_even(self) -> bool:
        return self.off_grade_norm((0, 2)) == 0.0

    def approx_eq(self, other: "Multivector", tol: float = 1e-12) -> bool:
        self._check(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __str__(self) -> str:
        terms = [
            f"{c:+g}*{label}"
            for c, label in zip(self.coeffs, BASIS_LABELS)
            if c != 0.0
        ]
        return " ".join(terms) if terms else "0"


def _require_vector(a: Multivector) -> None:
    if not a.is_vector():
        raise NotAVector(f"{a} is not a pure vector")


def _require_bivector(b: Multivector) -> None:
    if not b.is_bivector():
        raise GradeError(f"{b} is not a pure bivector")


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Antisymmetrized product (ab - ba)/2 of two vectors: a bivector."""
    _require_vector(a)
    _require_vector(b)
    return (a * b - b * a) * 0.5


def ck_dot(a: Multivector, b: Multivector) -> float:
    """Inner product (ab + ba)/2 = a1*b1 + kappa1*a2*b2 + kappa1*kappa2*a3*b3."""
    _require_vector(a)
    _require_vector(b)
    return ((a * b + b * a) * 0.5).scalar_part()


def left_contract(a: Multivector, b: Multivector) -> Multivector:
    """Left contraction (aB - Ba)/2 of a vector by a bivector: a vector.

    When B = b ^ c this equals (a.b)c - (a.c)b; degenerate inner products
    make it possible for a nonzero vector to contract its own plane to zero.
    """
    _require_vector(a)
    _require_bivector(b)
    return (a * b - b * a) * 0.5


def bivector_kappa(b: Multivector) -> float:
    """The rotation label of a plane element: the scalar -B^2.

    For B = n1*is1 + n2*is2 + n3*s3check this is
    n1^2*kappa2 + n2^2*kappa1*kappa2 + n3^2*kappa1.
    """
    _require_bivector(b)
    return -(b * b).scalar_part()


@dataclass(frozen=True)
class UnitAxis:
    """Euclidean-normalized rotation axis coefficients."""

    n1: float
    n2: float
    n3: float

    def __post_init__(self) -> None:
        try:
            norm = math.sqrt(self.n1**2 + self.n2**2 + self.n3**2)
        except OverflowError:  # float ** raises where * would give inf
            raise DegenerateAxis(
                f"axis ({self.n1}, {self.n2}, {self.n3}) overflows when squared"
            ) from None
        if norm == 0.0 or not math.isfinite(norm):
            raise DegenerateAxis(f"axis norm {norm} must be nonzero and finite")
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(self, "n1", self.n1 / norm)
            object.__setattr__(self, "n2", self.n2 / norm)
            object.__setattr__(self, "n3", self.n3 / norm)


def axis_bivector(kp: KappaPair, n: UnitAxis) -> Multivector:
    """n1*is1 + n2*is2 + n3*s3check."""
    return Multivector.bivector(kp, n.n1, n.n2, n.n3)


def rotor_from_bivector(b: Multivector, phi: float) -> Multivector:
    """exp((phi/2) B) = cosk(x, phi/2) + B sink(x, phi/2), x = -B^2."""
    _require_bivector(b)
    x = bivector_kappa(b)
    c, s = cosk_sink(x, 0.5 * phi)
    return Multivector.scalar(b.kp, c) + b * s


def rotor(kp: KappaPair, n: UnitAxis, phi: float) -> Multivector:
    """The rotor about axis n through angle phi."""
    return rotor_from_bivector(axis_bivector(kp, n), phi)


def sandwich(r: Multivector, a: Multivector) -> Multivector:
    """Rotate a vector: reverse(r) * a * r.

    The rotor must be even and of unit pseudo-norm (r * reverse(r) = 1); the
    result is the input rotated about the rotor's axis, with the same
    inner-product length.
    """
    if not r.is_even():
        raise GradeError("rotor must be an even multivector")
    unit = (r * r.reverse()).scalar_part()
    # written `not x <= bound` so that a nan passes neither check
    if not abs(unit - 1.0) <= 1e-8:
        raise NotUnitRotor(f"rotor pseudo-norm {unit} != 1")
    if not a.is_vector():
        raise GradeError(f"{a} is not a pure vector")
    out = r.reverse() * a * r
    if not out.off_grade_norm((1,)) <= 1e-9:
        raise GradeError("sandwich result is not a vector")
    return out.grade_part(1)


def in_plane_rotation_check(
    kp: KappaPair, a: Multivector, b: Multivector, phi: float
) -> tuple[Multivector, Multivector]:
    """Sandwich of a by exp((phi/2) a^b) next to its in-plane closed form.

    Returns (sandwich result, [cosk(x, phi) - (a^b) sink(x, phi)] a); the two
    agree because a anticommutes with the plane element it spans.
    """
    plane = wedge(a, b)
    if float(np.max(np.abs(plane.coeffs))) == 0.0:
        raise DegeneratePlane("a ^ b = 0 spans no plane element")
    x = bivector_kappa(plane)
    r = rotor_from_bivector(plane, phi)
    c, s = cosk_sink(x, phi)
    closed = (Multivector.scalar(kp, c) - plane * s) * a
    return sandwich(r, a), closed.grade_part(1)


def axis_of(kp: KappaPair, n: UnitAxis) -> tuple[Multivector, str]:
    """A nonzero normal vector to the plane element of n, with its form tag.

    Normally i*(n.sigma) = (-kappa2*n1, -kappa2*n2, n3); when that vanishes
    (kappa2 = 0 and n3 = 0) the contraction form n1*s1 + n2*s2 is the normal.
    """
    i_form = Multivector.vector(
        kp, -kp.kappa2 * n.n1, -kp.kappa2 * n.n2, n.n3
    )
    if float(np.max(np.abs(i_form.coeffs))) > 0.0:
        return i_form, "i"
    return Multivector.vector(kp, n.n1, n.n2, 0.0), "1/i"


def plane_of(kp: KappaPair, n: UnitAxis) -> tuple[Multivector, Multivector, bool]:
    """Two vectors whose wedge is the plane element of n.

    Returns (e, f, substituted).  When kappa1 = 0 and n1 != 0 no factorization
    exists; the conventional substitute plane s3 ^ s2 (the t-x coordinate
    plane, which the rotation preserves) is returned with the flag set.
    """
    k1 = kp.kappa1
    if k1 != 0.0:
        va = Multivector.vector(kp, k1 * n.n3, 0.0, n.n1)
        vb = Multivector.vector(kp, k1 * n.n2, -n.n1, 0.0)
        vc = Multivector.vector(kp, 0.0, n.n3, n.n2)
        # (e, f) with e ^ f = B, scaling the largest available component
        which = max(range(3), key=lambda m: abs((n.n1, n.n2, n.n3)[m]))
        if which == 2:
            return va * (1.0 / (k1 * n.n3)), vc, False
        if which == 0:
            return vb * (1.0 / (k1 * n.n1)), va, False
        return vb * (1.0 / (k1 * n.n2)), vc, False
    if n.n1 == 0.0:
        vc = Multivector.vector(kp, 0.0, n.n3, n.n2)
        return Multivector.basis(kp, S1), vc, False
    return (
        Multivector.basis(kp, S3),
        Multivector.basis(kp, S2),
        True,
    )
