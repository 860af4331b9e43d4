"""The eight-dimensional Clifford algebra behind the motion groups.

A multivector holds its eight coefficients as a tuple of Python floats, in
the basis order (fixed everywhere, including the JSON encoding):

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
The table is the source of truth for all products.  The general product,
``Multivector.__mul__``, is one engine, :func:`_gather`, summing all 64 of
its terms on plain floats (the blade product of Dorst, Fontijne and Mann,
Geometric Algebra for Computer Science, 2007).  The sandwich
reverse(r) * a * r is not multiplied here: :func:`sandwich` checks its
multivectors and calls the float kernel :func:`spin.sandwich_parts`, the 28
terms of the two 64-term products that an even rotor and a vector can make
nonzero, on the rotor's four even parts, the plane-rotation closed form of
:func:`spin.axis_parts`, and the vector's three.  The linear operations
(sums, scaling, reversal, grade parts) are float loops over the 8 slots, so
the algebra needs no numpy.  The 2x2 matrix picture is only an oracle (it is
not faithful when kappa1 = 0, where s2 and s3check share a matrix).

s3check is a primitive basis element: "division by i" never happens as an
arithmetic operation, since i is a zero divisor whenever kappa2 <= 0.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .ckgeom import KappaPair
from .errors import (
    DegenerateAxis,
    DegeneratePlane,
    GradeError,
    KappaMismatch,
    NotAVector,
)
from .spin import axis_label, axis_parts, require_unit, sandwich_parts

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
_REVERSE_SIGNS = (1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0)

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


# (i, j, index into _coefficients by sign and monomial, result index) of the
# general product's 64 terms e_i * e_j, in the flat (i, j) order
_ALL_TERMS = tuple(
    (i, j, e1 + 2 * e2 + (4 if sign < 0 else 0), k)
    for i, row in enumerate(SYMBOLIC_TABLE)
    for j, (sign, e1, e2, k) in enumerate(row)
)


def _coefficients(kp: KappaPair) -> tuple[float, ...]:
    """(1, k1, k2, k1*k2) followed by their negations."""
    k1, k2 = kp.kappa1, kp.kappa2
    k12 = k1 * k2
    return (1.0, k1, k2, k12, -1.0, -k1, -k2, -k12)


def _gather(x, y, kp: KappaPair) -> list[float]:
    """The product of the coefficients x and y, each slot summed from +0.0
    over the 64 terms in (i, j) order.

    The coefficient product comes first, and a term is scaled by its
    monomial only when nonzero, so a zero term stays 0 where kappa1*kappa2
    is infinite; a zero term adds nothing to a sum that, started at +0.0,
    is never -0.0.
    """
    coef = _coefficients(kp)
    out = [0.0] * 8
    for i, j, m, k in _ALL_TERMS:
        t = x[i] * y[j]
        if t != 0.0:
            out[k] += t * coef[m]
    return out


class Multivector(NamedTuple("Multivector", [("kp", KappaPair), ("coeffs", tuple[float, ...])])):
    """Eight real coefficients over the documented basis order, held as a
    tuple of floats; ``==`` compares the labels and the coefficients."""

    __slots__ = ()

    def __new__(cls, kp: KappaPair, coeffs) -> "Multivector":
        # a str or a number is not 8 coefficients, nor are 8 rows of an array
        if (isinstance(coeffs, str) or not hasattr(coeffs, "__len__") or len(coeffs) != 8
                or any(hasattr(x, "__len__") for x in coeffs)):
            raise ValueError("need exactly 8 coefficients")
        return super().__new__(cls, kp, tuple(map(float, coeffs)))

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, kp: KappaPair) -> "Multivector":
        return cls(kp, (0.0,) * 8)

    @classmethod
    def scalar(cls, kp: KappaPair, value: float) -> "Multivector":
        return cls(kp, (value, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @classmethod
    def vector(cls, kp: KappaPair, a1: float, a2: float, a3: float) -> "Multivector":
        return cls(kp, (0.0, a1, a2, a3, 0.0, 0.0, 0.0, 0.0))

    @classmethod
    def bivector(cls, kp: KappaPair, b1: float, b2: float, b3: float) -> "Multivector":
        """b1*is1 + b2*is2 + b3*s3check."""
        return cls(kp, (0.0, 0.0, 0.0, 0.0, b1, b2, b3, 0.0))

    @classmethod
    def volume(cls, kp: KappaPair, value: float) -> "Multivector":
        return cls(kp, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, value))

    @classmethod
    def basis(cls, kp: KappaPair, index: int) -> "Multivector":
        c = [0.0] * 8
        c[index] = 1.0
        return cls(kp, c)

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "Multivector") -> None:
        if self.kp != other.kp:
            raise KappaMismatch(f"{self.kp} vs {other.kp}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.kp, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._check(other)
        return Multivector(self.kp, [x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Multivector":
        return Multivector(self.kp, [-x for x in self.coeffs])

    def __mul__(self, other: "Multivector | float") -> "Multivector":
        if isinstance(other, (int, float)):  # every slot, so 0 * inf is nan
            return Multivector(self.kp, [x * other for x in self.coeffs])
        self._check(other)
        return Multivector(self.kp, _gather(self.coeffs, other.coeffs, self.kp))

    __rmul__ = __mul__

    def reverse(self) -> "Multivector":
        """Reversal anti-automorphism: bivector and volume parts negate."""
        return Multivector(self.kp, [x * s for x, s in zip(self.coeffs, _REVERSE_SIGNS)])

    # -- grade bookkeeping ----------------------------------------------------

    def grade_part(self, grade: int) -> "Multivector":
        c = [x if g == grade else 0.0 for x, g in zip(self.coeffs, GRADES)]
        return Multivector(self.kp, c)

    def scalar_part(self) -> float:
        return self.coeffs[SCALAR]

    def vector_components(self) -> tuple[float, float, float]:
        return self.coeffs[S1:S3 + 1]

    def off_grade_norm(self, grades: tuple[int, ...]) -> float:
        """The largest |coefficient| outside grades; nan if any of them is nan."""
        outside = [abs(x) for x, g in zip(self.coeffs, GRADES) if g not in grades]
        return math.nan if any(map(math.isnan, outside)) else max(outside, default=0.0)

    def is_vector(self) -> bool:
        return self.off_grade_norm((1,)) == 0.0

    def is_bivector(self) -> bool:
        return self.off_grade_norm((2,)) == 0.0

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
    """The rotation label -B^2 of a plane element, in closed form (spin.axis_label)."""
    _require_bivector(b)
    return axis_label(b.kp, *b.coeffs[IS1:S3CHECK + 1])


class UnitAxis(NamedTuple("UnitAxis", [("n1", float), ("n2", float), ("n3", float)])):
    """Euclidean-normalized rotation axis coefficients."""

    __slots__ = ()

    def __new__(cls, n1: float, n2: float, n3: float) -> "UnitAxis":
        try:
            squares = n1**2 + n2**2 + n3**2
        except OverflowError:  # float ** raises where * would give inf
            squares = math.inf
        if squares < sys.float_info.min or squares == math.inf:
            # subnormal squares lose bits and huge ones overflow: normalize the
            # copy scaled by an exact power of two (an inf part stays inf)
            scale = 2.0**600 if squares < 1.0 else 2.0**-600
            n1, n2, n3 = (x * scale for x in (n1, n2, n3))
            squares = n1**2 + n2**2 + n3**2
        norm = math.sqrt(squares)
        if norm == 0.0 or not math.isfinite(norm):
            raise DegenerateAxis(f"axis norm {norm} must be nonzero and finite")
        return super().__new__(cls, n1 / norm, n2 / norm, n3 / norm)

    def __reduce__(self):
        # a copy or an unpickled axis keeps its coefficients: normalizing
        # them again could move the last bit
        return self._make, (tuple(self),)


def rotor_from_bivector(b: Multivector, phi: float) -> Multivector:
    """exp((phi/2) B) = cosk(x, phi/2) + B sink(x, phi/2), x = -B^2."""
    _require_bivector(b)
    return rotor(b.kp, b.coeffs[IS1:S3CHECK + 1], phi)


def rotor(kp: KappaPair, n: tuple[float, float, float], phi: float) -> Multivector:
    """The rotor about axis n, a UnitAxis or any triple (not normalized here), through
    angle phi: the parts of :func:`spin.axis_parts` in the slots :func:`sandwich` reads."""
    n1, n2, n3 = n
    a0, a1, b0, b1 = axis_parts(kp, n1, n2, n3, phi)
    # the fields are already a KappaPair and 8 floats: _make skips the checks
    return Multivector._make((kp, (a0, 0.0, 0.0, 0.0, a1, b1, b0, 0.0)))


def sandwich(r: Multivector, a: Multivector) -> Multivector:
    """Rotate a vector: reverse(r) * a * r.

    The rotor must be even and unit as the spin element (r0 + i*r_is1,
    r_s3check + i*r_is2).  The result is a rotated about the rotor's axis,
    with the same inner-product length; other grades are rounding of |r|^2 |a|.
    Checked in this order: r even, r unit, a a pure vector, the same labels;
    the product is :func:`spin.sandwich_parts`.
    """
    c0, c1, c2, c3, c4, c5, c6, c7 = r.coeffs
    if c1 != 0.0 or c2 != 0.0 or c3 != 0.0 or c7 != 0.0:  # `!=`: a nan is not a zero
        raise GradeError("rotor must be an even multivector")
    require_unit(r.kp, c0, c4, c6, c5)
    v0, v1, v2, v3, v4, v5, v6, v7 = a.coeffs
    if v0 != 0.0 or v4 != 0.0 or v5 != 0.0 or v6 != 0.0 or v7 != 0.0:
        raise GradeError(f"{a} is not a pure vector")
    r._check(a)
    out = sandwich_parts(r.kp, c0, c4, c6, c5, v1, v2, v3)
    # the slots are floats, so the vector is made without the constructor's checks
    return Multivector._make((r.kp, (0.0, *out, 0.0, 0.0, 0.0, 0.0)))


def axis_of(kp: KappaPair, n: UnitAxis) -> tuple[Multivector, str]:
    """A nonzero normal vector to the plane element of n, with its form tag.

    Normally i*(n.sigma) = (-kappa2*n1, -kappa2*n2, n3); when that vanishes
    (kappa2 = 0 and n3 = 0) the contraction form n1*s1 + n2*s2 is the normal.
    """
    i_form = Multivector.vector(
        kp, -kp.kappa2 * n.n1, -kp.kappa2 * n.n2, n.n3
    )
    if max(map(abs, i_form.coeffs)) > 0.0:
        return i_form, "i"
    return Multivector.vector(kp, n.n1, n.n2, 0.0), "1/i"


def plane_of(kp: KappaPair, n: UnitAxis) -> tuple[Multivector, Multivector, bool]:
    """Two vectors whose wedge is the plane element of n.

    Returns (e, f, substituted).  When kappa1 = 0 and n1 != 0 no factorization
    exists; the conventional substitute plane s3 ^ s2 (the t-x coordinate
    plane, which the rotation preserves) is returned with the flag set.
    Raises DegeneratePlane where e, which divides by kappa1, is not finite.
    """
    k1, n1, n2, n3 = kp.kappa1, n.n1, n.n2, n.n3
    if k1 != 0.0:
        va, vc = (k1 * n3, 0.0, n1), (0.0, n3, n2)
        # (e, f) with e ^ f = B: e is va or vb = (k1*n2, -n1, 0) divided by
        # k1 times the largest component, with k1 cancelled where it is a
        # factor, so that no subnormal product rounds the quotient
        which = max(range(3), key=lambda m: abs((n1, n2, n3)[m]))
        if which == 2:
            e, f = (1.0, 0.0, n1 / k1 / n3), vc
        elif which == 0:
            e, f = (n2 / n1, -1.0 / k1, 0.0), va
        else:
            e, f = (1.0, -n1 / k1 / n2, 0.0), vc
        if not all(map(math.isfinite, e)):
            raise DegeneratePlane(f"the plane of {n} at kappa1 = {k1} has no finite factor")
        return Multivector.vector(kp, *e), Multivector.vector(kp, *f), False
    if n1 == 0.0:
        return Multivector.basis(kp, S1), Multivector.vector(kp, 0.0, n3, n2), False
    return (
        Multivector.basis(kp, S3),
        Multivector.basis(kp, S2),
        True,
    )
