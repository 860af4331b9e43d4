"""Generalized complex numbers and their Moebius geometry.

``GenComplex`` is an element u + i*v of the two-dimensional real algebra with
i**2 = -kappa: ordinary complex numbers for kappa > 0, dual numbers for
kappa = 0, double (split-complex) numbers for kappa < 0.  The squared modulus
sqmod(w) = re**2 + kappa*im**2 equals w * conj(w); when kappa <= 0 it can
vanish on nonzero elements, and those zero divisors are exactly the
non-invertible directions (the null cone of the plane geometries built on
top of this algebra).  Every layer leaves that decision to ``inv`` and
``is_zero_divisor``, or, on float parts, to ``_inverse_parts``, through which
both go and which ``ckgeom.distance`` calls: it is taken once, on the
power-of-two-scaled modulus where the plain one may be inexact.

Values carrying different kappa labels never mix: arithmetic between them
raises ``KappaMismatch`` instead of silently coercing.

``Mat2`` is the one 2x2 matrix type over the algebra.  The same object is a
Spin(3) element, a conformal generator and, through :meth:`Mat2.apply`, the
Moebius map w -> (a*w + b)/(c*w + d).  ``MoebiusMap`` is a ``Mat2`` whose
determinant is checked to be invertible; a plain ``Mat2`` carries no such
check, since conformal generators such as G1 and G2 are singular.
``GammaPoint`` is the projective completion: a homogeneous pair [u : v] on
which every Moebius map acts globally, including at points with zero-divisor
coordinates that no affine w can represent.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    AtInfinity,
    DivisionByZero,
    InadmissiblePoint,
    KappaMismatch,
    ZeroDivisorError,
)
from .gentrig import cosk_sink


def _check_same_kappa(k1: float, k2: float) -> None:
    if k1 != k2:
        raise KappaMismatch(f"kappa labels differ: {k1} vs {k2}")


def _is_plain(s: float, kappa: float) -> bool:
    # the plain sqmod s is exact to rounding: a normal float, and not formed
    # from a subnormal label, whose product kappa*im can lose bits to
    # underflow before the second *im
    return 2.0**-1022 <= abs(s) < math.inf and not 0.0 < abs(kappa) < 2.0**-1022


def _times_pow2(x: float, k: int, s: float = 1.0) -> float:
    """x * 2**k / s for 0 < |s| < 2, rounded once in the normal range and +-inf
    beyond it: the division comes before a scaling down and after a scaling
    up, which goes by 2**(k-1) over s/2 so that no finite result overflows."""
    if k <= 0:
        return math.ldexp(x / s, k)
    try:
        return math.ldexp(x, k - 1) / (0.5 * s)
    except OverflowError:
        return math.copysign(math.inf, x) / s


# math.frexp under this layer's name, for ckgeom's scalings: frexp and ldexp stay here
_split_pow2 = math.frexp


def _scaled_parts(re: float, im: float, kappa: float) -> tuple[float, float, float, int]:
    """(re, im, s, k): the parts of w / 2**k and s = sqmod(w) / 4**k, w = re + i*im.

    k is read off the exponents of the nonzero terms re**2 and kappa*im**2,
    so the larger lies in [1/16, 1) and s neither underflows nor overflows;
    at kappa = 0 the im term is left out, where 0*inf would be nan.
    """
    k = math.frexp(re)[1]
    if im and kappa:
        k_im = math.frexp(im)[1] + (math.frexp(kappa)[1] + 1) // 2
        k = max(k, k_im) if re else k_im
    re, im = math.ldexp(re, -k), _times_pow2(im, -k)
    s = re * re + kappa * im * im if kappa else re * re
    return re, im, s, k


def _inverse_parts(re: float, im: float, kappa: float) -> tuple[float, float] | None:
    """The parts of 1/w = conj(w)/sqmod(w), w = re + i*im, or None where w is 0
    or a zero divisor: the one invertibility decision, on float parts.

    Where the plain sqmod may be inexact (:func:`_is_plain`), 1/w is
    (1/(w/2**k)) / 2**k, which overflows to inf only where 1/w is beyond the
    float range, and w is a zero divisor where the scaled sqmod is 0.
    """
    s = re * re + kappa * im * im
    if _is_plain(s, kappa):
        return re / s, -im / s
    if re == 0.0 and im == 0.0:
        return None
    re, im, s, k = _scaled_parts(re, im, kappa)
    if s == 0.0:
        return None
    return _times_pow2(re, -k, s), _times_pow2(-im, -k, s)


class GenComplex(NamedTuple):
    """An element re + i*im of the algebra with i**2 = -kappa."""

    re: float
    im: float
    kappa: float

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "GenComplex | float") -> "GenComplex":
        other = self._coerce(other)
        return GenComplex(self.re + other.re, self.im + other.im, self.kappa)

    def __radd__(self, other: float) -> "GenComplex":
        return self.__add__(other)

    def __sub__(self, other: "GenComplex | float") -> "GenComplex":
        other = self._coerce(other)
        return GenComplex(self.re - other.re, self.im - other.im, self.kappa)

    def __rsub__(self, other: float) -> "GenComplex":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "GenComplex":
        return GenComplex(-self.re, -self.im, self.kappa)

    def __mul__(self, other: "GenComplex | float") -> "GenComplex":
        if isinstance(other, (int, float)):
            return GenComplex(self.re * other, self.im * other, self.kappa)
        _check_same_kappa(self.kappa, other.kappa)
        return GenComplex(
            self.re * other.re - self.kappa * self.im * other.im,
            self.re * other.im + other.re * self.im,
            self.kappa,
        )

    def __rmul__(self, other: float) -> "GenComplex":
        return self.__mul__(other)

    def _coerce(self, other: "GenComplex | float") -> "GenComplex":
        if isinstance(other, (int, float)):
            return GenComplex(float(other), 0.0, self.kappa)
        _check_same_kappa(self.kappa, other.kappa)
        return other

    # -- involution and modulus -------------------------------------------

    def conj(self) -> "GenComplex":
        return GenComplex(self.re, -self.im, self.kappa)

    def sqmod(self) -> float:
        """Squared modulus re**2 + kappa*im**2 = w * conj(w)."""
        return self.re * self.re + self.kappa * self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0.0 and self.im == 0.0

    def is_zero_divisor(self) -> bool:
        """Nonzero with vanishing squared modulus (possible iff kappa <= 0),
        decided by :func:`_inverse_parts`."""
        return not self.is_zero() and _inverse_parts(*self) is None

    def inv(self) -> "GenComplex":
        """Multiplicative inverse conj(w)/sqmod(w), formed by :func:`_inverse_parts`.

        Raises:
            DivisionByZero: for the zero element.
            ZeroDivisorError: for a zero divisor (:meth:`is_zero_divisor`).
        """
        parts = _inverse_parts(*self)
        if parts is None:
            if self.is_zero():
                raise DivisionByZero("inverse of 0")
            raise ZeroDivisorError(f"{self} is a zero divisor")
        return GenComplex(*parts, self.kappa)

    def __str__(self) -> str:
        return f"({self.re} + {self.im}i | i^2 = {-self.kappa})"


def gc(re: float, im: float, kappa: float) -> GenComplex:
    """Shorthand constructor."""
    return GenComplex(float(re), float(im), float(kappa))


def gc_exp_unit(kappa: float, phi: float) -> GenComplex:
    """The unit exponential cosk(kappa, phi) + i*sink(kappa, phi).

    Lies on the unit circle of the algebra: sqmod = 1 exactly up to rounding,
    and exponents add under multiplication.
    """
    return GenComplex(*cosk_sink(kappa, phi), kappa)


# -- 2x2 matrices and Moebius maps -------------------------------------------


class Mat2(NamedTuple("Mat2", [("a", GenComplex), ("b", GenComplex),
                               ("c", GenComplex), ("d", GenComplex)])):
    """A 2x2 matrix [[a, b], [c, d]] over one generalized complex algebra."""

    __slots__ = ()

    def __new__(cls, a: GenComplex, b: GenComplex, c: GenComplex, d: GenComplex) -> "Mat2":
        for entry in (b, c, d):
            _check_same_kappa(a.kappa, entry.kappa)
        return super().__new__(cls, a, b, c, d)

    @property
    def kappa(self) -> float:
        return self.a.kappa

    @classmethod
    def identity(cls, kappa: float) -> "Mat2":
        one = gc(1, 0, kappa)
        zero = gc(0, 0, kappa)
        return cls(one, zero, zero, one)

    @classmethod
    def zero(cls, kappa: float) -> "Mat2":
        z = gc(0, 0, kappa)
        return cls(z, z, z, z)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d
        )

    def __matmul__(self, other: "Mat2") -> "Mat2":
        """Matrix product; as Moebius maps, self after other."""
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def scale(self, factor: "GenComplex | float") -> "Mat2":
        return Mat2(
            self.a * factor, self.b * factor, self.c * factor, self.d * factor
        )

    def star(self) -> "Mat2":
        """Conjugate transpose."""
        return Mat2(self.a.conj(), self.c.conj(), self.b.conj(), self.d.conj())

    def det(self) -> GenComplex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> GenComplex:
        return self.a + self.d

    def commutator(self, other: "Mat2") -> "Mat2":
        return self @ other - other @ self

    def max_abs(self) -> float:
        """The largest |part| of the four entries; nan if any part is nan."""
        parts = [abs(v) for e in (self.a, self.b, self.c, self.d) for v in (e.re, e.im)]
        return math.nan if any(map(math.isnan, parts)) else max(parts)

    def apply(self, w: GenComplex) -> GenComplex:
        """Evaluate the Moebius map (a*w + b)/(c*w + d) at an affine point.

        Raises:
            AtInfinity: when c*w + d is not invertible; lift to a GammaPoint
                and use :func:`gamma_apply` to act there.
        """
        _check_same_kappa(self.kappa, w.kappa)
        den = self.c * w + self.d
        if den.is_zero() or den.is_zero_divisor():
            raise AtInfinity(f"{w} maps outside the affine plane")
        return (self.a * w + self.b) * den.inv()

    def inverse(self) -> "Mat2":
        """The adjugate: the inverse Moebius map (projectively, up to det)."""
        return Mat2(self.d, -self.b, -self.c, self.a)


class MoebiusMap(Mat2):
    """A ``Mat2`` with invertible determinant, used as w -> (a*w + b)/(c*w + d)."""

    __slots__ = ()

    def __new__(cls, a: GenComplex, b: GenComplex, c: GenComplex, d: GenComplex) -> "MoebiusMap":
        m = super().__new__(cls, a, b, c, d)
        det = m.det()
        if det.is_zero() or det.is_zero_divisor():
            raise ValueError("Moebius matrix determinant must be invertible")
        return m


# -- projective completion ---------------------------------------------------


class GammaPoint(NamedTuple("GammaPoint", [("u", GenComplex), ("v", GenComplex)])):
    """Homogeneous pair [u : v] over the algebra, up to invertible scaling.

    Admissible iff no single nonzero algebra element annihilates both
    components, i.e. the stacked real multiplication matrices of u and v have
    trivial common kernel (rank 2).  This is the branch-free version of
    "(u, v) generates the unit ideal" and works for every kappa.
    """

    __slots__ = ()

    def __new__(cls, u: GenComplex, v: GenComplex) -> "GammaPoint":
        _check_same_kappa(u.kappa, v.kappa)
        return super().__new__(cls, u, v)

    @property
    def kappa(self) -> float:
        return self.u.kappa

    def is_admissible(self) -> bool:
        """Rank 2, read off the 2x2 minors of [[u0, -kappa*u1], [u1, u0],
        [v0, -kappa*v1], [v1, v0]]: up to sign and a factor kappa they are
        sqmod(u), sqmod(v), u0*v0 + kappa*u1*v1 and u1*v0 - u0*v1, here
        evaluated exactly.  A pair with a non-finite component is no point."""
        from fractions import Fraction  # loaded here, off the path of every request

        parts = (self.u.re, self.u.im, self.v.re, self.v.im, self.kappa)
        if not all(map(math.isfinite, parts)):
            return False
        u0, u1, v0, v1, k = map(Fraction, parts)
        return any((u0 * u0 + k * u1 * u1, v0 * v0 + k * v1 * v1,
                    u0 * v0 + k * u1 * v1, u1 * v0 - u0 * v1))

    def to_affine(self) -> GenComplex:
        """Project back to the plane as u * v^-1 (v must be invertible)."""
        if self.v.is_zero() or self.v.is_zero_divisor():
            raise AtInfinity(f"[{self.u} : {self.v}] has no affine image")
        return self.u * self.v.inv()


def gamma_lift(w: GenComplex) -> GammaPoint:
    """Embed an affine point as [w : 1]."""
    return GammaPoint(w, gc(1, 0, w.kappa))


def gamma_apply(m: Mat2, p: GammaPoint) -> GammaPoint:
    """Act on the completion by the linear action on homogeneous pairs.

    Total on admissible points; raises InadmissiblePoint if the image pair
    fails admissibility rather than normalizing it away.
    """
    if not p.is_admissible():
        raise InadmissiblePoint(f"[{p.u} : {p.v}] is not admissible")
    image = GammaPoint(m.a * p.u + m.b * p.v, m.c * p.u + m.d * p.v)
    if not image.is_admissible():
        raise InadmissiblePoint(f"image [{image.u} : {image.v}] is not admissible")
    return image
