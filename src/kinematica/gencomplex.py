"""Generalized complex numbers and their Moebius geometry.

``GenComplex`` is an element u + i*v of the two-dimensional real algebra with
i**2 = -kappa: ordinary complex numbers for kappa > 0, dual numbers for
kappa = 0, double (split-complex) numbers for kappa < 0.  The squared modulus
sqmod(w) = re**2 + kappa*im**2 equals w * conj(w); when kappa <= 0 it can
vanish on nonzero elements, and those zero divisors are exactly the
non-invertible directions (the null cone of the plane geometries built on
top of this algebra).

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
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtInfinity,
    DivisionByZero,
    InadmissiblePoint,
    KappaMismatch,
    ZeroDivisorError,
)
from .gentrig import cosk, sink


def _check_same_kappa(k1: float, k2: float) -> None:
    if k1 != k2:
        raise KappaMismatch(f"kappa labels differ: {k1} vs {k2}")


@dataclass(frozen=True)
class GenComplex:
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
        """Nonzero with vanishing squared modulus (possible iff kappa <= 0)."""
        return not self.is_zero() and self.sqmod() == 0.0

    def inv(self) -> "GenComplex":
        """Multiplicative inverse conj(w)/sqmod(w).

        Raises:
            DivisionByZero: for the zero element.
            ZeroDivisorError: for a nonzero element with sqmod = 0.
        """
        if self.is_zero():
            raise DivisionByZero("inverse of 0")
        s = self.sqmod()
        if not math.isfinite(s):
            return self._inv_scaled()
        if s == 0.0:
            raise ZeroDivisorError(f"{self} is a zero divisor")
        return GenComplex(self.re / s, -self.im / s, self.kappa)

    def _inv_scaled(self) -> "GenComplex":
        # sqmod overflowed: invert w / 2**k, whose larger term re**2 or
        # kappa*im**2 is below 4, and scale back, since 1/w = (1/(w/2**k)) / 2**k;
        # power-of-two scalings are exact.  k is read off the exponents, as
        # sqrt(|kappa|)*|im| may overflow too.
        k = math.frexp(self.re)[1]
        if self.kappa:
            k = max(k, math.frexp(self.im)[1] + (math.frexp(self.kappa)[1] + 1) // 2)
        re, im = math.ldexp(self.re, -k), math.ldexp(self.im, -k)
        s = re * re + self.kappa * im * im
        if s == 0.0:
            raise ZeroDivisorError(f"{self} is a zero divisor")
        return GenComplex(math.ldexp(re / s, -k), math.ldexp(-im / s, -k), self.kappa)

    def approx_eq(self, other: "GenComplex", tol: float = 1e-12) -> bool:
        _check_same_kappa(self.kappa, other.kappa)
        return abs(self.re - other.re) <= tol and abs(self.im - other.im) <= tol

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
    return GenComplex(cosk(kappa, phi), sink(kappa, phi), kappa)


# -- 2x2 matrices and Moebius maps -------------------------------------------


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix [[a, b], [c, d]] over one generalized complex algebra."""

    a: GenComplex
    b: GenComplex
    c: GenComplex
    d: GenComplex

    def __post_init__(self) -> None:
        k = self.a.kappa
        for entry in (self.b, self.c, self.d):
            _check_same_kappa(k, entry.kappa)

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

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

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
        return max(
            abs(v)
            for e in (self.a, self.b, self.c, self.d)
            for v in (e.re, e.im)
        )

    def approx_eq(self, other: "Mat2", tol: float = 1e-12) -> bool:
        return (self - other).max_abs() <= tol

    def apply(self, w: GenComplex) -> GenComplex:
        """Evaluate the Moebius map (a*w + b)/(c*w + d) at an affine point.

        Raises:
            AtInfinity: when c*w + d is not invertible; lift to a GammaPoint
                and use :func:`gamma_apply` to act there.
        """
        _check_same_kappa(self.kappa, w.kappa)
        den = self.c * w + self.d
        if den.sqmod() == 0.0:
            raise AtInfinity(f"{w} maps outside the affine plane")
        return (self.a * w + self.b) * den.inv()

    def inverse(self) -> "Mat2":
        """The adjugate: the inverse Moebius map (projectively, up to det)."""
        return Mat2(self.d, -self.b, -self.c, self.a)


@dataclass(frozen=True)
class MoebiusMap(Mat2):
    """A ``Mat2`` with invertible determinant, used as w -> (a*w + b)/(c*w + d)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.det().sqmod() == 0.0:
            raise ValueError("Moebius matrix determinant must be invertible")


# -- projective completion ---------------------------------------------------


def _mult_matrix(w: GenComplex) -> np.ndarray:
    # multiplication by w as a real 2x2 matrix on (re, im) coordinates
    return np.array([[w.re, -w.kappa * w.im], [w.im, w.re]])


@dataclass(frozen=True)
class GammaPoint:
    """Homogeneous pair [u : v] over the algebra, up to invertible scaling.

    Admissible iff no single nonzero algebra element annihilates both
    components, i.e. the stacked real multiplication matrices of u and v have
    trivial common kernel (rank 2).  This is the branch-free version of
    "(u, v) generates the unit ideal" and works for every kappa.
    """

    u: GenComplex
    v: GenComplex

    def __post_init__(self) -> None:
        _check_same_kappa(self.u.kappa, self.v.kappa)

    @property
    def kappa(self) -> float:
        return self.u.kappa

    def is_admissible(self) -> bool:
        stacked = np.vstack([_mult_matrix(self.u), _mult_matrix(self.v)])
        return int(np.linalg.matrix_rank(stacked)) == 2

    def to_affine(self) -> GenComplex:
        """Project back to the plane as u * v^-1 (v must be invertible)."""
        if self.v.is_zero() or self.v.sqmod() == 0.0:
            raise AtInfinity(f"[{self.u} : {self.v}] has no affine image")
        return self.u * self.v.inv()

    def projectively_equal(self, other: "GammaPoint", tol: float = 1e-10) -> bool:
        """Same point of the completion: the cross products u1*v2, u2*v1 agree."""
        _check_same_kappa(self.kappa, other.kappa)
        return (self.u * other.v).approx_eq(other.u * self.v, tol)


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
