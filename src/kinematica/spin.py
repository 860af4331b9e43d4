"""The generalized Spin(3) group and its double cover of the motion group.

Spin(3) consists of the 2x2 matrices

    [[alpha, beta], [-kappa1*conj(beta), conj(alpha)]]

with entries in the kappa2 algebra and alpha*conj(alpha) +
kappa1*beta*conj(beta) = 1; equivalently the matrices U with U* A U = A and
det U = 1, where A = diag(kappa1, 1).  The one-parameter families covering
the boost and the two translations are rotors: each is
cosk(x, t/2) + B*sink(x, t/2) for the matching basis bivector B with label
x = -B^2.  G's axis, :data:`AXES`, is the unit vector at the index G's
``ckgeom.PLANES`` plane leaves out, and :func:`so3_matrix_generators` lays
G out over it.  Spin elements, rotors and the ``rotate`` answer are read
from the four parts of :func:`axis_parts`.  The + element over exp(t*G), G one
of the tags H, P and K, is :func:`sl2_of_exp`.  It is the one plane-rotation
closed form of ``ckgeom.exp_parts`` at half the parameter: its two parts
that vary are :func:`half_angle_parts`, cosk and sink of G's label at t/2
with the sign that makes the element the + one, which the ``spin`` request
prints, and :func:`sl2_parts` places them in (Re alpha, Im alpha, Re beta,
Im beta) as :func:`axis_parts` does.

A spin element acts on vectors by the sandwich reverse(r) * a * r inside the
eight-dimensional Clifford algebra of ``clifford`` (the 2x2 matrix picture
is not faithful at kappa1 = 0), and :func:`sandwich_parts` is that product
multiplied out once: only the 28 terms that an even rotor and a vector can
make nonzero, 12 for reverse(r) * a and 16 for the rest, as straight-line
float sums in the order of the general product's 64 terms.  It reads the
rotor's four even parts and the vector's three, checks nothing of the rotor
(:func:`require_unit` is the unit check beside it, which each caller runs
once), and raises ``GradeError`` where the result leaves the vector grade.
The ``rotate`` request, ``clifford.sandwich`` and :func:`cover_to_so3` all
call it.  ``cover_to_so3`` sends a spin element to the 3x3 motion it induces
on vectors: column j is the kernel on e_j, with r the element conjugated by
s1 first, i.e. alpha conjugated.  That parity-time twist is exactly what
aligns all three one-parameter families with the closed-form 3x3
exponentials at once: raw conjugation matches the translation conventions
but reverses the boost orientation (the coordinate planes do not carry
mutually consistent orientations), and the twist is an automorphism, so
the cover stays a two-to-one group homomorphism with kernel {+1, -1}.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .ckgeom import PLANES, KappaPair, Matrix3, generator_label
from .errors import GradeError, KappaMismatch, NotSpin, NotUnitRotor
from .gencomplex import GenComplex, Mat2, gc
from .gentrig import cosk_sink

# the one bound on unit_defect() and require_unit().  Absolute: a relative bound admits
# ill-conditioned elements whose cover entries cancel (K boosts of rapidity 40)
UNIT_TOL = 1e-8
# absolute bound on the residuals of generator matrices with entries of size
# O(1): the trace and B* A + A B in is_su2_algebra, and in conformal the trace
# of a matrix in the span and a bracket coefficient against the published one
ALGEBRA_TOL = 1e-12


def a_matrix(kp: KappaPair) -> Mat2:
    """A = diag(kappa1, 1), the invariant form of the spin group."""
    k2 = kp.kappa2
    return Mat2(gc(kp.kappa1, 0, k2), gc(0, 0, k2), gc(0, 0, k2), gc(1, 0, k2))


def pseudo_norm(kp: KappaPair, a0: float, a1: float, b0: float, b1: float) -> float:
    """alpha*conj(alpha) + kappa1*beta*conj(beta), alpha = a0 + i*a1, beta = b0 + i*b1:
    the one evaluation of the unit condition, for SpinElement and :func:`require_unit`.
    At kappa1 = 0 the beta term is 0, also where its square overflows (0 * inf is nan)."""
    k1, k2 = kp
    return a0 * a0 + k2 * a1 * a1 + (k1 * (b0 * b0 + k2 * b1 * b1) if k1 != 0.0 else 0.0)


class SpinElement(NamedTuple("SpinElement", [("kp", KappaPair), ("alpha", GenComplex),
                                             ("beta", GenComplex)])):
    """An element of Spin(3), stored as the pair (alpha, beta)."""

    __slots__ = ()

    def __new__(cls, kp: KappaPair, alpha: GenComplex, beta: GenComplex) -> "SpinElement":
        if alpha.kappa != kp.kappa2 or beta.kappa != kp.kappa2:
            raise KappaMismatch("spin entries must carry kappa2")
        return super().__new__(cls, kp, alpha, beta)

    def pseudo_norm(self) -> float:
        """alpha*conj(alpha) + kappa1*beta*conj(beta), 1 on Spin(3)."""
        a, b = self.alpha, self.beta
        return pseudo_norm(self.kp, a.re, a.im, b.re, b.im)

    def unit_defect(self) -> float:
        """|pseudo_norm() - 1|, the quantity UNIT_TOL bounds."""
        return abs(self.pseudo_norm() - 1.0)

    def as_mat2(self) -> Mat2:
        """The matrix [[alpha, beta], [-kappa1*conj(beta), conj(alpha)]].

        It is also the Moebius map of the element on the kappa2 plane.
        """
        return Mat2(
            self.alpha,
            self.beta,
            -self.kp.kappa1 * self.beta.conj(),
            self.alpha.conj(),
        )

    def __mul__(self, other: "SpinElement") -> "SpinElement":
        if self.kp != other.kp:
            raise KappaMismatch(f"{self.kp} vs {other.kp}")
        k1 = self.kp.kappa1
        return SpinElement(
            self.kp,
            self.alpha * other.alpha - k1 * self.beta * other.beta.conj(),
            self.alpha * other.beta + self.beta * other.alpha.conj(),
        )

    def __neg__(self) -> "SpinElement":
        return SpinElement(self.kp, -self.alpha, -self.beta)


def axis_label(kp: KappaPair, n1: float, n2: float, n3: float) -> float:
    """The rotation label -B^2 of B = n1*is1 + n2*is2 + n3*s3check.

    n1^2*kappa2 + n2^2*kappa1*kappa2 + n3^2*kappa1, summed as the Clifford
    product B*B sums its scalar part.  A zero n2 term stays 0 where
    kappa1*kappa2 overflows, since 0 * inf would be nan.
    """
    k1, k2 = kp.kappa1, kp.kappa2
    n2_term = n2 * n2 * (k1 * k2) if n2 * n2 != 0.0 else 0.0
    return n1 * n1 * k2 + n2_term + n3 * n3 * k1


def axis_parts(kp: KappaPair, n1: float, n2: float, n3: float, phi: float) -> tuple[float, ...]:
    """The parts (Re alpha, Im alpha, Re beta, Im beta) of :func:`spin_from_axis`."""
    c, s = cosk_sink(axis_label(kp, n1, n2, n3), 0.5 * phi)
    return c, n1 * s, n3 * s, n2 * s


def _element(kp: KappaPair, a0: float, a1: float, b0: float, b1: float) -> SpinElement:
    k2 = float(kp.kappa2)  # both entries carry kappa2: made without SpinElement's check
    return SpinElement._make((kp, GenComplex(float(a0), float(a1), k2),
                              GenComplex(float(b0), float(b1), k2)))


def spin_from_axis(kp: KappaPair, n1: float, n2: float, n3: float, phi: float) -> SpinElement:
    """exp((phi/2) * (n1*is1 + n2*is2 + n3*s3check)) in closed form."""
    return _element(kp, *axis_parts(kp, n1, n2, n3, phi))


# each generator's axis (n1, n2, n3): the unit vector at the index its plane leaves out
AXES = {g: tuple(float(m not in plane) for m in range(3)) for g, plane in PLANES.items()}


def so3_matrix_generators(kp: KappaPair) -> tuple[Mat2, Mat2, Mat2]:
    """(H, P, K) inside the 2x2 model, s3check/2, i*s2/2, i*s1/2: the matrix of the tangent
    element with parts (0, n1/2, n3/2, n2/2) over each generator's axis."""
    return tuple(_element(kp, 0.0, n1 / 2, n3 / 2, n2 / 2).as_mat2()
                 for n1, n2, n3 in AXES.values())


def half_angle_parts(kp: KappaPair, gen: str, t: float) -> tuple[float, float]:
    """(c, s) = cosk_sink(label, t/2) over gen's ``ckgeom.generator_label``, negated where
    c < 0.0: the parts of :func:`sl2_of_exp` that vary.  c, which leads the parts, is
    never 0 (the cosine of a float is not 0, and cosh and the series are near 1 or
    more), so its sign alone decides the + element."""
    c, s = cosk_sink(generator_label(kp, gen), 0.5 * t)
    return (-c, -s) if c < 0.0 else (c, s)


def sl2_parts(kp: KappaPair, gen: str, t: float) -> tuple[float, ...]:
    """(Re alpha, Im alpha, Re beta, Im beta) of :func:`sl2_of_exp`: those of
    :func:`half_angle_parts` about gen's axis, laid out as :func:`axis_parts` lays them."""
    c, s = half_angle_parts(kp, gen, t)
    n1, n2, n3 = AXES[gen]
    return c, n1 * s, n3 * s, n2 * s


def sl2_of_exp(kp: KappaPair, gen: str, t: float) -> SpinElement:
    """The + spin element over exp(t * generator), for the tag H, P or K."""
    return _element(kp, *sl2_parts(kp, gen, t))


def sl2_of_word(kp: KappaPair, word: list[tuple[str, float]]) -> SpinElement:
    """Spin representative of a left-to-right word of generator exponentials."""
    out = SpinElement(kp, gc(1, 0, kp.kappa2), gc(0, 0, kp.kappa2))
    for gen, param in word:
        out = out * sl2_of_exp(kp, gen, param)
    return out


def is_spin(kp: KappaPair, m: Mat2) -> bool:
    """Whether m is the matrix of a spin element (m* A m = A and det m = 1)."""
    if m.kappa != kp.kappa2:
        return False
    s = SpinElement(kp, m.a, m.b)
    shape = (s.as_mat2() - m).max_abs()
    return shape <= UNIT_TOL * max(1.0, m.max_abs()) and s.unit_defect() <= UNIT_TOL


def is_su2_algebra(kp: KappaPair, b: Mat2) -> bool:
    """Tangent-space test: B* A + A B = 0 and trace B = 0, within ALGEBRA_TOL."""
    a = a_matrix(kp)
    condition = b.star() @ a + a @ b
    tr = b.trace()
    return (condition.max_abs() <= ALGEBRA_TOL
            and abs(tr.re) <= ALGEBRA_TOL and abs(tr.im) <= ALGEBRA_TOL)


def require_unit(kp: KappaPair, a0: float, a1: float, b0: float, b1: float) -> None:
    """NotUnitRotor unless the rotor with spin parts (a0, a1, b0, b1) has a pseudo-norm
    within UNIT_TOL of 1; the rotor check that :func:`sandwich_parts` leaves to its caller."""
    norm = pseudo_norm(kp, a0, a1, b0, b1)
    # written `not x <= bound` so that a nan passes neither check
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise NotUnitRotor(f"rotor pseudo-norm {norm} != 1")


def sandwich_parts(kp: KappaPair, a0: float, a1: float, b0: float, b1: float, v1: float,
                   v2: float, v3: float) -> tuple[float, float, float]:
    """The vector parts of reverse(r) * a * r, r = a0 + a1*is1 + b1*is2 + b0*s3check
    (spin parts (a0, a1, b0, b1), as :func:`require_unit` takes them) and
    a = v1*s1 + v2*s2 + v3*s3: the 28 terms of the module docstring, summed from +0.0 in (i, j) order, each (x*y)*monomial, as
    ``clifford._gather`` sums them.  A kappa1*kappa2 term is skipped where x*y is 0,
    as there, and any term is skipped where its monomial has an exactly-zero label:
    the true term is then exactly 0, and a sum started at +0.0 is never -0.0, so
    leaving out a +-0 term changes nothing.  The result and the errors are those
    of the two 64-term products, but for that one exception: where x*y overflows
    against a zero label, ``_gather`` keeps 0 * inf = nan.  The rotor is not
    checked; see :func:`require_unit`."""
    k1, k2 = kp
    k12 = k1 * k2
    # reverse(r) * a, in s1, s2, s3 and i
    t = b1 * v3
    h1 = (0.0 + a0 * v1 + (t * -k12 if t != 0.0 and k1 and k2 else 0.0)
          + ((b0 * v2) * -k1 if k1 else 0.0))
    h2 = 0.0 + a0 * v2 + ((a1 * v3) * k2 if k2 else 0.0) + b0 * v1
    h3 = 0.0 + a0 * v3 - a1 * v2 + b1 * v1
    h7 = (0.0 - a1 * v1 + ((b1 * v2) * -k1 if k1 else 0.0)
          + ((b0 * v3) * k1 if k1 else 0.0))
    # in the 64-term product a non-finite half meets r's zero odd slots,
    # which puts a nan into the even grades of the result
    if not (math.isfinite(h1) and math.isfinite(h2) and math.isfinite(h3)
            and math.isfinite(h7)):
        raise GradeError("sandwich result is not a vector")
    # that half times r, in s1, s2, s3 and i
    t = h3 * b1
    o1 = (0.0 + h1 * a0 + ((h2 * b0) * -k1 if k1 else 0.0)
          + (t * -k12 if t != 0.0 and k1 and k2 else 0.0) + ((h7 * a1) * -k2 if k2 else 0.0))
    o2 = (0.0 + h1 * b0 + h2 * a0 + ((h3 * a1) * k2 if k2 else 0.0)
          + ((h7 * b1) * -k2 if k2 else 0.0))
    o3 = 0.0 + h1 * b1 - h2 * a1 + h3 * a0 + h7 * b0
    o7 = (0.0 + h1 * a1 + ((h2 * b1) * k1 if k1 else 0.0)
          + ((h3 * b0) * -k1 if k1 else 0.0) + h7 * a0)
    size = abs(a0) + abs(a1) + abs(b1) + abs(b0)  # `*` below, since float ** raises on overflow
    scale = size * size * (abs(v1) + abs(v2) + abs(v3))
    # the even grades of the result are exactly 0: the off-grade part is i's
    if not abs(o7) <= UNIT_TOL * max(1.0, scale):
        raise GradeError("sandwich result is not a vector")
    return o1, o2, o3


def cover_to_so3(s: SpinElement) -> Matrix3:
    """The 3x3 motion induced by a spin element on vector components.

    Two-to-one: s and -s give the same matrix.  Column j is
    :func:`sandwich_parts` on e_j, with the rotor the s1-conjugated element
    (conj(alpha), beta); see the module docstring for why the twist is the
    convention that meets all three generator exponentials.  Raises
    ``NotSpin`` where s is not unit, and the kernel's ``GradeError`` where a
    half of the sandwich leaves the float range or i's part is above its
    bound, as at a huge label (ROADMAP item 5).
    """
    defect = s.unit_defect()
    if not defect <= UNIT_TOL:  # also rejects a nan defect
        raise NotSpin(f"unit condition violated by {defect}")
    parts = s.alpha.re, -s.alpha.im, s.beta.re, s.beta.im
    columns = [sandwich_parts(s.kp, *parts, *e)
               for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
    return tuple(zip(*columns))
