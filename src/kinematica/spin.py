"""The generalized Spin(3) group and its double cover of the motion group.

Spin(3) consists of the 2x2 matrices

    [[alpha, beta], [-kappa1*conj(beta), conj(alpha)]]

with entries in the kappa2 algebra and alpha*conj(alpha) +
kappa1*beta*conj(beta) = 1; equivalently the matrices U with U* A U = A and
det U = 1, where A = diag(kappa1, 1).  The one-parameter families covering
the boost and the two translations are rotors: each is
cosk(x, t/2) + B*sink(x, t/2) for the matching basis bivector B with label
x = -B^2.

``cover_to_so3`` sends a spin element to the 3x3 motion it induces on
vectors, in closed form: each entry is a quadratic in (Re alpha, Im alpha,
Re beta, Im beta), the analogue of the quaternion-to-rotation-matrix
formula.  It is the conjugation reverse(r) * e_j * r inside the
eight-dimensional Clifford algebra (the 2x2 matrix picture is not faithful
at kappa1 = 0), multiplied out once from the symbolic product table, with r
the element conjugated by s1 first, i.e. beta negated.  That parity-time
twist is exactly what aligns all three one-parameter families with the
closed-form 3x3 exponentials at once: raw conjugation matches the
translation conventions but reverses the boost orientation (the coordinate
planes do not carry mutually consistent orientations), and the twist is an
automorphism, so the cover stays a two-to-one group homomorphism with
kernel {+1, -1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ckgeom import KappaPair
from .errors import KappaMismatch, NotSpin
from .gencomplex import GenComplex, Mat2, gc
from .gentrig import cosk_sink


def a_matrix(kp: KappaPair) -> Mat2:
    """A = diag(kappa1, 1), the invariant form of the spin group."""
    k2 = kp.kappa2
    return Mat2(gc(kp.kappa1, 0, k2), gc(0, 0, k2), gc(0, 0, k2), gc(1, 0, k2))


def pauli_generators(kp: KappaPair) -> tuple[Mat2, Mat2, Mat2]:
    """The generalized Pauli-type matrices (s1, s2, s3) over the kappa2 algebra."""
    k1, k2 = kp.kappa1, kp.kappa2
    s1 = Mat2(gc(1, 0, k2), gc(0, 0, k2), gc(0, 0, k2), gc(-1, 0, k2))
    s2 = Mat2(gc(0, 0, k2), gc(1, 0, k2), gc(k1, 0, k2), gc(0, 0, k2))
    s3 = Mat2(gc(0, 0, k2), gc(0, 1, k2), gc(0, -k1, k2), gc(0, 0, k2))
    return s1, s2, s3


def so3_matrix_generators(kp: KappaPair) -> tuple[Mat2, Mat2, Mat2]:
    """(H, P, K) inside the 2x2 model: s3check/2, i*s2/2, i*s1/2."""
    k1, k2 = kp.kappa1, kp.kappa2
    h = Mat2(gc(0, 0, k2), gc(0.5, 0, k2), gc(-0.5 * k1, 0, k2), gc(0, 0, k2))
    p = Mat2(gc(0, 0, k2), gc(0, 0.5, k2), gc(0, 0.5 * k1, k2), gc(0, 0, k2))
    k = Mat2(gc(0, 0.5, k2), gc(0, 0, k2), gc(0, 0, k2), gc(0, -0.5, k2))
    return h, p, k


@dataclass(frozen=True)
class SpinElement:
    """An element of Spin(3), stored as the pair (alpha, beta)."""

    kp: KappaPair
    alpha: GenComplex
    beta: GenComplex

    def __post_init__(self) -> None:
        if self.alpha.kappa != self.kp.kappa2 or self.beta.kappa != self.kp.kappa2:
            raise KappaMismatch("spin entries must carry kappa2")

    def unit_defect(self) -> float:
        """|alpha*conj(alpha) + kappa1*beta*conj(beta) - 1|."""
        value = self.alpha.sqmod() + self.kp.kappa1 * self.beta.sqmod()
        return abs(value - 1.0)

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

    def inverse(self) -> "SpinElement":
        return SpinElement(self.kp, self.alpha.conj(), -self.beta)

    def canonical_sign(self) -> "SpinElement":
        """The deterministic representative of {s, -s}.

        Nonnegative Re(alpha) first, then nonnegative Im(alpha), then the
        same on beta.
        """
        for value in (self.alpha.re, self.alpha.im, self.beta.re, self.beta.im):
            if value > 0.0:
                return self
            if value < 0.0:
                return -self
        return self


def spin_identity(kp: KappaPair) -> SpinElement:
    return SpinElement(kp, gc(1, 0, kp.kappa2), gc(0, 0, kp.kappa2))


def spin_from_axis(kp: KappaPair, n1: float, n2: float, n3: float, phi: float) -> SpinElement:
    """exp((phi/2) * (n1*is1 + n2*is2 + n3*s3check)) in closed form."""
    x = n1 * n1 * kp.kappa2 + n2 * n2 * kp.kappa1 * kp.kappa2 + n3 * n3 * kp.kappa1
    c, s = cosk_sink(x, 0.5 * phi)
    return SpinElement(
        kp,
        gc(c, n1 * s, kp.kappa2),
        gc(n3 * s, n2 * s, kp.kappa2),
    )


def sl2_of_exp_k(kp: KappaPair, theta: float) -> SpinElement:
    """diag(e^{i theta/2}, e^{-i theta/2}): the + representative."""
    return spin_from_axis(kp, 1.0, 0.0, 0.0, theta).canonical_sign()


def sl2_of_exp_h(kp: KappaPair, alpha: float) -> SpinElement:
    """The spin element over the time translation exp(alpha H)."""
    return spin_from_axis(kp, 0.0, 0.0, 1.0, alpha).canonical_sign()


def sl2_of_exp_p(kp: KappaPair, beta: float) -> SpinElement:
    """The spin element over the space translation exp(beta P)."""
    return spin_from_axis(kp, 0.0, 1.0, 0.0, beta).canonical_sign()


# the spin element over exp(t * generator), by generator tag
SL2 = {"K": sl2_of_exp_k, "H": sl2_of_exp_h, "P": sl2_of_exp_p}


def sl2_of_word(kp: KappaPair, word: list[tuple[str, float]]) -> SpinElement:
    """Spin representative of a left-to-right word of generator exponentials."""
    out = spin_identity(kp)
    for gen, param in word:
        out = out * SL2[gen](kp, param)
    return out


def moebius_of_word(kp: KappaPair, word: list[tuple[str, float]]) -> Mat2:
    return sl2_of_word(kp, word).as_mat2()


def is_spin(kp: KappaPair, m: Mat2) -> bool:
    """Shape test: m = [[a, b], [-kappa1*conj(b), conj(a)]] with unit condition.

    Equivalent to m* A m = A together with det m = 1.
    """
    if m.kappa != kp.kappa2:
        return False
    shape = max(
        abs(m.d.re - m.a.re),
        abs(m.d.im + m.a.im),
        abs(m.c.re + kp.kappa1 * m.b.re),
        abs(m.c.im - kp.kappa1 * m.b.im),
    )
    unit = abs(m.a.sqmod() + kp.kappa1 * m.b.sqmod() - 1.0)
    return shape <= 1e-10 and unit <= 1e-10


def spin_from_mat2(kp: KappaPair, m: Mat2) -> SpinElement:
    if not is_spin(kp, m):
        raise NotSpin(f"matrix is not in Spin(3) for {kp}")
    return SpinElement(kp, m.a, m.b)


def is_su2_algebra(kp: KappaPair, b: Mat2, tol: float = 1e-12) -> bool:
    """Tangent-space test: B* A + A B = 0 and trace B = 0."""
    a = a_matrix(kp)
    condition = b.star() @ a + a @ b
    tr = b.trace()
    return condition.max_abs() <= tol and abs(tr.re) <= tol and abs(tr.im) <= tol


def cover_to_so3(s: SpinElement) -> np.ndarray:
    """The 3x3 motion induced by a spin element on vector components.

    Two-to-one: s and -s give the same matrix.  The entries are the Clifford
    sandwich by the lift of (conj(alpha), beta), the s1-conjugated element,
    multiplied out in closed form; see the module docstring for why the twist
    is the convention that meets all three generator exponentials.
    """
    defect = s.unit_defect()
    if not defect <= 1e-10:  # also rejects a nan defect
        raise NotSpin(f"unit condition violated by {defect}")
    k1, k2 = s.kp.kappa1, s.kp.kappa2
    a0, a1, b0, b1 = s.alpha.re, s.alpha.im, s.beta.re, s.beta.im
    return np.array([
        [
            a0 * a0 + k2 * a1 * a1 - k1 * b0 * b0 - k1 * k2 * b1 * b1,
            -2.0 * k1 * (a0 * b0 + k2 * a1 * b1),
            -2.0 * k1 * k2 * (a0 * b1 - a1 * b0),
        ],
        [
            2.0 * (a0 * b0 - k2 * a1 * b1),
            a0 * a0 - k2 * a1 * a1 - k1 * b0 * b0 + k1 * k2 * b1 * b1,
            -2.0 * k2 * (a0 * a1 + k1 * b0 * b1),
        ],
        [
            2.0 * (a0 * b1 + a1 * b0),
            2.0 * (a0 * a1 - k1 * b0 * b1),
            a0 * a0 - k2 * a1 * a1 + k1 * b0 * b0 - k1 * k2 * b1 * b1,
        ],
    ])
