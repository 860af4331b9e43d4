"""The 3x3 motion group, its projective quadric, and the conformal model.

The two labels (kappa1, kappa2) select one of the nine plane geometries:
kappa1 is the constant curvature (metric structure), kappa2 the conformal
(angle) structure.  The motion group acts on R^3 = {(z, t, x)} preserving

    ds^2 = dz^2 + kappa1*dt^2 + kappa1*kappa2*dx^2,

with one-parameter subgroups generated by H (time translation, rotating the
z-t plane with label kappa1), P (space translation, z-x plane, label
kappa1*kappa2), and K (boost, t-x plane, label kappa2).  :data:`PLANES` is
the one statement of those planes: the generators of :func:`so3_generators`
and ``spin.AXES`` are read from it.  Each exp(t*G) is one closed form, a
labeled rotation of G's plane: :func:`exp_parts` gives its moving entries
(c, -label*s, s, c), c, s = cosk_sink(label, t), and :func:`plane_rotation`
lays them out in the 3x3, as it lays out G itself.  Points live on the
unit quadric z^2 + kappa1*t^2 + kappa1*kappa2*x^2 = 1; central projection
from (-1, 0, 0) onto z = 0 identifies them with a region of the generalized
complex plane carrying i^2 = -kappa2, where the invariant metric takes the
conformal form dw*conj(dw)/(1 + kappa1*|w|^2)^2 and distance from the origin
is the inverse labeled tangent of |w|.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from . import gencomplex, gentrig
from .errors import (
    BoundarySingularity,
    DenominatorNotInvertible,
    NullOrImaginarySeparation,
    OutsideModel,
    ProjectionPole,
    TrigOverflow,
    WrongGeometry,
    fill,
)


class KappaPair(NamedTuple("KappaPair", [("kappa1", float), ("kappa2", float)])):
    """The two real labels; spacetimes need kappa2 <= 0 (non-compact boost)."""

    __slots__ = ()

    def __new__(cls, kappa1: float, kappa2: float) -> "KappaPair":
        if not (math.isfinite(kappa1) and math.isfinite(kappa2)):
            raise ValueError("kappa labels must be finite")
        return super().__new__(cls, kappa1, kappa2)


# a 3x3 matrix is 3 row tuples of floats and a quadric point (z, t, x) a
# 3-tuple of floats; np.asarray(m) gives the array
Triple = tuple[float, float, float]
Matrix3 = tuple[Triple, Triple, Triple]


def bilinear_form(kp: KappaPair) -> Matrix3:
    """G = diag(1, kappa1, kappa1*kappa2), the invariant of the group."""
    return ((1.0, 0.0, 0.0), (0.0, kp.kappa1, 0.0), (0.0, 0.0, kp.kappa1 * kp.kappa2))


# the coordinate plane of (z, t, x) that each generator rotates: its row and column indices
PLANES = {"H": (0, 1), "P": (0, 2), "K": (1, 2)}


def generator_label(kp: KappaPair, gen: str) -> float:
    """The label of exp(t*gen)'s plane rotation: kappa1 (H), kappa1*kappa2 (P) or kappa2 (K)."""
    if gen not in PLANES:
        raise KeyError(f"unknown generator {gen!r}, expected H, P, or K")
    return kp.kappa1 if gen == "H" else kp.kappa2 if gen == "K" else kp.kappa1 * kp.kappa2


def exp_parts(kp: KappaPair, gen: str, t: float) -> tuple[float, float, float, float]:
    """(c, -label*s, s, c), c, s = cosk_sink(label, t): exp(t*gen)'s entries in its plane.
    TrigOverflow where the P label's rounding below the normal floats would decide a
    nonzero t's answer."""
    label = generator_label(kp, gen)
    if gen == "P" and t and kp.kappa1 and kp.kappa2 and abs(label) < sys.float_info.min:
        raise TrigOverflow(f"P label kappa1*kappa2 rounds to {label!r}, below the normal floats")
    c, s = gentrig.cosk_sink(label, t)
    return c, -label * s, s, c


def plane_rotation(gen: str, parts, diagonal: float = 1.0) -> tuple:
    """The 3x3 with ``parts`` at gen's plane rows and columns, in writing order,
    ``diagonal`` on the third diagonal entry and 0.0 elsewhere: the one layout of
    exp(t*gen) (1.0) and of the generator gen (0.0)."""
    i, j = PLANES[gen]
    m = [[diagonal, 0.0, 0.0], [0.0, diagonal, 0.0], [0.0, 0.0, diagonal]]
    m[i][i], m[i][j], m[j][i], m[j][j] = parts
    return tuple(map(tuple, m))


def exp_generator(kp: KappaPair, gen: str, param: float) -> Matrix3:
    """exp(param*gen) for the tag H, P or K, in closed form: :func:`exp_parts` laid out."""
    return plane_rotation(gen, exp_parts(kp, gen, param))


def so3_generators(kp: KappaPair) -> tuple[Matrix3, Matrix3, Matrix3]:
    """(H, P, K) acting on (z, t, x) columns: (0, -label, 1, 0) at each plane, 0.0 elsewhere.

    Brackets: [K, H] = P, [K, P] = -kappa2*H, [H, P] = kappa1*K.
    """
    return tuple(plane_rotation(g, (0.0, -generator_label(kp, g), 1.0, 0.0), 0.0) for g in PLANES)


def word_matrix(kp: KappaPair, word: list[tuple[str, float]]) -> Matrix3:
    """Left-to-right product of generator exponentials, from the identity."""
    m = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    for gen, param in word:
        cols = tuple(zip(*exp_generator(kp, gen, param)))
        m = tuple(
            tuple(r0 * c0 + r1 * c1 + r2 * c2 for c0, c1, c2 in cols)
            for r0, r1, r2 in m
        )
    return m


def project(kp: KappaPair, point) -> gencomplex.GenComplex:
    """Central projection (z, t, x) -> (t + i*x)/(z + 1) from (-1, 0, 0).

    Raises:
        ProjectionPole: at z = -1, the projection point itself.
    """
    z, t, x = point
    if z == -1.0:
        raise ProjectionPole("z = -1 is the projection point")
    return gencomplex.gc(t / (z + 1.0), x / (z + 1.0), kp.kappa2)


def _one_plus_kappa1_sqmod(kappa1: float, w: gencomplex.GenComplex) -> tuple[float, int]:
    """1 + kappa1*sqmod(w) as (d, e), the value d * 2**e with e = 0 below +inf.

    Where kappa1*sqmod(w) overflowed to +inf, or was 0*inf or inf - inf (-inf
    is outside the model either way), it is formed from w = 2**k * w_s and
    kappa1 = 2**j * c, whose product c*s is normal; beyond the float range
    d = c*s drops the 1 and e = j + 2*k.
    """
    d = 1.0 + kappa1 * w.sqmod()
    if d < math.inf:
        return d, 0
    _, _, s, k = gencomplex._scaled_parts(*w)
    c, j = gencomplex._split_pow2(kappa1)
    d = 1.0 + gencomplex._times_pow2(c * s, j + 2 * k)
    return (d, 0) if d < math.inf else (c * s, j + 2 * k)


def unproject(kp: KappaPair, w: gencomplex.GenComplex) -> Triple:
    """The quadric point projecting to w.

    Inverse of :func:`project`; the z coordinate is nonnegative exactly when
    kappa1*sqmod(w) <= 1 (inside the equator image when kappa1 > 0).

    Raises:
        OutsideModel: when 1 + kappa1*sqmod(w) <= 0.
    """
    denom, e = _one_plus_kappa1_sqmod(kp.kappa1, w)
    if e:  # 2*w/denom is 2*w/(kappa1*sqmod(w)) to rounding
        re, im, _, k = gencomplex._scaled_parts(*w)
        t, x = (gencomplex._times_pow2(2.0 * v, k - e, denom) for v in (re, im))
        return (-1.0, t, x)
    if denom <= 0.0:
        raise OutsideModel(f"1 + kappa1*|w|^2 = {denom} <= 0")
    scale = 2.0 / denom
    return (scale - 1.0, w.re * scale, w.im * scale)


def metric_g1(kp: KappaPair, w: gencomplex.GenComplex, dw: gencomplex.GenComplex) -> float:
    """Main metric sqmod(dw)/(1 + kappa1*sqmod(w))^2 (indefinite if kappa2<0)."""
    denom, e = _one_plus_kappa1_sqmod(kp.kappa1, w)
    if denom == 0.0:
        raise BoundarySingularity("metric evaluated on the model boundary")
    num = dw.sqmod()
    if not e and math.isfinite(num) and denom * denom < math.inf:
        return num / (denom * denom)
    # num = s * 4**k and (denom * 2**e)**2 = m*m * 4**(e + j), s and m*m normal
    _, _, s, k = gencomplex._scaled_parts(*dw)
    m, j = gencomplex._split_pow2(denom)
    return gencomplex._times_pow2(s, 2 * (k - e - j), m * m)


def metric_g2(kp: KappaPair, t0: float, dx: float) -> float:
    """Subsidiary metric dx^2/(1 + kappa1*t0^2)^2 on leaves w = t0 (kappa2=0)."""
    if kp.kappa2 != 0.0:
        raise WrongGeometry("subsidiary leaf metric needs kappa2 = 0")
    return metric_g1(kp, gencomplex.gc(t0, 0, 0), gencomplex.gc(dx, 0, 0))


def distance(kp: KappaPair, w1: gencomplex.GenComplex, w2: gencomplex.GenComplex) -> float:
    """Closed-form geodesic distance in the conformal model: :func:`distance_parts`
    on the parts of w1 and w2, once their labels are checked.

    Raises:
        KappaMismatch: when w1 and w2 carry different kappa labels.
    """
    re1, im1, kappa = w1
    re2, im2, kappa_w2 = w2
    gencomplex._check_same_kappa(kappa, kappa_w2)
    return distance_parts(kp.kappa1, kappa, re1, im1, re2, im2)


def distance_parts(kappa1: float, kappa: float, re1: float, im1: float, re2: float,
                   im2: float) -> float:
    """The distance between w1 = re1 + i*im1 and w2 = re2 + i*im2, i**2 = -kappa.

    d(w1, w2) = atank(kappa1, |(w2 - w1) / (kappa1*conj(w1)*w2 + 1)|),
    reducing to atank(kappa1, |w|) from the origin.  The sums are written out
    on the parts in the order GenComplex arithmetic evaluates the expression,
    bit for bit: kappa1*conj(w1), then times w2, then plus 1 (whose im part
    adds 0.0, turning -0.0 into 0.0), then w2 - w1 times the inverse.

    Raises:
        DenominatorNotInvertible: when the denominator is a zero divisor.
        NullOrImaginarySeparation: when the argument's squared modulus is
            negative (mixed causal character, kappa2 < 0).
    """
    a_re, a_im = re1 * kappa1, -im1 * kappa1
    den_re = a_re * re2 - kappa * a_im * im2 + 1.0
    den_im = a_re * im2 + re2 * a_im + 0.0
    inverse = gencomplex._inverse_parts(den_re, den_im, kappa)
    if inverse is None:
        den = gencomplex.GenComplex(den_re, den_im, kappa)
        raise DenominatorNotInvertible(f"denominator {den} is not invertible")
    inv_re, inv_im = inverse
    d_re, d_im = re2 - re1, im2 - im1
    # |arg| = sqrt(s) * 2**k, where s, the squared modulus of arg / 2**k,
    # neither underflows nor overflows
    _, _, s, k = gencomplex._scaled_parts(
        d_re * inv_re - kappa * d_im * inv_im, d_re * inv_im + inv_re * d_im, kappa)
    if s < 0.0:
        raise NullOrImaginarySeparation(
            f"squared separation {gencomplex._times_pow2(s, 2 * k)} < 0")
    return gentrig.atank(kappa1, gencomplex._times_pow2(math.sqrt(s), k))


# -- region rendering -----------------------------------------------------------


# the abscissae -2 + 4i/64 at which a hyperbola branch is sampled
_ABSCISSAE = tuple(-2.0 + 4.0 * i / 64.0 for i in range(65))


@functools.cache
def _unit_circle() -> tuple[tuple[float, float], ...]:
    """(cos, sin) of the 96 angles 2*pi*i/96 at which the ellipse is sampled."""
    angles = (2.0 * math.pi * i / 96.0 for i in range(96))
    return tuple((math.cos(angle), math.sin(angle)) for angle in angles)


def _path(points, close: bool = False) -> str:
    """The ``<path>`` line of a polyline whose points are pairs of coordinate texts."""
    d = " L ".join(f"{t},{x}" for t, x in points) + (" Z" if close else "")
    return f'<path d="M {d}" fill="none" stroke="black" stroke-width="0.02"/>\n'


@functools.cache
def _region_template(shape: str, null_lines: bool) -> str:
    """The SVG of one boundary shape, with or without the null lines, as a
    ``%``-template with one ``%.9g`` slot per value that depends on the labels."""
    fixed = [f"{v:.9g}" for v in _ABSCISSAE]
    paths = {
        "none": [],
        "ellipse": [_path([("%.9g", "%.9g")] * 96, close=True)],
        "lines": [_path([("%.9g", "-2"), ("%.9g", "2")])] * 2,
        # hyperbola branches open along the t axis, sampled at fixed x, and
        # open along the x axis, sampled at fixed t
        "along t": [_path([("%.9g", x) for x in fixed])] * 2,
        "along x": [_path([(t, "%.9g") for t in fixed])] * 2,
    }[shape]
    line = ('<line x1="%.9g" y1="-2" x2="%.9g" y2="2" stroke="black" stroke-width="0.01" '
            'stroke-dasharray="0.1,0.1"/>\n')
    return "".join([
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-2 -2 4 4" width="400" height="400">\n',
        "<!-- kappa1=%.9g kappa2=%.9g -->\n",
        *paths, *[line] * (2 * null_lines), "</svg>\n",
    ])


def _boundary_elements(k1: float, k2: float) -> tuple[str, list[float]]:
    """The boundary shape of the model region and its coordinates, in writing order."""
    # boundary of the model region: 1 + kappa1*(t^2 + kappa2*x^2) = 0
    if k1 == 0.0:
        return "none", []
    rhs = -1.0 / k1  # t^2 + kappa2*x^2 = rhs
    if rhs > 0.0:
        if k2 > 0.0:
            rx = math.sqrt(rhs)
            ry = math.sqrt(rhs / k2)
            values = []
            for c, s in _unit_circle():
                values += (rx * c, ry * s)
            return "ellipse", values
        if k2 == 0.0:
            t0 = math.sqrt(rhs)
            return "lines", [sgn * t0 for sgn in (1.0, 1.0, -1.0, -1.0)]
        # t^2 - |k2| x^2 = rhs > 0: branches open along the t axis
        return "along t", [
            sgn * math.sqrt(rhs - k2 * x * x) for sgn in (1.0, -1.0) for x in _ABSCISSAE
        ]
    if rhs < 0.0 and k2 < 0.0:
        # t^2 - |k2| x^2 = rhs < 0: branches open along the x axis
        return "along x", [
            sgn * math.sqrt((rhs - t * t) / k2) for sgn in (1.0, -1.0) for t in _ABSCISSAE
        ]
    return "none", []


def region_svg(kp: KappaPair) -> str:
    """Deterministic SVG of the model region for one (kappa1, kappa2).

    Viewport [-2, 2]^2 with the horizontal axis Re w = t and vertical axis
    Im w = x; the region boundary is stroked solid and, for kappa2 <= 0, the
    zero-divisor directions through the origin (the null cone of the
    here-now event) are dashed.

    The boundary is one of four shapes (an ellipse, two lines, or hyperbola
    branches open along the t or the x axis), or there is none.  The whole
    SVG of each shape, with or without the null lines, is one text template
    with a ``%.9g`` slot per value that depends on the labels (the labels in
    the comment, the boundary's coordinates, the null lines' ends), written
    once per process on first use; the sample abscissae of a branch are
    written into its template.  A request computes only those values and
    fills them in with one :func:`~kinematica.errors.fill`: every value is
    written with 9 significant digits and -0.0 as 0, and the first that is
    not finite, in writing order, ends in NonFiniteResult.
    """
    k1, k2 = kp
    shape, values = _boundary_elements(k1, k2)
    null_lines = k2 <= 0.0
    if null_lines:
        end = math.sqrt(-k2) * 2.0  # null directions t = +/- sqrt(-kappa2) * x
        values += (-end, end, end, -end)
    return fill(_region_template(shape, null_lines), [k1, k2, *values], "SVG coordinate")
