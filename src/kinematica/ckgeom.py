"""The 3x3 motion group, its projective quadric, and the conformal model.

The two labels (kappa1, kappa2) select one of the nine plane geometries:
kappa1 is the constant curvature (metric structure), kappa2 the conformal
(angle) structure.  The motion group acts on R^3 = {(z, t, x)} preserving

    ds^2 = dz^2 + kappa1*dt^2 + kappa1*kappa2*dx^2,

with one-parameter subgroups generated by H (time translation, rotating the
z-t plane with label kappa1), P (space translation, z-x plane, label
kappa1*kappa2), and K (boost, t-x plane, label kappa2).  Points live on the
unit quadric z^2 + kappa1*t^2 + kappa1*kappa2*x^2 = 1; central projection
from (-1, 0, 0) onto z = 0 identifies them with a region of the generalized
complex plane carrying i^2 = -kappa2, where the invariant metric takes the
conformal form dw*conj(dw)/(1 + kappa1*|w|^2)^2 and distance from the origin
is the inverse labeled tangent of |w|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundarySingularity,
    DenominatorNotInvertible,
    NonFiniteResult,
    NullOrImaginarySeparation,
    OutsideModel,
    ProjectionPole,
    WrongGeometry,
)
from .gencomplex import GenComplex, _times_pow2, gc
from .gentrig import atank, cosk_sink


@dataclass(frozen=True)
class KappaPair:
    """The two real labels; spacetimes need kappa2 <= 0 (non-compact boost)."""

    kappa1: float
    kappa2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa1) and math.isfinite(self.kappa2)):
            raise ValueError("kappa labels must be finite")


def so3_generators(kp: KappaPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, P, K) acting on (z, t, x) columns.

    Brackets: [K, H] = P, [K, P] = -kappa2*H, [H, P] = kappa1*K.
    """
    k1, k2 = kp.kappa1, kp.kappa2
    h = np.array([[0.0, -k1, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    p = np.array([[0.0, 0.0, -k1 * k2], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    k = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -k2], [0.0, 1.0, 0.0]])
    return h, p, k


def bilinear_form(kp: KappaPair) -> np.ndarray:
    """G = diag(1, kappa1, kappa1*kappa2), the invariant of the group."""
    return np.diag([1.0, kp.kappa1, kp.kappa1 * kp.kappa2])


def exp_h(kp: KappaPair, alpha: float) -> np.ndarray:
    """Closed form of exp(alpha*H): a label-kappa1 rotation of the z-t plane."""
    c, s = cosk_sink(kp.kappa1, alpha)
    return np.array(
        [[c, -kp.kappa1 * s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    )


def exp_p(kp: KappaPair, beta: float) -> np.ndarray:
    """Closed form of exp(beta*P): label kappa1*kappa2 on the z-x plane."""
    k12 = kp.kappa1 * kp.kappa2
    c, s = cosk_sink(k12, beta)
    return np.array([[c, 0.0, -k12 * s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def exp_k(kp: KappaPair, theta: float) -> np.ndarray:
    """Closed form of exp(theta*K): label kappa2 on the t-x plane."""
    c, s = cosk_sink(kp.kappa2, theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -kp.kappa2 * s], [0.0, s, c]])


_EXPONENTIALS = {"H": exp_h, "P": exp_p, "K": exp_k}


def exp_generator(kp: KappaPair, gen: str, param: float) -> np.ndarray:
    try:
        return _EXPONENTIALS[gen](kp, param)
    except KeyError:
        raise KeyError(f"unknown generator {gen!r}, expected H, P, or K") from None


def word_matrix(kp: KappaPair, word: list[tuple[str, float]]) -> np.ndarray:
    """Left-to-right product of generator exponentials."""
    m = np.eye(3)
    for gen, param in word:
        m = m @ exp_generator(kp, gen, param)
    return m


def project(kp: KappaPair, point) -> GenComplex:
    """Central projection (z, t, x) -> (t + i*x)/(z + 1) from (-1, 0, 0).

    Raises:
        ProjectionPole: at z = -1, the projection point itself.
    """
    z, t, x = point
    if abs(z + 1.0) < 1e-15:
        raise ProjectionPole("z = -1 is the projection point")
    return gc(t / (z + 1.0), x / (z + 1.0), kp.kappa2)


def _one_plus_kappa1_sqmod(kappa1: float, w: GenComplex) -> tuple[float, int]:
    """1 + kappa1*sqmod(w) as (d, e), the value d * 2**e with e = 0 below +inf.

    Where kappa1*sqmod(w) overflowed to +inf, or was 0*inf or inf - inf (-inf
    is outside the model either way), it is formed from w = 2**k * w_s and
    kappa1 = 2**j * c, whose product c*s is normal; beyond the float range
    d = c*s drops the 1 and e = j + 2*k.
    """
    d = 1.0 + kappa1 * w.sqmod()
    if d < math.inf:
        return d, 0
    _, _, s, k = w._scaled()
    c, _, _, j = gc(kappa1, 0.0, 0.0)._scaled()
    d = 1.0 + _times_pow2(c * s, j + 2 * k)
    return (d, 0) if d < math.inf else (c * s, j + 2 * k)


def unproject(kp: KappaPair, w: GenComplex) -> np.ndarray:
    """The quadric point projecting to w.

    Inverse of :func:`project`; the z coordinate is nonnegative exactly when
    kappa1*sqmod(w) <= 1 (inside the equator image when kappa1 > 0).

    Raises:
        OutsideModel: when 1 + kappa1*sqmod(w) <= 0.
    """
    denom, e = _one_plus_kappa1_sqmod(kp.kappa1, w)
    if e:  # 2*w/denom is 2*w/(kappa1*sqmod(w)) to rounding
        re, im, _, k = w._scaled()
        t, x = (_times_pow2(2.0 * v, k - e, denom) for v in (re, im))
        return np.array([-1.0, t, x])
    if denom <= 0.0:
        raise OutsideModel(f"1 + kappa1*|w|^2 = {denom} <= 0")
    scale = 2.0 / denom
    return np.array([scale - 1.0, w.re * scale, w.im * scale])


def metric_g1(kp: KappaPair, w: GenComplex, dw: GenComplex) -> float:
    """Main metric sqmod(dw)/(1 + kappa1*sqmod(w))^2 (indefinite if kappa2<0)."""
    denom, e = _one_plus_kappa1_sqmod(kp.kappa1, w)
    if denom == 0.0:
        raise BoundarySingularity("metric evaluated on the model boundary")
    num = dw.sqmod()
    if not e and math.isfinite(num) and denom * denom < math.inf:
        return num / (denom * denom)
    # num = s * 4**k and (denom * 2**e)**2 = mm * 4**(e + j), s and mm normal
    _, _, s, k = dw._scaled()
    _, _, mm, j = gc(denom, 0.0, 0.0)._scaled()
    return _times_pow2(s, 2 * (k - e - j), mm)


def metric_g2(kp: KappaPair, t0: float, dx: float) -> float:
    """Subsidiary metric dx^2/(1 + kappa1*t0^2)^2 on leaves w = t0 (kappa2=0)."""
    if kp.kappa2 != 0.0:
        raise WrongGeometry("subsidiary leaf metric needs kappa2 = 0")
    denom = 1.0 + kp.kappa1 * t0 * t0
    return dx * dx / (denom * denom)


def distance(kp: KappaPair, w1: GenComplex, w2: GenComplex) -> float:
    """Closed-form geodesic distance in the conformal model.

    d(w1, w2) = atank(kappa1, |(w2 - w1) / (kappa1*conj(w1)*w2 + 1)|),
    reducing to atank(kappa1, |w|) from the origin.

    Raises:
        DenominatorNotInvertible: when the denominator is a zero divisor.
        NullOrImaginarySeparation: when the argument's squared modulus is
            negative (mixed causal character, kappa2 < 0).
    """
    den = kp.kappa1 * w1.conj() * w2 + 1.0
    if den.is_zero() or den.is_zero_divisor():
        raise DenominatorNotInvertible(f"denominator {den} is not invertible")
    arg = (w2 - w1) * den.inv()
    # |arg| = sqrt(s) * 2**k, where s, the squared modulus of arg / 2**k,
    # neither underflows nor overflows
    _, _, s, k = arg._scaled()
    if s < 0.0:
        raise NullOrImaginarySeparation(f"squared separation {_times_pow2(s, 2 * k)} < 0")
    return atank(kp.kappa1, _times_pow2(math.sqrt(s), k))


# -- region rendering -----------------------------------------------------------


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise NonFiniteResult(f"SVG coordinate {value} is not finite")
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.9g}"


def _boundary_path(points: list[tuple[float, float]], close: bool = False) -> str:
    d = "M " + " L ".join(f"{_fmt(t)},{_fmt(x)}" for t, x in points)
    if close:
        d += " Z"
    return f'<path d="{d}" fill="none" stroke="black" stroke-width="0.02"/>'


def _boundary_elements(kp: KappaPair) -> list[str]:
    # boundary of the model region: 1 + kappa1*(t^2 + kappa2*x^2) = 0
    k1, k2 = kp.kappa1, kp.kappa2
    if k1 == 0.0:
        return []
    rhs = -1.0 / k1  # t^2 + kappa2*x^2 = rhs
    out = []
    if rhs > 0.0:
        if k2 > 0.0:
            rx = math.sqrt(rhs)
            ry = math.sqrt(rhs / k2)
            pts = []
            for i in range(96):
                angle = 2.0 * math.pi * i / 96.0
                pts.append((rx * math.cos(angle), ry * math.sin(angle)))
            out.append(_boundary_path(pts, close=True))
        elif k2 == 0.0:
            t0 = math.sqrt(rhs)
            for sgn in (1.0, -1.0):
                out.append(_boundary_path([(sgn * t0, -2.0), (sgn * t0, 2.0)]))
        else:
            # t^2 - |k2| x^2 = rhs > 0: branches open along the t axis
            for sgn in (1.0, -1.0):
                pts = []
                for i in range(65):
                    x = -2.0 + 4.0 * i / 64.0
                    t = sgn * math.sqrt(rhs - k2 * x * x)
                    pts.append((t, x))
                out.append(_boundary_path(pts))
    elif rhs < 0.0 and k2 < 0.0:
        # t^2 - |k2| x^2 = rhs < 0: branches open along the x axis
        for sgn in (1.0, -1.0):
            pts = []
            for i in range(65):
                t = -2.0 + 4.0 * i / 64.0
                x = sgn * math.sqrt((rhs - t * t) / k2)
                pts.append((t, x))
            out.append(_boundary_path(pts))
    return out


def region_svg(kp: KappaPair) -> str:
    """Deterministic SVG of the model region for one (kappa1, kappa2).

    Viewport [-2, 2]^2 with the horizontal axis Re w = t and vertical axis
    Im w = x; the region boundary is stroked solid and, for kappa2 <= 0, the
    zero-divisor directions through the origin (the null cone of the
    here-now event) are dashed.
    """
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-2 -2 4 4" width="400" height="400">',
        f"<!-- kappa1={_fmt(kp.kappa1)} kappa2={_fmt(kp.kappa2)} -->",
    ]
    lines.extend(_boundary_elements(kp))
    if kp.kappa2 <= 0.0:
        slope = math.sqrt(-kp.kappa2)  # null directions t = +/- slope * x
        for sgn in (1.0, -1.0):
            lines.append(
                f'<line x1="{_fmt(-sgn * slope * 2.0)}" y1="-2" '
                f'x2="{_fmt(sgn * slope * 2.0)}" y2="2" '
                'stroke="black" stroke-width="0.01" '
                'stroke-dasharray="0.1,0.1"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

