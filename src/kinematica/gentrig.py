"""Curvature-labeled trigonometry.

A single real label ``kappa`` selects the flavour of trigonometry: circular
for ``kappa > 0``, parabolic for ``kappa = 0``, hyperbolic for ``kappa < 0``.
The labeled cosine and sine are the entire functions

    cosk(kappa, phi) = 1 - kappa*phi**2/2! + kappa**2*phi**4/4! - ...
    sink(kappa, phi) = phi - kappa*phi**3/3! + kappa**2*phi**5/5! - ...

which reduce to cos/sin, 1/phi, and cosh/sinh on the three branches.  They
satisfy cosk**2 + kappa*sink**2 = 1, the usual double-angle, half-angle and
addition laws with kappa inserted, and d/dphi cosk = -kappa*sink,
d/dphi sink = cosk.

:func:`cosk_sink` picks the branch once, on the exact label: kappa == 0.0
is parabolic, and every other label, however small, is circular or
hyperbolic by its sign.  Where ``|kappa*phi**2| < SERIES_CUTOFF`` both power
series are summed instead: dividing sin(sqrt(kappa)*phi) by sqrt(kappa) loses
digits there, and the series keeps the functions smooth across kappa -> 0.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError, TrigOverflow

# use the series branch when |kappa * phi**2| is below this
SERIES_CUTOFF = 1e-8
# tank raises PoleError when |cosk| falls below this
POLE_TOL = 1e-12

_SERIES_TERMS = 6


def cosk_sink(kappa: float, phi: float) -> tuple[float, float]:
    """(cosk(kappa, phi), sink(kappa, phi)) from one branch choice.

    Raises:
        TrigOverflow: when sqrt(|kappa|)*phi is not finite, cosh overflows,
            or sinh(x)/sqrt(|kappa|) overflows at a tiny label.
    """
    if kappa == 0.0:
        return 1.0, phi
    u = kappa * phi * phi
    if abs(u) < SERIES_CUTOFF:
        # sum_m (-u)^m / (2m)!  and  phi * sum_m (-u)^m / (2m+1)!
        c = s = 0.0
        c_term = s_term = 1.0
        for m in range(_SERIES_TERMS):
            c += c_term
            s += s_term
            c_term *= -u / ((2 * m + 1) * (2 * m + 2))
            s_term *= -u / ((2 * m + 2) * (2 * m + 3))
        return c, phi * s
    r = math.sqrt(abs(kappa))
    x = r * phi
    if not math.isfinite(x):
        raise TrigOverflow(f"cosk({kappa}, {phi}): argument {x} is not finite")
    try:
        if kappa > 0.0:
            c, s = math.cos(x), math.sin(x) / r
        else:
            c, s = math.cosh(x), math.sinh(x) / r
    except OverflowError as exc:
        raise TrigOverflow(f"cosk({kappa}, {phi}): {exc}") from None
    if not math.isfinite(s):
        raise TrigOverflow(f"sink({kappa}, {phi}) = {s} is not finite")
    return c, s


def cosk(kappa: float, phi: float) -> float:
    """Labeled cosine: cos, 1, or cosh according to the sign of kappa."""
    return cosk_sink(kappa, phi)[0]


def sink(kappa: float, phi: float) -> float:
    """Labeled sine: sin(sqrt(k)*phi)/sqrt(k), phi, or sinh(...)/sqrt(-k)."""
    return cosk_sink(kappa, phi)[1]


def tank(kappa: float, phi: float) -> float:
    """Labeled tangent sink/cosk.

    Raises:
        PoleError: when |cosk(kappa, phi)| < POLE_TOL.
    """
    c, s = cosk_sink(kappa, phi)
    if abs(c) < POLE_TOL:
        raise PoleError(f"tank pole: cosk({kappa}, {phi}) = {c}")
    return s / c


def atank(kappa: float, x: float) -> float:
    """Inverse labeled tangent.

    Solves tank(kappa, phi) = x.  For kappa > 0 the principal value in
    (-pi/(2*sqrt(kappa)), pi/(2*sqrt(kappa))) is returned.  Where
    sqrt(|kappa|)*x is subnormal or 0, x itself is returned on every branch.

    Raises:
        DomainError: when kappa < 0 and |x| >= 1/sqrt(-kappa).
    """
    if kappa == 0.0:
        return x
    r = math.sqrt(abs(kappa))
    y = r * x
    if abs(y) < 2.0**-1022:  # y / r would give back x with bits lost
        return x
    if kappa > 0.0:
        return math.atan(y) / r
    if abs(x) >= 1.0 / r:
        raise DomainError(
            f"atank domain: |{x}| >= 1/sqrt({-kappa}) for kappa = {kappa}"
        )
    return math.atanh(y) / r
