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

Evaluation dispatches on the exact sign of kappa, but switches to the
truncated power series when ``|kappa|*phi**2`` is tiny: dividing
sin(sqrt(kappa)*phi) by sqrt(kappa) loses digits there, and the series keeps
the functions smooth in kappa across the contraction limit kappa -> 0.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError, TrigOverflow

# |kappa| below this is dispatched to the flat (kappa = 0) branch.
ZERO_KAPPA = 1e-300
# use the series branch when |kappa * phi**2| is below this
SERIES_CUTOFF = 1e-8
# tank raises PoleError when |cosk| falls below this
POLE_TOL = 1e-12

_SERIES_TERMS = 6


def _cos_series(u: float) -> float:
    # sum_m (-u)^m / (2m)!  with u = kappa * phi**2
    total = 0.0
    term = 1.0
    for m in range(_SERIES_TERMS):
        total += term
        term *= -u / ((2 * m + 1) * (2 * m + 2))
    return total


def _sin_series(u: float, phi: float) -> float:
    # phi * sum_m (-u)^m / (2m+1)!
    total = 0.0
    term = 1.0
    for m in range(_SERIES_TERMS):
        total += term
        term *= -u / ((2 * m + 2) * (2 * m + 3))
    return phi * total


def cosk(kappa: float, phi: float) -> float:
    """Labeled cosine: cos, 1, or cosh according to the sign of kappa."""
    if abs(kappa) < ZERO_KAPPA:
        return 1.0
    u = kappa * phi * phi
    if abs(u) < SERIES_CUTOFF:
        return _cos_series(u)
    x = math.sqrt(abs(kappa)) * phi
    if not math.isfinite(x):
        raise TrigOverflow(f"cosk({kappa}, {phi}): argument {x} is not finite")
    try:
        return math.cos(x) if kappa > 0.0 else math.cosh(x)
    except OverflowError as exc:
        raise TrigOverflow(f"cosk({kappa}, {phi}): {exc}") from None


def sink(kappa: float, phi: float) -> float:
    """Labeled sine: sin(sqrt(k)*phi)/sqrt(k), phi, or sinh(...)/sqrt(-k)."""
    if abs(kappa) < ZERO_KAPPA:
        return phi
    u = kappa * phi * phi
    if abs(u) < SERIES_CUTOFF:
        return _sin_series(u, phi)
    r = math.sqrt(abs(kappa))
    x = r * phi
    if not math.isfinite(x):
        raise TrigOverflow(f"sink({kappa}, {phi}): argument {x} is not finite")
    try:
        return (math.sin(x) if kappa > 0.0 else math.sinh(x)) / r
    except OverflowError as exc:
        raise TrigOverflow(f"sink({kappa}, {phi}): {exc}") from None


def tank(kappa: float, phi: float) -> float:
    """Labeled tangent sink/cosk.

    Raises:
        PoleError: when |cosk(kappa, phi)| < 1e-12.
    """
    c = cosk(kappa, phi)
    if abs(c) < POLE_TOL:
        raise PoleError(f"tank pole: cosk({kappa}, {phi}) = {c}")
    return sink(kappa, phi) / c


def atank(kappa: float, x: float) -> float:
    """Inverse labeled tangent.

    Solves tank(kappa, phi) = x.  For kappa > 0 the principal value in
    (-pi/(2*sqrt(kappa)), pi/(2*sqrt(kappa))) is returned; ``atank(kappa, 0)``
    is 0 on every branch.

    Raises:
        DomainError: when kappa < 0 and |x| >= 1/sqrt(-kappa).
    """
    if abs(kappa) < ZERO_KAPPA:
        return x
    if kappa > 0.0:
        r = math.sqrt(kappa)
        return math.atan(r * x) / r
    r = math.sqrt(-kappa)
    if abs(x) >= 1.0 / r:
        raise DomainError(
            f"atank domain: |{x}| >= 1/sqrt({-kappa}) for kappa = {kappa}"
        )
    return math.atanh(r * x) / r
