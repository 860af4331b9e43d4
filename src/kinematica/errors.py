"""Typed errors raised by the library, and the one writer of a template's floats.

Every domain error derives from :class:`KinematicaError` so callers (and the
command line front end) can catch the whole family at once.  :func:`fill`
writes the floats of every ``%``-template, the command line's JSON answers
and ``region``'s SVG alike, and raises :class:`NonFiniteResult`, the one
error of a value that cannot be written.
"""

import math


class KinematicaError(Exception):
    """Base class for all domain errors in this package."""


# -- generalized trigonometry -------------------------------------------------

class PoleError(KinematicaError):
    """Tangent evaluated at (or within tolerance of) a cosine zero."""


class DomainError(KinematicaError):
    """Argument outside the domain of an inverse function."""


class TrigOverflow(KinematicaError, OverflowError):
    """A labeled cosine or sine whose label, argument or value leaves the float range."""


# -- generalized complex numbers ----------------------------------------------

class KappaMismatch(KinematicaError):
    """Arithmetic attempted between values carrying different kappa labels."""


class ZeroDivisorError(KinematicaError):
    """Inversion of a nonzero element whose squared modulus vanishes."""


class DivisionByZero(KinematicaError):
    """Inversion of the zero element."""


class AtInfinity(KinematicaError):
    """A Moebius image left the affine plane; lift to the completion instead."""


class InadmissiblePoint(KinematicaError):
    """A homogeneous pair whose components share a nonzero annihilator."""


# -- Cayley-Klein geometry ----------------------------------------------------

class ProjectionPole(KinematicaError):
    """Central projection attempted at the projection point z = -1."""


class OutsideModel(KinematicaError):
    """Point outside the region covered by the conformal model."""


class BoundarySingularity(KinematicaError):
    """Metric evaluated on the model boundary where it degenerates."""


class WrongGeometry(KinematicaError):
    """Operation only defined for a different (kappa1, kappa2) regime."""


class NullOrImaginarySeparation(KinematicaError):
    """Distance requested for a pair with negative squared separation."""


class DenominatorNotInvertible(KinematicaError):
    """Distance denominator is a zero divisor."""


# -- Clifford algebra ----------------------------------------------------------

class NotAVector(KinematicaError):
    """Multivector argument is not a pure grade-1 element."""


class GradeError(KinematicaError):
    """Multivector argument has the wrong grade support."""


class DegeneratePlane(KinematicaError):
    """Two vectors span no plane element (their wedge vanishes)."""


class NotUnitRotor(KinematicaError, ValueError):
    """Rotor whose pseudo-norm r * reverse(r) is not 1 (or is not finite)."""


class DegenerateAxis(KinematicaError, ValueError):
    """Rotation axis whose Euclidean norm is zero, not finite or overflows."""


# -- spin group -----------------------------------------------------------------

class NotSpin(KinematicaError):
    """Matrix is not in the generalized Spin(3) group."""


# -- conformal algebra -----------------------------------------------------------

class DecompositionFailure(KinematicaError):
    """A bracket did not close in the six-generator span."""


# -- writing results -------------------------------------------------------------

class NonFiniteResult(KinematicaError, ValueError):
    """A result holding nan or an infinity, which JSON cannot carry."""


def fill(text: str, values, what: str = "result") -> str:
    """The ``%``-template ``text`` with its slots filled by ``values``, in writing order.

    -0.0 is written as 0: where a value equals 0, each value x is written as
    x + 0.0.  The first value that is not finite ends in NonFiniteResult,
    "<what> <value> is not finite".
    """
    if not math.isfinite(sum(values)):  # a value is not finite, or the sum overflowed
        for x in values:
            if not math.isfinite(x):
                raise NonFiniteResult(f"{what} {x} is not finite")
    if 0.0 in values:  # -0.0 == 0.0; x + 0.0 folds it and leaves every other x
        return text % tuple([x + 0.0 for x in values])
    return text % tuple(values)


# -- classification ---------------------------------------------------------------

class DivergentContraction(KinematicaError):
    """A rescaling exponent choice makes a structure constant blow up."""
