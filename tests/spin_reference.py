"""The spin elements and rotors of ``spin`` and ``rotate`` as objects, before
the four-float parts.

Kept unchanged as the oracle of the differential tests in ``test_cli.py``:
``spin_element`` is ``spin.spin_from_axis`` as it built two ``GenComplex``
entries into a ``SpinElement``, ``canonical_sign`` picks the representative
of {s, -s} by walking those entries, and ``lift`` is
``clifford._lift``, which unpacked the element into a rotor.  The command
line must print the bytes these give, and end in the same error where they
do.  None of them calls ``spin.axis_parts`` or ``spin.canonical_parts``.
"""

from __future__ import annotations

from kinematica import spin
from kinematica.ckgeom import KappaPair
from kinematica.clifford import Multivector
from kinematica.gencomplex import GenComplex
from kinematica.gentrig import cosk_sink
from kinematica.spin import SpinElement

# the axis (n1, n2, n3) of the spin family over each generator's exponential
GENERATOR_AXES = {"K": (1.0, 0.0, 0.0), "H": (0.0, 0.0, 1.0), "P": (0.0, 1.0, 0.0)}


def spin_element(kp: KappaPair, n1: float, n2: float, n3: float, phi: float) -> SpinElement:
    """exp((phi/2) * (n1*is1 + n2*is2 + n3*s3check)) in closed form."""
    c, s = cosk_sink(spin.axis_label(kp, n1, n2, n3), 0.5 * phi)
    k2 = float(kp.kappa2)
    return SpinElement._make((kp, GenComplex(float(c), float(n1 * s), k2),
                              GenComplex(float(n3 * s), float(n2 * s), k2)))


def canonical_sign(s: SpinElement) -> SpinElement:
    """s or -s: nonnegative Re(alpha) first, then Im(alpha), then the same on beta."""
    for value in (s.alpha.re, s.alpha.im, s.beta.re, s.beta.im):
        if value > 0.0:
            return s
        if value < 0.0:
            return -s
    return s


def generator_element(kp: KappaPair, gen: str, param: float) -> SpinElement:
    """The spin element over exp(param * generator), the + representative."""
    return canonical_sign(spin_element(kp, *GENERATOR_AXES[gen], param))


def lift(s: SpinElement) -> Multivector:
    """The spin element (alpha, beta) in the slots that ``clifford.sandwich`` reads back."""
    a, b = s.alpha, s.beta
    return Multivector._make((s.kp, (a.re, 0.0, 0.0, 0.0, a.im, b.im, b.re, 0.0)))
