"""Checks of the projective model and the rotors that only the tests use.

Each returns a flag or both sides of an identity of :mod:`kinematica.ckgeom`
or :mod:`kinematica.clifford`; ``test_ckgeom.py``, ``test_clifford.py`` and
``test_acceptance.py`` import them from here.
"""

from __future__ import annotations

import numpy as np

from kinematica.ckgeom import KappaPair, project, word_matrix
from kinematica.clifford import (
    Multivector,
    bivector_kappa,
    rotor_from_bivector,
    sandwich,
    wedge,
)
from kinematica.errors import DegeneratePlane
from kinematica.gencomplex import GenComplex
from kinematica.gentrig import cosk_sink
from kinematica.spin import moebius_of_word


def on_sigma(kp: KappaPair, point, tol: float = 1e-10) -> bool:
    z, t, x = point
    value = z * z + kp.kappa1 * t * t + kp.kappa1 * kp.kappa2 * x * x
    return abs(value - 1.0) <= tol


def is_hemisphere_boundary(point, tol: float = 1e-10) -> bool:
    """True on the z = 0 rim of the projected hemisphere.

    Antipodal rim points project to w and -w; they are the same projective
    point, but the identification is never applied silently: callers check
    the flag and compare with :func:`boundary_equivalent` where it matters.
    """
    return abs(point[0]) <= tol


def boundary_equivalent(w1: GenComplex, w2: GenComplex, tol: float = 1e-10) -> bool:
    """Equality of rim images up to the antipodal sign."""
    return w1.approx_eq(w2, tol) or w1.approx_eq(-w2, tol)


def act_and_project_equivariance(
    kp: KappaPair, word: list[tuple[str, float]], point
) -> tuple[GenComplex, GenComplex]:
    """Both sides of the equivariance square for a group word.

    Returns (project(g . point), M(project(point))) where g is the 3x3 word
    product and M the Moebius map of the corresponding spin word; the two
    agree whenever everything is defined.
    """
    moved = np.asarray(word_matrix(kp, word)) @ np.asarray(point, dtype=float)
    return project(kp, moved), moebius_of_word(kp, word).apply(project(kp, point))


def in_plane_rotation_check(
    kp: KappaPair, a: Multivector, b: Multivector, phi: float
) -> tuple[Multivector, Multivector]:
    """Sandwich of a by exp((phi/2) a^b) next to its in-plane closed form.

    Returns (sandwich result, [cosk(x, phi) - (a^b) sink(x, phi)] a); the two
    agree because a anticommutes with the plane element it spans.
    """
    plane = wedge(a, b)
    if float(np.max(np.abs(plane.coeffs))) == 0.0:
        raise DegeneratePlane("a ^ b = 0 spans no plane element")
    x = bivector_kappa(plane)
    r = rotor_from_bivector(plane, phi)
    c, s = cosk_sink(x, phi)
    closed = (Multivector.scalar(kp, c) - plane * s) * a
    return sandwich(r, a), closed.grade_part(1)
