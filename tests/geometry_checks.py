"""Checks of the projective model and the rotors, and the comparators, that
only the tests use.

Each check returns a flag or both sides of an identity of
:mod:`kinematica.ckgeom` or :mod:`kinematica.clifford`; ``test_ckgeom.py``,
``test_clifford.py`` and ``test_acceptance.py`` import them from here.  The
comparators :func:`approx_eq` and :func:`projectively_equal` take their
absolute bound from the caller, with no default, so every test states its own.
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
from kinematica.errors import DegeneratePlane, KappaMismatch
from kinematica.gencomplex import GammaPoint, GenComplex, Mat2
from kinematica.gentrig import cosk_sink
from kinematica.spin import sl2_of_word


def _label_and_parts(x) -> tuple:
    """The label and the real parts of a GenComplex, a Mat2 or a Multivector."""
    if isinstance(x, GenComplex):
        return x.kappa, (x.re, x.im)
    if isinstance(x, Mat2):
        return x.kappa, tuple(part for entry in x for part in (entry.re, entry.im))
    if isinstance(x, Multivector):
        return x.kp, x.coeffs
    raise TypeError(f"no parts to compare in a {type(x).__name__}")


def approx_eq(x, y, tol: float) -> bool:
    """x and y agree part by part within the absolute bound tol.

    A nan part is never close.  On a Mat2 this is max_abs(x - y) <= tol.
    Operands with different labels raise KappaMismatch rather than compare.
    """
    (kx, px), (ky, py) = _label_and_parts(x), _label_and_parts(y)
    if kx != ky:
        raise KappaMismatch(f"labels differ: {kx} vs {ky}")
    return all(abs(a - b) <= tol for a, b in zip(px, py, strict=True))


def projectively_equal(p: GammaPoint, q: GammaPoint, tol: float) -> bool:
    """Same point of the completion: the cross products p.u*q.v and q.u*p.v
    agree within tol."""
    return approx_eq(p.u * q.v, q.u * p.v, tol)


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
    return approx_eq(w1, w2, tol) or approx_eq(w1, -w2, tol)


def act_and_project_equivariance(
    kp: KappaPair, word: list[tuple[str, float]], point
) -> tuple[GenComplex, GenComplex]:
    """Both sides of the equivariance square for a group word.

    Returns (project(g . point), M(project(point))) where g is the 3x3 word
    product and M the Moebius map of the corresponding spin word; the two
    agree whenever everything is defined.
    """
    moved = np.asarray(word_matrix(kp, word)) @ np.asarray(point, dtype=float)
    return project(kp, moved), sl2_of_word(kp, word).as_mat2().apply(project(kp, point))


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
