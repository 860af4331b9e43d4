"""Every motion is a rotation, if you ask the right algebra.

The eight-dimensional Clifford algebra over (kappa1, kappa2) hosts the
motion group as its rotors: sandwich products rotate vectors about a fixed
axis by a labeled angle, uniformly for spheres, Minkowski planes, and the
Galilean world.
"""

import numpy as np

from kinematica import (
    KappaPair,
    Multivector,
    UnitAxis,
    ck_dot,
    cosk_sink,
    rotor,
    sandwich,
    wedge,
)
from kinematica.clifford import (
    S1,
    S2,
    S3,
    axis_of,
    bivector_kappa,
    left_contract,
    plane_of,
    rotor_from_bivector,
)

kp = KappaPair(1.0, 1.0)
s1 = Multivector.basis(kp, S1)
s2 = Multivector.basis(kp, S2)
s3 = Multivector.basis(kp, S3)

print("=== the generator relations ===")
print(f"s1*s1 = {s1 * s1}")
print(f"s2*s2 = {s2 * s2}   (kappa1)")
print(f"s3*s3 = {s3 * s3}   (kappa1*kappa2)")
print(f"s1*s2 = {s1 * s2}   and s2*s1 = {s2 * s1}")
print(f"s1*s2*s3 = {s1 * s2 * s3}   (-kappa1 * volume)")

print()
print("=== vector product = inner + wedge ===")
a = Multivector.vector(kp, 0.3, -0.7, 1.1)
b = Multivector.vector(kp, 1.0, 0.4, -0.2)
print(f"a.b   = {ck_dot(a, b):+.6f}")
print(f"a^b   = {wedge(a, b)}")
print(f"a*b   = {a * b}")
print(f"a -| (a^b) back in the plane: {left_contract(a, wedge(a, b))}")

print()
print("=== a rotor is cosk + bivector * sink of the half angle ===")
for k1, k2, world in ((1.0, 1.0, "sphere"), (1.0, -1.0, "Minkowski"), (0.0, 0.0, "Galilei")):
    kpw = KappaPair(k1, k2)
    axis = UnitAxis(1.0, 0.0, 0.0)
    plane_label = bivector_kappa(
        Multivector.bivector(kpw, axis.n1, axis.n2, axis.n3)
    )
    r = rotor(kpw, axis, 0.8)
    v = Multivector.vector(kpw, 0.0, 1.0, 0.0)
    image = sandwich(r, v)
    print(f"{world:9s} (plane label {plane_label:+.0f}): "
          f"t-axis vector goes to {tuple(map(float, np.round(image.vector_components(), 4)))}")
    print(f"{'':9s}  length before/after: "
          f"{ck_dot(v, v):+.4f} / {ck_dot(image, image):+.4f}")

print()
print("=== the Galilean shear, as promised ===")
kp0 = KappaPair(0.0, 0.0)
sh1 = Multivector.basis(kp0, S1)
sh3 = Multivector.basis(kp0, S3)
# the rotor exp(0.75 s1^s3) sandwiches s1 to [cosk(x, 1.5) - (s1^s3) sink(x, 1.5)] s1
shear_plane = wedge(sh1, sh3)
moved = sandwich(rotor_from_bivector(shear_plane, 1.5), sh1)
c, s = cosk_sink(bivector_kappa(shear_plane), 1.5)
closed = ((Multivector.scalar(kp0, c) - shear_plane * s) * sh1).grade_part(1)
print(f"shearing the z-axis by 1.5 along x: {tuple(map(float, moved.vector_components()))}")
print(f"closed form agrees:                 {tuple(map(float, closed.vector_components()))}")

print()
print("=== axes survive even degenerate metrics ===")
for k1, k2 in ((1.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
    kpw = KappaPair(k1, k2)
    n = UnitAxis(1.0, 0.0, 0.0)
    normal, form = axis_of(kpw, n)
    e, f, substituted = plane_of(kpw, n)
    print(f"(kappa1, kappa2) = ({k1:+.0f}, {k2:+.0f}): normal "
          f"{tuple(map(float, normal.vector_components()))} via the {form} form"
          f"{', plane element substituted' if substituted else ''}")
