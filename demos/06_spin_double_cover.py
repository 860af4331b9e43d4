"""Two spin elements per motion: the double cover.

The 2x2 matrices [[alpha, beta], [-kappa1*conj(beta), conj(alpha)]] with
alpha conj(alpha) + kappa1 beta conj(beta) = 1 form the generalized Spin(3).
Conjugation drops them two-to-one onto the motion group, and their Moebius
actions on the projected plane reproduce exactly what the 3x3 matrices do
upstairs on the quadric.
"""

import numpy as np

from kinematica import KappaPair, cover_to_so3, gc
from kinematica.ckgeom import exp_generator, project, unproject, word_matrix
from kinematica.spin import (
    is_spin,
    is_su2_algebra,
    sl2_of_exp,
    sl2_of_word,
    so3_matrix_generators,
    spin_from_axis,
)

kp = KappaPair(1.0, -1.0)  # anti-de Sitter flavour: curved, Lorentzian

print("=== a boost and its spin representative ===")
theta = 0.6
s = sl2_of_exp(kp, "K", theta)
print(f"alpha = {s.alpha}")
print(f"beta  = {s.beta}")
print(f"unit condition defect: {s.unit_defect():.2e}")
print(f"is_spin: {is_spin(kp, s.as_mat2())}")

print()
print("=== the cover hits the 3x3 boost on the nose ===")
print("cover(s) =")
print(np.round(cover_to_so3(s), 6))
print("exp_k    =")
print(np.round(exp_generator(kp, "K", theta), 6))

print()
print("=== two-to-one: s and -s project to the same motion ===")
print(f"max |cover(s) - cover(-s)| = "
      f"{np.max(np.abs(np.asarray(cover_to_so3(s)) - cover_to_so3(-s))):.2e}")

print()
print("=== a full turn upstairs is half a turn downstairs ===")
kp_sphere = KappaPair(1.0, 1.0)
# exp(2*pi K) itself: sl2_of_exp would return its + representative, +1
full = spin_from_axis(kp_sphere, 1.0, 0.0, 0.0, 2 * np.pi)
print(f"spin element after a 2*pi rotation: alpha = {full.alpha} (that is -1!)")
print(f"its 3x3 image is the identity: "
      f"{np.allclose(cover_to_so3(full), np.eye(3))}")

print()
print("=== the tangent criterion B* A + A B = 0 ===")
h, p, k = so3_matrix_generators(kp)
print(f"H generator passes: {is_su2_algebra(kp, h)}")
print(f"P generator passes: {is_su2_algebra(kp, p)}")
print(f"K generator passes: {is_su2_algebra(kp, k)}")

print()
print("=== equivariance: act upstairs, then project, or project first ===")
rng = np.random.default_rng(0)
word = [("H", 0.35), ("K", -0.5), ("P", 0.2)]
w = gc(0.15, -0.1, kp.kappa2)
upstairs = project(kp, np.asarray(word_matrix(kp, word)) @ unproject(kp, w))
downstairs = sl2_of_word(kp, word).as_mat2().apply(w)
print(f"project(g . p)      = {upstairs}")
print(f"Moebius(g)(project) = {downstairs}")

print()
print("=== random spin products stay spin, covers stay homomorphic ===")
s1 = spin_from_axis(kp, 0.6, 0.0, 0.8, 0.9)
s2 = spin_from_axis(kp, 0.0, 1.0, 0.0, -1.3)
lhs = cover_to_so3(s1 * s2)
rhs = np.asarray(cover_to_so3(s1)) @ cover_to_so3(s2)
print(f"max |cover(s1 s2) - cover(s1) cover(s2)| = {np.max(np.abs(lhs - rhs)):.2e}")
