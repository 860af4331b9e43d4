"""Nine geometries, one quadric, one conformal disk-like model.

Each (kappa1, kappa2) gives a motion group acting on the unit quadric
z^2 + kappa1 t^2 + kappa1 kappa2 x^2 = 1.  Central projection from
(-1, 0, 0) flattens it onto the generalized complex plane, where the metric
is conformal and distance has a closed form.  This script also writes the
model regions as SVG files.
"""

import math
import pathlib

import numpy as np

from kinematica import KappaPair, distance, gc, metric_g1, project, region_svg, unproject
from kinematica.ckgeom import bilinear_form, exp_generator, word_matrix

print("=== the boost is a rotation, a shear, or a Lorentz boost ===")
for kappa2, label in ((1.0, "rotation"), (0.0, "Galilean shear"), (-1.0, "Lorentz boost")):
    kp = KappaPair(1.0, kappa2)
    block = np.asarray(exp_generator(kp, "K", 0.5))[1:, 1:]
    print(f"kappa2 = {kappa2:+.0f} ({label}):")
    for row in block:
        print(f"    [{row[0]:+.4f} {row[1]:+.4f}]")

print()
print("=== group words preserve the invariant form ===")
kp = KappaPair(-1.0, -1.0)
g = bilinear_form(kp)
m = np.asarray(word_matrix(kp, [("H", 0.4), ("K", -0.8), ("P", 1.1)]))
print(f"max |M^T G M - G| = {np.max(np.abs(m.T @ g @ m - g)):.2e}")

print()
print("=== the Poincare disk appears at (kappa1, kappa2) = (-1, 1) ===")
kp = KappaPair(-1.0, 1.0)
w = gc(0.5, 0.0, 1.0)
print(f"closed-form distance 0 -> 0.5:  {distance(kp, gc(0, 0, 1.0), w):.10f}")
print(f"artanh(0.5)                  :  {math.atanh(0.5):.10f}")

# Simpson's rule with 200 steps along the ray s*w, 0 <= s <= 1; the speed is smooth
speed = [math.sqrt(metric_g1(kp, gc(i / 200 * 0.5, 0, 1.0), w)) for i in range(201)]
ray_length = (speed[0] + 4 * sum(speed[1::2]) + 2 * sum(speed[2:-1:2]) + speed[-1]) / 600
print(f"metric integrated along ray  :  {ray_length:.10f}")

print()
print("=== round trip through the quadric ===")
point = unproject(kp, w)
print(f"0.5 lifts to quadric point {point} (checks: z^2 - t^2 - x^2 = "
      f"{point[0]**2 - point[1]**2 - point[2]**2:.6f})")
print(f"projecting back: {project(kp, point)}")

print()
print("=== constant curvature, numerically ===")
# Liouville's formula K = -laplacian(log factor)/(2*factor) for the model's
# conformal factor 4/(1 + kappa1*|w|^2)^2, with a five-point Laplacian of step h
u, v, h = 0.2, 0.1, 1e-5
for kappa1 in (-1.0, 0.0, 1.0):
    factor = lambda u, v, k=kappa1: 4.0 / (1.0 + k * (u * u + v * v)) ** 2
    log_f = lambda u, v: math.log(factor(u, v))
    laplacian = (log_f(u + h, v) + log_f(u - h, v) + log_f(u, v + h) + log_f(u, v - h)
                 - 4.0 * log_f(u, v)) / (h * h)
    estimate = -laplacian / (2.0 * factor(u, v))
    print(f"kappa1 = {kappa1:+.0f}: curvature of the model plane = {estimate:+.6f}")

print()
print("=== the nine regions, rendered ===")
out_dir = pathlib.Path(__file__).resolve().parent / "out"
out_dir.mkdir(exist_ok=True)
for k1 in (1.0, 0.0, -1.0):
    for k2 in (1.0, 0.0, -1.0):
        name = f"region_{k1:+.0f}_{k2:+.0f}.svg".replace("+", "p").replace("-", "m")
        (out_dir / name).write_text(region_svg(KappaPair(k1, k2)))
        print(f"  wrote {out_dir / name}")
