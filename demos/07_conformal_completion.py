"""Six generators instead of three: the conformal algebra.

Traceless 2x2 matrices over the kappa2 algebra extend the motion algebra by
a dilation D and two special maps G1, G2.  Their Moebius actions need the
projective completion to act everywhere, and the computed bracket table
doubles as an errata detector for the published one.
"""

from kinematica import KappaPair
from kinematica.conformal import (
    GENERATOR_TAGS,
    computed_brackets,
    conformal_basis,
    conformal_moebius,
    diff_vs_tabulated,
)
from kinematica.errors import AtInfinity
from kinematica.gencomplex import gamma_apply, gamma_lift, gc

kp = KappaPair(1.0, -1.0)

print("=== the six generators (trace is zero for all) ===")
for tag, gen in conformal_basis(kp).items():
    tr = gen.trace()
    print(f"  {tag:2s}: trace = {tr.re:+.1f}{tr.im:+.1f}i")

print()
print("=== the computed bracket table ===")
table = computed_brackets(kp)
for row in GENERATOR_TAGS:
    for col in GENERATOR_TAGS:
        if row < col and table[(row, col)]:
            terms = " + ".join(
                f"{v:+g} {t}" for t, v in table[(row, col)].items()
            )
            print(f"  [{row},{col}] = {terms}")

print()
print("=== where the published table disagrees ===")
for record in diff_vs_tabulated(kp, table):
    row, col = record["bracket"]
    print(f"  [{row},{col}]  computed {record['computed']}  "
          f"vs claimed {record['claimed']}")

print()
print("=== dilations and special maps on the plane ===")
w = gc(0.5, 0.25, kp.kappa2)
d = conformal_moebius(kp, "D", 0.7)
print(f"D (t = 0.7): {w} -> {d.apply(w)}   (pure scaling by e^0.7)")
g1 = conformal_moebius(kp, "G1", 0.7)
print(f"G1 (t = 0.7): {w} -> {g1.apply(w)}   (w / (t w + 1): not a translation)")

print()
print("=== G1 can push points off the plane; the completion catches them ===")
kp_flat = KappaPair(1.0, 0.0)
t = 2.0
w = gc(-1.0 / t, 1.0, 0.0)  # makes t*w + 1 a dual-number zero divisor
g1 = conformal_moebius(kp_flat, "G1", t)
try:
    g1.apply(w)
except AtInfinity as exc:
    print(f"affine action fails: {type(exc).__name__}")
image = gamma_apply(g1, gamma_lift(w))
print(f"homogeneous action succeeds: [{image.u} : {image.v}]")
