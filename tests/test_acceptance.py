"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``-rA``) to see the
per-criterion lines.  Every tolerance is pinned here, not configurable.
"""

import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from geometry_checks import (
    act_and_project_equivariance,
    approx_eq,
    in_plane_rotation_check,
)
from kinematica import ckgeom, clifford, conformal, kinclass, spin
from kinematica.ckgeom import KappaPair
from kinematica.cli import main as cli_main
from kinematica.gencomplex import Mat2, gc, gc_exp_unit
from kinematica.gentrig import atank, cosk, sink, tank
from oracles import (
    expm,
    gaussian_curvature_fd,
    pauli_product_table,
    quad_adaptive,
)

GOLDEN = Path(__file__).parent / "golden"

# one representative pair per sign pattern, deliberately non-normalized
NINE_PATTERNS = [
    KappaPair(k1, k2)
    for k1 in (1.3, 0.0, -0.8)
    for k2 in (0.6, 0.0, -1.4)
]

SPACETIME_PATTERNS = [kp for kp in NINE_PATTERNS if kp.kappa2 <= 0.0]


def structure_constants(kp: KappaPair) -> np.ndarray:
    """T[i, j] = coefficients of e_i * e_j, read off the product itself."""
    return np.array(
        [
            [
                (clifford.Multivector.basis(kp, i) * clifford.Multivector.basis(kp, j)).coeffs
                for j in range(8)
            ]
            for i in range(8)
        ]
    )


def exp_matrix(kp: KappaPair, tag: str, t: float) -> Mat2:
    """exp(t * generator) written out entrywise for each conformal generator."""
    k1, k2 = kp.kappa1, kp.kappa2
    zero, one = gc(0, 0, k2), gc(1, 0, k2)
    if tag == "G1":
        return Mat2(one, zero, gc(t, 0, k2), one)
    if tag == "G2":
        return Mat2(one, zero, gc(0, t, k2), one)
    if tag == "D":
        return Mat2(gc(math.exp(t / 2), 0, k2), zero, zero, gc(math.exp(-t / 2), 0, k2))
    if tag == "K":
        half = gc_exp_unit(k2, t / 2)
        return Mat2(half, zero, zero, half.conj())
    if tag == "H":
        c, s = cosk(k1, t / 2), sink(k1, t / 2)
        return Mat2(gc(c, 0, k2), gc(s, 0, k2), gc(-k1 * s, 0, k2), gc(c, 0, k2))
    c, s = cosk(k1 * k2, t / 2), sink(k1 * k2, t / 2)
    return Mat2(gc(c, 0, k2), gc(0, s, k2), gc(0, k1 * s, k2), gc(c, 0, k2))


class Budget:
    def __init__(self, number: int, limit: float, description: str):
        self.number = number
        self.limit = limit
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.2f}s)"
            )
            print(
                f"ACCEPTANCE {self.number:2d} PASS  ({elapsed:6.2f}s) "
                f"{self.description}"
            )
        else:
            print(
                f"ACCEPTANCE {self.number:2d} FAIL  ({elapsed:6.2f}s) "
                f"{self.description}"
            )
        return False


def test_criterion_01_classification_counts():
    with Budget(1, 1.0, "27 bracket structures, 6 non-kinematical, 11 classes"):
        triples = kinclass.enumerate_all()
        assert len(triples) == 27
        non_kin = [t for t in triples if not kinclass.is_kinematical(t)]
        assert len(non_kin) == 6
        classes = {
            kinclass.canonicalize(t)
            for t in triples
            if kinclass.is_kinematical(t)
        }
        assert len(classes) == 11
        assert kinclass.classification_counts() == {
            "total": 27,
            "kinematical": 21,
            "classes": 11,
            "non_kinematical": 6,
        }


def test_criterion_02_contraction_facts():
    with Budget(2, 1.0, "dS->N+, adS->N- (speed-space); dS->SdS under (2,1,1)"):
        ds = kinclass.triple_of_name("dS")
        ads = kinclass.triple_of_name("adS")
        assert kinclass.contract_triple(ds, "speed-space") == kinclass.BracketTriple(-1, 0, 1)
        assert kinclass.name_of(kinclass.contract_triple(ds, "speed-space")) == "N+"
        assert kinclass.contract_triple(ads, "speed-space") == kinclass.BracketTriple(1, 0, 1)
        assert kinclass.name_of(kinclass.contract_triple(ads, "speed-space")) == "N-"

        limit = kinclass.contract(ds, (2, 1, 1))
        assert limit == kinclass.BracketTriple(-1, 0, 0)
        assert kinclass.canonicalize(limit) == kinclass.canonicalize(
            kinclass.triple_of_name("SdS")
        )
        assert kinclass.name_of(limit) == "SdS"


def test_criterion_03_closed_form_exponentials():
    with Budget(3, 5.0, "exp_H/exp_P/exp_K match the series oracle to 1e-10"):
        rng = np.random.default_rng(2026)
        for kp in NINE_PATTERNS:
            h, p, k = map(np.asarray, ckgeom.so3_generators(kp))
            for _ in range(100):
                t = float(rng.uniform(-2.0, 2.0))
                assert np.max(np.abs(ckgeom.exp_generator(kp, "H", t) - expm(t * h))) < 1e-10
                assert np.max(np.abs(ckgeom.exp_generator(kp, "P", t) - expm(t * p))) < 1e-10
                assert np.max(np.abs(ckgeom.exp_generator(kp, "K", t) - expm(t * k))) < 1e-10


def test_criterion_04_trig_identity_suite():
    with Budget(4, 5.0, "six labeled-trig identities to 1e-10 on a 7x50 grid"):
        kappas = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
        phis = [-3.0 + 6.0 * i / 49 for i in range(50)]
        h = 1e-5
        for kappa in kappas:
            for phi in phis:
                c, s = cosk(kappa, phi), sink(kappa, phi)
                # 1: fundamental
                assert abs(c * c + kappa * s * s - 1.0) < 1e-10
                # 2, 3: double angle
                assert abs(cosk(kappa, 2 * phi) - (c * c - kappa * s * s)) < 1e-10
                assert abs(sink(kappa, 2 * phi) - 2 * c * s) < 1e-10
                # 4: half angle (away from the cosine pole)
                if abs(c + 1.0) > 1e-3:
                    assert abs(tank(kappa, phi / 2) - s / (c + 1.0)) < 1e-10
                # 5, 6: addition and subtraction
                psi = 0.37
                t_phi, t_psi = tank(kappa, phi), tank(kappa, psi)
                for sign in (1.0, -1.0):
                    denom = 1.0 - sign * kappa * t_phi * t_psi
                    if abs(denom) < 1e-3:
                        continue
                    combined = tank(kappa, phi + sign * psi)
                    assert abs(combined - (t_phi + sign * t_psi) / denom) < 1e-10
                # derivatives by central differences
                dc = (cosk(kappa, phi + h) - cosk(kappa, phi - h)) / (2 * h)
                ds = (sink(kappa, phi + h) - sink(kappa, phi - h)) / (2 * h)
                assert abs(dc + kappa * s) < 1e-8
                assert abs(ds - c) < 1e-8


def test_criterion_05_clifford_table_cross_check():
    with Budget(5, 5.0, "8x8 table == 2x2 matrix oracle; associativity 1e-10"):
        rng = np.random.default_rng(7)
        for _ in range(5):
            k1 = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
            k2 = float(rng.uniform(-2.0, 2.0))
            derived = structure_constants(KappaPair(k1, k2))
            oracle = pauli_product_table(k1, k2)
            assert np.max(np.abs(derived - oracle)) < 1e-12
        for kp in NINE_PATTERNS:
            derived = structure_constants(kp)
            for i in range(8):
                for j in range(8):
                    sign, e1, e2, k = clifford.SYMBOLIC_TABLE[i][j]
                    expected = np.zeros(8)
                    expected[k] = sign * kp.kappa1**e1 * kp.kappa2**e2
                    assert np.array_equal(derived[i, j], expected)
        for kp in NINE_PATTERNS:
            for _ in range(200 // len(NINE_PATTERNS) + 1):
                a = clifford.Multivector(kp, rng.uniform(-1, 1, 8))
                b = clifford.Multivector(kp, rng.uniform(-1, 1, 8))
                c = clifford.Multivector(kp, rng.uniform(-1, 1, 8))
                assert approx_eq((a * b) * c, a * (b * c), 1e-10)


def test_criterion_06_rotation_contract():
    with Budget(6, 5.0, "sandwich: norm kept, axis fixed, in-plane closed form"):
        rng = np.random.default_rng(11)
        for kp in NINE_PATTERNS:
            done = 0
            while done < 100:
                n = rng.normal(size=3)
                n /= np.linalg.norm(n)
                axis = clifford.UnitAxis(*n)
                phi = float(rng.uniform(-2.0, 2.0))
                r = clifford.rotor(kp, axis, phi)
                a = clifford.Multivector.vector(kp, *rng.uniform(-1, 1, 3))
                out = clifford.sandwich(r, a)
                assert abs(
                    clifford.ck_dot(out, out) - clifford.ck_dot(a, a)
                ) < 1e-10
                normal, _ = clifford.axis_of(kp, axis)
                assert approx_eq(clifford.sandwich(r, normal), normal, 1e-10)

                b = clifford.Multivector.vector(kp, *rng.uniform(-1, 1, 3))
                if np.max(np.abs(clifford.wedge(a, b).coeffs)) < 1e-3:
                    continue
                lhs, rhs = in_plane_rotation_check(kp, a, b, phi)
                assert approx_eq(lhs, rhs, 1e-10)
                done += 1


def test_criterion_07_double_cover():
    with Budget(7, 5.0, "cover: homomorphism, kernel {+1,-1}, matches exp_*"):
        rng = np.random.default_rng(13)
        for kp in NINE_PATTERNS:
            for t in rng.uniform(-2.0, 2.0, 6):
                t = float(t)
                np.testing.assert_allclose(
                    spin.cover_to_so3(spin.sl2_of_exp(kp, "K", t)),
                    ckgeom.exp_generator(kp, "K", t),
                    atol=1e-10,
                )
                np.testing.assert_allclose(
                    spin.cover_to_so3(spin.sl2_of_exp(kp, "H", t)),
                    ckgeom.exp_generator(kp, "H", t),
                    atol=1e-10,
                )
                np.testing.assert_allclose(
                    spin.cover_to_so3(spin.sl2_of_exp(kp, "P", t)),
                    ckgeom.exp_generator(kp, "P", t),
                    atol=1e-10,
                )
            for _ in range(8):
                n1 = rng.normal(size=3)
                n1 /= np.linalg.norm(n1)
                n2 = rng.normal(size=3)
                n2 /= np.linalg.norm(n2)
                s1 = spin.spin_from_axis(kp, *n1, float(rng.uniform(-2, 2)))
                s2 = spin.spin_from_axis(kp, *n2, float(rng.uniform(-2, 2)))
                np.testing.assert_allclose(
                    spin.cover_to_so3(s1 * s2),
                    np.asarray(spin.cover_to_so3(s1)) @ spin.cover_to_so3(s2),
                    atol=1e-9,
                )
                np.testing.assert_allclose(
                    spin.cover_to_so3(s1), spin.cover_to_so3(-s1), atol=1e-12
                )


def test_criterion_08_conformal_algebra():
    with Budget(8, 2.0, "sl2 closure 1e-12, Jacobi 1e-10, S2 flagged, Moebius"):
        tags = conformal.GENERATOR_TAGS
        for kp in NINE_PATTERNS:
            basis = conformal.conformal_basis(kp)
            # closure with residual < 1e-12 (decompose raises off the span)
            for x in tags:
                for y in tags:
                    bracket = basis[x].commutator(basis[y])
                    coeffs = conformal.decompose(kp, bracket)
                    recon = Mat2.zero(kp.kappa2)
                    for tag, value in coeffs.items():
                        recon = recon + basis[tag].scale(value)
                    assert (recon - bracket).max_abs() < 1e-12
            # Jacobi < 1e-10
            for i, x in enumerate(tags):
                for j, y in enumerate(tags[i + 1:], i + 1):
                    for z in tags[j + 1:]:
                        a, b, c = (basis[t] for t in (x, y, z))
                        total = (
                            a.commutator(b.commutator(c))
                            + b.commutator(c.commutator(a))
                            + c.commutator(a.commutator(b))
                        )
                        assert total.max_abs() < 1e-10
            # the undefined-symbol slots are flagged
            flagged = {
                tuple(d["bracket"])
                for d in conformal.diff_vs_tabulated(kp, conformal.computed_brackets(kp))
            }
            assert ("K", "G1") in flagged and ("G1", "K") in flagged
            # Moebius actions match the one-parameter subgroup matrices
            for tag in tags:
                for t in (-0.7, 0.4):
                    m = exp_matrix(kp, tag, t)
                    mo = conformal.conformal_moebius(kp, tag, t)
                    for w in (gc(0.3, -0.2, kp.kappa2), gc(-0.1, 0.5, kp.kappa2)):
                        den = m.c * w + m.d
                        if den.sqmod() == 0.0:
                            continue
                        direct = (m.a * w + m.b) * den.inv()
                        assert approx_eq(mo.apply(w), direct, 1e-12)


def test_criterion_09_metric_and_distance():
    with Budget(9, 10.0, "distance vs quadrature, isometry invariance, curvature"):
        rng = np.random.default_rng(17)
        for kappa1 in (-1.0, -0.5, 0.0, 0.5, 1.0):
            kp = KappaPair(kappa1, 1.0)
            origin = gc(0, 0, 1.0)
            # closed form vs quadrature along origin rays, 1e-6
            for _ in range(10):
                w = gc(*rng.uniform(-0.55, 0.55, 2), 1.0)

                def speed(s, kp=kp, w=w):
                    return math.sqrt(
                        ckgeom.metric_g1(kp, gc(s * w.re, s * w.im, 1.0), w)
                    )

                closed = ckgeom.distance(kp, origin, w)
                assert abs(closed - quad_adaptive(speed, 0.0, 1.0)) < 1e-6

            # invariance under the spin isometry group, 1e-8
            for _ in range(10):
                n = rng.normal(size=3)
                n /= np.linalg.norm(n)
                mo = spin.spin_from_axis(kp, *n, float(rng.uniform(-1.5, 1.5))).as_mat2()
                w1 = gc(*rng.uniform(-0.45, 0.45, 2), 1.0)
                w2 = gc(*rng.uniform(-0.45, 0.45, 2), 1.0)
                d_before = ckgeom.distance(kp, w1, w2)
                d_after = ckgeom.distance(kp, mo.apply(w1), mo.apply(w2))
                assert abs(d_before - d_after) < 1e-8

            # curvature: the constant-curvature representative of the model
            # carries 4x the printed conformal factor (the printed metric
            # halves distances and so quadruples curvature); both facts are
            # pinned here
            def printed_factor(u, v, k1=kappa1):
                return 1.0 / (1.0 + k1 * (u * u + v * v)) ** 2

            def normalized_factor(u, v, k1=kappa1):
                return 4.0 / (1.0 + k1 * (u * u + v * v)) ** 2

            count = 0
            while count < 20:
                u, v = rng.uniform(-0.5, 0.5, 2)
                if 1.0 + kappa1 * (u * u + v * v) < 0.3:
                    continue
                assert abs(
                    gaussian_curvature_fd(normalized_factor, (u, v)) - kappa1
                ) < 1e-4
                assert abs(
                    gaussian_curvature_fd(printed_factor, (u, v)) - 4.0 * kappa1
                ) < 4e-4
                count += 1


def test_criterion_10_equivariance():
    with Budget(10, 5.0, "project(g.p) == Moebius(g)(project(p)) to 1e-10"):
        rng = np.random.default_rng(19)
        gens = ("H", "P", "K")
        for kp in SPACETIME_PATTERNS:
            done = 0
            while done < 50:
                word = [
                    (gens[int(rng.integers(0, 3))], float(rng.uniform(-0.5, 0.5)))
                    for _ in range(int(rng.integers(1, 5)))
                ]
                w = gc(*rng.uniform(-0.35, 0.35, 2), kp.kappa2)
                if 1.0 + kp.kappa1 * w.sqmod() <= 0.2:
                    continue
                point = ckgeom.unproject(kp, w)
                g = np.asarray(ckgeom.word_matrix(kp, word))
                moved = g @ point
                if moved[0] + 1.0 < 1e-2:
                    continue
                mo = spin.sl2_of_word(kp, word).as_mat2()
                den = mo.c * ckgeom.project(kp, point) + mo.d
                if den.sqmod() == 0.0:
                    continue
                lhs, rhs = act_and_project_equivariance(kp, word, point)
                assert abs(lhs.re - rhs.re) < 1e-10
                assert abs(lhs.im - rhs.im) < 1e-10
                done += 1


def test_criterion_11_cli_golden_files():
    with Budget(11, 2.0, "classify/contract/graph/distance/region goldens"):
        cases = {
            "classify.json": ["classify"],
            "contract_ds_speed_space.json": [
                "contract", "--from", "dS", "--type", "speed-space",
            ],
            "graph.json": ["graph", "--format", "json"],
            "graph.dot": ["graph", "--format", "dot"],
            "distance_poincare.json": [
                "distance", "--kappa1", "-1", "--kappa2", "1",
                "--w1", "0,0", "--w2", "0.5,0",
            ],
            "region_hyperbolic.svg": ["region", "--kappa1", "-1", "--kappa2", "1"],
            "region_cominkowski.svg": ["region", "--kappa1", "-1", "--kappa2", "0"],
            "region_minkowski.svg": ["region", "--kappa1", "0", "--kappa2", "-1"],
            "region_desitter.svg": ["region", "--kappa1", "1", "--kappa2", "-1"],
        }
        for name, argv in cases.items():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(argv)
            assert code == 0 and err.getvalue() == ""
            assert out.getvalue() == (GOLDEN / name).read_text(), name


def test_criterion_12_homogeneous_spacetimes_for_all_but_static():
    with Budget(12, 1.0, "nine geometries x {1, S_P, S_H, S_K} reach 10 classes, all but St"):
        reached = set()
        for kp in NINE_PATTERNS:
            triple = kinclass.so3_triple(kp.kappa1, kp.kappa2)
            for image in (triple, *(kinclass.apply_symmetry(sym, triple)
                                    for sym in ("S_P", "S_H", "S_K"))):
                if kinclass.is_kinematical(image):
                    reached.add(kinclass.name_of(image))
        classes = {kinclass.name_of(t) for t in kinclass.enumerate_all()
                   if kinclass.is_kinematical(t)}
        assert len(classes) == 11 and reached <= classes
        # the one class missed is the static one, whose brackets all vanish
        assert classes - reached == {kinclass.name_of(kinclass.BracketTriple(0, 0, 0))}


def bracket_triple(generators, commutator, flat) -> kinclass.BracketTriple:
    """The signs of (k, h, p) in [H, P] = k K, [K, P] = h H and [K, H] = p P, each
    read from one representation's own commutator; each bracket must be a multiple
    of its generator."""
    h, p, k = generators
    signs = []
    for a, b, target in ((h, p, k), (k, p, h), (k, h, p)):
        bracket, t = flat(commutator(a, b)), flat(target)
        c = bracket @ t / (t @ t)
        assert np.max(np.abs(bracket - c * t)) <= 1e-12, (a, b)
        signs.append(int(np.sign(c)))
    return kinclass.BracketTriple(*signs)


def test_criterion_14_one_bracket_triple_from_every_representation():
    with Budget(14, 1.0, "3x3, 2x2 and Clifford brackets of H, P, K all give so3_triple"):
        for kp in NINE_PATTERNS:
            triple = kinclass.so3_triple(kp.kappa1, kp.kappa2)
            bivectors = [clifford.Multivector.bivector(kp, *(n / 2 for n in spin.AXES[g]))
                         for g in ckgeom.PLANES]
            assert bracket_triple(
                map(np.asarray, ckgeom.so3_generators(kp)), lambda a, b: a @ b - b @ a,
                np.ravel) == triple, kp
            assert bracket_triple(
                spin.so3_matrix_generators(kp), Mat2.commutator,
                lambda m: np.array([x for e in m for x in (e.re, e.im)])) == triple, kp
            assert bracket_triple(
                bivectors, lambda a, b: a * b - b * a, lambda m: np.array(m.coeffs)) == triple, kp
