import math
from fractions import Fraction

import numpy as np
import pytest

from geometry_checks import (
    act_and_project_equivariance,
    boundary_equivalent,
    is_hemisphere_boundary,
    on_sigma,
)
from kinematica.ckgeom import (
    KappaPair,
    bilinear_form,
    distance,
    exp_h,
    exp_k,
    exp_p,
    metric_g1,
    metric_g2,
    project,
    region_svg,
    so3_generators,
    unproject,
    word_matrix,
)
from kinematica.errors import (
    DenominatorNotInvertible,
    NullOrImaginarySeparation,
    OutsideModel,
    ProjectionPole,
    WrongGeometry,
)
from kinematica.gencomplex import gc, gc_exp_unit
from kinematica.numerics import expm, quad_adaptive

# one representative per sign pattern, exact in binary so the generator
# commutators can be compared bit-for-bit
SIGN_PATTERNS = [
    KappaPair(k1, k2)
    for k1 in (1.0, 0.0, -1.0)
    for k2 in (0.5, 0.0, -2.0)
]


@pytest.mark.parametrize("kp", SIGN_PATTERNS)
def test_generator_commutators_exact(kp):
    h, p, k = so3_generators(kp)
    np.testing.assert_array_equal(k @ h - h @ k, p)
    np.testing.assert_array_equal(k @ p - p @ k, -kp.kappa2 * h)
    np.testing.assert_array_equal(h @ p - p @ h, kp.kappa1 * k)


def test_heisenberg_at_double_zero():
    h, p, k = so3_generators(KappaPair(0.0, 0.0))
    np.testing.assert_array_equal(k @ h - h @ k, p)
    np.testing.assert_array_equal(k @ p - p @ k, np.zeros((3, 3)))
    np.testing.assert_array_equal(h @ p - p @ h, np.zeros((3, 3)))


def test_exp_at_zero_is_identity():
    kp = KappaPair(0.7, -1.3)
    for f in (exp_h, exp_p, exp_k):
        np.testing.assert_allclose(f(kp, 0.0), np.eye(3), atol=0)


def test_boost_block_minkowski():
    m = exp_k(KappaPair(1.0, -1.0), 0.8)
    block = m[1:, 1:]
    expected = np.array(
        [[math.cosh(0.8), math.sinh(0.8)], [math.sinh(0.8), math.cosh(0.8)]]
    )
    np.testing.assert_allclose(block, expected, rtol=1e-15)
    np.testing.assert_allclose(m[0], [1.0, 0.0, 0.0], atol=0)


def test_space_translation_elliptic_uses_product_label():
    kp = KappaPair(1.0, 1.0)
    m = exp_p(kp, 0.6)
    h, p, k = so3_generators(kp)
    np.testing.assert_allclose(m, expm(0.6 * p), atol=1e-12)
    assert m[0, 0] == pytest.approx(math.cos(0.6))


@pytest.mark.parametrize("kp", SIGN_PATTERNS)
def test_closed_forms_match_exponential_oracle(kp):
    h, p, k = so3_generators(kp)
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = rng.uniform(-2.0, 2.0)
        np.testing.assert_allclose(exp_h(kp, t), expm(t * h), atol=1e-10)
        np.testing.assert_allclose(exp_p(kp, t), expm(t * p), atol=1e-10)
        np.testing.assert_allclose(exp_k(kp, t), expm(t * k), atol=1e-10)


@pytest.mark.parametrize("kp", SIGN_PATTERNS)
def test_one_parameter_additivity(kp):
    for f in (exp_h, exp_p, exp_k):
        lhs = f(kp, 0.9) @ f(kp, -0.35)
        np.testing.assert_allclose(lhs, f(kp, 0.55), atol=1e-12)


@pytest.mark.parametrize("kp", SIGN_PATTERNS)
def test_words_preserve_bilinear_form_and_volume(kp):
    g = bilinear_form(kp)
    rng = np.random.default_rng(21)
    gens = ("H", "P", "K")
    for _ in range(12):
        length = rng.integers(1, 6)
        word = [
            (gens[rng.integers(0, 3)], rng.uniform(-2.0, 2.0))
            for _ in range(length)
        ]
        m = word_matrix(kp, word)
        np.testing.assert_allclose(m.T @ g @ m, g, atol=1e-10)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)


def test_project_examples():
    kp = KappaPair(1.0, 1.0)
    assert project(kp, (1.0, 0.0, 0.0)).approx_eq(gc(0, 0, 1.0), 0)
    assert project(kp, (0.0, 1.0, 0.0)).approx_eq(gc(1, 0, 1.0), 0)
    assert project(kp, (0.0, 0.0, 1.0)).approx_eq(gc(0, 1, 1.0), 0)
    with pytest.raises(ProjectionPole):
        project(kp, (-1.0, 0.0, 0.0))


def test_unproject_examples():
    kp = KappaPair(1.0, 1.0)
    np.testing.assert_allclose(unproject(kp, gc(0, 0, 1.0)), [1.0, 0.0, 0.0])
    with pytest.raises(OutsideModel):
        unproject(KappaPair(-1.0, 1.0), gc(1, 0, 1.0))
    with pytest.raises(OutsideModel):
        unproject(KappaPair(-1.0, 1.0), gc(0.8, 0.9, 1.0))


def test_unproject_at_flat_kappa1_ignores_an_overflowing_modulus():
    # at kappa1 = 0 the lift is (1, 2u, 2v) even where sqmod(w) overflows
    for kappa2 in (1.0, 0.0, -1.0):
        point = unproject(KappaPair(0.0, kappa2), gc(1e200, -3e190, kappa2))
        assert point.tolist() == [1.0, 2e200, -6e190]


@pytest.mark.parametrize("kp", SIGN_PATTERNS)
def test_project_unproject_round_trip(kp):
    rng = np.random.default_rng(3)
    count = 0
    while count < 60:
        w = gc(rng.uniform(-1, 1), rng.uniform(-1, 1), kp.kappa2)
        if 1.0 + kp.kappa1 * w.sqmod() <= 1e-6:
            continue
        point = unproject(kp, w)
        assert on_sigma(kp, point, 1e-10)
        back = project(kp, point)
        assert back.approx_eq(w, 1e-12)
        count += 1


def test_metric_g1_examples():
    kp = KappaPair(1.0, 1.0)
    assert metric_g1(kp, gc(0, 0, 1.0), gc(1, 0, 1.0)) == 1.0
    assert metric_g1(kp, gc(1, 0, 1.0), gc(1, 0, 1.0)) == pytest.approx(0.25)


def test_metric_g1_can_be_indefinite():
    kp = KappaPair(1.0, -1.0)
    assert metric_g1(kp, gc(0, 0, -1.0), gc(0, 1, -1.0)) == pytest.approx(-1.0)


def test_metric_g1_where_the_squared_moduli_overflow():
    # both were nan: 0*inf in the denominator, and inf/inf
    assert metric_g1(KappaPair(0, 1), gc(1e200, 0, 1), gc(1, 0, 1)) == 1.0
    got = metric_g1(KappaPair(1, 1), gc(1e200, 0, 1), gc(1e300, 0, 1))
    w, dw = Fraction(1e200), Fraction(1e300)
    exact = dw * dw / (1 + w * w) ** 2  # 1e-200 to 400 digits
    assert abs(Fraction(got) - exact) <= exact * Fraction(2) ** -50


def test_metric_g1_boundary_singularity():
    from kinematica.errors import BoundarySingularity

    kp = KappaPair(-1.0, 1.0)
    with pytest.raises(BoundarySingularity):
        metric_g1(kp, gc(1, 0, 1.0), gc(1, 0, 1.0))


@pytest.mark.parametrize("kp", [KappaPair(1.0, 1.0), KappaPair(-0.5, 1.0), KappaPair(1.5, -1.0)])
def test_metric_g1_is_quarter_pullback_of_ambient_metric(kp):
    # (1/kappa1) * ambient ds^2 along a curve on the quadric equals 4x the
    # model metric of its central projection (the half-angle of projection
    # doubles distances on the quadric relative to the model convention),
    # estimated by central differences
    g = bilinear_form(kp)
    rng = np.random.default_rng(11)
    eps = 1e-5
    for _ in range(8):
        w = gc(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), kp.kappa2)
        dw = gc(rng.uniform(-1, 1), rng.uniform(-1, 1), kp.kappa2)
        if 1.0 + kp.kappa1 * w.sqmod() <= 0.1:
            continue
        plus = unproject(kp, gc(w.re + eps * dw.re, w.im + eps * dw.im, kp.kappa2))
        minus = unproject(kp, gc(w.re - eps * dw.re, w.im - eps * dw.im, kp.kappa2))
        velocity = (plus - minus) / (2 * eps)
        ambient = float(velocity @ g @ velocity) / kp.kappa1
        assert ambient == pytest.approx(4.0 * metric_g1(kp, w, dw), abs=1e-8)


def test_metric_g2():
    assert metric_g2(KappaPair(1.0, 0.0), 0.0, 1.0) == 1.0
    assert metric_g2(KappaPair(1.0, 0.0), 1.0, 2.0) == pytest.approx(1.0)
    assert metric_g2(KappaPair(0.0, 0.0), 5.0, 0.3) == pytest.approx(0.09)
    with pytest.raises(WrongGeometry):
        metric_g2(KappaPair(1.0, -1.0), 0.0, 1.0)


def test_distance_examples():
    kp = KappaPair(1.0, 1.0)
    assert distance(kp, gc(0, 0, 1.0), gc(1, 0, 1.0)) == pytest.approx(math.pi / 4)
    kp = KappaPair(-1.0, 1.0)
    assert distance(kp, gc(0, 0, 1.0), gc(0.5, 0, 1.0)) == pytest.approx(
        math.atanh(0.5), abs=1e-12
    )
    # from the origin the distance is atank(kappa1, |w|)
    w = gc(0.3, 0.4, 1.0)
    assert distance(kp, gc(0, 0, 1.0), w) == pytest.approx(math.atanh(0.5), abs=1e-12)


def test_distance_symmetry_and_zero():
    kp = KappaPair(-1.0, 1.0)
    w1, w2 = gc(0.1, 0.2, 1.0), gc(-0.3, 0.4, 1.0)
    assert distance(kp, w1, w2) == pytest.approx(distance(kp, w2, w1), abs=1e-12)
    assert distance(kp, w1, w1) == 0.0


def test_distance_flat_case_is_euclidean_modulus():
    kp = KappaPair(0.0, 1.0)
    assert distance(kp, gc(1, 1, 1.0), gc(4, 5, 1.0)) == pytest.approx(5.0)


def test_distance_neither_underflows_nor_overflows():
    # squaring before the root took 1e-300 to 0 and 1e200 to inf
    assert distance(KappaPair(1.0, -1.0), gc(0, 0, -1.0), gc(1e-300, 0, -1.0)) == 1e-300
    flat = KappaPair(0.0, 1.0)
    for x in (5e-324, 1e-300, 1e200, 1.7e308):
        assert distance(flat, gc(0, 0, 1.0), gc(x, 0, 1.0)) == x
    assert distance(flat, gc(0, 0, 1.0), gc(1.7e308, 1.7e308, 1.0)) == math.inf
    # at kappa2 = 0 a huge im part adds nothing and must not set the scale
    assert distance(KappaPair(0.0, 0.0), gc(0, 0, 0.0), gc(3.0, 1e300, 0.0)) == 3.0
    # at kappa1 = 0 the distance is |w2 - w1|: a power-of-two scale passes
    # through exactly, far outside the range where the square is representable
    w1, w2 = gc(0.3, -0.2, 0.5), gc(-0.1, 0.4, 0.5)
    unit = distance(KappaPair(0.0, 0.5), w1, w2)
    for m in range(-1000, 1001, 50):
        scaled = [gc(math.ldexp(w.re, m), math.ldexp(w.im, m), 0.5) for w in (w1, w2)]
        assert distance(KappaPair(0.0, 0.5), *scaled) == math.ldexp(unit, m)


def test_distance_quadrature_oracle():
    # geodesics through the origin project to straight rays; integrating the
    # model metric along the ray must reproduce the closed form
    for kappa1 in (-1.0, -0.5, 0.0, 0.5, 1.0):
        kp = KappaPair(kappa1, 1.0)
        w = gc(0.35, 0.48, 1.0)
        closed = distance(kp, gc(0, 0, 1.0), w)

        def speed(s, kp=kp, w=w):
            point = gc(s * w.re, s * w.im, 1.0)
            return math.sqrt(metric_g1(kp, point, w))

        assert closed == pytest.approx(
            quad_adaptive(speed, 0.0, 1.0, tol=1e-11), abs=1e-9
        )


def test_distance_errors():
    kp = KappaPair(1.0, -1.0)
    with pytest.raises(NullOrImaginarySeparation):
        distance(kp, gc(0, 0, -1.0), gc(0.1, 0.5, -1.0))
    # lightlike pairs sit on the cone: zero separation, no error
    assert distance(kp, gc(0, 0, -1.0), gc(0.2, 0.2, -1.0)) == 0.0
    # kappa1*conj(w1)*w2 + 1 = 1 + i, a double-number zero divisor
    with pytest.raises(DenominatorNotInvertible):
        distance(KappaPair(1.0, -1.0), gc(1, 0, -1.0), gc(0, 1, -1.0))


def test_null_cone_at_origin():
    kp = KappaPair(1.0, -1.0)
    for dw in [gc(1, 1, -1.0), gc(-2, 2, -1.0)]:
        assert metric_g1(kp, gc(0, 0, -1.0), dw) == 0.0
    assert metric_g1(kp, gc(0, 0, -1.0), gc(1, 0.5, -1.0)) != 0.0


def test_equivariance_boost_is_plane_rotation():
    kp = KappaPair(1.0, -1.0)
    theta = 0.45
    w = gc(0.2, 0.1, kp.kappa2)
    point = unproject(kp, w)
    lhs, rhs = act_and_project_equivariance(kp, [("K", theta)], point)
    expected = gc_exp_unit(kp.kappa2, theta) * w
    assert lhs.approx_eq(expected, 1e-12)
    assert rhs.approx_eq(expected, 1e-12)


def test_equivariance_identity_word():
    kp = KappaPair(-1.0, 0.0)
    point = unproject(kp, gc(0.3, -0.2, 0.0))
    lhs, rhs = act_and_project_equivariance(kp, [], point)
    assert lhs.approx_eq(rhs, 0)


def test_equivariance_time_translation_at_origin():
    kp = KappaPair(1.0, -1.0)
    origin = (1.0, 0.0, 0.0)
    lhs, rhs = act_and_project_equivariance(kp, [("H", 0.3)], origin)
    assert lhs.approx_eq(rhs, 1e-12)


def test_region_svg_shapes():
    hyperbolic = region_svg(KappaPair(-1.0, 1.0))
    assert '<path d="M' in hyperbolic and " Z" in hyperbolic
    assert "stroke-dasharray" not in hyperbolic

    strip = region_svg(KappaPair(-1.0, 0.0))
    assert strip.count("<path") == 2  # two boundary lines as paths
    assert strip.count("<line") == 2  # the (coincident) cone lines
    assert 'viewBox="-2 -2 4 4"' in strip

    minkowski = region_svg(KappaPair(0.0, -1.0))
    assert "stroke-dasharray" in minkowski and "<path" not in minkowski

    de_sitter = region_svg(KappaPair(1.0, -1.0))
    assert de_sitter.count("<path") == 2  # two hyperbola branches

    elliptic = region_svg(KappaPair(1.0, 1.0))
    assert "<path" not in elliptic  # whole plane, no boundary

    assert region_svg(KappaPair(-1.0, 1.0)) == hyperbolic  # byte stable


def test_boundary_rim_flag_and_antipodal_comparison():
    kp = KappaPair(1.0, 1.0)
    rim = np.array([0.0, 0.6, 0.8])
    assert on_sigma(kp, rim)
    assert is_hemisphere_boundary(rim)
    assert not is_hemisphere_boundary(unproject(kp, gc(0.2, 0.1, 1.0)))

    # antipodal rim points project to +/- the same w and are identified
    # explicitly, never silently
    w_plus = project(kp, rim)
    w_minus = project(kp, -rim)
    assert not w_plus.approx_eq(w_minus, 1e-12)
    assert boundary_equivalent(w_plus, w_minus)
    assert not boundary_equivalent(w_plus, gc(0.5, 0.5, 1.0))


@pytest.mark.parametrize("kappa1", [-1.0, 0.0, 1.0])
def test_distance_additive_along_origin_rays(kappa1):
    kp = KappaPair(kappa1, 1.0)
    origin = gc(0, 0, 1.0)
    direction = gc(0.56, -0.33, 1.0)
    near = gc(0.3 * direction.re, 0.3 * direction.im, 1.0)
    assert distance(kp, origin, near) + distance(kp, near, direction) == (
        pytest.approx(distance(kp, origin, direction), abs=1e-12)
    )


@pytest.mark.parametrize(
    "kp",
    [KappaPair(1.0, 1.0), KappaPair(1.0, -1.0), KappaPair(-0.5, -1.0),
     KappaPair(1.0, 0.0), KappaPair(0.0, -1.0)],
)
def test_metric_g1_invariant_under_spin_moebius(kp):
    # the conformal metric is invariant under every spin Moebius map, in all
    # signatures (the pushforward of dw estimated by central differences)
    from kinematica.spin import spin_from_axis

    rng = np.random.default_rng(101)
    eps = 1e-6
    done = 0
    while done < 8:
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        mo = spin_from_axis(kp, *n, float(rng.uniform(-1.0, 1.0))).as_mat2()
        w = gc(*rng.uniform(-0.3, 0.3, 2), kp.kappa2)
        dw = gc(*rng.uniform(-1, 1, 2), kp.kappa2)
        if abs(1.0 + kp.kappa1 * w.sqmod()) < 0.2:
            continue
        if (mo.c * w + mo.d).sqmod() == 0.0:
            continue
        image = mo.apply(w)
        if abs(1.0 + kp.kappa1 * image.sqmod()) < 0.2:
            continue
        plus = mo.apply(gc(w.re + eps * dw.re, w.im + eps * dw.im, kp.kappa2))
        minus = mo.apply(gc(w.re - eps * dw.re, w.im - eps * dw.im, kp.kappa2))
        pushed = gc(
            (plus.re - minus.re) / (2 * eps),
            (plus.im - minus.im) / (2 * eps),
            kp.kappa2,
        )
        before = metric_g1(kp, w, dw)
        after = metric_g1(kp, image, pushed)
        assert after == pytest.approx(before, abs=1e-7)
        done += 1


@pytest.mark.parametrize("kappa1", [1.0, 0.0, -1.0])
def test_flat_conformal_structure_preserves_leaves_and_g2(kappa1):
    # kappa2 = 0: Re w labels the leaf of simultaneous events; boosts and
    # space translations keep each leaf, time translations move leaves while
    # transporting the subsidiary metric isometrically
    from kinematica.spin import sl2_of_exp_h, sl2_of_exp_k, sl2_of_exp_p

    kp = KappaPair(kappa1, 0.0)
    t0, x = 0.4, 0.7
    w = gc(t0, x, 0.0)

    for maker in (sl2_of_exp_k, sl2_of_exp_p):
        image = maker(kp, 0.9).as_mat2().apply(w)
        assert image.re == pytest.approx(t0, abs=1e-12)

    alpha = 0.8
    mo = sl2_of_exp_h(kp, alpha).as_mat2()
    image = mo.apply(w)
    new_leaf = mo.apply(gc(t0, 0.0, 0.0)).re
    assert image.re == pytest.approx(new_leaf, abs=1e-12)

    eps = 1e-6
    stretched = (
        mo.apply(gc(t0, x + eps, 0.0)).im - mo.apply(gc(t0, x - eps, 0.0)).im
    ) / (2 * eps)
    assert metric_g2(kp, new_leaf, stretched) == pytest.approx(
        metric_g2(kp, t0, 1.0), abs=1e-7
    )
