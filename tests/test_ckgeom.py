import contextlib
import io
import itertools
import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geometry_checks import (
    act_and_project_equivariance,
    approx_eq,
    boundary_equivalent,
    is_hemisphere_boundary,
    on_sigma,
)
from kinematica.ckgeom import (
    KappaPair,
    bilinear_form,
    distance,
    distance_parts,
    exp_generator,
    metric_g1,
    metric_g2,
    project,
    region_svg,
    so3_generators,
    unproject,
    word_matrix,
)
from kinematica.cli import main
from kinematica.errors import (
    BoundarySingularity,
    DenominatorNotInvertible,
    NullOrImaginarySeparation,
    OutsideModel,
    ProjectionPole,
    WrongGeometry,
)
from kinematica.gencomplex import GenComplex, _scaled_parts, _times_pow2, gc, gc_exp_unit
from kinematica.gentrig import atank
from oracles import expm, quad_adaptive

# one representative per sign pattern, exact in binary so the generator
# commutators can be compared bit-for-bit
SIGN_PATTERNS = [
    KappaPair(k1, k2)
    for k1 in (1.0, 0.0, -1.0)
    for k2 in (0.5, 0.0, -2.0)
]


@pytest.mark.parametrize("kp", SIGN_PATTERNS)
def test_generator_commutators_exact(kp):
    h, p, k = map(np.asarray, so3_generators(kp))
    np.testing.assert_array_equal(k @ h - h @ k, p)
    np.testing.assert_array_equal(k @ p - p @ k, -kp.kappa2 * h)
    np.testing.assert_array_equal(h @ p - p @ h, kp.kappa1 * k)


def test_heisenberg_at_double_zero():
    h, p, k = map(np.asarray, so3_generators(KappaPair(0.0, 0.0)))
    np.testing.assert_array_equal(k @ h - h @ k, p)
    np.testing.assert_array_equal(k @ p - p @ k, np.zeros((3, 3)))
    np.testing.assert_array_equal(h @ p - p @ h, np.zeros((3, 3)))


def test_exp_at_zero_is_identity():
    kp = KappaPair(0.7, -1.3)
    for gen in "HPK":
        np.testing.assert_allclose(exp_generator(kp, gen, 0.0), np.eye(3), atol=0)


def test_boost_block_minkowski():
    m = np.asarray(exp_generator(KappaPair(1.0, -1.0), "K", 0.8))
    block = m[1:, 1:]
    expected = np.array(
        [[math.cosh(0.8), math.sinh(0.8)], [math.sinh(0.8), math.cosh(0.8)]]
    )
    np.testing.assert_allclose(block, expected, rtol=1e-15)
    np.testing.assert_allclose(m[0], [1.0, 0.0, 0.0], atol=0)


def test_space_translation_elliptic_uses_product_label():
    kp = KappaPair(1.0, 1.0)
    m = np.asarray(exp_generator(kp, "P", 0.6))
    h, p, k = map(np.asarray, so3_generators(kp))
    np.testing.assert_allclose(m, expm(0.6 * p), atol=1e-12)
    assert m[0, 0] == pytest.approx(math.cos(0.6))


@pytest.mark.parametrize("kp", SIGN_PATTERNS)
def test_closed_forms_match_exponential_oracle(kp):
    h, p, k = map(np.asarray, so3_generators(kp))
    rng = np.random.default_rng(7)
    for _ in range(20):
        t = rng.uniform(-2.0, 2.0)
        np.testing.assert_allclose(exp_generator(kp, "H", t), expm(t * h), atol=1e-10)
        np.testing.assert_allclose(exp_generator(kp, "P", t), expm(t * p), atol=1e-10)
        np.testing.assert_allclose(exp_generator(kp, "K", t), expm(t * k), atol=1e-10)


# the hyperbolic entries grow like e**(|t|*sqrt(2)), so the comparison is
# relative to the oracle's largest entry
@pytest.mark.parametrize("t", [7.5, -7.5, 25.0, -25.0, 60.0, -60.0])
@pytest.mark.parametrize("kp", SIGN_PATTERNS)
def test_closed_forms_match_exponential_oracle_at_large_parameters(kp, t):
    for gen, generator in zip("HPK", so3_generators(kp)):
        oracle = expm(t * np.asarray(generator))
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(exp_generator(kp, gen, t) - oracle)) <= 1e-12 * scale


@pytest.mark.parametrize("kp", SIGN_PATTERNS)
def test_one_parameter_additivity(kp):
    for gen in "HPK":
        lhs = np.asarray(exp_generator(kp, gen, 0.9)) @ exp_generator(kp, gen, -0.35)
        np.testing.assert_allclose(lhs, exp_generator(kp, gen, 0.55), atol=1e-12)


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
        m = np.asarray(word_matrix(kp, word))
        np.testing.assert_allclose(m.T @ g @ m, g, atol=1e-10)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)


# word_matrix sums each entry's three products left to right in plain floats;
# numpy's matmul may sum in another order, and multi_dot also brackets the
# product its own way, so the two are compared entry by entry to a bound
# relative to |F1| @ |F2| @ ... @ |Fn|: 1e-14, a few times n * 3 * 2**-53 for
# words of up to 8 letters
@pytest.mark.parametrize("kp", SIGN_PATTERNS)
def test_word_matrix_is_the_product_of_its_factors(kp):
    assert word_matrix(kp, []) == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    rng = np.random.default_rng(53)
    for _ in range(40):
        word = [
            ("HPK"[rng.integers(0, 3)], rng.uniform(-3.0, 3.0))
            for _ in range(rng.integers(2, 9))
        ]
        factors = [np.asarray(exp_generator(kp, gen, t)) for gen, t in word]
        bound = 1e-14 * np.linalg.multi_dot([np.abs(f) for f in factors])
        error = np.abs(np.asarray(word_matrix(kp, word)) - np.linalg.multi_dot(factors))
        assert np.all(error <= bound), word


def test_project_examples():
    kp = KappaPair(1.0, 1.0)
    assert approx_eq(project(kp, (1.0, 0.0, 0.0)), gc(0, 0, 1.0), 0)
    assert approx_eq(project(kp, (0.0, 1.0, 0.0)), gc(1, 0, 1.0), 0)
    assert approx_eq(project(kp, (0.0, 0.0, 1.0)), gc(0, 1, 1.0), 0)
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
        assert np.asarray(point).tolist() == [1.0, 2e200, -6e190]


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
        assert approx_eq(back, w, 1e-12)
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
        plus = np.asarray(unproject(kp, gc(w.re + eps * dw.re, w.im + eps * dw.im, kp.kappa2)))
        minus = np.asarray(unproject(kp, gc(w.re - eps * dw.re, w.im - eps * dw.im, kp.kappa2)))
        velocity = (plus - minus) / (2 * eps)
        ambient = float(velocity @ g @ velocity) / kp.kappa1
        assert ambient == pytest.approx(4.0 * metric_g1(kp, w, dw), abs=1e-8)


def test_metric_g2():
    assert metric_g2(KappaPair(1.0, 0.0), 0.0, 1.0) == 1.0
    assert metric_g2(KappaPair(1.0, 0.0), 1.0, 2.0) == pytest.approx(1.0)
    assert metric_g2(KappaPair(0.0, 0.0), 5.0, 0.3) == pytest.approx(0.09)
    with pytest.raises(WrongGeometry):
        metric_g2(KappaPair(1.0, -1.0), 0.0, 1.0)
    # 1 + kappa1*t0^2 = 0 on the leaf boundary, as for metric_g1
    with pytest.raises(BoundarySingularity, match="^metric evaluated on the model boundary$"):
        metric_g2(KappaPair(-1.0, 0.0), 1.0, 0.5)
    # dx^2 and (1 + kappa1*t0^2)^2 both overflow; their quotient, about
    # 1e-400, is 0 in floats (metric_g1's scaled path)
    assert metric_g2(KappaPair(1.0, 0.0), 1e200, 1e200) == 0.0


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


def gencomplex_distance(kp, w1, w2):
    """distance as the conformal-model expression reads, in GenComplex arithmetic."""
    den = kp.kappa1 * w1.conj() * w2 + 1.0
    if den.is_zero() or den.is_zero_divisor():
        raise DenominatorNotInvertible(f"denominator {den} is not invertible")
    arg = (w2 - w1) * den.inv()
    _, _, s, k = _scaled_parts(*arg)
    if s < 0.0:
        raise NullOrImaginarySeparation(f"squared separation {_times_pow2(s, 2 * k)} < 0")
    return atank(kp.kappa1, _times_pow2(math.sqrt(s), k))


def distance_outcome(dist, kp, w1, w2):
    """The result's bits, with every nan read as the one quiet nan, or the error's
    type and message.  The sign of a nan is left out: CPython's specialized float
    operations may order two nan operands the other way round, and so flip it."""
    try:
        value = dist(kp, w1, w2)
    except Exception as exc:
        return type(exc), str(exc)
    return struct.unpack("<Q", struct.pack("<d", math.nan if math.isnan(value) else value))[0]


SPECIAL = (0.0, 5e-324, 1e-300, 1e300, sys.float_info.max)
magnitudes = st.one_of(
    st.sampled_from((1.0, 0.5, 2.0) + SPECIAL[1:]),
    st.integers(1, 3),  # int labels
    st.floats(1e-6, 1e6),
)
parts = st.one_of(
    st.sampled_from(SPECIAL + tuple(-x for x in SPECIAL)),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False),
)


@st.composite
def distance_inputs(draw):
    """(kp, w1, w2) over the nine sign patterns, with the special cases drawn often."""
    k1, k2 = (sign * draw(magnitudes) if sign else draw(st.sampled_from((0, 0.0, -0.0)))
              for sign in draw(st.sampled_from(list(itertools.product((1, 0, -1), repeat=2)))))
    kp = KappaPair(k1, k2)
    kind = draw(st.sampled_from(("any", "any", "same", "zero-divisor", "mismatch")))
    w1 = GenComplex(draw(parts), draw(parts), k2)
    if kind == "zero-divisor":
        # kappa1*u*u + 1 is exactly 0 at u = 2**e: den = (0, kappa1*u*v), the zero
        # element at v = 0 and a dual-number zero divisor at kappa2 = 0
        u = draw(st.sampled_from((-1, 1))) * math.ldexp(1.0, draw(st.integers(-511, 511)))
        kp = KappaPair(-1.0 / (u * u), draw(st.sampled_from((0.0, 0.0, 1.0, -1.0))))
        w1 = GenComplex(u, 0.0, kp.kappa2)
        return kp, w1, GenComplex(u, draw(st.sampled_from((0.0, -0.0)) | parts), kp.kappa2)
    if kind == "same":
        return kp, w1, w1
    kappa = draw(magnitudes) if kind == "mismatch" else k2
    return kp, w1, GenComplex(draw(parts), draw(parts), kappa)


# the two argvs of ROADMAP item 4's open distance overflow: conj(w1)*w2
# overflows, and the answer is nan, which the command line reports as
# NonFiniteResult
FOUND_OVERFLOW = (
    (KappaPair(1.0, 1.0), gc(-1e308, -1, 1.0), gc(-1e308, -1, 1.0)),
    (KappaPair(1.0, 1.0), gc(1.1451526593172272e-113, 3.379709152122347e+16, 1.0),
     gc(-1e+308, -1.0, 1.0)),
)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(distance_inputs())
@example(FOUND_OVERFLOW[0])
@example(FOUND_OVERFLOW[1])
@example((KappaPair(1.0, -1.0), gc(1, 0, -1.0), gc(0, 1, -1.0)))  # den = 1 + i, kappa2 = -1
@example((KappaPair(-0.25, 0.0), gc(2, 0, 0.0), gc(2, 3, 0.0)))  # den = -1.5i, dual
@example((KappaPair(1, -1), gc(0.1, 0.5, -1.0), gc(0.3, -0.2, -1.0)))  # int labels
@example((KappaPair(1.0, 0.0), gc(0, 0, 0.0), gc(1, 0, -0.0)))  # kappas 0.0 and -0.0
def test_distance_is_the_gencomplex_expression_bit_for_bit(inputs):
    # the written-out sums against the GenComplex expression: the same bits,
    # including every overflow, underflow and signed zero, or the same error
    assert distance_outcome(distance, *inputs) == distance_outcome(gencomplex_distance, *inputs)


def parts_distance(kp, w1, w2):
    """:func:`distance_parts` on the labels and parts of one distance input."""
    return distance_parts(kp.kappa1, w1.kappa, w1.re, w1.im, w2.re, w2.im)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(distance_inputs().filter(lambda inputs: inputs[1].kappa == inputs[2].kappa))
@example(FOUND_OVERFLOW[0])
@example((KappaPair(-0.25, 0.0), gc(2, 0, 0.0), gc(2, 3, 0.0)))
def test_distance_parts_is_distance_on_the_parts(inputs):
    # the command line's path: the same bits or the same error
    assert distance_outcome(parts_distance, *inputs) == distance_outcome(distance, *inputs)


@pytest.mark.parametrize("kp,w1,w2", FOUND_OVERFLOW)
def test_the_overflowing_denominator_still_ends_in_a_non_finite_result(kp, w1, w2):
    assert math.isnan(distance(kp, w1, w2))
    argv = ["distance", f"--w1={w1.re!r},{w1.im!r}", f"--w2={w2.re!r},{w2.im!r}",
            f"--kappa1={kp.kappa1!r}", f"--kappa2={kp.kappa2!r}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv) == 1
    assert err.getvalue().startswith('{"error":"NonFiniteResult"')


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
    assert approx_eq(lhs, expected, 1e-12)
    assert approx_eq(rhs, expected, 1e-12)


def test_equivariance_identity_word():
    kp = KappaPair(-1.0, 0.0)
    point = unproject(kp, gc(0.3, -0.2, 0.0))
    lhs, rhs = act_and_project_equivariance(kp, [], point)
    assert approx_eq(lhs, rhs, 0)


def test_equivariance_time_translation_at_origin():
    kp = KappaPair(1.0, -1.0)
    origin = (1.0, 0.0, 0.0)
    lhs, rhs = act_and_project_equivariance(kp, [("H", 0.3)], origin)
    assert approx_eq(lhs, rhs, 1e-12)


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
    assert not approx_eq(w_plus, w_minus, 1e-12)
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
    from kinematica.spin import sl2_of_exp

    kp = KappaPair(kappa1, 0.0)
    t0, x = 0.4, 0.7
    w = gc(t0, x, 0.0)

    for gen in "KP":
        image = sl2_of_exp(kp, gen, 0.9).as_mat2().apply(w)
        assert image.re == pytest.approx(t0, abs=1e-12)

    alpha = 0.8
    mo = sl2_of_exp(kp, "H", alpha).as_mat2()
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
