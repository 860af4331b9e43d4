import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geometry_checks import approx_eq, in_plane_rotation_check
from kinematica.ckgeom import KappaPair
from kinematica.clifford import (
    GRADES,
    IS1,
    IS2,
    S1,
    S2,
    S3,
    S3CHECK,
    SCALAR,
    SYMBOLIC_TABLE,
    VOLUME,
    Multivector,
    UnitAxis,
    axis_of,
    bivector_kappa,
    ck_dot,
    left_contract,
    plane_of,
    rotor,
    rotor_from_bivector,
    sandwich,
    wedge,
)
from kinematica.errors import (
    DegenerateAxis,
    DegeneratePlane,
    GradeError,
    KappaMismatch,
    KinematicaError,
    NotAVector,
    NotUnitRotor,
)
from kinematica.gencomplex import GammaPoint, Mat2, MoebiusMap, gc
from kinematica.gentrig import cosk, sink
from oracles import pauli_product_table
from kinematica.spin import UNIT_TOL, SpinElement, spin_from_axis

PATTERNS = [
    KappaPair(k1, k2)
    for k1 in (1.0, 0.0, -1.0)
    for k2 in (1.0, 0.0, -1.0)
]


def basis(kp, idx):
    return Multivector.basis(kp, idx)


def structure_constants(kp):
    """T[i, j] = coefficients of e_i * e_j, read off the product itself."""
    return np.array([[(basis(kp, i) * basis(kp, j)).coeffs for j in range(8)] for i in range(8)])


@pytest.mark.parametrize("kp", PATTERNS)
def test_generator_products(kp):
    s1, s2, s3 = basis(kp, S1), basis(kp, S2), basis(kp, S3)
    one = Multivector.scalar(kp, 1.0)
    assert approx_eq(s1 * s1, one, 0)
    assert approx_eq(s2 * s2, Multivector.scalar(kp, kp.kappa1), 0)
    assert approx_eq(s3 * s3, Multivector.scalar(kp, kp.kappa1 * kp.kappa2), 0)

    assert approx_eq(s1 * s2, basis(kp, S3CHECK), 0)
    assert approx_eq(s2 * s1, -basis(kp, S3CHECK), 0)
    assert approx_eq(s1 * s3, basis(kp, IS2), 0)
    assert approx_eq(s3 * s1, -basis(kp, IS2), 0)
    assert approx_eq(s3 * s2, basis(kp, IS1) * kp.kappa1, 0)
    assert approx_eq(s2 * s3, basis(kp, IS1) * (-kp.kappa1), 0)

    assert approx_eq(s1 * s2 * s3, Multivector.volume(kp, -kp.kappa1), 0)


@pytest.mark.parametrize("kp", PATTERNS)
def test_bivector_squares(kp):
    assert approx_eq(
        basis(kp, IS1) * basis(kp, IS1), Multivector.scalar(kp, -kp.kappa2), 0
    )
    assert approx_eq(
        basis(kp, IS2) * basis(kp, IS2),
        Multivector.scalar(kp, -kp.kappa1 * kp.kappa2), 0
    )
    assert approx_eq(
        basis(kp, S3CHECK) * basis(kp, S3CHECK), Multivector.scalar(kp, -kp.kappa1), 0
    )


@pytest.mark.parametrize("kp", PATTERNS)
def test_volume_element_is_central(kp):
    i = basis(kp, VOLUME)
    for idx in range(8):
        e = basis(kp, idx)
        assert approx_eq(i * e, e * i, 0)
    assert approx_eq(i * i, Multivector.scalar(kp, -kp.kappa2), 0)
    # i * s3check = s3
    assert approx_eq(i * basis(kp, S3CHECK), basis(kp, S3), 0)


def test_table_matches_matrix_model_when_faithful():
    rng = np.random.default_rng(5)
    for _ in range(5):
        k1 = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
        k2 = float(rng.uniform(-2.0, 2.0))
        derived = structure_constants(KappaPair(k1, k2))
        oracle = pauli_product_table(k1, k2)
        assert np.max(np.abs(derived - oracle)) < 1e-12


def test_product_follows_symbolic_table():
    # the dense 8x8x8 structure constants built from SYMBOLIC_TABLE are the
    # reference: basis products must equal them, and the product of random
    # operands must equal their einsum contraction bit for bit
    rng = np.random.default_rng(23)
    for kp in PATTERNS + [KappaPair(0.7, -1.9), KappaPair(-3.1, 1e-9), KappaPair(0.0, 2.5)]:
        table = np.zeros((8, 8, 8))
        for i in range(8):
            for j in range(8):
                sign, e1, e2, k = SYMBOLIC_TABLE[i][j]
                table[i, j, k] = sign * kp.kappa1**e1 * kp.kappa2**e2
        assert np.array_equal(structure_constants(kp), table)
        for _ in range(50):
            x = rng.normal(size=8) * 10.0 ** rng.uniform(-4, 4, 8)
            y = rng.normal(size=8) * 10.0 ** rng.uniform(-4, 4, 8)
            expected = np.einsum("i,j,ijk->k", x, y, table)
            got = np.asarray((Multivector(kp, x) * Multivector(kp, y)).coeffs)
            assert got.tobytes() == expected.tobytes()


def test_table_is_polynomial_limit_at_kappa1_zero():
    k2 = -0.75
    limit = structure_constants(KappaPair(0.0, k2))
    nearby = structure_constants(KappaPair(1e-9, k2))
    assert np.max(np.abs(limit - nearby)) < 1e-8


@pytest.mark.parametrize("kp", PATTERNS)
def test_associativity_random(kp):
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = Multivector(kp, rng.uniform(-1, 1, 8))
        b = Multivector(kp, rng.uniform(-1, 1, 8))
        c = Multivector(kp, rng.uniform(-1, 1, 8))
        assert approx_eq((a * b) * c, a * (b * c), 1e-10)


def test_kappa_mismatch():
    with pytest.raises(KappaMismatch):
        basis(KappaPair(1.0, 1.0), S1) * basis(KappaPair(1.0, -1.0), S1)


def test_comparison_across_labels_raises():
    # multivectors with different labels are never compared, so never pass
    with pytest.raises(KappaMismatch):
        approx_eq(basis(KappaPair(1.0, 1.0), S1), basis(KappaPair(1.0, -1.0), S1), 1.0)


@pytest.mark.parametrize("kp", PATTERNS)
def test_wedge(kp):
    s1, s2, s3 = basis(kp, S1), basis(kp, S2), basis(kp, S3)
    assert approx_eq(wedge(s1, s2), basis(kp, S3CHECK), 0)
    a = Multivector.vector(kp, 0.3, -0.7, 1.1)
    assert approx_eq(wedge(a, a), Multivector.zero(kp), 0)
    with pytest.raises(NotAVector):
        wedge(basis(kp, IS1), s1)

    # determinant closed form with first row (-kappa1*is1, -is2, s3check)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        v = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        a1, a2, a3 = u.vector_components()
        b1, b2, b3 = v.vector_components()
        det_form = Multivector.bivector(
            kp,
            -kp.kappa1 * (a2 * b3 - a3 * b2),
            a1 * b3 - a3 * b1,
            a1 * b2 - a2 * b1,
        )
        assert approx_eq(wedge(u, v), det_form, 1e-12)


def test_wedge_galilean_example():
    kp = KappaPair(0.0, 0.0)
    lhs = wedge(
        Multivector.vector(kp, 1.0, 1.0, 0.0), Multivector.basis(kp, S3)
    )
    assert approx_eq(lhs, basis(kp, IS2), 0)


@pytest.mark.parametrize("kp", PATTERNS)
def test_ck_dot(kp):
    s1, s2, s3 = basis(kp, S1), basis(kp, S2), basis(kp, S3)
    assert ck_dot(s2, s2) == kp.kappa1
    assert ck_dot(s1, s3) == 0.0
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        b = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        a1, a2, a3 = a.vector_components()
        b1, b2, b3 = b.vector_components()
        explicit = a1 * b1 + kp.kappa1 * a2 * b2 + kp.kappa1 * kp.kappa2 * a3 * b3
        assert ck_dot(a, b) == pytest.approx(explicit, abs=1e-13)
        assert ck_dot(a, a) == pytest.approx((a * a).scalar_part(), abs=1e-13)


def test_ck_dot_minkowski_signature():
    assert ck_dot(
        basis(KappaPair(1.0, -1.0), S3), basis(KappaPair(1.0, -1.0), S3)
    ) == pytest.approx(-1.0)


@pytest.mark.parametrize("kp", PATTERNS)
def test_grade_decomposition_of_vector_product(kp):
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        b = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        prod = a * b
        recomposed = Multivector.scalar(kp, ck_dot(a, b)) + wedge(a, b)
        assert approx_eq(prod, recomposed, 1e-13)


@pytest.mark.parametrize("kp", PATTERNS)
def test_left_contract(kp):
    s1, s2 = basis(kp, S1), basis(kp, S2)
    b12 = wedge(s1, s2)
    assert approx_eq(left_contract(s1, b12), s2, 0)
    with pytest.raises(GradeError):
        left_contract(s1, s2)
    with pytest.raises(NotAVector):
        left_contract(b12, b12)

    rng = np.random.default_rng(31)
    for _ in range(10):
        a = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        b = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        c = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        expected = c * ck_dot(a, b) - b * ck_dot(a, c)
        assert approx_eq(left_contract(a, wedge(b, c)), expected, 1e-12)
        # Jacobi identity for the contraction
        total = (
            left_contract(c, wedge(b, a))
            + left_contract(b, wedge(a, c))
            + left_contract(a, wedge(c, b))
        )
        assert approx_eq(total, Multivector.zero(kp), 1e-12)


def test_degenerate_contraction_to_zero():
    # with kappa1 = 0 the nonzero vector s2 annihilates its own plane
    kp = KappaPair(0.0, 1.0)
    s1, s2 = basis(kp, S1), basis(kp, S2)
    plane = wedge(s2, s1)
    assert np.max(np.abs(plane.coeffs)) > 0
    assert approx_eq(left_contract(s2, plane), Multivector.zero(kp), 0)


@pytest.mark.parametrize("kp", PATTERNS)
def test_bivector_kappa(kp):
    assert bivector_kappa(basis(kp, IS1)) == pytest.approx(kp.kappa2)
    assert bivector_kappa(basis(kp, IS2)) == pytest.approx(kp.kappa1 * kp.kappa2)
    assert bivector_kappa(basis(kp, S3CHECK)) == pytest.approx(kp.kappa1)
    n = UnitAxis(1 / math.sqrt(3), 1 / math.sqrt(3), -1 / math.sqrt(3))
    b = Multivector.bivector(kp, *n)
    expected = (
        n.n1**2 * kp.kappa2
        + n.n2**2 * kp.kappa1 * kp.kappa2
        + n.n3**2 * kp.kappa1
    )
    assert bivector_kappa(b) == pytest.approx(expected, abs=1e-13)


def test_bivector_kappa_examples():
    assert bivector_kappa(basis(KappaPair(1.0, 1.0), IS1)) == 1.0
    assert bivector_kappa(basis(KappaPair(0.0, 0.0), S3CHECK)) == 0.0
    assert bivector_kappa(basis(KappaPair(1.0, -1.0), IS2)) == -1.0


def test_degenerate_axis_is_a_typed_error():
    # a huge finite part beside an inf or nan one leaves the scaled copy's norm
    # inf or nan
    for n in ((0, 0, 0), (0, math.nan, 1), (math.inf, 0, 0), (1e308, math.inf, 0),
              (math.nan, 1e308, 0)):
        with pytest.raises(DegenerateAxis) as caught:
            UnitAxis(*n)
        assert isinstance(caught.value, ValueError)


def test_a_tiny_axis_is_normalised_as_its_scaled_copy():
    # the squares of these axes are subnormal or 0: scaled by a power of two,
    # they normalise to the bits of the same direction at unit size
    assert UnitAxis(3e-162, 0, 0) == UnitAxis(1, 0, 0)
    assert UnitAxis(-5e-324, 0, 5e-324) == UnitAxis(-1, 0, 1)
    n = (0.3, -1.2, 0.5)
    assert UnitAxis(*(math.ldexp(x, -700) for x in n)) == UnitAxis(*n)
    tiny = UnitAxis(1e-200, 1e-200, 0)
    assert tiny.n1 == tiny.n2 == pytest.approx(UnitAxis(1, 1, 0).n1, rel=1e-15)


def test_a_huge_axis_is_normalised_as_its_scaled_copy():
    # the squares of these axes overflow (0, 1e308, -1e300 was DegenerateAxis):
    # scaled by 2**-600, they normalise to the bits of the same direction
    assert UnitAxis(1e300, 0, 0) == UnitAxis(1, 0, 0)
    assert UnitAxis(0, 1e308, -1e300) == UnitAxis(0, math.ldexp(1e308, -600),
                                                   math.ldexp(-1e300, -600))
    n = (0.3, -1.2, 0.5)
    assert UnitAxis(*(math.ldexp(x, 700) for x in n)) == UnitAxis(*n)
    big = 1.7976931348623157e308  # the largest float
    huge = UnitAxis(-big, big, big)
    assert -huge.n1 == huge.n2 == huge.n3 == pytest.approx(UnitAxis(1, 1, 1).n1, rel=1e-15)


AXIS_PART = st.floats(-1e150, 1e150)  # squares stay finite


@settings(max_examples=300, deadline=None)
@given(st.tuples(AXIS_PART, AXIS_PART, AXIS_PART).filter(any))
def test_copies_and_unpickled_values_equal_the_original(n):
    # a value type rebuilds through its constructor, which must not
    # normalize an axis a second time
    kp = KappaPair(1.0, -1.0)
    axis = UnitAxis(*n)
    w, one = gc(0.5, -2.0, -1.0), gc(1.0, 0.0, -1.0)
    values = [kp, w, Mat2(w, w, w, w), MoebiusMap(one, w, w * 0.0, one),
              GammaPoint(w, one), spin_from_axis(kp, *axis, 0.7), rotor(kp, axis, 0.7), axis]
    for value in values:
        for copied in (copy.copy(value), copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert type(copied) is type(value)
            assert copied == value


def test_rotor_examples():
    kp = KappaPair(1.0, 1.0)
    assert approx_eq(
        rotor(kp, UnitAxis(1, 0, 0), 0.0), Multivector.scalar(kp, 1.0), 0
    )
    r = rotor(kp, UnitAxis(1, 0, 0), math.pi)
    assert approx_eq(r, basis(kp, IS1), 1e-15)

    # parabolic label: rotor is 1 + (phi/2) * B
    kp0 = KappaPair(0.0, 0.0)
    n = UnitAxis(0.6, 0.0, 0.8)
    r0 = rotor(kp0, n, 0.9)
    expected = Multivector.scalar(kp0, 1.0) + Multivector.bivector(kp0, *n) * 0.45
    assert approx_eq(r0, expected, 1e-15)


@pytest.mark.parametrize("kp", PATTERNS)
def test_rotor_matches_series_exponential(kp):
    rng = np.random.default_rng(41)
    for _ in range(6):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        phi = rng.uniform(-2.5, 2.5)
        b = Multivector.bivector(kp, *UnitAxis(*n))
        closed = rotor(kp, UnitAxis(*n), phi)
        series = Multivector.scalar(kp, 1.0)
        term = Multivector.scalar(kp, 1.0)
        for order in range(1, 40):
            term = term * b * (0.5 * phi / order)
            series = series + term
        assert approx_eq(closed, series, 1e-10)


@pytest.mark.parametrize("kp", PATTERNS)
def test_rotor_unit_pseudo_norm(kp):
    r = rotor(kp, UnitAxis(0.48, -0.6, 0.64), 1.3)
    assert approx_eq(r * r.reverse(), Multivector.scalar(kp, 1.0), 1e-12)


def boost_plane_case(kp, theta=0.83):
    # e^{-t/2 is1} s_j e^{t/2 is1}, label kappa2
    k2 = kp.kappa2
    r = rotor(kp, UnitAxis(1, 0, 0), theta)
    c, s = cosk(k2, theta), sink(k2, theta)
    assert approx_eq(sandwich(r, basis(kp, S1)), basis(kp, S1), 1e-12)
    assert approx_eq(
        sandwich(r, basis(kp, S2)), Multivector.vector(kp, 0, c, -s), 1e-12
    )
    assert approx_eq(
        sandwich(r, basis(kp, S3)), Multivector.vector(kp, 0, k2 * s, c), 1e-12
    )


def time_plane_case(kp, theta=0.83):
    # s3check, label kappa1
    k1 = kp.kappa1
    r = rotor(kp, UnitAxis(0, 0, 1), theta)
    c, s = cosk(k1, theta), sink(k1, theta)
    assert approx_eq(sandwich(r, basis(kp, S3)), basis(kp, S3), 1e-12)
    assert approx_eq(
        sandwich(r, basis(kp, S1)), Multivector.vector(kp, c, s, 0), 1e-12
    )
    assert approx_eq(
        sandwich(r, basis(kp, S2)), Multivector.vector(kp, -k1 * s, c, 0), 1e-12
    )


@pytest.mark.parametrize("kp", PATTERNS)
def test_sandwich_coordinate_cases(kp):
    k1, k2 = kp.kappa1, kp.kappa2
    theta = 0.83
    boost_plane_case(kp, theta)

    # space-translation plane: is2, label kappa1*kappa2
    r = rotor(kp, UnitAxis(0, 1, 0), theta)
    c, s = cosk(k1 * k2, theta), sink(k1 * k2, theta)
    assert approx_eq(sandwich(r, basis(kp, S2)), basis(kp, S2), 1e-12)
    assert approx_eq(
        sandwich(r, basis(kp, S1)), Multivector.vector(kp, c, 0, s), 1e-12
    )
    assert approx_eq(
        sandwich(r, basis(kp, S3)), Multivector.vector(kp, -k1 * k2 * s, 0, c), 1e-12
    )

    time_plane_case(kp, theta)


# kappa1*kappa2 overflows to +-inf: the products leave its zero terms at 0
# (not 0*inf = nan), so the planes whose own label is circular still rotate
@pytest.mark.parametrize("kp", [KappaPair(1e200, 1e200), KappaPair(-1e200, 1e200)])
def test_boost_plane_at_an_overflowing_label_product(kp):
    boost_plane_case(kp)


@pytest.mark.parametrize("kp", [KappaPair(1e200, 1e200), KappaPair(1e200, -1e200)])
def test_time_plane_at_an_overflowing_label_product(kp):
    time_plane_case(kp)


def test_sandwich_identity_rotor():
    kp = KappaPair(-1.0, 0.5)
    a = Multivector.vector(kp, 0.2, -1.0, 0.7)
    assert approx_eq(sandwich(rotor(kp, UnitAxis(0, 1, 0), 0.0), a), a, 0)


@pytest.mark.parametrize("kp", PATTERNS)
def test_sandwich_preserves_length_and_axis(kp):
    rng = np.random.default_rng(59)
    for _ in range(12):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        axis = UnitAxis(*n)
        phi = rng.uniform(-2.0, 2.0)
        r = rotor(kp, axis, phi)
        a = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        out = sandwich(r, a)
        assert ck_dot(out, out) == pytest.approx(ck_dot(a, a), abs=1e-10)
        normal, _form = axis_of(kp, axis)
        assert approx_eq(sandwich(r, normal), normal, 1e-10)


def test_axis_of_forms():
    kp = KappaPair(1.0, 0.0)
    normal, form = axis_of(kp, UnitAxis(1, 0, 0))
    assert form == "1/i"
    assert tuple(normal.vector_components()) == (1.0, 0.0, 0.0)

    normal, form = axis_of(kp, UnitAxis(0, 0, 1))
    assert form == "i"
    assert tuple(normal.vector_components()) == (0.0, 0.0, 1.0)

    kp = KappaPair(1.0, -2.0)
    normal, form = axis_of(kp, UnitAxis(0.6, 0.8, 0))
    assert form == "i"
    np.testing.assert_allclose(normal.vector_components(), [1.2, 1.6, 0.0])


@pytest.mark.parametrize("kp", PATTERNS)
def test_plane_of_factorization(kp):
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        axis = UnitAxis(*n)
        e, f, substituted = plane_of(kp, axis)
        if substituted:
            assert kp.kappa1 == 0.0 and axis.n1 != 0.0
            assert tuple(e.vector_components()) == (0.0, 0.0, 1.0)
            assert tuple(f.vector_components()) == (0.0, 1.0, 0.0)
        else:
            assert approx_eq(wedge(e, f), Multivector.bivector(kp, *axis), 1e-10)


def test_plane_of_substitution_flag():
    kp = KappaPair(0.0, -1.0)
    _, _, substituted = plane_of(kp, UnitAxis(1, 0, 0))
    assert substituted
    _, _, substituted = plane_of(kp, UnitAxis(0, 0.6, 0.8))
    assert not substituted


@pytest.mark.parametrize("k1", [5e-324, -5e-324, 1e-300, -1e-300])
@pytest.mark.parametrize(
    "axis",
    [(0, 0, 1), (0.1, 0.3, 1), (1, 0, 0), (1, 0.5, 0.3), (0, 1, 0), (0.3, 1, 0.5)],
    ids=["n3", "n3-largest", "n1", "n1-largest", "n2", "n2-largest"],
)
def test_plane_of_at_a_tiny_kappa1_is_finite_or_a_typed_error(k1, axis):
    # the factor divides by kappa1 times the largest component: at 5e-324 and
    # n1 != 0 its true value is beyond the float range, never a nan vector
    kp, n = KappaPair(k1, 1.0), UnitAxis(*axis)
    if abs(k1) == 5e-324 and n.n1 != 0.0:
        with pytest.raises(DegeneratePlane):
            plane_of(kp, n)
        return
    e, f, substituted = plane_of(kp, n)
    assert not substituted
    assert np.isfinite(e.coeffs).all() and np.isfinite(f.coeffs).all()
    assert approx_eq(wedge(e, f), Multivector.bivector(kp, *n), 1e-15)


@pytest.mark.parametrize("kp", PATTERNS)
def test_in_plane_rotation_closed_form(kp):
    rng = np.random.default_rng(83)
    done = 0
    while done < 10:
        a = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        b = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
        if np.max(np.abs(wedge(a, b).coeffs)) < 1e-3:
            continue
        phi = rng.uniform(-2.0, 2.0)
        lhs, rhs = in_plane_rotation_check(kp, a, b, phi)
        assert approx_eq(lhs, rhs, 1e-10)
        done += 1


def test_in_plane_galilean_shear():
    kp = KappaPair(0.0, 0.0)
    s1, s3 = basis(kp, S1), basis(kp, S3)
    beta = 1.7
    lhs, rhs = in_plane_rotation_check(kp, s1, s3, beta)
    assert approx_eq(lhs, Multivector.vector(kp, 1.0, 0.0, beta), 1e-12)
    assert approx_eq(rhs, lhs, 1e-12)


def test_in_plane_phi_zero():
    kp = KappaPair(1.0, -1.0)
    a = Multivector.vector(kp, 0.1, 0.9, -0.4)
    b = Multivector.vector(kp, 1.0, 0.0, 0.3)
    lhs, rhs = in_plane_rotation_check(kp, a, b, 0.0)
    assert approx_eq(lhs, a, 1e-12)
    assert approx_eq(rhs, a, 1e-12)


def test_in_plane_degenerate():
    kp = KappaPair(1.0, 1.0)
    a = Multivector.vector(kp, 0.5, 0.0, 0.0)
    with pytest.raises(DegeneratePlane):
        in_plane_rotation_check(kp, a, a, 0.3)


@pytest.mark.parametrize("kp", PATTERNS)
def test_bivectors_realize_motion_algebra(kp):
    h = basis(kp, S3CHECK) * 0.5
    p = basis(kp, IS2) * 0.5
    k = basis(kp, IS1) * 0.5

    def bracket(x, y):
        return x * y - y * x

    assert approx_eq(bracket(k, h), p, 0)
    assert approx_eq(bracket(k, p), h * (-kp.kappa2), 0)
    assert approx_eq(bracket(h, p), k * kp.kappa1, 0)


@pytest.mark.parametrize("kp", PATTERNS)
def test_angle_rescaling_consistency(kp):
    # n*(a^b) with angle theta acts like (a^b) with angle n*theta
    rng = np.random.default_rng(97)
    a = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
    b = Multivector.vector(kp, *rng.uniform(-1, 1, 3))
    plane = wedge(a, b)
    if np.max(np.abs(plane.coeffs)) < 1e-6:
        pytest.skip("degenerate sample")
    theta = 0.7
    for scale in (2.0, 3.0, 0.5):
        r1 = rotor_from_bivector(plane * scale, theta)
        r2 = rotor_from_bivector(plane, scale * theta)
        assert approx_eq(r1, r2, 1e-10)
        v = Multivector.vector(kp, 0.3, -0.2, 0.9)
        assert approx_eq(sandwich(r1, v), sandwich(r2, v), 1e-10)


def test_sandwich_of_large_vectors_keeps_the_ck_length():
    # the other grades of reverse(r)*a*r are rounding of the size of a; an
    # absolute bound on them once read |a| ~ 1e8 as GradeError
    def terms(kp, v):
        a1, a2, a3 = v.vector_components()
        return np.array([a1 * a1, kp.kappa1 * a2 * a2, kp.kappa1 * kp.kappa2 * a3 * a3])

    rng = np.random.default_rng(67)
    for _ in range(200):
        kp = KappaPair(*(rng.choice([-1.0, 1.0], 2) * rng.uniform(0.05, 2.0, 2)))
        n = rng.normal(size=3)
        r = rotor(kp, UnitAxis(*n), rng.uniform(-2.0, 2.0))
        a = Multivector.vector(kp, *(rng.uniform(-1, 1, 3) * 10.0 ** rng.uniform(0, 12)))
        out = sandwich(r, a)
        before, after = terms(kp, a), terms(kp, out)
        size = np.sum(np.abs(before)) + np.sum(np.abs(after))
        assert abs(np.sum(after) - np.sum(before)) <= 1e-12 * size


def test_sandwich_grade_validation():
    kp = KappaPair(1.0, 1.0)
    r = rotor(kp, UnitAxis(1, 0, 0), 0.4)
    with pytest.raises(GradeError):
        sandwich(r, basis(kp, IS1))
    with pytest.raises(GradeError):
        sandwich(basis(kp, S1), basis(kp, S1))


# SYMBOLIC_TABLE flattened in (i, j) order: the sign of each e_i * e_j, which
# monomial 1, kappa1, kappa2, kappa1*kappa2 it carries, and its result index
_TERMS = [entry for row in SYMBOLIC_TABLE for entry in row]
_PRODUCT_SIGN = np.array([float(sign) for sign, _, _, _ in _TERMS])
_PRODUCT_MONOMIAL = np.array([e1 + 2 * e2 for _, e1, e2, _ in _TERMS])
_PRODUCT_INDEX = np.array([k for _, _, _, k in _TERMS])


def dense_product(x, y):
    """x * y as an independent numpy gather of all 64 terms, summed by bincount."""
    k1, k2 = x.kp.kappa1, x.kp.kappa2
    k12 = k1 * k2
    coef = np.array([1.0, k1, k2, k12])[_PRODUCT_MONOMIAL] * _PRODUCT_SIGN
    terms = (np.asarray(x.coeffs)[:, None] * np.asarray(y.coeffs)).ravel()
    if math.isfinite(k12):
        terms *= coef
    else:  # a zero term stays 0 where 0 * inf would be nan
        nonzero = terms != 0.0
        terms[nonzero] *= coef[nonzero]
    return Multivector(x.kp, np.bincount(_PRODUCT_INDEX, terms, minlength=8))


def dense_sandwich(r, a):
    """sandwich's checks around reverse(r) * a * r through the 64-term product."""
    c, k2 = np.asarray(r.coeffs).tolist(), r.kp.kappa2
    if not r.off_grade_norm((0, 2)) == 0.0:
        raise GradeError("rotor must be an even multivector")
    spin = SpinElement(r.kp, gc(c[SCALAR], c[IS1], k2), gc(c[S3CHECK], c[IS2], k2))
    if not spin.unit_defect() <= UNIT_TOL:
        raise NotUnitRotor(f"rotor pseudo-norm {spin.pseudo_norm()} != 1")
    if not a.is_vector():
        raise GradeError(f"{a} is not a pure vector")
    with np.errstate(all="ignore"):
        out = dense_product(dense_product(r.reverse(), a), r)
    size = sum(map(abs, c))
    scale = size * size * sum(map(abs, np.asarray(a.coeffs).tolist()))
    if not out.off_grade_norm((1,)) <= UNIT_TOL * max(1.0, scale):
        raise GradeError("sandwich result is not a vector")
    return out.grade_part(1)


def outcome(rotate, r, a):
    """The coefficients' bits, or the error's type and message."""
    try:
        return (np.asarray(rotate(r, a).coeffs) + 0.0).view(np.uint64).tolist()
    except KinematicaError as exc:
        return type(exc), str(exc)


def full_mantissas(low: int, high: int):
    """Floats with a drawn 53-bit mantissa and sign, 2**(low-1) <= |x| < 2**high."""
    return st.builds(
        lambda n, e: math.ldexp(n, e - 53),
        st.integers(2**52, 2**53 - 1) | st.integers(1 - 2**53, -(2**52)),
        st.integers(low, high),
    )


labels = st.one_of(
    st.sampled_from((1.0, 0.0, -1.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300)),
    full_mantissas(-40, 40),
)
angles = full_mantissas(-4, 3)
components = st.one_of(
    full_mantissas(-4, 2),
    full_mantissas(-998, 1024),  # 1e-301 to the largest float
    st.sampled_from((0.0, -0.0, math.inf, -math.inf)),
)
zeros = st.sampled_from((0.0, -0.0))


@st.composite
def rotor_and_vector(draw):
    kp = KappaPair(draw(labels), draw(labels))
    kind = draw(st.sampled_from(("rotor", "rotor", "scaled", "even", "any")))
    if kind in ("rotor", "scaled"):
        try:
            r = rotor(kp, UnitAxis(*draw(st.tuples(angles, angles, components))), draw(angles))
        except (DegenerateAxis, OverflowError):
            r = Multivector.scalar(kp, 1.0)
        if kind == "scaled":
            r = r * draw(st.sampled_from((-1.0, 1 + 1e-9, 1 - 1e-7, 2.0)))
    else:
        c = [draw(components if GRADES[k] % 2 == 0 or kind == "any" else zeros)
             for k in range(8)]
        r = Multivector(kp, c)
    v = [draw(components if g == 1 else zeros) for g in GRADES]
    if draw(st.integers(0, 9)) == 0:  # a non-vector
        v[draw(st.sampled_from((SCALAR, IS1, IS2, S3CHECK, VOLUME)))] = draw(
            st.sampled_from((1.0, -1e-300, math.nan))
        )
    return r, Multivector(kp, v)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(rotor_and_vector())
# reverse(r) * a overflows; i's slot of the result is inf, not nan, and its
# bound, |r|^2 |a| times UNIT_TOL, is inf as well
@example((rotor(KappaPair(1e10, 1.0), UnitAxis(1, 1, 0), 1.0),
          Multivector.vector(KappaPair(1e10, 1.0), 1e308, 0.0, 1e308)))
def test_sandwich_is_the_dense_product_bit_for_bit(pair):
    # the 28 gathered terms against both 64-term products: the same bits,
    # including every overflow, or the same typed error
    r, a = pair
    assert outcome(sandwich, r, a) == outcome(dense_sandwich, r, a)


def signed_outcome(rotate, r, a):
    """The coefficients' bits as they are, a -0.0 apart from a +0.0, or the error."""
    try:
        return np.asarray(rotate(r, a).coeffs).view(np.uint64).tolist()
    except KinematicaError as exc:
        return type(exc), str(exc)


def test_sandwich_keeps_the_signs_of_the_dense_products_zeros():
    # rotors and vectors whose slots are +-1, +0 or -0, so that many result
    # slots sum only zero terms
    signed = (1.0, -1.0, 0.0, -0.0)
    for k1, k2 in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 0.0), (0.0, -1.0)):
        kp = KappaPair(k1, k2)
        for c0, c4, c5, c6 in itertools.product(signed, repeat=4):
            r = Multivector(kp, (c0, 0.0, 0.0, 0.0, c4, c5, c6, 0.0))
            for v in itertools.product(signed, repeat=3):
                a = Multivector.vector(kp, *v)
                assert signed_outcome(sandwich, r, a) == signed_outcome(dense_sandwich, r, a)


def product_bits(product, x, y):
    """The coefficients' bits, with every nan read as the one quiet nan."""
    c = np.asarray(product(x, y).coeffs) + 0.0
    return np.where(np.isnan(c), math.nan, c).view(np.uint64).tolist()


@st.composite
def multivector_pair(draw):
    kp = KappaPair(draw(labels), draw(labels))

    def operand():  # nonzero slots in a drawn set of grades
        grades = draw(st.sets(st.integers(0, 3), min_size=1))
        return Multivector(kp, [draw(components if g in grades else zeros) for g in GRADES])

    return operand(), operand()


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(multivector_pair())
# kappa1*kappa2 overflows: s3 * s3 is inf, while the zero terms beside it stay 0
@example((Multivector.vector(KappaPair(1e300, 1e300), 0.0, -0.0, 2.0),
          Multivector.vector(KappaPair(1e300, 1e300), 1.0, 0.0, 3.0)))
def test_product_is_the_dense_product_bit_for_bit(pair):
    # the gathered 64 terms against the numpy gather: the same bits,
    # including every overflow and nan
    x, y = pair
    with np.errstate(all="ignore"):
        assert product_bits(Multivector.__mul__, x, y) == product_bits(dense_product, x, y)


def test_an_infinite_component_stays_in_its_grade():
    # an infinite coefficient is no residue in the other grades (0 * inf is nan)
    kp = KappaPair(1.0, -1.0)
    v = Multivector.vector(kp, math.inf, 0.0, 0.0)
    assert v.is_vector()
    assert v.off_grade_norm((1,)) == 0.0
    assert np.asarray(v.grade_part(1).coeffs).tolist() == [0.0, math.inf, 0, 0, 0, 0, 0, 0]
    assert np.asarray(v.grade_part(0).coeffs).tolist() == [0.0] * 8


@pytest.mark.parametrize("slot", range(8))
def test_a_nan_outside_the_grade_fails_the_predicate(slot):
    c = np.zeros(8)
    c[slot] = math.nan
    m = Multivector(KappaPair(1.0, 1.0), c)
    if GRADES[slot] != 1:
        assert not m.is_vector()
        assert math.isnan(m.off_grade_norm((1,)))
    if GRADES[slot] != 2:
        assert not m.is_bivector()


def test_reverse_signs():
    kp = KappaPair(1.0, 1.0)
    mv = Multivector(kp, np.arange(1.0, 9.0))
    rev = mv.reverse()
    np.testing.assert_array_equal(
        rev.coeffs, [1.0, 2.0, 3.0, 4.0, -5.0, -6.0, -7.0, -8.0]
    )
    # anti-automorphism on random pairs
    rng = np.random.default_rng(13)
    a = Multivector(kp, rng.uniform(-1, 1, 8))
    b = Multivector(kp, rng.uniform(-1, 1, 8))
    assert approx_eq((a * b).reverse(), b.reverse() * a.reverse(), 1e-12)


@pytest.mark.parametrize(
    "coeffs",
    [[1.0] * 7, [1.0] * 9, np.ones((8, 1)), np.ones((2, 4)), "12345678"],
    ids=["7-items", "9-items", "8x1-array", "2x4-array", "str"],
)
def test_anything_but_8_numbers_is_rejected(coeffs):
    with pytest.raises(ValueError, match="^need exactly 8 coefficients$"):
        Multivector(KappaPair(1.0, 1.0), coeffs)


@pytest.mark.parametrize(
    "item, error", [(1j, TypeError), ("x", ValueError), (2**2000, OverflowError)]
)
def test_a_coefficient_float_cannot_read_raises_the_conversion_error(item, error):
    with pytest.raises(error):
        Multivector(KappaPair(1.0, 1.0), [item] * 8)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("item", [1, np.float64(2.0)])
def test_vector_turns_each_component_into_a_python_float(slot, item):
    components = [0, 0, 0]
    components[slot] = item
    m = Multivector.vector(KappaPair(1.0, 1.0), *components)
    assert all(type(x) is float for x in m.coeffs)
    assert m.coeffs[S1:S3 + 1] == tuple(float(x) for x in components)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize(
    "item, error, message",
    [("1.5", ValueError, "^need exactly 8 coefficients$"),
     (np.ones(1), ValueError, "^need exactly 8 coefficients$"),
     (1j, TypeError, None), (2**2000, OverflowError, None)],
)
def test_vector_rejects_a_component_as_the_constructor_does(slot, item, error, message):
    components = [0, 0, 0]
    components[slot] = item
    with pytest.raises(error, match=message):
        Multivector.vector(KappaPair(1.0, 1.0), *components)


def test_coefficients_are_a_tuple_of_floats_and_equality_reads_them():
    kp = KappaPair(1.0, -1.0)
    m = Multivector(kp, np.arange(8))
    assert type(m.coeffs) is tuple and all(type(x) is float for x in m.coeffs)
    assert m == Multivector(kp, [float(k) for k in range(8)])
    assert m != Multivector(KappaPair(1.0, 1.0), m.coeffs)
    assert m != Multivector.zero(kp)
    assert m.vector_components() == (1.0, 2.0, 3.0)


def bits(values):
    """The bits of each float, with every nan read as the one quiet nan."""
    c = np.asarray(values, dtype=float)
    return np.where(np.isnan(c), math.nan, c).view(np.uint64).tolist()


slots = components | st.just(math.nan)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    labels, labels, st.lists(slots, min_size=8, max_size=8),
    st.lists(slots, min_size=8, max_size=8), slots, st.integers(0, 3),
    st.sets(st.integers(0, 3)),
)
def test_linear_operations_are_the_array_operations_bit_for_bit(k1, k2, xs, ys, c, g, grades):
    # the float loops against the same operation on the coefficient array:
    # the same bits, signed zeros, overflows and 0 * inf included
    kp = KappaPair(k1, k2)
    x, y = Multivector(kp, xs), Multivector(kp, ys)
    a, b = np.asarray(x.coeffs), np.asarray(y.coeffs)
    outside = [k for k, grade in enumerate(GRADES) if grade not in grades]
    with np.errstate(all="ignore"):
        pairs = [
            (x + y, a + b),
            (x - y, a - b),
            (-x, -a),
            (x * c, a * c),
            (c * x, c * a),
            (x.reverse(), a * np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])),
            (x.grade_part(g), np.where(np.array(GRADES) == g, a, 0.0)),
        ]
        norm = np.abs(a[outside]).max(initial=0.0)
    for got, want in pairs:
        assert bits(got.coeffs) == bits(want)
    assert bits([x.off_grade_norm(tuple(grades))]) == bits([norm])


@pytest.mark.parametrize("factor", [2.5, -0.0, math.inf, -math.inf, math.nan])
def test_scaling_is_the_product_with_a_scalar(factor):
    # every slot is scaled, so the nans of an infinite factor are the
    # product's own 0 * inf; only the signs of the zeros differ
    kp = KappaPair(1.0, 1.0)
    for v in (
        Multivector.vector(kp, 1.0, 0.0, 0.0),
        Multivector(kp, [1.5, -0.0, 2.0, 0.0, -3.0, 0.0, 1e300, -5e-324]),
    ):
        want = bits(np.asarray((Multivector.scalar(kp, factor) * v).coeffs) + 0.0)
        assert bits(np.asarray((v * factor).coeffs) + 0.0) == want
        assert bits(np.asarray((factor * v).coeffs) + 0.0) == want
