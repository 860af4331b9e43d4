import math

import numpy as np
import pytest

from kinematica.ckgeom import KappaPair
from kinematica.clifford import (
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
    axis_bivector,
    axis_of,
    bivector_kappa,
    ck_dot,
    in_plane_rotation_check,
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
    NotAVector,
)
from kinematica.gentrig import cosk, sink
from kinematica.numerics import pauli_product_table

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
    assert (s1 * s1).approx_eq(one, 0)
    assert (s2 * s2).approx_eq(Multivector.scalar(kp, kp.kappa1), 0)
    assert (s3 * s3).approx_eq(Multivector.scalar(kp, kp.kappa1 * kp.kappa2), 0)

    assert (s1 * s2).approx_eq(basis(kp, S3CHECK), 0)
    assert (s2 * s1).approx_eq(-basis(kp, S3CHECK), 0)
    assert (s1 * s3).approx_eq(basis(kp, IS2), 0)
    assert (s3 * s1).approx_eq(-basis(kp, IS2), 0)
    assert (s3 * s2).approx_eq(basis(kp, IS1) * kp.kappa1, 0)
    assert (s2 * s3).approx_eq(basis(kp, IS1) * (-kp.kappa1), 0)

    assert (s1 * s2 * s3).approx_eq(Multivector.volume(kp, -kp.kappa1), 0)


@pytest.mark.parametrize("kp", PATTERNS)
def test_bivector_squares(kp):
    assert (basis(kp, IS1) * basis(kp, IS1)).approx_eq(
        Multivector.scalar(kp, -kp.kappa2), 0
    )
    assert (basis(kp, IS2) * basis(kp, IS2)).approx_eq(
        Multivector.scalar(kp, -kp.kappa1 * kp.kappa2), 0
    )
    assert (basis(kp, S3CHECK) * basis(kp, S3CHECK)).approx_eq(
        Multivector.scalar(kp, -kp.kappa1), 0
    )


@pytest.mark.parametrize("kp", PATTERNS)
def test_volume_element_is_central(kp):
    i = basis(kp, VOLUME)
    for idx in range(8):
        e = basis(kp, idx)
        assert (i * e).approx_eq(e * i, 0)
    assert (i * i).approx_eq(Multivector.scalar(kp, -kp.kappa2), 0)
    # i * s3check = s3
    assert (i * basis(kp, S3CHECK)).approx_eq(basis(kp, S3), 0)


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
            got = (Multivector(kp, x) * Multivector(kp, y)).coeffs
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
        assert ((a * b) * c).approx_eq(a * (b * c), 1e-10)


def test_kappa_mismatch():
    with pytest.raises(KappaMismatch):
        basis(KappaPair(1.0, 1.0), S1) * basis(KappaPair(1.0, -1.0), S1)


@pytest.mark.parametrize("kp", PATTERNS)
def test_wedge(kp):
    s1, s2, s3 = basis(kp, S1), basis(kp, S2), basis(kp, S3)
    assert wedge(s1, s2).approx_eq(basis(kp, S3CHECK), 0)
    a = Multivector.vector(kp, 0.3, -0.7, 1.1)
    assert wedge(a, a).approx_eq(Multivector.zero(kp), 0)
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
        assert wedge(u, v).approx_eq(det_form, 1e-12)


def test_wedge_galilean_example():
    kp = KappaPair(0.0, 0.0)
    lhs = wedge(
        Multivector.vector(kp, 1.0, 1.0, 0.0), Multivector.basis(kp, S3)
    )
    assert lhs.approx_eq(basis(kp, IS2), 0)


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
        assert prod.approx_eq(recomposed, 1e-13)


@pytest.mark.parametrize("kp", PATTERNS)
def test_left_contract(kp):
    s1, s2 = basis(kp, S1), basis(kp, S2)
    b12 = wedge(s1, s2)
    assert left_contract(s1, b12).approx_eq(s2, 0)
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
        assert left_contract(a, wedge(b, c)).approx_eq(expected, 1e-12)
        # Jacobi identity for the contraction
        total = (
            left_contract(c, wedge(b, a))
            + left_contract(b, wedge(a, c))
            + left_contract(a, wedge(c, b))
        )
        assert total.approx_eq(Multivector.zero(kp), 1e-12)


def test_degenerate_contraction_to_zero():
    # with kappa1 = 0 the nonzero vector s2 annihilates its own plane
    kp = KappaPair(0.0, 1.0)
    s1, s2 = basis(kp, S1), basis(kp, S2)
    plane = wedge(s2, s1)
    assert np.max(np.abs(plane.coeffs)) > 0
    assert left_contract(s2, plane).approx_eq(Multivector.zero(kp), 0)


@pytest.mark.parametrize("kp", PATTERNS)
def test_bivector_kappa(kp):
    assert bivector_kappa(basis(kp, IS1)) == pytest.approx(kp.kappa2)
    assert bivector_kappa(basis(kp, IS2)) == pytest.approx(kp.kappa1 * kp.kappa2)
    assert bivector_kappa(basis(kp, S3CHECK)) == pytest.approx(kp.kappa1)
    n = UnitAxis(1 / math.sqrt(3), 1 / math.sqrt(3), -1 / math.sqrt(3))
    b = axis_bivector(kp, n)
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
    for n in ((0, 0, 0), (0, math.nan, 1), (math.inf, 0, 0), (0, 1e308, -1e300)):
        with pytest.raises(DegenerateAxis) as caught:
            UnitAxis(*n)
        assert isinstance(caught.value, ValueError)


def test_rotor_examples():
    kp = KappaPair(1.0, 1.0)
    assert rotor(kp, UnitAxis(1, 0, 0), 0.0).approx_eq(
        Multivector.scalar(kp, 1.0), 0
    )
    r = rotor(kp, UnitAxis(1, 0, 0), math.pi)
    assert r.approx_eq(basis(kp, IS1), 1e-15)

    # parabolic label: rotor is 1 + (phi/2) * B
    kp0 = KappaPair(0.0, 0.0)
    n = UnitAxis(0.6, 0.0, 0.8)
    r0 = rotor(kp0, n, 0.9)
    expected = Multivector.scalar(kp0, 1.0) + axis_bivector(kp0, n) * 0.45
    assert r0.approx_eq(expected, 1e-15)


@pytest.mark.parametrize("kp", PATTERNS)
def test_rotor_matches_series_exponential(kp):
    rng = np.random.default_rng(41)
    for _ in range(6):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        phi = rng.uniform(-2.5, 2.5)
        b = axis_bivector(kp, UnitAxis(*n))
        closed = rotor(kp, UnitAxis(*n), phi)
        series = Multivector.scalar(kp, 1.0)
        term = Multivector.scalar(kp, 1.0)
        for order in range(1, 40):
            term = term * b * (0.5 * phi / order)
            series = series + term
        assert closed.approx_eq(series, 1e-10)


@pytest.mark.parametrize("kp", PATTERNS)
def test_rotor_unit_pseudo_norm(kp):
    r = rotor(kp, UnitAxis(0.48, -0.6, 0.64), 1.3)
    assert (r * r.reverse()).approx_eq(Multivector.scalar(kp, 1.0), 1e-12)


def boost_plane_case(kp, theta=0.83):
    # e^{-t/2 is1} s_j e^{t/2 is1}, label kappa2
    k2 = kp.kappa2
    r = rotor(kp, UnitAxis(1, 0, 0), theta)
    c, s = cosk(k2, theta), sink(k2, theta)
    assert sandwich(r, basis(kp, S1)).approx_eq(basis(kp, S1), 1e-12)
    assert sandwich(r, basis(kp, S2)).approx_eq(
        Multivector.vector(kp, 0, c, -s), 1e-12
    )
    assert sandwich(r, basis(kp, S3)).approx_eq(
        Multivector.vector(kp, 0, k2 * s, c), 1e-12
    )


def time_plane_case(kp, theta=0.83):
    # s3check, label kappa1
    k1 = kp.kappa1
    r = rotor(kp, UnitAxis(0, 0, 1), theta)
    c, s = cosk(k1, theta), sink(k1, theta)
    assert sandwich(r, basis(kp, S3)).approx_eq(basis(kp, S3), 1e-12)
    assert sandwich(r, basis(kp, S1)).approx_eq(
        Multivector.vector(kp, c, s, 0), 1e-12
    )
    assert sandwich(r, basis(kp, S2)).approx_eq(
        Multivector.vector(kp, -k1 * s, c, 0), 1e-12
    )


@pytest.mark.parametrize("kp", PATTERNS)
def test_sandwich_coordinate_cases(kp):
    k1, k2 = kp.kappa1, kp.kappa2
    theta = 0.83
    boost_plane_case(kp, theta)

    # space-translation plane: is2, label kappa1*kappa2
    r = rotor(kp, UnitAxis(0, 1, 0), theta)
    c, s = cosk(k1 * k2, theta), sink(k1 * k2, theta)
    assert sandwich(r, basis(kp, S2)).approx_eq(basis(kp, S2), 1e-12)
    assert sandwich(r, basis(kp, S1)).approx_eq(
        Multivector.vector(kp, c, 0, s), 1e-12
    )
    assert sandwich(r, basis(kp, S3)).approx_eq(
        Multivector.vector(kp, -k1 * k2 * s, 0, c), 1e-12
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
    assert sandwich(rotor(kp, UnitAxis(0, 1, 0), 0.0), a).approx_eq(a, 0)


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
        assert sandwich(r, normal).approx_eq(normal, 1e-10)


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
            assert wedge(e, f).approx_eq(axis_bivector(kp, axis), 1e-10)


def test_plane_of_substitution_flag():
    kp = KappaPair(0.0, -1.0)
    _, _, substituted = plane_of(kp, UnitAxis(1, 0, 0))
    assert substituted
    _, _, substituted = plane_of(kp, UnitAxis(0, 0.6, 0.8))
    assert not substituted


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
        assert lhs.approx_eq(rhs, 1e-10)
        done += 1


def test_in_plane_galilean_shear():
    kp = KappaPair(0.0, 0.0)
    s1, s3 = basis(kp, S1), basis(kp, S3)
    beta = 1.7
    lhs, rhs = in_plane_rotation_check(kp, s1, s3, beta)
    assert lhs.approx_eq(Multivector.vector(kp, 1.0, 0.0, beta), 1e-12)
    assert rhs.approx_eq(lhs, 1e-12)


def test_in_plane_phi_zero():
    kp = KappaPair(1.0, -1.0)
    a = Multivector.vector(kp, 0.1, 0.9, -0.4)
    b = Multivector.vector(kp, 1.0, 0.0, 0.3)
    lhs, rhs = in_plane_rotation_check(kp, a, b, 0.0)
    assert lhs.approx_eq(a, 1e-12)
    assert rhs.approx_eq(a, 1e-12)


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

    assert bracket(k, h).approx_eq(p, 0)
    assert bracket(k, p).approx_eq(h * (-kp.kappa2), 0)
    assert bracket(h, p).approx_eq(k * kp.kappa1, 0)


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
        assert r1.approx_eq(r2, 1e-10)
        v = Multivector.vector(kp, 0.3, -0.2, 0.9)
        assert sandwich(r1, v).approx_eq(sandwich(r2, v), 1e-10)


def test_sandwich_grade_validation():
    kp = KappaPair(1.0, 1.0)
    r = rotor(kp, UnitAxis(1, 0, 0), 0.4)
    with pytest.raises(GradeError):
        sandwich(r, basis(kp, IS1))
    with pytest.raises(GradeError):
        sandwich(basis(kp, S1), basis(kp, S1))


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
    assert (a * b).reverse().approx_eq(b.reverse() * a.reverse(), 1e-12)
