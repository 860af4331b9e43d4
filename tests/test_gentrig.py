import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from kinematica.errors import DomainError, PoleError, TrigOverflow
from kinematica.gentrig import atank, cosk, cosk_sink, sink, tank

KAPPAS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
PHIS = [-3.0 + 6.0 * i / 49 for i in range(50)]


def series_oracle(kappa, phi, terms=40):
    """Power-series evaluation, independent of the closed forms."""
    c, s = 0.0, 0.0
    c_term, s_term = 1.0, phi
    for m in range(terms):
        c += c_term
        s += s_term
        c_term *= -kappa * phi * phi / ((2 * m + 1) * (2 * m + 2))
        s_term *= -kappa * phi * phi / ((2 * m + 2) * (2 * m + 3))
    return c, s


def test_examples():
    assert cosk(1.0, 0.0) == 1.0
    assert cosk(0.0, 5.0) == 1.0
    c40, _ = series_oracle(4.0, math.pi / 2)
    assert cosk(4.0, math.pi / 2) == pytest.approx(c40, abs=1e-12)
    assert cosk(4.0, math.pi / 2) == pytest.approx(-1.0, abs=1e-12)

    assert sink(0.0, 3.7) == 3.7
    assert sink(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    _, s_oracle = series_oracle(-1.0, 1.0)
    assert sink(-1.0, 1.0) == pytest.approx(s_oracle, abs=1e-12)
    assert sink(-1.0, 1.0) == pytest.approx(math.sinh(1.0), abs=1e-12)

    assert tank(1.0, math.pi / 4) == pytest.approx(1.0, abs=1e-15)
    assert tank(0.0, 1.3) == 1.3
    assert tank(-1.0, 0.5) == pytest.approx(math.tanh(0.5), abs=1e-12)

    assert atank(1.0, 1.0) == pytest.approx(math.pi / 4, abs=1e-15)
    assert atank(0.0, 2.5) == 2.5
    assert atank(-1.0, 0.5) == pytest.approx(math.atanh(0.5), abs=1e-12)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_matches_series_oracle(kappa):
    for phi in PHIS:
        c_ref, s_ref = series_oracle(kappa, phi)
        assert cosk(kappa, phi) == pytest.approx(c_ref, abs=1e-11)
        assert sink(kappa, phi) == pytest.approx(s_ref, abs=1e-11)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_fundamental_identity(kappa):
    for phi in PHIS:
        c, s = cosk(kappa, phi), sink(kappa, phi)
        assert c * c + kappa * s * s == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_double_angle(kappa):
    for phi in PHIS:
        c, s = cosk(kappa, phi), sink(kappa, phi)
        assert cosk(kappa, 2 * phi) == pytest.approx(c * c - kappa * s * s, abs=1e-12)
        assert sink(kappa, 2 * phi) == pytest.approx(2 * c * s, abs=1e-12)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_half_angle(kappa):
    for phi in PHIS:
        c = cosk(kappa, phi)
        if abs(c + 1.0) < 1e-6:
            continue
        assert tank(kappa, phi / 2) == pytest.approx(
            sink(kappa, phi) / (c + 1.0), abs=1e-12
        )


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_addition_law(kappa, sign):
    pairs = [(0.3, 0.4), (-1.2, 0.7), (0.9, -0.8), (1.5, 1.1)]
    for phi, psi in pairs:
        try:
            t1, t2 = tank(kappa, phi), tank(kappa, psi)
            lhs = tank(kappa, phi + sign * psi)
        except PoleError:
            continue
        denom = 1.0 - sign * kappa * t1 * t2
        if abs(denom) < 1e-6:
            continue
        assert lhs == pytest.approx((t1 + sign * t2) / denom, abs=1e-10)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_derivatives_by_finite_differences(kappa):
    h = 1e-5
    for phi in PHIS:
        dc = (cosk(kappa, phi + h) - cosk(kappa, phi - h)) / (2 * h)
        ds = (sink(kappa, phi + h) - sink(kappa, phi - h)) / (2 * h)
        assert dc == pytest.approx(-kappa * sink(kappa, phi), abs=1e-8)
        assert ds == pytest.approx(cosk(kappa, phi), abs=1e-8)


@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0])
def test_atank_derivative(kappa):
    h = 1e-6
    for x in [-0.6, -0.2, 0.0, 0.3, 0.7]:
        d = (atank(kappa, x + h) - atank(kappa, x - h)) / (2 * h)
        assert d == pytest.approx(1.0 / (1.0 + kappa * x * x), abs=1e-7)


def test_kappa_continuity_near_zero():
    for kappa in [1e-6, -1e-6, 1e-9, -1e-9, 1e-14]:
        for phi in PHIS:
            assert abs(cosk(kappa, phi) - 1.0) <= 5.0 * abs(kappa)
            assert abs(sink(kappa, phi) - phi) <= 5.0 * abs(kappa)


def test_exact_zero_branch_bit_stable():
    assert cosk(0.0, 123.456) == 1.0
    assert sink(0.0, 123.456) == 123.456


def test_tank_pole():
    with pytest.raises(PoleError):
        tank(1.0, math.pi / 2)
    with pytest.raises(PoleError):
        tank(4.0, math.pi / 4)


def test_overflow_is_a_typed_error():
    # cosh and sinh overflow; the argument sqrt(|kappa|) * phi is infinite
    # (given, or overflowing) on the circular and the hyperbolic branch
    for fn in (cosk, sink):
        for kappa, phi in ((-1.0, 1e300), (1e300, 1e300), (1.0, math.inf), (-1e300, 1e300)):
            with pytest.raises(TrigOverflow) as caught:
                fn(kappa, phi)
            assert isinstance(caught.value, OverflowError)
    # large finite hyperbolic values still come back unchanged
    assert cosk(-1.0, 700.0) == math.cosh(700.0)
    assert sink(-1.0, 700.0) == math.sinh(700.0)


def test_atank_domain_error():
    with pytest.raises(DomainError):
        atank(-1.0, 1.0)
    with pytest.raises(DomainError):
        atank(-4.0, 0.5)
    assert atank(-4.0, 0.49) == pytest.approx(math.atanh(0.98) / 2.0, abs=1e-12)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_atank_round_trip(kappa):
    xs = [-0.6, -0.3, 0.0, 0.2, 0.65]
    for x in xs:
        phi = atank(kappa, x)
        assert tank(kappa, phi) == pytest.approx(x, abs=1e-12)
    assert atank(kappa, 0.0) == 0.0


def test_atank_principal_value():
    for kappa in [0.5, 1.0, 4.0]:
        bound = math.pi / (2 * math.sqrt(kappa))
        for x in [-50.0, -1.0, 0.0, 3.0, 80.0]:
            assert -bound < atank(kappa, x) < bound


@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-3, max_value=3),
)
def test_fundamental_identity_property(kappa, phi):
    c, s = cosk(kappa, phi), sink(kappa, phi)
    assert c * c + kappa * s * s == pytest.approx(1.0, abs=1e-11)


@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
)
def test_parity_property(kappa, phi):
    assert cosk(kappa, -phi) == pytest.approx(cosk(kappa, phi), abs=1e-14)
    assert sink(kappa, -phi) == pytest.approx(-sink(kappa, phi), abs=1e-14)


# +-m * 2**e from the smallest subnormal, 5e-324, to about 1e300, or 0: the
# nine sign patterns of (kappa, phi), and labels next to 0 on both sides
SIGNS = st.sampled_from([-1.0, 0.0, 1.0])
MAGNITUDES = st.builds(math.ldexp, st.integers(1, 2**53 - 1), st.integers(-1074, 944))
SIGNED = st.builds(lambda sign, m: sign * m, SIGNS, MAGNITUDES)
TINY = Fraction(2) ** -60


@given(SIGNED, SIGNED)
@example(1e-301, 1e151)
@example(-1e-301, 1e151)
@example(5e-324, 1e200)
def test_labels_of_every_sign_and_size(kappa, phi):
    try:
        c, s = cosk_sink(kappa, phi)
    except TrigOverflow:
        for fn in (cosk, sink):
            with pytest.raises(TrigOverflow):
                fn(kappa, phi)
        return
    assert (c, s) == (cosk(kappa, phi), sink(kappa, phi))
    cc, kss = c * c, kappa * s * s
    if math.isfinite(cc) and math.isfinite(kss):
        assert abs(cc + kss - 1.0) <= 1e-12 * max(1.0, cc, abs(kss))
    if abs(Fraction(kappa) * Fraction(phi) ** 2) < TINY:
        assert (c, s) == (1.0, phi)


@given(SIGNED, SIGNED)
@example(1e-250, 1e-200)
@example(-1e-250, 1e-200)
def test_atank_is_the_identity_where_kappa_x_squared_is_tiny(kappa, x):
    if abs(Fraction(kappa) * Fraction(x) ** 2) < TINY:
        assert abs(atank(kappa, x) - x) <= math.ulp(x)
