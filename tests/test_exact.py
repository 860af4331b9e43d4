"""``exp``'s matrix and ``rotate``'s vector against the exact references of ``tests/exact.py``.

The references are checked on values known in closed form.  The ``exp`` one
then bounds every ``exp`` answer by README's budget and shows that the
closed form that ``spin`` now prints is no less accurate than the cover it
printed before; the ``rotate`` one holds the zero-label lines and a small
sweep to the exact image under the printed rotor.
"""

import contextlib
import io
import math
import statistics
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import exact
from kinematica import ckgeom
from kinematica.errors import KinematicaError


@pytest.mark.parametrize("gen,expected", [("H", 0.75), ("P", -0.375), ("K", -0.5)])
def test_the_label_is_read_off_the_cube_of_the_generator(gen, expected):
    assert exact.label(exact.generator(0.75, -0.5, gen)) == Fraction(expected)


def test_a_flat_label_gives_the_exact_shear():
    t = 0.1
    assert exact.exp_matrix(0.0, 1.0, "H", t) == (
        (1, 0, 0), (Fraction(t), 1, 0), (0, 0, 1))


@pytest.mark.parametrize("kappa,t", [
    (1.0, 0.5), (1.0, -3.0), (-1.0, 0.5), (-1.0, -3.0), (0.25, 20.0), (-2.0, 15.0),
    (1e-301, 1e151), (-1e-301, 1e151), (1e300, 1e-149),
])
def test_the_reference_keeps_the_trigonometric_identity(kappa, t):
    # K's block is [[c, -kappa s], [s, c]] with c^2 + kappa s^2 = 1
    m = exact.exp_matrix(1.0, kappa, "K", t)
    c, s, k = m[1][1], m[2][1], Decimal(kappa)
    with localcontext() as ctx:
        ctx.prec = 80
        assert abs(m[1][2] + k * s) <= Decimal(10) ** -60 * abs(k * s)
        assert abs(c * c + k * s * s - 1) <= Decimal(10) ** -58 * max(1, c * c)


@pytest.mark.parametrize("x", [0.3, -0.7, 2.0, 5.5])
def test_the_reference_meets_the_library_functions_to_their_rounding(x):
    m = exact.exp_matrix(1.0, 1.0, "K", x)  # a circular angle x
    assert abs(float(m[1][1]) - math.cos(x)) <= math.ulp(1.0)
    assert abs(float(m[2][1]) - math.sin(x)) <= math.ulp(1.0)
    m = exact.exp_matrix(1.0, -1.0, "K", x)  # a rapidity x
    assert abs(float(m[1][1]) - math.cosh(x)) <= 2 * math.ulp(math.cosh(x))
    assert abs(float(m[2][1]) - math.sinh(x)) <= 2 * math.ulp(math.cosh(x))


@pytest.mark.parametrize("x", [1e10, -3.3e16, 1e100, 1.7976931348623157e308])
def test_the_reference_reduces_a_large_angle(x):
    # the platform's cos and sin reduce a float argument to within an ulp
    m = exact.exp_matrix(1.0, 1.0, "K", x)
    assert abs(float(m[1][1]) - math.cos(x)) <= math.ulp(1.0)
    assert abs(float(m[2][1]) - math.sin(x)) <= math.ulp(1.0)


LABELS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0]),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]), st.floats(-3, 1)),
)


@st.composite
def motions(draw):
    """(kappa1, kappa2, gen, t): the labels of the nine sign patterns from 1e-3
    to 10 with t in [-6, 6], or labels from 1e-150 to 1e150 with the t that
    gives a rapidity of at most 30 or an angle of at most 1e8."""
    gen = draw(st.sampled_from("HPK"))
    if draw(st.booleans()):
        return draw(LABELS), draw(LABELS), gen, draw(st.floats(-6, 6))
    labels = [draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-150, 150))
              for _ in range(2)]
    x = {"H": labels[0], "P": labels[0] * labels[1], "K": labels[1]}[gen]
    reach = 1e8 if x > 0 else 30.0
    return (*labels, gen, draw(st.floats(-reach, reach)) / math.sqrt(abs(x)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(motions())
@example((1e-301, 1.0, "H", 1e151))  # test_cli's tiny-label pin: an angle of 3.16 rad
@example((-1e-301, 1.0, "H", 1e151))
@example((1.0, -1.0, "K", 40.0))  # a rapidity of 40, whose spin element fails the unit check
def test_every_exp_answer_is_within_budget(motion):
    try:
        m = ckgeom.exp_generator(ckgeom.KappaPair(*motion[:2]), *motion[2:])
    except KinematicaError:
        pytest.fail("exp ends in an error on a representable motion")
    assert exact.budget_use(m, *motion, exact.exp_matrix(*motion)) <= exact.BUDGET_ULPS


def test_the_budget_bounds_an_entry_far_below_the_largest():
    # test_cli's tiny-label H pin: beside the largest entry, 6.54e148, the
    # 6.54e-153 entry is held to its own rounding and its condition, 1e-150
    motion = (1e-301, 1.0, "H", 1e151)
    m = [list(row) for row in ckgeom.exp_generator(ckgeom.KappaPair(*motion[:2]), *motion[2:])]
    e = exact.exp_matrix(*motion)
    assert exact.budget_use(m, *motion, e) <= exact.BUDGET_ULPS
    m[0][1] *= 1 + 1e-12
    assert exact.budget_use(m, *motion, e) > exact.BUDGET_ULPS


def test_spin_prints_a_motion_no_less_accurate_than_the_cover():
    # the 4,000 seeded rotors-sweep-like draws: exp_generator, which spin
    # prints, against cover_to_so3 of the spin element, which it printed before
    errors = exact.measure("spin", 4000, 1)
    closed, uses = errors["exp_generator"]
    cover, _ = errors["cover_to_so3"]
    assert max(uses) <= exact.BUDGET_ULPS
    assert statistics.median(closed) <= statistics.median(cover)
    assert exact.percentile(closed, 0.99) <= exact.percentile(cover, 0.99)


def test_the_sweep_prints_one_row_per_engine():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert exact.main(["--sweep", "spin", "--draws", "20", "--seed", "3"]) == 0
    rows = out.getvalue().splitlines()
    assert [row.split()[0] for row in rows[2:]] == ["exp_generator", "cover_to_so3"]


# -- rotate --------------------------------------------------------------------------

S1, S2, S3, IS1, IS2, S3CHECK, I = range(1, 8)


@pytest.mark.parametrize("m,n,expected", [
    (S1, S1, (1, 0)), (S2, S2, (Fraction(3, 4), 0)), (I, I, (Fraction(1, 2), 0)),
    (S1, S2, (1, S3CHECK)), (S2, S1, (-1, S3CHECK)), (I, S3CHECK, (1, S3)),
    (S3, S3, (Fraction(-3, 8), 0)), (IS1, IS1, (Fraction(1, 2), 0)),
    (IS2, IS2, (Fraction(3, 8), 0)), (S3CHECK, S3CHECK, (Fraction(-3, 4), 0)),
])
def test_the_rotate_table_keeps_the_relations(m, n, expected):
    # kappa1 = 0.75 and kappa2 = -0.5: s3^2 = kappa1 kappa2, and the bivectors
    # square to -kappa2, -kappa1 kappa2 and -kappa1
    assert exact.product_table(0.75, -0.5)[m][n] == expected


def test_the_exact_image_of_a_rational_boost():
    # cosh(phi/2) = 5/4 and sinh(phi/2) = 3/4 at kappa2 = -1: cosh(phi) = 17/8
    # and sinh(phi) = 15/8 in the t-x plane
    rotor = (1.25, 0.0, 0.0, 0.0, 0.75, 0.0, 0.0, 0.0)
    assert exact.rotate_image(1.0, -1.0, rotor, (0.0, 1.0, 0.0)) == (0, Fraction(17, 8),
                                                                    Fraction(-15, 8))
    # a shear at kappa1 = 0, where 1 + 0.5 s3check is unit: exp(H) of s1
    shear = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0)
    assert exact.rotate_image(0.0, 1.0, shear, (1.0, 0.0, 0.0)) == (1, 1, 0)


@pytest.mark.parametrize("argv", [
    ["rotate", "--axis=0,1,0", "--angle=-1e300", "--vector=1,-0.3,-0.3", "--kappa1=0",
     "--kappa2=2"],
    ["rotate", "--axis=0,0,1", "--angle=1e300", "--vector=1,0,0", "--kappa1=0", "--kappa2=1"],
    ["rotate", "--axis=-2.2221295782107403e-100,1.0,5.365268480709824e-102",
     "--angle=-9.973715873559661e+111",
     "--vector=-7.193579099790739e+124,2.8858233976859406e-272,1.0",
     "--kappa1=0.2645048897738844", "--kappa2=0.0"],
], ids=["p-shear", "h-shear", "non-finite-sandwich"])
def test_a_zero_label_rotate_line_prints_the_exact_image(argv):
    # each ended in a non-finite error while the sandwich kept 0 * inf terms
    assert exact.rotate_ulps(argv) <= 2.0


def test_rotate_prints_the_exact_image_of_its_rotor_to_a_few_ulps():
    # 4,000 draws (seed 1) measure a median of 0.63, a p99 of 3.29 and a max
    # of 86.8 ulps, the last from cancellation at a hyperbolic label
    errors = exact.rotate_errors(200, 1)
    assert len(errors) >= 190
    assert statistics.median(errors) <= 1.0 and exact.percentile(errors, 0.99) <= 8.0


def test_the_rotate_sweep_prints_one_row():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert exact.main(["--sweep", "rotate", "--draws", "20", "--seed", "3"]) == 0
    header, row = out.getvalue().splitlines()[1:]
    assert header.split() == ["engine", "answers", "median", "p99", "max"]
    assert row.split()[:2] == ["rotate", "20"]
