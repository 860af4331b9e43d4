import ast
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import kinematica
from geometry_checks import approx_eq, projectively_equal
from kinematica.errors import (
    AtInfinity,
    DivisionByZero,
    InadmissiblePoint,
    KappaMismatch,
    ZeroDivisorError,
)
from kinematica.gencomplex import (
    GammaPoint,
    Mat2,
    MoebiusMap,
    gamma_apply,
    gamma_lift,
    gc,
    gc_exp_unit,
)

KAPPAS = [-2.0, -1.0, 0.0, 0.5, 1.0]


def test_imaginary_unit_squares():
    assert approx_eq(gc(0, 1, 0.0) * gc(0, 1, 0.0), gc(0, 0, 0.0), 0)
    assert approx_eq(gc(0, 1, -1.0) * gc(0, 1, -1.0), gc(1, 0, -1.0), 0)
    assert approx_eq(gc(0, 1, 1.0) * gc(0, 1, 1.0), gc(-1, 0, 1.0), 0)


def test_product_example():
    w = gc(1, 1, 1.0) * gc(1, -1, 1.0)
    assert approx_eq(w, gc(2, 0, 1.0), 0)


def test_inverse_examples():
    inv_i = gc(0, 1, 1.0).inv()
    assert approx_eq(inv_i, gc(0, -1, 1.0), 1e-15)
    assert approx_eq(gc(0, 1, 1.0) * inv_i, gc(1, 0, 1.0), 1e-14)

    with pytest.raises(ZeroDivisorError):
        gc(0, 1, 0.0).inv()
    with pytest.raises(DivisionByZero):
        gc(0, 0, 1.0).inv()

    assert approx_eq(gc(2, 0, -1.0).inv(), gc(0.5, 0, -1.0), 1e-15)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_inverse_round_trip(kappa):
    for w in [gc(1.5, -0.3, kappa), gc(-0.2, 0.9, kappa), gc(2.0, 2.5, kappa)]:
        if w.sqmod() == 0.0:
            continue
        assert approx_eq(w * w.inv(), gc(1, 0, kappa), 1e-14)


def test_inverse_when_the_squared_modulus_overflows():
    # 1/w = conj(w)/sqmod(w) once read 0 or nan: sqmod was inf, or inf - inf
    for kappa in KAPPAS:
        assert gc(1e200, 0, kappa).inv() == gc(1e-200, 0, kappa)
        assert gc(-2.0**600, 0, kappa).inv() == gc(-(2.0**-600), 0, kappa)
    for w in (gc(3e200, 4e200, 1.0), gc(3e200, -4e200, -0.5), gc(1e150, 2e160, 1e100)):
        re, im, kappa = map(Fraction, (w.re, w.im, w.kappa))
        s = re * re + kappa * im * im
        got = w.inv()
        for value, exact in ((got.re, re / s), (got.im, -im / s)):
            assert abs(Fraction(value) - exact) <= abs(exact) * Fraction(2) ** -50
    with pytest.raises(ZeroDivisorError):
        gc(1e200, 1e200, -1.0).inv()
    with pytest.raises(ZeroDivisorError):
        gc(0, 1e300, 0.0).inv()


def assert_exact_inverse(w, got):
    """got is 1/w within 2**-50 relative, times the condition number of the
    squared modulus re**2 + kappa*im**2 (1 unless its terms cancel), plus one
    subnormal spacing; an infinite part only where 1/w is beyond float max."""
    re, im, kappa = map(Fraction, (w.re, w.im, w.kappa))
    s = re * re + kappa * im * im
    cond = (re * re + abs(kappa) * im * im) / abs(s)
    for value, exact in ((got.re, re / s), (got.im, -im / s)):
        if math.isinf(value):
            assert abs(exact) > sys.float_info.max and (value > 0) == (exact > 0)
        else:
            bound = cond * abs(exact) * Fraction(2) ** -50 + Fraction(2) ** -1074
            assert abs(Fraction(value) - exact) <= bound


def test_inverse_when_the_squared_modulus_underflows():
    # sqmod() read 0, so these were zero divisors
    assert gc(1e-200, 0, 1).inv() == gc(1e200, 0, 1)
    assert not gc(1e-200, 0, 1).is_zero_divisor()
    w = gc(1e-170, 1e-170, -0.5)
    assert_exact_inverse(w, w.inv())


def test_moebius_maps_with_an_underflowing_squared_modulus():
    one, zero, tiny = gc(1, 0, 1.0), gc(0, 0, 1.0), gc(1e-200, 0, 1.0)
    assert Mat2(one, zero, zero, tiny).apply(zero) == zero
    assert MoebiusMap(one, zero, zero, tiny).det() == tiny


def binary64(sign):
    """sign * m * 2**e with m in [1, 2) and e in [-1074, 1023]: every binade,
    subnormals included; 0 for sign 0."""
    if sign == 0:
        return st.just(0.0)
    mantissa = st.floats(min_value=1.0, max_value=2.0, exclude_max=True)
    return st.builds(lambda m, e: sign * math.ldexp(m, e), mantissa, st.integers(-1074, 1023))


@pytest.mark.parametrize("re_sign,im_sign", itertools.product((-1, 0, 1), repeat=2))
@given(data=st.data())
def test_zero_divisors_and_inverses_agree_with_exact_arithmetic(re_sign, im_sign, data):
    kappa = data.draw(st.sampled_from((-1, 0, 1)).flatmap(binary64))
    w = gc(data.draw(binary64(re_sign)), data.draw(binary64(im_sign)), kappa)
    re, im = Fraction(w.re), Fraction(w.im)
    null = re * re + Fraction(kappa) * im * im == 0
    assert w.is_zero_divisor() == (not w.is_zero() and null)
    if w.is_zero():
        with pytest.raises(DivisionByZero):
            w.inv()
    elif null:
        with pytest.raises(ZeroDivisorError):
            w.inv()
    else:
        assert_exact_inverse(w, w.inv())


def test_only_gencomplex_scales_or_compares_the_squared_modulus():
    # frexp/ldexp scaling and zero tests of sqmod() belong to gencomplex, so
    # that every layer shares its one decision on invertibility
    def is_sqmod_call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "sqmod"

    def is_zero(node):
        return isinstance(node, ast.Constant) and node.value == 0

    name_of = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}
    found = []
    for path in sorted(Path(kinematica.__file__).parent.glob("*.py")):
        if path.name == "gencomplex.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, name_of.get(type(node), ""), None)
            if name in ("frexp", "ldexp"):
                found.append(f"{path.name}:{node.lineno}: {name}")
            equality = isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            )
            if equality:
                sides = [node.left, *node.comparators]
                if any(map(is_sqmod_call, sides)) and any(map(is_zero, sides)):
                    found.append(f"{path.name}:{node.lineno}: sqmod() compared with 0")
    assert found == []


@pytest.mark.parametrize(
    "name", sorted(path.name for path in Path(kinematica.__file__).parent.glob("*.py"))
)
def test_the_scalar_algebras_import_no_numpy(name):
    # every layer computes on Python floats, matrices and points included, so
    # numpy is a dependency of the tests, demos and oracles alone
    path = Path(kinematica.__file__).parent / name
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"{name}:{node.lineno}: {m}" for m in modules if m.split(".")[0] == "numpy"]
    assert found == []


def imports_run_at_load(path: Path):
    """(line, imported module, relative level) of each import the module body runs,
    which is every import outside a function."""
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name, 0) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or "", node.level
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize(
    "name", sorted(path.name for path in Path(kinematica.__file__).parent.glob("*.py"))
)
def test_only_the_classification_imports_fractions_at_load(name):
    # exact rationals are imported where used (GammaPoint.is_admissible), so
    # no command line loads them; the classification contracts its integer
    # triples and imports no fractions at all, and the value types are named
    # tuples, so no module imports dataclasses anywhere, not only at load
    path = Path(kinematica.__file__).parent / name
    found = [f"{name}:{line}" for line, module, _ in imports_run_at_load(path)
             if module.split(".")[0] == "fractions"]
    banned = ("fractions", "dataclasses") if name == "kinclass.py" else ("dataclasses",)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"{name}:{node.lineno}" for module in modules
                  if module.split(".")[0] in banned]
    assert found == []


@pytest.mark.parametrize("name", ["__init__.py", "cli.py"])
def test_the_package_and_the_cli_import_no_layer_names_at_load(name):
    # ``from .ckgeom import X`` would run ckgeom on import; the layers are
    # reached as lazy modules instead (``from . import ckgeom``)
    layers = {"gentrig", "gencomplex", "ckgeom", "spin", "clifford", "kinclass", "conformal"}
    path = Path(kinematica.__file__).parent / name
    found = [
        f"{name}:{line}: {module}" for line, module, level in imports_run_at_load(path)
        if (module if level else module.removeprefix("kinematica.")) in layers
    ]
    assert found == []


def test_zero_divisors_exist_iff_kappa_nonpositive():
    assert gc(1, 1, -1.0).is_zero_divisor()
    assert gc(0, 3, 0.0).is_zero_divisor()
    # kappa > 0: sqmod positive definite
    for w in [gc(1, 1, 1.0), gc(0, 2, 0.5)]:
        assert w.sqmod() > 0


@pytest.mark.parametrize("kappa", KAPPAS)
def test_conj_is_ring_morphism_and_involution(kappa):
    w1, w2 = gc(1.2, -0.7, kappa), gc(-0.4, 2.2, kappa)
    assert approx_eq((w1 * w2).conj(), w1.conj() * w2.conj(), 0)
    assert w1.conj().conj() == w1
    assert approx_eq(w1 * w1.conj(), gc(w1.sqmod(), 0, kappa), 1e-14)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_sqmod_multiplicative(kappa):
    w1, w2 = gc(0.8, -1.1, kappa), gc(1.4, 0.6, kappa)
    assert (w1 * w2).sqmod() == pytest.approx(w1.sqmod() * w2.sqmod(), abs=1e-12)


@pytest.mark.parametrize("kappa", [-1.0, 0.0])
def test_null_cone_closed_under_multiplication(kappa):
    nulls = (
        [gc(1, 1, kappa), gc(-2, 2, kappa)] if kappa == -1.0 else [gc(0, 1, kappa)]
    )
    others = [gc(0.3, -0.8, kappa), gc(1, 1, kappa), gc(2, 0, kappa)]
    for z in nulls:
        assert z.sqmod() == 0.0
        for w in others:
            assert (z * w).sqmod() == pytest.approx(0.0, abs=1e-15)


def test_kappa_mismatch_is_hard_error():
    with pytest.raises(KappaMismatch):
        gc(1, 0, 1.0) * gc(1, 0, -1.0)
    with pytest.raises(KappaMismatch):
        gc(1, 0, 1.0) + gc(1, 0, 0.0)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_exp_unit(kappa):
    e = gc_exp_unit(kappa, 0.8)
    assert e.sqmod() == pytest.approx(1.0, abs=1e-12)
    e1, e2 = gc_exp_unit(kappa, 0.35), gc_exp_unit(kappa, -1.2)
    assert approx_eq(e1 * e2, gc_exp_unit(kappa, 0.35 - 1.2), 1e-12)


def test_exp_unit_examples():
    assert approx_eq(gc_exp_unit(1.0, math.pi), gc(-1, 0, 1.0), 1e-12)
    assert approx_eq(gc_exp_unit(0.0, 2.0), gc(1, 2, 0.0), 0)
    assert approx_eq(
        gc_exp_unit(-1.0, 1.0), gc(math.cosh(1), math.sinh(1), -1.0), 1e-12
    )


def test_moebius_identity_and_rotation():
    for kappa in KAPPAS:
        ident = MoebiusMap.identity(kappa)
        w = gc(0.3, -0.6, kappa)
        assert ident.apply(w) == w

    # diag(e^{i t/2}, e^{-i t/2}) acts as multiplication by e^{i t}
    kappa = -1.0
    half = gc_exp_unit(kappa, 0.35)
    m = MoebiusMap(half, gc(0, 0, kappa), gc(0, 0, kappa), half.conj())
    w = gc(0.4, 0.2, kappa)
    assert approx_eq(m.apply(w), gc_exp_unit(kappa, 0.7) * w, 1e-12)


def test_moebius_translation_dual_numbers():
    kappa = 0.0
    m = MoebiusMap(gc(1, 0, kappa), gc(1.7, 0, kappa), gc(0, 0, kappa), gc(1, 0, kappa))
    assert approx_eq(m.apply(gc(0, 0, kappa)), gc(1.7, 0, kappa), 0)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_moebius_composition(kappa):
    m1 = MoebiusMap(gc(1, 0.2, kappa), gc(0.5, 0, kappa), gc(0, 0.1, kappa), gc(1, 0, kappa))
    m2 = MoebiusMap(gc(0.9, 0, kappa), gc(0, -0.4, kappa), gc(0.2, 0, kappa), gc(1.1, 0, kappa))
    for w in [gc(0.1, 0.3, kappa), gc(-0.5, 0.2, kappa)]:
        try:
            composed = (m1 @ m2).apply(w)
            chained = m1.apply(m2.apply(w))
        except (AtInfinity, ZeroDivisorError):
            continue
        assert approx_eq(composed, chained, 1e-10)


def test_moebius_rejects_degenerate_determinant():
    kappa = 0.0
    with pytest.raises(ValueError):
        # det = i, a dual-number zero divisor
        MoebiusMap(gc(0, 1, kappa), gc(0, 0, kappa), gc(0, 0, kappa), gc(1, 0, kappa))
    kappa = -1.0
    with pytest.raises(ValueError):
        # det = 1 + i, null in the double numbers
        MoebiusMap(gc(1, 1, kappa), gc(0, 0, kappa), gc(0, 0, kappa), gc(1, 0, kappa))
    # a plain matrix may be singular (the conformal generators G1 and G2 are)
    singular = Mat2(gc(1, 1, kappa), gc(0, 0, kappa), gc(0, 0, kappa), gc(1, 0, kappa))
    assert singular.det().sqmod() == 0.0


def test_moebius_at_infinity():
    kappa = 1.0
    m = MoebiusMap(gc(1, 0, kappa), gc(0, 0, kappa), gc(1, 0, kappa), gc(1, 0, kappa))
    with pytest.raises(AtInfinity):
        m.apply(gc(-1, 0, kappa))


def test_gamma_lift_and_projection():
    p = gamma_lift(gc(0, 0, 1.0))
    assert p.u == gc(0, 0, 1.0) and p.v == gc(1, 0, 1.0)
    assert p.is_admissible()
    assert p.to_affine() == gc(0, 0, 1.0)


def test_gamma_extends_the_plane_dual_case():
    # [1 : 0] pushed by [[1, 0], [i, 1]] lands on [1 : i]: a point at
    # infinity with a zero-divisor coordinate, unreachable inside the plane
    kappa = 0.0
    m = MoebiusMap(gc(1, 0, kappa), gc(0, 0, kappa), gc(0, 1, kappa), gc(1, 0, kappa))
    start = GammaPoint(gc(1, 0, kappa), gc(0, 0, kappa))
    image = gamma_apply(m, start)
    assert approx_eq(image.u, gc(1, 0, kappa), 0)
    assert approx_eq(image.v, gc(0, 1, kappa), 0)
    assert image.is_admissible()
    with pytest.raises(AtInfinity):
        image.to_affine()


@pytest.mark.parametrize("kappa", KAPPAS)
def test_gamma_group_action_round_trip(kappa):
    m = MoebiusMap(gc(1, 0.3, kappa), gc(0.2, 0, kappa), gc(0, 0.5, kappa), gc(1, 0, kappa))
    assert m.det().sqmod() != 0.0
    for w in [gc(0.7, -0.1, kappa), gc(-0.4, 0.9, kappa)]:
        p = gamma_lift(w)
        back = gamma_apply(m.inverse(), gamma_apply(m, p))
        assert projectively_equal(back, p, 1e-10)
        assert not projectively_equal(back, gamma_lift(w + gc(1, 0, kappa)), 1e-6)


def test_gamma_admissibility():
    assert GammaPoint(gc(1, 0, 1.0), gc(2, 0, 1.0)).is_admissible()
    assert not GammaPoint(gc(0, 1, 0.0), gc(0, 2, 0.0)).is_admissible()
    assert GammaPoint(gc(1, 1, -1.0), gc(1, -1, -1.0)).is_admissible()
    assert not GammaPoint(gc(1, 1, -1.0), gc(2, 2, -1.0)).is_admissible()
    # the stacked matrix [[0, 0], [1e200, 0], [1, 0], [0, 1]] has rank 2,
    # though its smaller singular value is below 4*eps*1e200
    assert gamma_lift(gc(0, 1e200, 0.0)).is_admissible()
    assert not GammaPoint(gc(0, 1e200, 0.0), gc(0, 1e-200, 0.0)).is_admissible()
    bad = GammaPoint(gc(0, 1, 0.0), gc(0, 1, 0.0))
    m = MoebiusMap.identity(0.0)
    with pytest.raises(InadmissiblePoint):
        gamma_apply(m, bad)


def exact_rank(rows):
    """Rank of a matrix of Fractions, by Gaussian elimination."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0])):
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[x - y * r[col] / pivot[col] for x, y in zip(r, pivot)] for r in rows]
        rank += 1
    return rank


def small_binary64():
    """+-m * 2**e with a 20-bit m, so that products of two stay exact."""
    return st.builds(
        lambda s, m, e: s * math.ldexp(m, e),
        st.sampled_from((-1, 1)), st.integers(1, 2**20), st.integers(-300, 300),
    )


@pytest.mark.parametrize("kappa_sign,re_sign", itertools.product((-1, 0, 1), repeat=2))
@given(data=st.data())
def test_admissibility_is_the_exact_rank_of_the_stacked_matrix(kappa_sign, re_sign, data):
    # kappa = sign * q**2, so that the zero divisors re = +-q*im are floats; the
    # components come from a pool in which zero divisors, dependent pairs and
    # zeros are common, plus one free value from any binade
    q = abs(data.draw(small_binary64()))
    kappa = kappa_sign * q * q
    b = data.draw(small_binary64())
    free = data.draw(st.sampled_from((-1, 1)).flatmap(binary64))
    pool = st.sampled_from((0.0, b, -b, q * b, -q * b, 2 * b, -2 * q * b, free))
    u = gc(re_sign * abs(data.draw(pool)), data.draw(pool), kappa)
    v = gc(data.draw(pool), data.draw(pool), kappa)
    u0, u1, v0, v1, k = map(Fraction, (u.re, u.im, v.re, v.im, kappa))
    stacked = [[u0, -k * u1], [u1, u0], [v0, -k * v1], [v1, v0]]
    assert GammaPoint(u, v).is_admissible() == (exact_rank(stacked) == 2)


@given(
    st.sampled_from(KAPPAS),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
)
def test_mul_commutative_and_associative_property(kappa, a, b, c, d):
    w1, w2 = gc(a, b, kappa), gc(c, d, kappa)
    assert approx_eq(w1 * w2, w2 * w1, 1e-12)
    w3 = gc(0.5, -0.25, kappa)
    lhs = (w1 * w2) * w3
    rhs = w1 * (w2 * w3)
    assert approx_eq(lhs, rhs, 1e-9)


def _cross_ratio(w1, w2, w3, w4):
    return ((w1 - w3) * (w2 - w4)) * ((w1 - w4) * (w2 - w3)).inv()


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0])
def test_cross_ratio_invariant_under_moebius(kappa):
    # cycles are curves with real cross-ratio; Moebius maps preserve the
    # cross-ratio itself, hence cycles go to cycles
    m = MoebiusMap(
        gc(1.1, 0.2, kappa), gc(0.3, -0.1, kappa),
        gc(0.05, 0.15, kappa), gc(0.9, 0.0, kappa),
    )
    points = [
        gc(0.1, 0.4, kappa), gc(-0.5, 0.2, kappa),
        gc(0.7, -0.3, kappa), gc(0.25, 0.65, kappa),
    ]
    try:
        before = _cross_ratio(*points)
        images = [m.apply(w) for w in points]
        after = _cross_ratio(*images)
    except (AtInfinity, ZeroDivisorError):
        pytest.skip("sample hit a zero divisor")
    assert approx_eq(after, before, 1e-10)

    # four points of a degenerate cycle (a line) have a real cross-ratio,
    # and it stays real after the map even though the images are curved
    base, step = gc(0.1, -0.2, kappa), gc(0.4, 0.3, kappa)
    line = [base + step * t for t in (0.0, 0.7, 1.6, 2.4)]
    cr_line = _cross_ratio(*line)
    assert abs(cr_line.im) < 1e-12
    mapped = [m.apply(w) for w in line]
    cr_mapped = _cross_ratio(*mapped)
    assert abs(cr_mapped.im) < 1e-10
    assert cr_mapped.re == pytest.approx(cr_line.re, abs=1e-10)


@pytest.mark.parametrize("part", range(8))
def test_mat2_max_abs_is_nan_when_any_part_is(part):
    # Python max keeps a nan only when it comes first
    parts = [1.0, -2.0, 0.5, 0.0, -3.0, -0.25, 1.5, 2.5]
    finite = Mat2(*(gc(parts[2 * k], parts[2 * k + 1], 1.0) for k in range(4)))
    assert finite.max_abs() == 3.0
    parts[part] = math.nan
    m = Mat2(*(gc(parts[2 * k], parts[2 * k + 1], 1.0) for k in range(4)))
    assert math.isnan(m.max_abs())
    assert not approx_eq(m, m, 1e-12)


@pytest.mark.parametrize("delta", [0.0, 1e-13, -1e-11, math.nan, math.inf])
def test_mat2_comparison_is_max_abs_of_the_difference(delta):
    m = Mat2(gc(1, -2, 1.0), gc(0.5, 0, 1.0), gc(-3, 0.25, 1.0), gc(1.5, 2.5, 1.0))
    for part in range(8):
        parts = [v for entry in m for v in (entry.re, entry.im)]
        parts[part] += delta
        n = Mat2(*(gc(parts[2 * k], parts[2 * k + 1], 1.0) for k in range(4)))
        for tol in (0.0, 1e-12, 1e-10):
            assert approx_eq(m, n, tol) == ((m - n).max_abs() <= tol)


def test_comparisons_across_labels_raise():
    # values with different labels are never compared, so never pass
    w, z = gc(1, 0, 1.0), gc(1, 0, -1.0)
    with pytest.raises(KappaMismatch):
        approx_eq(w, z, 1.0)
    with pytest.raises(KappaMismatch):
        approx_eq(Mat2.identity(1.0), Mat2.identity(-1.0), 1.0)
    with pytest.raises(KappaMismatch):
        projectively_equal(gamma_lift(w), gamma_lift(z), 1.0)
