"""``exp``, ``spin`` and ``rotate`` against the compositions they replaced.

The references are the code as it stood before each generator's exponential
became one plane rotation: the 3x3 bodies of ``exp_h``, ``exp_p`` and
``exp_k``, the body of ``clifford.sandwich`` on a rotor and a vector built as
multivectors, and the three runners with their answer templates, which held
one slot per printed float, structural zeros and ones included.  The spin
parts come from ``spin_reference``'s object composition.

A library result must keep its bits (``float.hex``, so that -0.0 is told from
0.0), and a command line its exit code, stdout and stderr, at precisions 17,
5 and 1; or both end in the same error type and message.  The one exception
is the sandwich at a zero label, where the reference meets 0 * inf in a
term whose true value is 0 and the kernel leaves the term out: where the
reference ends in nan or in a non-finite error there, a finite answer is
held to ``tests/exact.py``'s exact image of the vector under the rotor
instead, and one that is not finite still ends in a non-finite error.
The inputs are the nine sign patterns and the edges of the float range, +-0.0, +-5e-324,
+-1e-300, +-1e300 and +-max, as labels and as parameters.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import exact
import spin_reference
from kinematica.ckgeom import KappaPair, PLANES, exp_generator, exp_parts
from kinematica.cli import SLOT, Filled, Template, dumps, main, parse_args
from kinematica.clifford import Multivector, UnitAxis, rotor, sandwich
from kinematica.errors import GradeError, KinematicaError, NotUnitRotor, TrigOverflow
from kinematica.gentrig import cosk_sink
from kinematica.spin import (UNIT_TOL, half_angle_parts, pseudo_norm, require_unit,
                             sandwich_parts, sl2_of_exp, sl2_parts)

# -- the references ---------------------------------------------------------------


def reference_exp_h(kp: KappaPair, alpha: float):
    """Closed form of exp(alpha*H): a label-kappa1 rotation of the z-t plane."""
    c, s = cosk_sink(kp.kappa1, alpha)
    return ((c, -kp.kappa1 * s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


def reference_exp_p(kp: KappaPair, beta: float):
    """Closed form of exp(beta*P): label kappa1*kappa2 on the z-x plane; TrigOverflow
    where its rounding below the normal floats would decide a nonzero beta's answer."""
    k12 = kp.kappa1 * kp.kappa2
    if beta and kp.kappa1 and kp.kappa2 and abs(k12) < sys.float_info.min:
        raise TrigOverflow(f"P label kappa1*kappa2 rounds to {k12!r}, below the normal floats")
    c, s = cosk_sink(k12, beta)
    return ((c, 0.0, -k12 * s), (0.0, 1.0, 0.0), (s, 0.0, c))


def reference_exp_k(kp: KappaPair, theta: float):
    """Closed form of exp(theta*K): label kappa2 on the t-x plane."""
    c, s = cosk_sink(kp.kappa2, theta)
    return ((1.0, 0.0, 0.0), (0.0, c, -kp.kappa2 * s), (0.0, s, c))


REFERENCE_EXP = {"H": reference_exp_h, "P": reference_exp_p, "K": reference_exp_k}


def reference_exp_parts(kp: KappaPair, gen: str, t: float) -> tuple:
    """The four entries of the reference exp(t*gen) in gen's plane, rows then columns."""
    i, j = PLANES[gen]
    m = REFERENCE_EXP[gen](kp, t)
    return m[i][i], m[i][j], m[j][i], m[j][j]


def reference_sl2_parts(kp: KappaPair, gen: str, t: float) -> tuple:
    """(Re alpha, Im alpha, Re beta, Im beta) of the + spin element over exp(t*gen)."""
    s = spin_reference.generator_element(kp, gen, t)
    return s.alpha.re, s.alpha.im, s.beta.re, s.beta.im


def reference_sandwich(r: Multivector, a: Multivector) -> Multivector:
    """reverse(r) * a * r, as ``clifford.sandwich`` wrote out its 28 terms; the unit
    condition is read by ``spin.pseudo_norm``, which is pinned on its own below."""
    c0, c1, c2, c3, c4, c5, c6, c7 = r.coeffs
    if c1 != 0.0 or c2 != 0.0 or c3 != 0.0 or c7 != 0.0:  # `!=`: a nan is not a zero
        raise GradeError("rotor must be an even multivector")
    norm = pseudo_norm(r.kp, c0, c4, c6, c5)
    # written `not x <= bound` so that a nan passes neither check
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise NotUnitRotor(f"rotor pseudo-norm {norm} != 1")
    v0, v1, v2, v3, v4, v5, v6, v7 = a.coeffs
    if v0 != 0.0 or v4 != 0.0 or v5 != 0.0 or v6 != 0.0 or v7 != 0.0:
        raise GradeError(f"{a} is not a pure vector")
    r._check(a)
    k1, k2 = r.kp
    k12 = k1 * k2
    # reverse(r) * a, in s1, s2, s3 and i
    t = c5 * v3
    h1 = 0.0 + c0 * v1 + (t * -k12 if t != 0.0 else 0.0) + (c6 * v2) * -k1
    h2 = 0.0 + c0 * v2 + (c4 * v3) * k2 + c6 * v1
    h3 = 0.0 + c0 * v3 - c4 * v2 + c5 * v1
    h7 = 0.0 - c4 * v1 + (c5 * v2) * -k1 + (c6 * v3) * k1
    if not (math.isfinite(h1) and math.isfinite(h2) and math.isfinite(h3)
            and math.isfinite(h7)):
        raise GradeError("sandwich result is not a vector")
    # that half times r, in s1, s2, s3 and i
    t = h3 * c5
    o1 = 0.0 + h1 * c0 + (h2 * c6) * -k1 + (t * -k12 if t != 0.0 else 0.0) + (h7 * c4) * -k2
    o2 = 0.0 + h1 * c6 + h2 * c0 + (h3 * c4) * k2 + (h7 * c5) * -k2
    o3 = 0.0 + h1 * c5 - h2 * c4 + h3 * c0 + h7 * c6
    o7 = 0.0 + h1 * c4 + (h2 * c5) * k1 + (h3 * c6) * -k1 + h7 * c0
    size = abs(c0) + abs(c4) + abs(c5) + abs(c6)
    scale = size * size * (abs(v1) + abs(v2) + abs(v3))
    if not abs(o7) <= UNIT_TOL * max(1.0, scale):
        raise GradeError("sandwich result is not a vector")
    return Multivector._make((r.kp, (0.0, o1, o2, o3, 0.0, 0.0, 0.0, 0.0)))


# the answer templates of the reference runners: one slot per printed float
_GC = {"re": SLOT, "im": SLOT, "kappa": SLOT}
_MATRIX3 = ((SLOT,) * 3,) * 3
EXP_TEMPLATES = {
    gen: Template(lambda gen=gen: {"generator": gen, "param": SLOT, "matrix": _MATRIX3})
    for gen in "HPK"
}
ROTATE_TEMPLATE = Template(lambda: {
    "rotor": {"kappa1": SLOT, "kappa2": SLOT, "coeffs": (SLOT,) * 8},
    "vector": (SLOT,) * 3,
})
SPIN_TEMPLATE = Template(lambda: {"alpha": _GC, "beta": _GC, "so3": _MATRIX3})


def reference_run_exp(args) -> Filled:
    m = REFERENCE_EXP[args.gen](KappaPair(args.kappa1, args.kappa2), args.param)
    return Filled(EXP_TEMPLATES[args.gen], (args.param, *m[0], *m[1], *m[2]))


def reference_run_rotate(args) -> Filled:
    kp = KappaPair(args.kappa1, args.kappa2)
    r = rotor(kp, UnitAxis(*args.axis), args.angle)
    a = Multivector._make((kp, (0.0, *args.vector, 0.0, 0.0, 0.0, 0.0)))
    out = reference_sandwich(r, a)
    return Filled(ROTATE_TEMPLATE, (kp.kappa1, kp.kappa2, *r.coeffs, *out.vector_components()))


def reference_run_spin(args) -> Filled:
    kp = KappaPair(args.kappa1, args.kappa2)
    a0, a1, b0, b1 = reference_sl2_parts(kp, args.gen, args.param)
    so3 = REFERENCE_EXP[args.gen](kp, args.param)
    return Filled(SPIN_TEMPLATE, (a0, a1, kp.kappa2, b0, b1, kp.kappa2, *so3[0], *so3[1], *so3[2]))


REFERENCE_RUNNERS = {"exp": reference_run_exp, "rotate": reference_run_rotate,
                     "spin": reference_run_spin}


def reference_cli(argv: list[str], precision: int) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the reference runner on a command line."""
    args = parse_args(argv)
    try:
        return 0, dumps(REFERENCE_RUNNERS[args.command](args), precision) + "\n", ""
    except KinematicaError as exc:
        return 1, "", dumps({"error": type(exc).__name__, "message": str(exc)}, precision) + "\n"


# -- comparing ---------------------------------------------------------------------


def bits(value):
    """The bits of a float, or of each float of nested tuples."""
    if type(value) is float:
        return value.hex()
    assert type(value) is tuple
    return tuple(map(bits, value))


def outcome(make, *args):
    """The bits of what ``make(*args)`` returns, or the type and message of what it raises."""
    try:
        value = make(*args)
    except KinematicaError as exc:
        return type(exc), str(exc)
    if isinstance(value, Multivector):
        return value.kp, bits(value.coeffs)
    return bits(value)


def run_cli(argv: list[str], precision: int) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("KINEMATICA_PRECISION", str(precision))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


EDGES = [sign * x for x in (0.0, 5e-324, 1e-300, 1e300, sys.float_info.max)
         for sign in (1.0, -1.0)]
SIGN_PATTERNS = [KappaPair(k1, k2) for k1 in (1.0, 0.0, -1.0) for k2 in (1.0, 0.0, -1.0)]
LABELS = SIGN_PATTERNS + [KappaPair(k1, k2) for k1 in EDGES for k2 in EDGES]
PARAMS = EDGES + [0.5, -1.7, 40.0]
PRECISIONS = (17, 5, 1)


def element_parts(kp: KappaPair, gen: str, t: float) -> tuple:
    s = sl2_of_exp(kp, gen, t)
    return s.alpha.re, s.alpha.im, s.beta.re, s.beta.im


def exp_argv(gen: str, kp: KappaPair, t: float, command: str = "exp") -> list[str]:
    return [command, f"--gen={gen}", f"--param={t!r}", f"--kappa1={kp.kappa1!r}",
            f"--kappa2={kp.kappa2!r}"]


# -- the library -------------------------------------------------------------------


@pytest.mark.parametrize("gen", "HPK")
def test_each_generators_exponential_keeps_the_reference_bits(gen):
    for kp in LABELS:
        for t in PARAMS:
            want = outcome(REFERENCE_EXP[gen], kp, t)
            assert outcome(exp_generator, kp, gen, t) == want, (kp, t)


@pytest.mark.parametrize("gen", "HPK")
def test_exp_parts_are_the_reference_entries_in_the_generators_plane(gen):
    for kp in LABELS:
        for t in PARAMS:
            want = outcome(reference_exp_parts, kp, gen, t)
            assert outcome(exp_parts, kp, gen, t) == want, (kp, t)


@pytest.mark.parametrize("gen", "HPK")
def test_each_generators_spin_parts_keep_the_reference_bits(gen):
    on_axis = {"K": 1, "H": 2, "P": 3}[gen]  # s is Im alpha, Re beta or Im beta
    for kp in LABELS:
        for t in PARAMS:
            # where exp_parts refuses the half parameter, the spin parts share its error
            refused = outcome(exp_parts, kp, gen, t / 2)
            want = refused if type(refused[0]) is type else outcome(reference_sl2_parts, kp, gen, t)
            assert outcome(sl2_parts, kp, gen, t) == want, (kp, t)
            assert outcome(element_parts, kp, gen, t) == want, (kp, t)
            half = outcome(half_angle_parts, kp, gen, t)
            assert half == (want if len(want) == 2 else (want[0], want[on_axis])), (kp, t)


# -- the unit condition at kappa1 = 0 ----------------------------------------------


def reference_pseudo_norm(kp: KappaPair, a0: float, a1: float, b0: float, b1: float) -> float:
    """The pseudo-norm as written before kappa1 = 0 dropped the beta term."""
    k2 = kp.kappa2
    return a0 * a0 + k2 * a1 * a1 + kp.kappa1 * (b0 * b0 + k2 * b1 * b1)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.builds(KappaPair, st.sampled_from(EDGES + [1.0, -1.0]), st.sampled_from(EDGES + [1.0])),
       st.tuples(*[st.sampled_from(EDGES + [1.0, -0.5])] * 4))
def test_every_finite_pseudo_norm_keeps_its_bits(kp, parts):
    want = reference_pseudo_norm(kp, *parts)
    got = pseudo_norm(kp, *parts)
    if math.isfinite(want):
        assert got.hex() == want.hex()
    elif kp.kappa1 == 0.0:  # the beta term is exactly 0: the alpha part is the pseudo-norm
        assert bits(got) == bits(parts[0] * parts[0] + kp.kappa2 * parts[1] * parts[1])
    else:
        assert bits(got) == bits(want) or math.isnan(got) and math.isnan(want)


def test_a_unit_rotor_at_kappa1_zero_with_an_overflowing_beta_square_rotates():
    # 1 - 5e299*is2 at kappa1 = 0 is unit, though kappa1 * (5e299)**2 is 0 * inf;
    # the vector is exp(-1e300*P)'s action on it
    kp = KappaPair(0.0, 2.0)
    vector = (1e-300, -0.3, -0.3)
    argv = ["rotate", "--axis=0,1,0", "--angle=-1e300", f"--vector={','.join(map(repr, vector))}",
            "--kappa1=0", "--kappa2=2"]
    code, out, err = run_cli(argv, 17)
    assert (code, err) == (0, "")
    moved = [sum(m * v for m, v in zip(row, vector)) for row in exp_generator(kp, "P", -1e300)]
    assert json.loads(out)["vector"] == moved == [1e-300, -0.3, -1.3]


EXTREME = st.one_of(st.sampled_from(EDGES), st.floats(-3, 3),
                    st.floats(allow_nan=False, allow_infinity=False))
LABEL_PAIRS = st.one_of(st.sampled_from(SIGN_PATTERNS), st.builds(KappaPair, EXTREME, EXTREME))
TRIPLES = st.tuples(EXTREME, EXTREME, EXTREME)


@st.composite
def rotor_and_vector(draw):
    """A rotor about a drawn axis and a vector, both as multivectors."""
    kp = draw(LABEL_PAIRS)
    try:
        r = rotor(kp, UnitAxis(*draw(TRIPLES)), draw(EXTREME))
    except KinematicaError:
        r = Multivector.scalar(kp, 1.0)
    return r, Multivector.vector(kp, *draw(TRIPLES))


def vector_parts(r: Multivector, a: Multivector) -> tuple:
    """:func:`require_unit` and :func:`sandwich_parts`, as ``rotate`` calls them, on
    the even parts of r and the vector parts of a."""
    c0, _, _, _, c4, c5, c6, _ = r.coeffs
    require_unit(r.kp, c0, c4, c6, c5)
    return sandwich_parts(r.kp, c0, c4, c6, c5, *a.vector_components())


def reference_vector_parts(r: Multivector, a: Multivector) -> tuple:
    return reference_sandwich(r, a).vector_components()


# how far an answer whose reference meets 0 * inf in a zero-label term may be
# from the exact image under its rotor, in ulps of the largest exact part or
# of the sandwich's terms |r|^2 |a| where larger: a huge rotor, unit at a zero
# label, makes an answer the cancellation of those terms, as a huge rotor at a
# tiny nonzero label does in the reference
ZERO_LABEL_ULPS = 2.0


def assert_near_the_exact_image(r: Multivector, a: Multivector, got: tuple) -> None:
    """A finite ``got`` is within ZERO_LABEL_ULPS of the exact image; a term that
    overflows before a tiny label scales it (a FOUND line) leaves an inf, which
    the command line ends in NonFiniteResult, as the reference's nan did."""
    if all(map(math.isfinite, got)):
        vector = a.vector_components()
        image = exact.rotate_image(*r.kp, r.coeffs, vector)
        scale = exact.sandwich_size(r.coeffs, vector)
        assert exact.vector_ulps(got, image, scale) <= ZERO_LABEL_ULPS


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(rotor_and_vector())
def test_sandwich_and_its_parts_keep_the_reference_bits(pair):
    for make, reference in ((sandwich, reference_sandwich),
                            (vector_parts, reference_vector_parts)):
        want = outcome(reference, *pair)
        if outcome(make, *pair) != want:
            # only where a label is 0 and the reference ends in nan or in the
            # sandwich's GradeError
            assert 0.0 in pair[0].kp
            parts = want[1] if isinstance(want[0], KappaPair) else want
            assert want == (GradeError, "sandwich result is not a vector") or "nan" in parts
            got = make(*pair)
            assert_near_the_exact_image(*pair, got.vector_components() if make is sandwich else got)


# -- the command line --------------------------------------------------------------


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("command", ["exp", "spin"])
def test_exp_and_spin_lines_write_the_reference_bytes(command, precision):
    for gen in "HPK":
        for kp in LABELS:
            for t in PARAMS:
                argv = exp_argv(gen, kp, t, command)
                assert run_cli(argv, precision) == reference_cli(argv, precision), argv


@st.composite
def rotor_lines(draw):
    """An exact ``exp``, ``spin`` or ``rotate`` line, every value drawn with the edges."""
    command = draw(st.sampled_from(["exp", "spin", "rotate"]))
    kp = draw(LABEL_PAIRS)
    if command != "rotate":
        return exp_argv(draw(st.sampled_from("HPK")), kp, draw(EXTREME), command)
    axis, vector = (",".join(map(repr, draw(TRIPLES))) for _ in range(2))
    return ["rotate", f"--axis={axis}", f"--angle={draw(EXTREME)!r}", f"--vector={vector}",
            f"--kappa1={kp.kappa1!r}", f"--kappa2={kp.kappa2!r}"]


@pytest.mark.parametrize("precision", PRECISIONS)
@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=rotor_lines())
def test_rotor_lines_write_the_reference_bytes(argv, precision):
    got, want = run_cli(argv, precision), reference_cli(argv, precision)
    if got != want:
        # only a rotate line at a zero label whose reference ends in a
        # non-finite error; the kernel's vector is near the exact image, and
        # the line prints it, rounded to the precision, or ends in
        # NonFiniteResult where it overflowed
        args = parse_args(argv)
        assert args.command == "rotate" and 0.0 in (args.kappa1, args.kappa2)
        assert want[0] == 1 and json.loads(want[2])["error"] in ("GradeError", "NonFiniteResult")
        kp = KappaPair(args.kappa1, args.kappa2)
        r, a = rotor(kp, UnitAxis(*args.axis), args.angle), Multivector.vector(kp, *args.vector)
        vector = vector_parts(r, a)
        assert_near_the_exact_image(r, a, vector)
        if all(map(math.isfinite, vector)):
            answer = {"rotor": {"kappa1": kp.kappa1, "kappa2": kp.kappa2, "coeffs": list(r.coeffs)},
                      "vector": list(vector)}
            assert (got[0], got[2]) == (0, "")
            assert json.loads(got[1]) == rounded(answer, precision)
        else:
            assert (got[0], got[1], json.loads(got[2])["error"]) == (1, "", "NonFiniteResult")


def rounded(value, precision: int):
    """Each number of a JSON value rounded to ``precision`` significant digits."""
    if isinstance(value, dict):
        return {key: rounded(item, precision) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item, precision) for item in value]
    return float(f"{value:.{precision}g}")
