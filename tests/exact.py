"""An exact reference for ``exp``'s matrix, and a sweep that measures the engines against it.

``exp`` prints exp(t G), and ``spin`` prints the same matrix as its ``so3``,
for a generator G of the motion group on (z, t, x) columns:

    H = [[0, -k1, 0], [1, 0, 0], [0, 0, 0]]
    P = [[0, 0, -k1 k2], [0, 0, 0], [1, 0, 0]]
    K = [[0, 0, 0], [0, 0, -k2], [0, 1, 0]]

Each satisfies G^3 = -x G for its label x (k1, k1 k2 and k2), so

    exp(t G) = I + t S(u) G + t^2 V(u) G^2,   u = x t^2,
    S(u) = sum_m (-u)^m / (2m+1)!,   V(u) = sum_m (-u)^m / (2m+2)!.

:func:`exp_matrix` sums both series in :mod:`decimal` and forms G and G^2 in
:mod:`fractions`, from the float labels and parameter taken as exact
rationals.  The label is read off G^3, not written down.  Like the
``exp``/``cos``/``sin`` recipes of the ``decimal`` docs, it sums the Taylor
series at a raised precision, 60 digits plus guard digits.  A circular
angle theta = sqrt(u) is first reduced to r = theta mod 2 pi (with the
docs' ``pi`` recipe), at as many more digits as theta has above the units,
and S(u) = r S(r^2) / theta and V(u) = r^2 V(r^2) / theta^2 are summed at
r^2 <= pi^2, where the alternating series loses fewer digits than the
guard; a hyperbolic series has terms of one sign.  An entry is S or V
times an entry of t G or t^2 G^2, plus 0 or 1, so it is exact to 60
significant digits of its own size unless it is a cosine or sine within
about 1e-50 of a zero.  It uses only the standard library and shares no
code with ``src/``.

An engine's error on one answer is its max-entry error: the largest
|printed - exact| over the nine entries, in ulps of the largest exact entry
L.  README's budget is per entry (:func:`budget_use`): each entry is within
``BUDGET_ULPS`` units of its own ulp(|exact_ij|) + 2^-53 |t (G exp(t G))_ij|.
The second term is the entry's condition: t G exp(t G) is the derivative
of exp(t G) with respect to log t, so it is how far the entry moves when
the angle, rapidity or shear sqrt(|x|) t that cosk and sink take is off by
one relative rounding unit.  It grows like sinh on a hyperbolic label and
is what a tiny label times a huge parameter costs.  Being linear, it
bounds the error of a rounded angle while the square of that rounding is
below an ulp, up to angles of about 1e8; near 1e16 one rounding unit of
the angle is a radian.  Run as a script, this file sweeps seeded draws and
prints, for each engine, how many draws it answers (only the ``exp``
sweep's ``cover_to_so3`` may refuse one, with ``NotSpin``; any other error
ends the run), the median, p99 and max error in ulps of L over them, the
largest budget use and how many answers are over budget:

    python tests/exact.py --sweep spin --draws 4000 --seed 1
    python tests/exact.py --sweep exp --draws 4000 --seed 1

``spin`` draws the inputs of the benchmark's ``rotors-sweep`` spin requests
(labels of either sign in [0.05, 2], t in [-3, 3], a random generator) and
compares ``exp_generator``, which ``spin`` prints, with ``cover_to_so3`` of
the spin element, which it printed before; ``exp`` widens the draws to the
nine sign patterns, labels from 1e-3 to 10 and t in [-6, 6], and measures
both.

``rotate`` prints a rotor r and the vector it moves a to.  :func:`rotate_image`
is the exact reverse(r) * a * r of the parsed vector a under the printed r,
in :mod:`fractions`, over a product table derived here from the relations
s1^2 = 1, s2^2 = kappa1, s1 s2 = -s2 s1 and i central with i^2 = -kappa2
(:func:`product_table`).  It measures the product alone: the rotor is taken
as printed, not as the rotation the argv names.  The sweep draws the
labels of ``exp``'s sweep, axis components in [-1, 1], the angle in
[-6, 6] and vector components in [-3, 3], runs each ``rotate`` line through
``cli.main`` at 17 digits and prints, over the lines that answer, the
median, p99 and max error of the printed vector in ulps of the largest
exact part:

    python tests/exact.py --sweep rotate --draws 4000 --seed 1

``project`` and ``unproject`` are measured against the exact image of the
command line's floats: (t/(z+1), x/(z+1)) (:func:`project_image`) and
(2/d - 1, 2u/d, 2v/d), d = 1 + kappa1 (u^2 + kappa2 v^2)
(:func:`unproject_image`).  The image also names how the line must end
(:func:`outcome`): ``ProjectionPole`` at z = -1, ``OutsideModel`` where
d <= 0, ``NonFiniteResult`` where a part is beyond the float range.  The
sweeps draw the labels of ``exp``'s sweep and coordinates from 1e-3 to 1e3
in size or, one time in eight, from 1e150 to 1e308, where kappa1 |w|^2
overflows; they print ``rotate``'s columns and the number of lines that end
otherwise than predicted:

    python tests/exact.py --sweep project --draws 4000 --seed 1
    python tests/exact.py --sweep unproject --draws 4000 --seed 1

Like ``tests/ab_timing.py``, pytest does not collect this file;
``tests/test_exact.py`` checks the budget, the engines' order, ``rotate``'s
error and the outcomes and errors of ``project`` and ``unproject``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import statistics
import sys
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from pathlib import Path

DIGITS = 60
GUARD = 10  # digits beyond DIGITS that absorb the rounding of the sums
# README's budget: the budget_use of an exp answer is at most BUDGET_ULPS;
# README lists what measures at most 1.84 of it, for angles up to 1e8
BUDGET_ULPS = 4.0
# the largest rapidity sqrt(-x) |t| summed; cosh overflows at 710
MAX_RAPIDITY = 1000

Matrix = tuple[tuple, tuple, tuple]


def generator(kappa1: float, kappa2: float, gen: str) -> Matrix:
    """The generator H, P or K at the labels, with exact rational entries."""
    k1, k2 = Fraction(kappa1), Fraction(kappa2)
    zero, one = Fraction(0), Fraction(1)
    return {
        "H": ((zero, -k1, zero), (one, zero, zero), (zero, zero, zero)),
        "P": ((zero, zero, -k1 * k2), (zero, zero, zero), (one, zero, zero)),
        "K": ((zero, zero, zero), (zero, zero, -k2), (zero, one, zero)),
    }[gen]


def _product(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def label(g: Matrix) -> Fraction:
    """The x of G^3 = -x G, checked on every entry."""
    cube = _product(g, _product(g, g))
    i, j = next((i, j) for i in range(3) for j in range(3) if g[i][j])
    x = -cube[i][j] / g[i][j]
    if any(cube[i][j] != -x * g[i][j] for i in range(3) for j in range(3)):
        raise ValueError("G^3 is not a multiple of G")
    return x


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def series(u: Decimal) -> tuple[Decimal, Decimal]:
    """(S(u), V(u)) at the current precision, summed until the terms are below it."""
    minus_u = -u
    s_term, v_term = Decimal(1), Decimal(1) / 2
    s = v = Decimal(0)
    tiny = Decimal(10) ** -(getcontext().prec + 5)
    m = 0
    while True:
        s += s_term
        v += v_term
        if abs(s_term) < tiny and abs(v_term) < tiny and m * m > abs(u):
            return s, v
        s_term = s_term * minus_u / ((2 * m + 2) * (2 * m + 3))
        v_term = v_term * minus_u / ((2 * m + 3) * (2 * m + 4))
        m += 1


def pi() -> Decimal:
    """pi at the current precision (the recipe of the ``decimal`` docs)."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def exp_matrix(kappa1: float, kappa2: float, gen: str, param: float) -> Matrix:
    """exp(param * G) to DIGITS significant digits of each entry, as Decimals."""
    g = generator(kappa1, kappa2, gen)
    t = Fraction(param)
    u = label(g) * t * t
    if u < -MAX_RAPIDITY ** 2:
        raise ValueError(f"rapidity {math.sqrt(float(-u))} is over {MAX_RAPIDITY}")
    # a circular angle theta is reduced by 2 pi, which costs the digits of
    # theta above the units
    lead = (len(str(u.numerator)) - len(str(u.denominator))) // 2 + 1 if u > 0 else 0
    with localcontext() as ctx:
        ctx.prec = DIGITS + GUARD + max(lead, 0)
        if u > 0:
            theta = _decimal(u).sqrt()
            r = theta.remainder_near(2 * pi())
            s, v = series(r * r)  # sin r = r S(r^2), 1 - cos r = r^2 V(r^2)
            s, v = r * s / theta, r * r * v / (theta * theta)
        else:
            s, v = series(_decimal(u))
        ts, tv = _decimal(t) * s, _decimal(t * t) * v
        g2 = _product(g, g)
        return tuple(
            tuple((1 if i == j else 0) + ts * _decimal(g[i][j]) + tv * _decimal(g2[i][j])
                  for j in range(3))
            for i in range(3))


def _errors(printed, exact: Matrix) -> list[list[Decimal]]:
    """|printed - exact| of each entry, infinite where the printed entry is not finite."""
    return [[abs(Decimal(p) - e) if math.isfinite(p) else Decimal("Infinity")
             for p, e in zip(prow, erow)] for prow, erow in zip(printed, exact)]


def _ulp_of_largest(exact: Matrix) -> Decimal:
    return Decimal(math.ulp(float(max(abs(e) for row in exact for e in row))))


def max_entry_ulps(printed, exact: Matrix) -> float:
    """The largest |printed - exact| over the entries, in ulps of the largest exact entry."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(max(map(max, _errors(printed, exact))) / _ulp_of_largest(exact))


def budget_use(printed, kappa1: float, kappa2: float, gen: str, param: float,
               exact: Matrix) -> float:
    """The largest |printed - exact| over the entries, each in units of its own
    ulp(|exact_ij|) + 2^-53 |t (G exp(t G))_ij|; README's budget is BUDGET_ULPS
    of them."""
    g = generator(kappa1, kappa2, gen)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        t, rounding = Decimal(param), Decimal(2) ** -53
        errors = _errors(printed, exact)
        return float(max(
            errors[i][j] / (Decimal(math.ulp(float(abs(exact[i][j]))))
                            + rounding * abs(t * sum(_decimal(g[i][k]) * exact[k][j]
                                                     for k in range(3))))
            for i in range(3) for j in range(3)))


def _rotor_label(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 2.0)


def _wide_label(rng: random.Random) -> float:
    if rng.random() < 0.2:
        return 0.0
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 1.0)


def draws(sweep: str, n: int, seed: int) -> list[tuple[float, float, str, float]]:
    """``n`` seeded (kappa1, kappa2, gen, param) draws of a sweep, ``spin`` or ``exp``."""
    rng = random.Random(seed)
    if sweep == "spin":
        return [(_rotor_label(rng), _rotor_label(rng), rng.choice("HPK"), rng.uniform(-3.0, 3.0))
                for _ in range(n)]
    return [(_wide_label(rng), _wide_label(rng), rng.choice("HPK"), rng.uniform(-6.0, 6.0))
            for _ in range(n)]


def engines(sweep: str) -> dict:
    """Engine name -> f(kappa1, kappa2, gen, param) giving the printed 3x3 matrix."""
    from kinematica import ckgeom, spin

    def exp_generator(k1, k2, gen, t):
        return ckgeom.exp_generator(ckgeom.KappaPair(k1, k2), gen, t)

    def cover_to_so3(k1, k2, gen, t):
        return spin.cover_to_so3(spin.sl2_of_exp(ckgeom.KappaPair(k1, k2), gen, t))

    return {"exp_generator": exp_generator, "cover_to_so3": cover_to_so3}


def percentile(values: list[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(sweep: str, n: int, seed: int) -> dict[str, tuple[list[float], list[float]]]:
    """Engine -> (max-entry error, in ulps, and budget_use of each draw it answers).
    The one refusal left out is ``cover_to_so3``'s ``NotSpin`` in the ``exp`` sweep,
    whose large rapidities put a few elements past ``UNIT_TOL``; any other error
    ends the sweep."""
    from kinematica.errors import NotSpin

    cases = draws(sweep, n, seed)
    exact = [exp_matrix(*case) for case in cases]
    out = {}
    for name, engine in engines(sweep).items():
        errors, uses = [], []
        for case, e in zip(cases, exact):
            try:
                m = engine(*case)
            except NotSpin:
                if sweep != "exp" or name != "cover_to_so3":
                    raise
                continue
            errors.append(max_entry_ulps(m, e))
            uses.append(budget_use(m, *case, e))
        out[name] = errors, uses
    return out


# -- rotate ---------------------------------------------------------------------

# the basis of a printed rotor, in its order, as reduced words i^a s1^b s2^c:
# 1, s1, s2, s3 = i s1 s2, i s1, i s2, s3check = s1 s2, i
WORDS = ((0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 0, 0))
# reversal keeps grades 0 and 1 and negates grades 2 and 3
REVERSE = (1, 1, 1, 1, -1, -1, -1, -1)


def product_table(kappa1: float, kappa2: float) -> list[list[tuple[Fraction, int]]]:
    """(c, k) with e_m * e_n = c e_k, for every pair of basis words m and n.

    i^a s1^b s2^c times i^a' s1^b' s2^c' is i^(a+a') s1^b s2^c s1^b' s2^c', since
    i is central; moving s1^b' left past s2^c gives (-1)^(c b'), and then
    i^2 = -kappa2, s1^2 = 1 and s2^2 = kappa1 reduce the exponents.
    """
    k1, k2 = Fraction(kappa1), Fraction(kappa2)
    index = {word: k for k, word in enumerate(WORDS)}
    table = []
    for a, b, c in WORDS:
        row = []
        for a2, b2, c2 in WORDS:
            coef = Fraction(-1 if c and b2 else 1)
            if a and a2:
                coef *= -k2
            if c and c2:
                coef *= k1
            row.append((coef, index[((a + a2) % 2, (b + b2) % 2, (c + c2) % 2)]))
        table.append(row)
    return table


def _multiply(x: list[Fraction], y: list[Fraction], table) -> list[Fraction]:
    out = [Fraction(0)] * 8
    for m, xm in enumerate(x):
        for n, yn in enumerate(y):
            if xm and yn:
                coef, k = table[m][n]
                out[k] += coef * xm * yn
    return out


def rotate_image(kappa1: float, kappa2: float, rotor, vector) -> tuple[Fraction, ...]:
    """The vector parts of reverse(r) * a * r, exactly, for the 8 coefficients of r
    and a = vector[0] s1 + vector[1] s2 + vector[2] s3."""
    table = product_table(kappa1, kappa2)
    r = [Fraction(x) for x in rotor]
    a = [Fraction(0), *map(Fraction, vector), *[Fraction(0)] * 4]
    out = _multiply(_multiply([sign * x for sign, x in zip(REVERSE, r)], a, table), r, table)
    return tuple(out[1:4])


def run(argv: list[str]) -> tuple[dict | None, str | None]:
    """A command line's answer at 17 digits and None, or None and the name of the
    error it ends in."""
    from kinematica import cli

    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("KINEMATICA_PRECISION", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if saved is not None:
            os.environ["KINEMATICA_PRECISION"] = saved
    if code == 0:
        return json.loads(out.getvalue()), None
    return None, json.loads(err.getvalue())["error"]


def sandwich_size(rotor, vector) -> Fraction:
    """|r|^2 |a|, with |x| the sum of the absolute parts: the size of the sandwich's
    terms, whose rounding a float answer carries however small its own parts are."""
    size = sum(abs(Fraction(x)) for x in rotor)
    return size * size * sum(abs(Fraction(x)) for x in vector)


def rotate_ulps(argv: list[str]) -> float | None:
    """The largest |printed - exact| over the printed vector's parts, in ulps of
    the largest exact part, or None where the line ends in an error."""
    from kinematica import cli

    answer, _ = run(argv)
    if answer is None:
        return None
    rotor = answer["rotor"]
    exact = rotate_image(rotor["kappa1"], rotor["kappa2"], rotor["coeffs"],
                         cli.parse_args(argv).vector)
    return vector_ulps(answer["vector"], exact)


def ulp(q: Fraction) -> Fraction:
    """The spacing of the doubles at |q|, also beyond the float range."""
    q = abs(q)
    if q == 0:
        return Fraction(2) ** -1074
    e = q.numerator.bit_length() - q.denominator.bit_length()  # 2^e <= q < 2^(e+2)
    if Fraction(2) ** (e + 1) <= q:
        e += 1
    return Fraction(2) ** max(e - 52, -1074)


def vector_ulps(printed, exact: tuple[Fraction, ...], scale: Fraction = Fraction(0)) -> float:
    """The largest |printed - exact| over the parts, in ulps of the largest exact part
    or of ``scale`` where that is larger; infinite where a printed part is not finite."""
    if not all(map(math.isfinite, printed)):
        return math.inf
    unit = ulp(max(*map(abs, exact), scale))
    return float(max(abs(Fraction(p) - e) for p, e in zip(printed, exact)) / unit)


def rotate_draws(n: int, seed: int) -> list[list[str]]:
    """``n`` seeded ``rotate`` command lines."""
    rng = random.Random(seed)

    def values(count: int, reach: float) -> str:
        return ",".join(repr(rng.uniform(-reach, reach)) for _ in range(count))

    return [["rotate", f"--axis={values(3, 1.0)}", f"--angle={values(1, 6.0)}",
             f"--vector={values(3, 3.0)}", f"--kappa1={_wide_label(rng)!r}",
             f"--kappa2={_wide_label(rng)!r}"] for _ in range(n)]


def rotate_errors(n: int, seed: int) -> list[float]:
    """:func:`rotate_ulps` of each of ``n`` seeded lines that answers."""
    errors = (rotate_ulps(line) for line in rotate_draws(n, seed))
    return [error for error in errors if error is not None]


# -- project and unproject ----------------------------------------------------------

# halfway from the largest double to 2**1024: a part at or above it rounds to inf
OVERFLOW = Fraction(2) ** 1024 - Fraction(2) ** 970


def project_image(z: float, t: float, x: float) -> tuple[Fraction, Fraction] | str:
    """(t/(z + 1), x/(z + 1)) exactly, or "ProjectionPole" at z = -1."""
    if z == -1:
        return "ProjectionPole"
    pole = Fraction(z) + 1
    return Fraction(t) / pole, Fraction(x) / pole


def unproject_image(kappa1: float, kappa2: float, u: float,
                    v: float) -> tuple[Fraction, Fraction, Fraction] | str:
    """(2/d - 1, 2u/d, 2v/d), d = 1 + kappa1 (u^2 + kappa2 v^2), exactly: the quadric
    point that projects to w = u + i v, or "OutsideModel" where d <= 0."""
    u, v = Fraction(u), Fraction(v)
    d = 1 + Fraction(kappa1) * (u * u + Fraction(kappa2) * v * v)
    if d <= 0:
        return "OutsideModel"
    return 2 / d - 1, 2 * u / d, 2 * v / d


def outcome(image) -> str:
    """What a line should end in: the error the image names, "NonFiniteResult"
    where a part is beyond the float range, or else "answer"."""
    if isinstance(image, str):
        return image
    return "NonFiniteResult" if max(map(abs, image)) >= OVERFLOW else "answer"


def _option(argv: list[str], name: str) -> list[float]:
    """The floats of the ``--name=`` token of an exact-form command line."""
    value = next(token for token in argv if token.startswith(f"--{name}="))
    return [float(v) for v in value.split("=", 1)[1].split(",")]


def plane_image(argv: list[str]):
    """The exact image of a ``project`` or ``unproject`` command line, read off its argv."""
    if argv[0] == "project":
        return project_image(*_option(argv, "point"))
    return unproject_image(*_option(argv, "kappa1"), *_option(argv, "kappa2"), *_option(argv, "w"))


def _magnitude(rng: random.Random) -> float:
    """A signed value from 1e-3 to 1e3, or one time in eight from 1e150 to 1e308,
    whose square overflows."""
    e = rng.uniform(150.0, 308.0) if rng.random() < 0.125 else rng.uniform(-3.0, 3.0)
    return rng.choice((-1.0, 1.0)) * 10.0 ** e


def _pole_coordinate(rng: random.Random) -> float:
    """z: -1 itself one time in ten, within 1e-16 to 0.1 of it one time in five
    (a smaller offset rounds to -1), else a value of :func:`_magnitude`."""
    r = rng.random()
    if r < 0.1:
        return -1.0
    if r < 0.3:
        return -1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -1.0)
    return _magnitude(rng)


def plane_draws(sweep: str, n: int, seed: int) -> list[list[str]]:
    """``n`` seeded ``project`` or ``unproject`` command lines, with the labels of
    ``exp``'s sweep: the nine sign patterns."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        if sweep == "project":
            point = (_pole_coordinate(rng), _magnitude(rng), _magnitude(rng))
            option = "--point=" + ",".join(map(repr, point))
        else:
            option = f"--w={_magnitude(rng)!r},{_magnitude(rng)!r}"
        lines.append([sweep, option, f"--kappa1={_wide_label(rng)!r}",
                      f"--kappa2={_wide_label(rng)!r}"])
    return lines


def plane_line(argv: list[str]) -> tuple[str, str, float | None]:
    """(predicted, ended, ulps) of a ``project`` or ``unproject`` line: the outcome
    its exact image predicts, the one it ends in, and, where it answers, the largest
    |printed - exact| over the parts in ulps of the largest exact part."""
    image = plane_image(argv)
    predicted = outcome(image)
    answer, error = run(argv)
    if answer is None:
        return predicted, error, None
    printed = (answer["re"], answer["im"]) if argv[0] == "project" else answer["point"]
    return predicted, "answer", vector_ulps(printed, image) if predicted == "answer" else math.inf


def plane_outcomes(sweep: str, n: int, seed: int) -> list[tuple[str, str, float | None]]:
    """:func:`plane_line` of each of ``n`` seeded lines."""
    return [plane_line(argv) for argv in plane_draws(sweep, n, seed)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep", choices=("exp", "spin", "rotate", "project", "unproject"),
                        default="spin")
    parser.add_argument("--draws", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    if args.sweep in ("project", "unproject"):
        rows = plane_outcomes(args.sweep, args.draws, args.seed)
        answered = [ulps for _, ended, ulps in rows if ended == "answer"]
        missed = sum(predicted != ended for predicted, ended, _ in rows)
        print(f"sweep {args.sweep}, {args.draws} draws, seed {args.seed}: printed point "
              f"against the exact image of the argv, in ulps of the largest exact part")
        print(f"{'engine':<15}{'answers':>8}{'median':>8}{'p99':>8}{'max':>8}{'mispredicted':>14}")
        print(f"{args.sweep:<15}{len(answered):>8}{statistics.median(answered):>8.3f}"
              f"{percentile(answered, 0.99):>8.3f}{max(answered):>8.3f}{missed:>14}")
        return 0
    if args.sweep == "rotate":
        answered = rotate_errors(args.draws, args.seed)
        print(f"sweep rotate, {args.draws} draws, seed {args.seed}: printed vector against "
              f"the exact image under the printed rotor, in ulps of the largest exact part")
        print(f"{'engine':<15}{'answers':>8}{'median':>8}{'p99':>8}{'max':>8}")
        print(f"{'rotate':<15}{len(answered):>8}{statistics.median(answered):>8.3f}"
              f"{percentile(answered, 0.99):>8.3f}{max(answered):>8.3f}")
        return 0
    print(f"sweep {args.sweep}, {args.draws} draws, seed {args.seed}: max-entry error "
          f"in ulps of the largest exact entry; budget {BUDGET_ULPS:g} units per entry")
    print(f"{'engine':<15}{'answers':>8}{'median':>8}{'p99':>8}{'max':>8}{'max use':>12}"
          f"{'over budget':>13}")
    for name, (errors, uses) in measure(args.sweep, args.draws, args.seed).items():
        over = sum(use > BUDGET_ULPS for use in uses)
        print(f"{name:<15}{len(errors):>8}{statistics.median(errors):>8.3f}"
              f"{percentile(errors, 0.99):>8.3f}{max(errors):>8.3f}{max(uses):>12.2f}{over:>13}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
