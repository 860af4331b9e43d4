import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from geometry_checks import approx_eq
from kinematica import conformal
from kinematica.ckgeom import KappaPair, so3_generators
from kinematica.conformal import (
    ERRATA,
    GENERATOR_TAGS,
    TABULATED_BRACKETS,
    computed_brackets,
    conformal_basis,
    conformal_moebius,
    decompose,
    diff_vs_tabulated,
)
from kinematica.errors import AtInfinity, DecompositionFailure
from kinematica.gencomplex import Mat2, gamma_apply, gamma_lift, gc, gc_exp_unit
from kinematica.gentrig import cosk, sink
from kinematica.kinclass import so3_triple
from kinematica.spin import ALGEBRA_TOL
from writers_reference import tabulated_bracket

PATTERNS = [
    KappaPair(k1, k2)
    for k1 in (1.0, 0.0, -1.0)
    for k2 in (1.0, 0.0, -1.0)
]

GENERIC = [KappaPair(1.3, -0.8), KappaPair(-0.6, 0.4)]


@pytest.mark.parametrize("kp", PATTERNS + GENERIC)
def test_basis_traceless(kp):
    for gen in conformal_basis(kp).values():
        tr = gen.trace()
        assert tr.re == 0.0 and tr.im == 0.0


def test_basis_matrices():
    kp = KappaPair(1.5, -1.0)
    basis = conformal_basis(kp)
    k2 = kp.kappa2
    assert approx_eq(
        basis["H"],
        Mat2(gc(0, 0, k2), gc(0.5, 0, k2), gc(-0.75, 0, k2), gc(0, 0, k2)), 0
    )
    assert approx_eq(
        basis["G1"], Mat2(gc(0, 0, k2), gc(0, 0, k2), gc(1, 0, k2), gc(0, 0, k2)), 0
    )
    assert approx_eq(
        basis["G2"], Mat2(gc(0, 0, k2), gc(0, 0, k2), gc(0, 1, k2), gc(0, 0, k2)), 0
    )
    assert approx_eq(
        basis["D"], Mat2(gc(0.5, 0, k2), gc(0, 0, k2), gc(0, 0, k2), gc(-0.5, 0, k2)), 0
    )


@pytest.mark.parametrize("tag", ["X", "g1", ""])
def test_an_unknown_conformal_tag_is_a_key_error(tag):
    with pytest.raises(KeyError) as raised:
        conformal_moebius(KappaPair(1.0, 1.0), tag, 0.5)
    assert raised.value.args == (f"unknown conformal generator {tag!r}",)


def test_g1_exponential_is_lower_shear():
    kp = KappaPair(1.0, 1.0)
    m = conformal_moebius(kp, "G1", 1.7)
    assert approx_eq(
        m, Mat2(gc(1, 0, 1), gc(0, 0, 1), gc(1.7, 0, 1), gc(1, 0, 1)), 0
    )


@pytest.mark.parametrize("kp", PATTERNS + GENERIC)
def test_brackets_close_in_span(kp):
    basis = conformal_basis(kp)
    for x, y in itertools.combinations(GENERATOR_TAGS, 2):
        bracket = basis[x].commutator(basis[y])
        coeffs = decompose(kp, bracket)
        recon = Mat2.zero(kp.kappa2)
        for tag, value in coeffs.items():
            recon = recon + basis[tag].scale(value)
        assert (recon - bracket).max_abs() < 1e-12


def test_specific_brackets():
    kp = KappaPair(0.7, -1.2)
    table = computed_brackets(kp)
    assert table[("H", "G1")] == {"D": 1.0}
    assert table[("D", "G1")] == {"G1": -1.0}
    assert table[("H", "G2")] == {"K": 1.0}
    assert table[("H", "P")] == {"K": pytest.approx(kp.kappa1)}
    assert table[("K", "H")] == {"P": 1.0}
    assert table[("K", "P")] == {"H": pytest.approx(-kp.kappa2)}
    # the two slots where the published table goes wrong
    assert table[("K", "G1")] == {"G2": -1.0}
    assert table[("K", "G2")] == {"G1": pytest.approx(kp.kappa2)}


@pytest.mark.parametrize("kp", PATTERNS + GENERIC)
def test_restriction_matches_bracket_classification(kp):
    table = computed_brackets(kp)
    assert table[("H", "P")] == ({"K": pytest.approx(kp.kappa1)} if kp.kappa1 else {})
    assert table[("K", "P")] == ({"H": pytest.approx(-kp.kappa2)} if kp.kappa2 else {})
    assert table[("K", "H")] == {"P": 1.0}


@pytest.mark.parametrize("kp", PATTERNS + GENERIC)
def test_jacobi_identity(kp):
    basis = conformal_basis(kp)
    for x, y, z in itertools.combinations(GENERATOR_TAGS, 3):
        a, b, c = basis[x], basis[y], basis[z]
        total = (
            a.commutator(b.commutator(c))
            + b.commutator(c.commutator(a))
            + c.commutator(a.commutator(b))
        )
        assert total.max_abs() < 1e-10


@pytest.mark.parametrize("kp", PATTERNS + GENERIC)
def test_antisymmetry(kp):
    basis = conformal_basis(kp)
    for x, y in itertools.combinations(GENERATOR_TAGS, 2):
        forward = basis[x].commutator(basis[y])
        backward = basis[y].commutator(basis[x])
        assert (forward + backward).max_abs() == 0.0


def test_decompose_rejects_off_span():
    kp = KappaPair(1.0, 1.0)
    not_traceless = Mat2.identity(kp.kappa2)
    with pytest.raises(DecompositionFailure):
        decompose(kp, not_traceless)


def random_labels(seed: int, n: int) -> list[KappaPair]:
    rng = random.Random(seed)
    return [KappaPair(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]


@pytest.mark.parametrize("kp", PATTERNS + GENERIC)
def test_large_traceless_matrices_decompose_and_reconstruct(kp):
    # d = -a exactly, so every sample is in the span whatever the rounding
    rng = random.Random(7)
    basis = conformal_basis(kp)
    k2 = kp.kappa2
    for _ in range(200):
        size = 10.0 ** rng.uniform(0, 6)
        a, b, c = (gc(rng.uniform(-size, size), rng.uniform(-size, size), k2)
                   for _ in range(3))
        m = Mat2(a, b, c, -a)
        recon = Mat2.zero(k2)
        for tag, value in decompose(kp, m).items():
            recon = recon + basis[tag].scale(value)
        scale = m.max_abs() * max(1.0, abs(kp.kappa1))
        assert (recon - m).max_abs() <= 1e-12 * scale


def test_decompose_rejects_nan_and_small_trace():
    kp = KappaPair(1.0, -1.0)
    zero = gc(0, 0, -1.0)
    with_nan = Mat2(zero, gc(math.nan, 0, -1.0), zero, zero)
    small_trace = Mat2(gc(1e-9, 0, -1.0), zero, zero, zero)
    for m in (with_nan, small_trace):
        with pytest.raises(DecompositionFailure):
            decompose(kp, m)


@pytest.mark.parametrize("kp", PATTERNS + GENERIC + random_labels(11, 8))
def test_computed_table_matches_every_ordered_commutator_bit_for_bit(kp):
    basis = conformal_basis(kp)
    table = computed_brackets(kp)
    assert list(table) == list(itertools.product(GENERATOR_TAGS, repeat=2))
    for x, y in table:
        coeffs = decompose(kp, basis[x].commutator(basis[y]))
        expected = [(t, v.hex()) for t, v in coeffs.items() if v != 0.0]
        assert [(t, v.hex()) for t, v in table[(x, y)].items()] == expected


# -- the structure constants as exact integer monomials ---------------------------


def _poly(triple):
    """c0 + c1*kappa1 + c2*kappa2 as {(power of kappa1, power of kappa2): int}."""
    c0, c1, c2 = triple
    return Counter({(0, 0): c0, (1, 0): c1, (0, 1): c2})


def _bracket(u, v):
    """[u, v] of combinations {tag: polynomial}, through the integer table."""
    table = conformal._structure_constants()
    out = defaultdict(Counter)
    for s, p in u.items():
        for t, q in v.items():
            for tag, triple in table[(s, t)].items():
                for (a1, b1), c in p.items():
                    for (a2, b2), d in q.items():
                        for (a3, b3), e in _poly(triple).items():
                            out[tag][(a1 + a2 + a3, b1 + b2 + b3)] += c * d * e
    return out


def test_structure_constants_are_signed_monomials_with_the_computed_keys():
    table = conformal._structure_constants()
    assert list(table) == list(itertools.product(GENERATOR_TAGS, repeat=2))
    for (x, y), entry in table.items():
        assert entry == {t: tuple(-c for c in cs) for t, cs in table[(y, x)].items()}
        for triple in entry.values():
            assert all(type(c) is int for c in triple)
            assert sorted(map(abs, triple)) == [0, 0, 1]


def test_jacobi_identity_holds_exactly_as_polynomials_in_the_labels():
    one = Counter({(0, 0): 1})
    for x, y, z in itertools.combinations(GENERATOR_TAGS, 3):
        a, b, c = {x: one}, {y: one}, {z: one}
        total = defaultdict(Counter)
        for outer, inner in ((a, _bracket(b, c)), (b, _bracket(c, a)), (c, _bracket(a, b))):
            for tag, poly in _bracket(outer, inner).items():
                total[tag].update(poly)
        assert all(v == 0 for poly in total.values() for v in poly.values()), (x, y, z)


@pytest.mark.parametrize("kp", PATTERNS)
def test_motion_block_matches_the_3x3_generators_and_the_classification(kp):
    table = computed_brackets(kp)
    gens = dict(zip(("H", "P", "K"), map(np.asarray, so3_generators(kp))))
    for x, y in itertools.permutations(gens, 2):
        assert set(table[(x, y)]) <= set(gens)
        commutator = gens[x] @ gens[y] - gens[y] @ gens[x]
        combination = sum((v * gens[t] for t, v in table[(x, y)].items()), np.zeros((3, 3)))
        assert np.array_equal(commutator, combination)
    k, h, p = so3_triple(kp.kappa1, kp.kappa2)
    assert np.sign(table[("H", "P")].get("K", 0.0)) == k
    assert np.sign(table[("K", "P")].get("H", 0.0)) == h
    assert np.sign(table[("K", "H")].get("P", 0.0)) == p


def test_errata_are_the_slots_whose_monomials_differ_from_the_published_table():
    table = conformal._structure_constants()

    def claimed(row, col):
        if (row, col) in TABULATED_BRACKETS:
            return TABULATED_BRACKETS[(row, col)]
        entry = TABULATED_BRACKETS[(col, row)]
        return entry if entry == "S2" else {t: tuple(-c for c in cs) for t, cs in entry.items()}

    differ = {
        slot for slot in itertools.permutations(GENERATOR_TAGS, 2) if claimed(*slot) != table[slot]
    }
    assert differ == ERRATA == {("K", "G1"), ("G1", "K"), ("K", "G2"), ("G2", "K")}
    assert TABULATED_BRACKETS[("K", "G1")] == "S2"
    # printed as kappa2*G2 where the derived entry is kappa2*G1
    assert TABULATED_BRACKETS[("K", "G2")] == {"G2": (0, 0, 1)}
    assert table[("K", "G2")] == {"G1": (0, 0, 1)}


def test_computed_table_keeps_exact_values_where_the_matrices_underflow_or_overflow():
    # the matrix path underflows at a subnormal label, and kappa1*kappa2 overflows at 1e200
    tiny = computed_brackets(KappaPair(0.0, 5e-324))
    assert tiny[("P", "K")] == {"H": 5e-324}
    huge = computed_brackets(KappaPair(1e200, 1e200))
    assert huge[("H", "P")] == {"K": 1e200} and huge[("K", "P")] == {"H": -1e200}


# labels on both sides of every cut the table and the diff make: the nine sign
# patterns, a signed zero, the least subnormal and ALGEBRA_TOL to one ulp
EDGE_LABELS = [
    sign * x
    for sign in (1.0, -1.0)
    for x in (1.0, 0.0, 5e-324, math.nextafter(ALGEBRA_TOL, 0.0), ALGEBRA_TOL,
              math.nextafter(ALGEBRA_TOL, 1.0))
]


def _hex_table(table):
    return {slot: {t: v.hex() for t, v in entry.items()} for slot, entry in table.items()}


def test_monomials_and_errata_depend_only_on_the_pattern_and_give_the_floats():
    monomials, records = {}, {}
    for k1, k2 in itertools.product(EDGE_LABELS, repeat=2):
        kp = KappaPair(k1, k2)

        def at(entry):
            return {t: float(c0 + c1 * k1 + c2 * k2) for t, (c0, c1, c2) in entry.items()}

        table = conformal.bracket_monomials(kp)
        found = conformal.errata(kp)
        slots = tuple(slot for slot, _ in found)
        # the same monomials and, with the same slots, the same records per pattern
        assert monomials.setdefault((k1 == 0.0, k2 == 0.0), table) == table
        assert records.setdefault((k1 == 0.0, k2 == 0.0, slots), found) == found
        # S2 is always reported, the mislabelled pair where |kappa2| shows it
        assert slots == tuple(
            slot for slot in [("K", "G1"), ("K", "G2"), ("G1", "K"), ("G2", "K")]
            if "G1" in slot or abs(k2) > ALGEBRA_TOL
        )
        # the floats are the monomials evaluated, and those of every nonzero
        # coefficient of the full table
        evaluated = {slot: at(entry) for slot, entry in table.items()}
        full = {
            slot: {t: v for t, (c0, c1, c2) in entry.items() if (v := c0 + c1 * k1 + c2 * k2)}
            for slot, entry in conformal._structure_constants().items()
        }
        computed = computed_brackets(kp)
        assert _hex_table(computed) == _hex_table(evaluated) == _hex_table(full)
        expected = []
        for slot, claimed in found:
            if not isinstance(claimed, str):
                claimed = at(claimed)
                assert claimed == tabulated_bracket(kp, *slot)
            expected.append({"bracket": list(slot), "computed": computed[slot], "claimed": claimed})
        assert diff_vs_tabulated(kp, computed) == expected
    assert len(monomials) == 4 and len(records) == 6


def test_import_derives_neither_table():
    # both tables are derived on first use, not at import
    code = (
        "import kinematica, kinematica.cli\n"
        "from kinematica import conformal, kinclass\n"
        "print(conformal._structure_constants.cache_info().currsize,"
        " kinclass._contraction_targets.cache_info().currsize)\n"
        "kinematica.cli.main(['conformal-table', '--kappa1=1', '--kappa2=-1'])\n"
        "print(conformal._structure_constants.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    probe = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0 and probe.stderr == ""
    lines = probe.stdout.splitlines()
    assert lines[0] == "0 0" and lines[-1] == "1"


def test_diff_flags_undefined_symbol_slots():
    for kp in PATTERNS + GENERIC:
        diffs = diff_vs_tabulated(kp, computed_brackets(kp))
        flagged = {tuple(d["bracket"]) for d in diffs}
        assert ("K", "G1") in flagged
        assert ("G1", "K") in flagged
        s2_records = [d for d in diffs if tuple(d["bracket"]) == ("K", "G1")]
        assert s2_records[0]["claimed"] == "S2 (undefined symbol)"
        assert s2_records[0]["computed"] == {"G2": -1.0}


def test_diff_flags_mislabelled_slot_when_visible():
    # the published [K, G2] entry reads kappa2*G2; the computed bracket is
    # kappa2*G1, distinguishable whenever kappa2 != 0
    kp = KappaPair(1.0, -1.0)
    diffs = diff_vs_tabulated(kp, computed_brackets(kp))
    flagged = {tuple(d["bracket"]) for d in diffs}
    assert ("K", "G2") in flagged
    record = [d for d in diffs if tuple(d["bracket"]) == ("K", "G2")][0]
    assert record["computed"] == {"G1": -1.0}
    assert record["claimed"] == {"G2": -1.0}

    # invisible at kappa2 = 0 (both sides vanish)
    flat = KappaPair(1.0, 0.0)
    flagged_flat = {
        tuple(d["bracket"]) for d in diff_vs_tabulated(flat, computed_brackets(flat))
    }
    assert ("K", "G2") not in flagged_flat


def test_everything_else_matches_published_table():
    for kp in GENERIC:
        flagged = {tuple(d["bracket"]) for d in diff_vs_tabulated(kp, computed_brackets(kp))}
        assert flagged == {("K", "G1"), ("G1", "K"), ("K", "G2"), ("G2", "K")}


def test_tabulated_antisymmetric_retrieval():
    kp = KappaPair(2.0, -1.0)
    assert tabulated_bracket(kp, "D", "H") == {"H": 1.0, "G1": 2.0}
    assert tabulated_bracket(kp, "H", "D") == {"H": -1.0, "G1": -2.0}


def expected_action(kp: KappaPair, tag: str, t: float, w):
    """The Moebius action of exp(t * generator) on w, written out per generator.

    D, G1 and G2 act as w -> e^t w, w/(t w + 1) and w/(t i w + 1).  K rotates
    by e^{i t}; H and P are (C w + B)/(-kappa1 conj(B) w + C) with
    C = cosk(x, t/2) and B = sink(x, t/2) or i sink(x, t/2), x = kappa1 or
    kappa1*kappa2.
    """
    k1, k2 = kp.kappa1, kp.kappa2
    if tag == "D":
        return w * math.exp(t)
    if tag == "G1":
        return w * (w * t + 1.0).inv()
    if tag == "G2":
        return w * (w * gc(0, t, k2) + 1.0).inv()
    if tag == "K":
        return gc_exp_unit(k2, t) * w
    x = k1 if tag == "H" else k1 * k2
    c, b = cosk(x, t / 2), sink(x, t / 2)
    shift = gc(b, 0, k2) if tag == "H" else gc(0, b, k2)
    return (w * c + shift) * (w * (shift.conj() * -k1) + c).inv()


@pytest.mark.parametrize("kp", PATTERNS + GENERIC)
def test_moebius_actions_match_exponentials(kp):
    samples = [gc(0.3, -0.2, kp.kappa2), gc(-0.7, 0.4, kp.kappa2), gc(0.1, 0.9, kp.kappa2)]
    for tag in GENERATOR_TAGS:
        for t in (-0.8, 0.35):
            from_matrix = conformal_moebius(kp, tag, t)
            for w in samples:
                den = from_matrix.c * w + from_matrix.d
                if den.sqmod() == 0.0:
                    continue
                assert approx_eq(from_matrix.apply(w), expected_action(kp, tag, t, w), 1e-12)


def test_moebius_closed_forms():
    kp = KappaPair(1.0, 1.0)
    t = 0.6
    # dilation: w -> e^t w
    m = conformal_moebius(kp, "D", t)
    w = gc(1, 0, 1.0)
    assert approx_eq(m.apply(w), gc(math.exp(t), 0, 1.0), 1e-12)
    # G1 fixes the origin and acts as w/(t w + 1)
    m = conformal_moebius(kp, "G1", t)
    assert approx_eq(m.apply(gc(0, 0, 1.0)), gc(0, 0, 1.0), 0)
    w = gc(0.5, 0.25, 1.0)
    expected = w * (w * t + 1.0).inv()
    assert approx_eq(m.apply(w), expected, 1e-12)
    # G2 acts as w/(t i w + 1)
    m = conformal_moebius(kp, "G2", t)
    expected = w * (w * gc(0, t, 1.0) + 1.0).inv()
    assert approx_eq(m.apply(w), expected, 1e-12)


def test_g1_pole_resolved_on_completion():
    # kappa2 = 0: pick w with t*w + 1 a zero divisor; the affine action blows
    # up but the homogeneous action stays total
    kp = KappaPair(1.0, 0.0)
    t = 2.0
    w = gc(-1.0 / t, 1.0, 0.0)
    m = conformal_moebius(kp, "G1", t)
    with pytest.raises(AtInfinity):
        m.apply(w)
    image = gamma_apply(m, gamma_lift(w))
    assert image.is_admissible()
    with pytest.raises(AtInfinity):
        image.to_affine()


def test_special_maps_are_not_translations_when_curved():
    # for kappa1 != 0 there is no c with exp(t G1): w -> w + c
    kp = KappaPair(1.0, 1.0)
    m = conformal_moebius(kp, "G1", 0.7)
    displacements = []
    for u in (0.1, 0.4, 0.8):
        w = gc(u, 0, 1.0)
        displacements.append(m.apply(w) - w)
    assert not approx_eq(displacements[0], displacements[1], 1e-9)
    assert not approx_eq(displacements[1], displacements[2], 1e-9)


def test_flat_time_translation_is_a_translation():
    # in the kappa1 = 0 realization the H family really translates
    kp = KappaPair(0.0, -1.0)
    m = conformal_moebius(kp, "H", 0.9)
    for w in (gc(0.2, 0.6, -1.0), gc(-1.1, 0.3, -1.0)):
        assert approx_eq(m.apply(w), w + gc(0.45, 0, -1.0), 1e-13)
