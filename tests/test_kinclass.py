import math

import numpy as np
import pytest

from kinematica.errors import DivergentContraction
from kinematica.kinclass import (
    BracketTriple,
    KINEMATICAL_NAMES,
    NAME_ALIASES,
    apply_symmetry,
    canonicalize,
    classification_counts,
    contract,
    contract_triple,
    contraction_graph,
    contraction_target,
    enumerate_all,
    is_kinematical,
    name_of,
    pair_image,
    reachable_by_contractions,
    so3_triple,
    triple_of_name,
)
from oracles import expm


def test_enumeration():
    triples = enumerate_all()
    assert len(triples) == 27
    assert triples[0] == BracketTriple(-1, -1, -1)
    assert BracketTriple(0, 0, 0) in triples
    assert triples == sorted(triples)


def test_counts():
    assert classification_counts() == {
        "total": 27,
        "kinematical": 21,
        "classes": 11,
        "non_kinematical": 6,
    }


def test_is_kinematical_examples():
    assert not is_kinematical(BracketTriple(1, -1, 1))
    assert is_kinematical(BracketTriple(0, 0, 0))
    assert sum(1 for t in enumerate_all() if not is_kinematical(t)) == 6


def test_kinematical_iff_ad_boost_noncompact():
    # numeric oracle: exp(theta * ad_K) on span{H, P} is bounded and returns
    # to the identity at theta = 2*pi, nontrivially, exactly for the compact
    # (excluded) cases
    for t in enumerate_all():
        ad_k = np.array([[0.0, t.h], [t.p, 0.0]])
        bounded = all(
            np.linalg.norm(expm(theta * ad_k), ord=2) < 3.0
            for theta in np.linspace(0.0, 100.0, 201)
        )
        returns = np.max(np.abs(expm(2 * math.pi * ad_k) - np.eye(2))) < 1e-6
        nontrivial = np.max(np.abs(ad_k)) > 0
        compact = bounded and returns and nontrivial
        assert compact == (not is_kinematical(t)), t


def test_canonicalize():
    names = {canonicalize(t) for t in enumerate_all() if is_kinematical(t)}
    assert len(names) == 11
    others = {canonicalize(t) for t in enumerate_all() if not is_kinematical(t)}
    assert len(others) == 3
    assert canonicalize(BracketTriple(0, 0, 0)) == BracketTriple(0, 0, 0)
    for t in enumerate_all():
        assert canonicalize(canonicalize(t)) == canonicalize(t)
        assert canonicalize(pair_image(t)) == canonicalize(t)


def test_pairing_follows_sign_flip():
    assert pair_image(BracketTriple(1, 1, 1)) == BracketTriple(-1, -1, -1)
    assert is_kinematical(BracketTriple(1, 1, 1)) == is_kinematical(
        BracketTriple(-1, -1, -1)
    )


def test_names():
    assert name_of(BracketTriple(1, 1, 1)) == "adS"
    assert name_of(BracketTriple(-1, 1, 1)) == "dS"
    assert name_of(BracketTriple(0, 1, 1)) == "M"
    assert name_of(BracketTriple(1, 1, 0)) == "M'"
    assert name_of(BracketTriple(-1, 1, 0)) == "M+"
    assert name_of(BracketTriple(1, 0, 1)) == "N-"
    assert name_of(BracketTriple(-1, 0, 1)) == "N+"
    assert name_of(BracketTriple(0, 0, 1)) == "G"
    assert name_of(BracketTriple(0, 1, 0)) == "C"
    assert name_of(BracketTriple(1, 0, 0)) == "SdS"
    assert name_of(BracketTriple(0, 0, 0)) == "St"
    # stability under the pairing
    for name, t in KINEMATICAL_NAMES.items():
        assert name_of(pair_image(t)) == name
        assert name_of(canonicalize(t)) == name


def test_non_kinematical_names():
    assert name_of(BracketTriple(1, -1, 1)) == "El"
    assert name_of(BracketTriple(1, 1, -1)) == "H"
    assert name_of(BracketTriple(0, 1, -1)) == "Eu"
    tags = {name_of(t) for t in enumerate_all() if not is_kinematical(t)}
    assert tags == {"El", "H", "Eu"}


@pytest.mark.parametrize("sym", ["S_H", "S_P", "S_K"])
def test_symmetries_involutive(sym):
    for t in enumerate_all():
        assert apply_symmetry(sym, apply_symmetry(sym, t)) == t


def test_an_unknown_symmetry_is_a_key_error():
    with pytest.raises(KeyError) as raised:
        apply_symmetry("S_X", BracketTriple(1, 1, 1))
    assert raised.value.args == ("unknown symmetry 'S_X'",)


def test_symmetry_images():
    # boost-fixing swap of space and time interchanges the two Newtonian
    # expansions with the two degenerate Minkowski families, and G with C
    assert name_of(apply_symmetry("S_K", triple_of_name("N+"))) == "M'"
    assert name_of(apply_symmetry("S_K", triple_of_name("N-"))) == "M+"
    assert name_of(apply_symmetry("S_K", triple_of_name("G"))) == "C"
    assert name_of(apply_symmetry("S_K", triple_of_name("dS"))) == "adS"
    assert name_of(apply_symmetry("S_K", triple_of_name("M"))) == "M"
    # the static-de-Sitter / Galilei exchange under S_H
    assert name_of(apply_symmetry("S_H", triple_of_name("G"))) == "SdS"
    assert name_of(apply_symmetry("S_H", triple_of_name("SdS"))) == "G"


def symmetry_exclusions(sym: str) -> set[str]:
    """Names of kinematical classes whose image under sym is non-kinematical."""
    return {name for name, triple in KINEMATICAL_NAMES.items()
            if not is_kinematical(apply_symmetry(sym, triple))}


def test_symmetry_exclusions():
    # classes taken out of the kinematical family by each symmetry; S_P
    # excludes exactly the pair named in the published exclusion table, S_K
    # preserves kinematicality (p*h is invariant), and S_H loses dS as well
    # as the published M+
    assert symmetry_exclusions("S_P") == {"adS", "N-"}
    assert symmetry_exclusions("S_K") == set()
    assert symmetry_exclusions("S_H") == {"dS", "M+"}


def test_contraction_facts():
    assert name_of(contract_triple(triple_of_name("dS"), "speed-space")) == "N+"
    assert name_of(contract_triple(triple_of_name("adS"), "speed-space")) == "N-"
    assert contract_triple(triple_of_name("dS"), "speed-space") == BracketTriple(-1, 0, 1)
    assert contract_triple(triple_of_name("adS"), "speed-space") == BracketTriple(1, 0, 1)


def test_two_step_rescaling_reaches_static_de_sitter():
    limit = contract(triple_of_name("dS"), (2, 1, 1))
    assert limit == BracketTriple(-1, 0, 0)
    assert name_of(limit) == "SdS"
    assert canonicalize(limit) == canonicalize(triple_of_name("SdS"))


def test_contraction_target_reads_every_name_and_alias():
    for name in [*KINEMATICAL_NAMES, *NAME_ALIASES]:
        for kind in ("speed-space", "speed-time", "space-time"):
            expected = name_of(contract_triple(triple_of_name(name), kind))
            assert contraction_target(name, kind) == expected
    for name in ("NoSuch", "ds", ""):
        with pytest.raises(KeyError) as caught:
            contraction_target(name, "speed-space")
        with pytest.raises(KeyError) as expected:
            triple_of_name(name)
        assert str(caught.value) == str(expected.value)
    with pytest.raises(KeyError):
        contraction_target("dS", "no-such-type")


def test_contraction_limits_per_type():
    # speed-space kills h, speed-time kills p, space-time kills k
    for t in (triple_of_name(n) for n in KINEMATICAL_NAMES):
        assert contract_triple(t, "speed-space") == BracketTriple(t.k, 0, t.p)
        assert contract_triple(t, "speed-time") == BracketTriple(t.k, t.h, 0)
        assert contract_triple(t, "space-time") == BracketTriple(0, t.h, t.p)


def test_contraction_idempotent_per_type():
    for name in KINEMATICAL_NAMES:
        t = triple_of_name(name)
        for kind in ("speed-space", "speed-time", "space-time"):
            once = contract_triple(t, kind)
            assert contract_triple(once, kind) == once


def test_divergent_contraction():
    with pytest.raises(DivergentContraction):
        contract(triple_of_name("adS"), (2, 0, 0))


def test_contract_keeps_or_zeroes_each_constant():
    # un-normalized constants come back as they were or as 0
    assert contract(BracketTriple(3, -2, 5), (1, 0, 1)) == BracketTriple(3, 0, 5)
    assert contract(BracketTriple(-4, 7, 0), (0, 0, 0)) == BracketTriple(-4, 7, 0)
    with pytest.raises(DivergentContraction, match=r"^constant ck = 1 scales as eps\^-2$"):
        contract(triple_of_name("adS"), (2, 0, 0))
    with pytest.raises(DivergentContraction, match=r"^constant cp = -3 scales as eps\^-1$"):
        contract(BracketTriple(0, 0, -3), (0, 0, 1))
    with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
        contract(triple_of_name("adS"), (1, -1, 0))


def test_graph_edges():
    edges = contraction_graph()
    assert ("dS", "N+", "speed-space") in edges
    assert ("adS", "N-", "speed-space") in edges
    assert ("M", "C", "speed-time") in edges
    # space-time contraction fixes M (its k already vanishes): no edge
    assert not any(e[0] == "M" and e[2] == "space-time" for e in edges)
    assert len(edges) == len(set(edges))
    for name in KINEMATICAL_NAMES:
        assert "St" in reachable_by_contractions(name)


def test_graph_is_a_fresh_list_on_each_call():
    edges = contraction_graph()
    expected = list(edges)
    edges.clear()
    assert contraction_graph() == expected and contraction_graph() is not contraction_graph()


def test_so3_structure_constants_for_all_sign_patterns():
    expected = {
        (1, -1): "adS",
        (-1, -1): "dS",
        (0, -1): "M",
        (1, 0): "N-",
        (-1, 0): "N+",
        (0, 0): "G",
        (1, 1): "El",
        (0, 1): "Eu",
        (-1, 1): "H",
    }
    for (s1, s2), name in expected.items():
        assert name_of(so3_triple(1.7 * s1, 0.9 * s2)) == name
