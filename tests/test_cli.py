import argparse
import ast
import functools
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import numpy as np

from cli_reference import build_parser as reference_parser
from dumps_reference import dumps as reference_dumps
import spin_reference
import writers_reference
from kinematica import ckgeom, cli, clifford, conformal, kinclass, spin
from kinematica.ckgeom import KappaPair
from kinematica.cli import (COMMANDS, SLOT, Filled, Template, UsageError, dumps, main,
                            parse_args)
from kinematica.clifford import Multivector
from kinematica.errors import KinematicaError, NonFiniteResult, NotSpin, fill
from kinematica.gencomplex import gc

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("classify.json", ["classify"]),
    ("contract_ds_speed_space.json", ["contract", "--from", "dS", "--type", "speed-space"]),
    ("graph.json", ["graph", "--format", "json"]),
    ("graph.dot", ["graph", "--format", "dot"]),
    (
        "distance_poincare.json",
        ["distance", "--kappa1", "-1", "--kappa2", "1", "--w1", "0,0", "--w2", "0.5,0"],
    ),
    ("region_hyperbolic.svg", ["region", "--kappa1", "-1", "--kappa2", "1"]),
    ("region_cominkowski.svg", ["region", "--kappa1", "-1", "--kappa2", "0"]),
    ("region_minkowski.svg", ["region", "--kappa1", "0", "--kappa2", "-1"]),
    ("region_desitter.svg", ["region", "--kappa1", "1", "--kappa2", "-1"]),
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES)
def test_golden_files_byte_identical(name, argv):
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / name).read_text()


def test_contract_output_shape():
    code, out, _ = run_cli(["contract", "--from", "dS", "--type", "speed-space"])
    assert code == 0
    assert out == '{"to":"N+"}\n'


def test_contract_accepts_ascii_aliases():
    code, out, _ = run_cli(["contract", "--from", "Nplus", "--type", "speed-time"])
    assert code == 0
    assert json.loads(out) == {"to": "SdS"}


def test_classify_counts():
    code, out, _ = run_cli(["classify"])
    payload = json.loads(out)
    assert payload["counts"] == {
        "total": 27,
        "kinematical": 21,
        "classes": 11,
        "non_kinematical": 6,
    }
    assert len(payload["algebras"]) == 27


def test_exp_subcommand():
    code, out, _ = run_cli(
        ["exp", "--gen", "H", "--param", "0.3", "--kappa1", "1", "--kappa2", "-1"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generator"] == "H"
    assert payload["matrix"][2][2] == 1


def test_project_unproject_round_trip():
    code, out, _ = run_cli(
        ["unproject", "--kappa1", "1", "--kappa2", "1", "--w", "0.25,-0.5"]
    )
    point = json.loads(out)["point"]
    code, out, _ = run_cli(
        [
            "project",
            "--kappa1",
            "1",
            "--kappa2",
            "1",
            "--point",
            ",".join(str(c) for c in point),
        ]
    )
    w = json.loads(out)
    assert w["re"] == pytest.approx(0.25, abs=1e-12)
    assert w["im"] == pytest.approx(-0.5, abs=1e-12)
    assert w["kappa"] == 1


def test_rotate_subcommand():
    code, out, _ = run_cli(
        [
            "rotate",
            "--kappa1", "1", "--kappa2", "1",
            "--axis", "1,0,0",
            "--angle", "0.7",
            "--vector", "0,1,0",
        ]
    )
    payload = json.loads(out)
    assert len(payload["rotor"]["coeffs"]) == 8
    assert payload["rotor"]["kappa1"] == 1
    expected = [0.0, pytest.approx(0.7648421872844885), pytest.approx(-0.644217687237691)]
    assert payload["vector"][0] == expected[0]
    assert payload["vector"][1] == expected[1]
    assert payload["vector"][2] == expected[2]


def test_spin_subcommand():
    code, out, _ = run_cli(
        ["spin", "--gen", "K", "--param", "0.5", "--kappa1", "1", "--kappa2", "-1"]
    )
    payload = json.loads(out)
    assert set(payload) == {"alpha", "beta", "so3"}
    assert payload["alpha"]["kappa"] == -1
    assert payload["so3"][0][0] == 1


def test_conformal_table_diff():
    code, out, _ = run_cli(
        ["conformal-table", "--kappa1", "1", "--kappa2", "-1", "--diff-paper"]
    )
    payload = json.loads(out)
    assert payload["brackets"]["[H,G1]"] == {"D": 1.0}
    flagged = {d["bracket"] for d in payload["diff"]}
    assert "[K,G1]" in flagged and "[G1,K]" in flagged


def test_conformal_table_diff_computes_the_table_once(monkeypatch):
    # --diff-paper never builds the table twice: a request builds it once when
    # no template has its pattern yet, and not at all from the template
    calls = []
    original = conformal.bracket_monomials

    def counting(kp):
        calls.append(kp)
        return original(kp)

    monkeypatch.setattr(conformal, "bracket_monomials", counting)
    monkeypatch.setattr(cli, "_CONFORMAL", {})
    for k1, k2 in [("1", "-1"), ("1", "-1"), ("2", "-3"), ("0", "-1"), ("2", "-3"), ("0", "0")]:
        before, misses = len(calls), len(cli._CONFORMAL)
        code, _, _ = run_cli(["conformal-table", "--kappa1", k1, "--kappa2", k2, "--diff-paper"])
        assert code == 0 and len(calls) - before <= len(cli._CONFORMAL) - misses
    assert len(calls) == len(cli._CONFORMAL) == 3


def test_conformal_table_keeps_no_template_per_label_value(monkeypatch):
    # the templates are keyed by (--diff-paper, kappa1 == 0, kappa2 == 0, the
    # errata reported), never by the labels.  Without the diff that is 4
    # patterns; with it the S2 slots are always reported and the [K,G2] pair
    # when |kappa2| > ALGEBRA_TOL, so 2 x 3 more, as kappa2 = 0 hides the pair
    monkeypatch.setattr(cli, "_CONFORMAL", {})
    rng = random.Random(23)
    for _ in range(400):
        k1, k2 = (rng.choice([0.0, -0.0, rng.uniform(-4, 4), rng.choice([1, -1]) * 10.0 ** rng.uniform(-320, 300)])
                  for _ in range(2))
        diff = ["--diff-paper"] * rng.randint(0, 1)
        assert run_cli(["conformal-table", f"--kappa1={k1!r}", f"--kappa2={k2!r}", *diff])[0] == 0
    assert len(cli._CONFORMAL) <= 10
    for diff, flat1, flat2, reported in cli._CONFORMAL:
        assert {diff, flat1, flat2} <= {True, False}
        assert set(reported) <= conformal.ERRATA and (diff or reported == ())


def test_region_keeps_no_template_per_label_value(monkeypatch):
    # the SVG templates are keyed by (boundary shape, null lines), never by
    # the labels: at most 5 shapes x 2, of which 6 occur
    keys = []
    original = ckgeom._region_template.__wrapped__
    monkeypatch.setattr(ckgeom, "_region_template",
                        functools.cache(lambda *key: keys.append(key) or original(*key)))
    rng = random.Random(29)
    for _ in range(400):
        signs = rng.choice(SIGN_PATTERNS)
        k1, k2 = (sign * rng.choice([rng.uniform(0, 4), 10.0 ** rng.uniform(-320, 300)]) if sign
                  else rng.choice([0.0, -0.0]) for sign in signs)
        assert run_cli(["region", f"--kappa1={k1!r}", f"--kappa2={k2!r}"])[0] in (0, 1)
    assert len(keys) <= 10
    for shape, null_lines in keys:
        assert shape in {"none", "ellipse", "lines", "along t", "along x"}
        assert null_lines in {True, False}


def test_the_cli_reads_no_private_name_of_a_layer():
    # the command line reaches each layer through its public names only
    layers = {"gentrig", "gencomplex", "ckgeom", "spin", "clifford", "kinclass", "conformal"}
    tree = ast.parse(Path(cli.__file__).read_text())
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module is None
        for alias in node.names if alias.name in layers
    }
    assert bound >= {"ckgeom", "conformal", "gencomplex"}
    found = [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound and node.attr.startswith("_")
    ] + [
        f"{node.module}.{alias.name}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in layers
        for alias in node.names if alias.name.startswith("_")
    ]
    assert found == []


def test_the_generator_tags_are_the_planes_of_ckgeom():
    # the command line keeps its own literal tags, so that importing it runs no
    # layer; each copy, and conformal's, must name the generators PLANES names
    tags = set(ckgeom.PLANES)
    for command in ("exp", "spin"):
        gen = next(o for o in COMMANDS[command].options if o.name == "--gen")
        assert set(gen.choices) == tags, command
    assert set(cli._EXP) == set(cli._SPIN) == set(conformal.GENERATOR_TAGS[:3]) == tags


def test_graph_dot_is_written_once_per_process(monkeypatch):
    calls = []
    original = kinclass.contraction_graph
    monkeypatch.setattr(kinclass, "contraction_graph", lambda: calls.append(1) or original())
    cli._graph_dot.cache_clear()
    expected = (0, (GOLDEN / "graph.dot").read_text(), "")
    assert [run_cli(["graph", "--format", "dot"]) for _ in range(3)] == [expected] * 3
    assert len(calls) == 1


def test_region_writes_file(tmp_path):
    target = tmp_path / "out.svg"
    code, out, _ = run_cli(
        ["region", "--kappa1", "-1", "--kappa2", "0", "--svg", str(target)]
    )
    assert code == 0 and out == ""
    assert target.read_text() == (GOLDEN / "region_cominkowski.svg").read_text()


def test_domain_error_exit_code():
    code, out, err = run_cli(
        ["distance", "--kappa1", "-1", "--kappa2", "1", "--w1", "0,0", "--w2", "2,0"]
    )
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "DomainError"


def assert_one_json_error(err: str, kind: str) -> dict:
    assert err.count("\n") == 1 and err.endswith("\n")
    payload = json.loads(err)
    assert payload["error"] == kind
    return payload


def test_usage_error_exit_code():
    code, out, err = run_cli(["distance", "--kappa1", "-1", "--w1", "0,0", "--w2", "1,0"])
    assert code == 2 and out == ""
    assert "--kappa2" in assert_one_json_error(err, "usage")["message"]
    code, out, err = run_cli(["contract", "--from", "NoSuch", "--type", "speed-space"])
    assert code == 2 and out == ""
    assert assert_one_json_error(err, "usage")["message"] == "\"unknown kinematics name 'NoSuch'\""
    code, out, err = run_cli(["no-such-command"])
    assert code == 2 and out == ""
    assert "no-such-command" in assert_one_json_error(err, "usage")["message"]
    # a control character from the command line is escaped, not printed raw
    code, out, err = run_cli(["classify", "stray\nline\ttab"])
    assert code == 2 and out == ""
    assert assert_one_json_error(err, "usage")["message"].endswith("stray\nline\ttab")


@pytest.mark.parametrize("command", [*COMMANDS, None], ids=[*COMMANDS, "top-level"])
def test_help_prints_usage_and_exits_zero(command):
    code, out, err = run_cli([command, "--help"] if command else ["--help"])
    assert code == 0 and err == ""
    assert out.startswith(f"usage: kinematica {command or '[-h] <command>'} ")
    if command is None:
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
        assert set(COMMANDS) <= listed


@pytest.mark.parametrize(
    "spaced,joined",
    [
        (
            ["distance", "--kappa1", "-5e-07", "--kappa2", "1",
             "--w1", "-0.25,0.5", "--w2", "0,0"],
            ["distance", "--kappa1=-5e-07", "--kappa2=1", "--w1=-0.25,0.5", "--w2=0,0"],
        ),
        (
            ["unproject", "--kappa1", "-1", "--kappa2", "-.5", "--w", "-0.25,-1e-3"],
            ["unproject", "--kappa1=-1", "--kappa2=-.5", "--w=-0.25,-1e-3"],
        ),
        (
            ["rotate", "--kappa1", "1", "--kappa2", "-1", "--axis", "-1,0,0",
             "--angle", "-0.7", "--vector", "-0,1,-2E+00"],
            ["rotate", "--kappa1=1", "--kappa2=-1", "--axis=-1,0,0",
             "--angle=-0.7", "--vector=-0,1,-2E+00"],
        ),
    ],
    ids=["distance", "unproject", "rotate"],
)
def test_negative_values_as_separate_tokens(spaced, joined):
    spaced_run, joined_run = run_cli(spaced), run_cli(joined)
    assert spaced_run == joined_run
    code, out, err = spaced_run
    assert code == 0 and err == ""
    json.loads(out)


@pytest.mark.parametrize(
    "argv,kind",
    [
        # the sandwich's grade check reads a nan off-grade norm
        (["rotate", "--axis", "0,0,-1.2", "--angle", "-1.2", "--vector", "1e-200,1e300,0",
          "--kappa1=1e300", "--kappa2=-0.3"], "GradeError"),
        # its pseudo-norm check reads a nan pseudo-norm: cosh(500)**2 - sinh(500)**2
        (["rotate", "--axis=1,0,0", "--angle=1000", "--vector=1,0,0",
          "--kappa1=1", "--kappa2=-1"], "NotUnitRotor"),
        # a unit rotor, 1 + 5e299*is1 at kappa2 = 0, whose sandwich overflows
        (["rotate", "--axis=2,0,0", "--angle=1e300", "--vector=-1e300,-1e300,0.3",
          "--kappa1=1e-200", "--kappa2=0"], "GradeError"),
        # reverse(r) * a overflows in the s1 slot alone; the 64-term product
        # would meet that inf with r's zero odd slots in a nan, so this is a
        # GradeError, reached without a warning
        (["rotate", "--axis", "0.3,-1.2,-1.2", "--angle", "1.2", "--vector",
          "1e308,-1e308,1e308", "--kappa1", "-1", "--kappa2", "-1"], "GradeError"),
        # sinh(x) / sqrt(|kappa2|) overflows at a tiny label: no rotor is built
        (["rotate", "--axis=-1.0,-0.698764097435411,7.284245990745025e-90",
          "--angle=-1.0097588105310034e+90", "--vector=-1e-300,1.6872853763915074,0.0",
          "--kappa1=2.2622132501248693", "--kappa2=-1.2416446281345907e-174"], "TrigOverflow"),
        # reverse(r) * a overflows; so do the other pins' first halves above
        (["rotate", "--axis=1,1,1", "--angle=1", "--vector=1e300,1e300,1e300",
          "--kappa1=1e10", "--kappa2=1e10"], "GradeError"),
        # reverse(r) * a overflows, yet i's slot of the result stays inf, not
        # nan, within an infinite bound: only the overflow itself is the error
        (["rotate", "--axis=1,1,0", "--angle=1", "--vector=1e308,0,1e308",
          "--kappa1=1e10", "--kappa2=1"], "GradeError"),
        # reverse(r) * a is finite and the rest overflows into the vector grade
        (["rotate", "--axis=0,0,1", "--angle=1", "--vector=0,1e300,0",
          "--kappa1=1e17", "--kappa2=1"], "NonFiniteResult"),
    ],
    ids=["nan-result", "nan-pseudo-norm", "overflowing-sandwich", "numpy-warning",
         "overflowing-sink", "overflowing-first-half", "infinite-volume-slot",
         "overflowing-second-half"],
)
def test_non_finite_rotate_ends_in_one_typed_error(argv, kind):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    payload = assert_one_json_error(err, kind)
    if kind == "GradeError":
        assert payload["message"] == "sandwich result is not a vector"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "argv,vector",
    [
        # a unit rotor, 1 + 5e299*s3check at kappa1 = 0, whose second half
        # meets its overflowing product (5e299)**2 with kappa1 = 0: that term
        # is 0 and is left out, and the answer is exp(1e300 H) of the vector
        (["rotate", "--axis=0,0,1", "--angle=1e300", "--vector=1,0,0",
          "--kappa1=0", "--kappa2=1"], [1.0, 1e300, 0.0]),
        # 1 - 5e299*is2 at kappa1 = 0: exp(-1e300 P) of the vector
        (["rotate", "--axis=0,1,0", "--angle=-1e300", "--vector=1,-0.3,-0.3",
          "--kappa1=0", "--kappa2=2"], [1.0, -0.3, -1e300]),
        # the s1 slot's terms at kappa2 = 0 are inf and 0 * inf: without the
        # zero-label term it is finite, 0.2 ulps from the exact image
        # (test_exact holds it)
        (["rotate", "--axis=-2.2221295782107403e-100,1.0,5.365268480709824e-102",
          "--angle=-9.973715873559661e+111",
          "--vector=-7.193579099790739e+124,2.8858233976859406e-272,1.0",
          "--kappa1=0.2645048897738844", "--kappa2=0.0"],
         [-4.5694682209052483e+123, -1.3958868432568578e+125, -2.6017092122707387e+226]),
    ],
    ids=["kappa1-zero-second-half", "kappa1-zero-p-shear", "rotate-non-finite-sandwich"],
)
def test_a_zero_label_term_is_left_out_of_the_sandwich(argv, vector):
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["vector"] == vector


@pytest.mark.parametrize("extra", [[], ["--diff-paper"]], ids=["table", "diff"])
def test_conformal_table_with_overflowing_label_product_prints_the_exact_table(extra):
    # kappa1 * kappa2 overflows, but every coefficient is +-1, +-kappa1 or +-kappa2
    a = 1e200
    upper = {
        "[H,P]": {"K": a}, "[H,K]": {"P": -1}, "[H,G1]": {"D": 1}, "[H,G2]": {"K": 1},
        "[H,D]": {"H": -1, "G1": -a}, "[P,K]": {"H": a}, "[P,G1]": {"K": 1},
        "[P,G2]": {"D": -a}, "[P,D]": {"P": -1, "G2": a}, "[K,G1]": {"G2": -1},
        "[K,G2]": {"G1": a}, "[G1,D]": {"G1": 1}, "[G2,D]": {"G2": 1},
    }
    code, out, err = run_cli(["conformal-table", "--kappa1", "1e200", "--kappa2", "1e200", *extra])
    assert code == 0 and err == ""
    payload = json.loads(out)
    brackets = payload["brackets"]
    assert len(brackets) == 2 * len(upper)
    for slot, coeffs in upper.items():
        row, col = slot[1:-1].split(",")
        assert brackets[slot] == coeffs
        assert brackets[f"[{col},{row}]"] == {t: -v for t, v in coeffs.items()}
    if extra:
        assert payload["diff"] == [
            {"bracket": "[K,G1]", "computed": {"G2": -1}, "claimed": "S2 (undefined symbol)"},
            {"bracket": "[K,G2]", "computed": {"G1": a}, "claimed": {"G2": a}},
            {"bracket": "[G1,K]", "computed": {"G2": 1}, "claimed": "S2 (undefined symbol)"},
            {"bracket": "[G2,K]", "computed": {"G1": -a}, "claimed": {"G2": -a}},
        ]


@pytest.mark.parametrize(
    "argv,code,kind",
    [
        # non-finite numbers on the command line
        (["exp", "--gen=H", "--param=nan", "--kappa1=0.5", "--kappa2=-1"], 2, "usage"),
        (["unproject", "--w=inf,0.25", "--kappa1=0.5", "--kappa2=-1"], 2, "usage"),
        (["distance", "--w1=0.1,0.2", "--w2=0.0,0.0", "--kappa1=nan", "--kappa2=-1"],
         2, "usage"),
        (["rotate", "--axis=0,0,-1", "--angle=0.5", "--vector=1,-inf,0",
          "--kappa1=1", "--kappa2=1"], 2, "usage"),
        # a zero axis
        (["rotate", "--axis=0,0,0", "--angle=0.5", "--vector=1,0.5,-0.3",
          "--kappa1=0.5", "--kappa2=-1"], 1, "DegenerateAxis"),
        # cosh overflows, and sqrt(kappa1) * param overflows to inf
        (["spin", "--gen=H", "--param=1e300", "--kappa1=-1", "--kappa2=1"], 1, "TrigOverflow"),
        (["exp", "--gen=H", "--param=1e300", "--kappa1=1e300", "--kappa2=1"],
         1, "TrigOverflow"),
        # finite input, non-finite result
        (["unproject", "--w=1e308,0", "--kappa1=0", "--kappa2=1"], 1, "NonFiniteResult"),
        (["distance", "--w1=1.5e308,0", "--w2=-1.5e308,0", "--kappa1=0", "--kappa2=1"],
         1, "NonFiniteResult"),
        # the region boundary's coordinates overflow
        (["region", "--kappa1=-1e308", "--kappa2=-1e308"], 1, "NonFiniteResult"),
    ],
    ids=[
        "exp-nan", "unproject-inf", "distance-nan-label", "rotate-inf-vector",
        "zero-axis", "spin-cosh-overflow", "exp-cos-of-inf",
        "unproject-nan-result", "distance-inf-result", "region-inf-coordinate",
    ],
)
def test_non_finite_input_and_output_end_in_one_json_line(argv, code, kind):
    got, out, err = run_cli(argv)
    assert got == code and out == ""
    assert_one_json_error(err, kind)


def test_distance_of_tiny_and_huge_separations():
    # the squared separation underflowed to 0 and overflowed to inf
    tiny = ["distance", "--kappa1", "1", "--kappa2", "-1", "--w1", "0,0", "--w2", "1e-300,0"]
    assert run_cli(tiny) == (0, '{"distance":1e-300}\n', "")
    huge = ["distance", "--w1=1e200,0", "--w2=0,0", "--kappa1=0", "--kappa2=1"]
    assert run_cli(huge) == (0, '{"distance":9.9999999999999997e+199}\n', "")


def test_distance_whose_denominator_has_an_overflowing_squared_modulus():
    # kappa1*conj(w1)*w2 + 1 = 2e200, whose sqmod overflows; the inverse
    # once read 0, so the distance printed 0
    argv = ["distance", "--kappa1", "1", "--kappa2", "1", "--w1", "1e100,0", "--w2", "2e100,0"]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    got = Fraction(json.loads(out)["distance"])
    # atan(x) = x (1 - x**2/3 + ...), and x**2 is far below a rounding error here
    w1, w2 = Fraction(1e100), Fraction(2e100)
    exact = (w2 - w1) / (w1 * w2 + 1)
    assert abs(got - exact) <= exact * Fraction(2) ** -52


def test_unproject_at_flat_kappa1_ignores_an_overflowing_squared_modulus():
    # at kappa1 = 0 the lift is (1, 2u, 2v) whatever |w|; 1 + 0*inf was nan
    argv = ["unproject", "--w=1e200,0", "--kappa1=0", "--kappa2=1"]
    assert run_cli(argv) == (0, '{"point":[1,1.9999999999999999e+200,0]}\n', "")


@pytest.mark.parametrize("kappa1", ["1", "1e-320"])
def test_unproject_whose_squared_modulus_overflows(kappa1):
    # 1 + kappa1*sqmod(w) overflowed to inf and the lift printed t = 0; the
    # subnormal label is stored as 9.99989e-321, and t is about 2.00002e120
    argv = ["unproject", "--w=1e200,0", f"--kappa1={kappa1}", "--kappa2=1"]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    u, k1 = Fraction(1e200), Fraction(float(kappa1))
    denom = 1 + k1 * u * u
    for value, exact in zip(json.loads(out)["point"], [2 / denom - 1, 2 * u / denom, 0]):
        assert abs(Fraction(value) - exact) <= abs(exact) * Fraction(2) ** -50


IDENTITY_SO3 = '"so3":[[1,0,0],[0,1,0],[0,0,1]]}\n'


@pytest.mark.parametrize("argv,kappa2", [
    (["spin", "--gen", "P", "--param", "-0.0", "--kappa1", "1.326399172571593",
      "--kappa2", "-1e+308"], "-1e+308"),
    (["spin", "--gen", "K", "--param", "0", "--kappa1", "1", "--kappa2", "-1e308"], "-1e+308"),
    (["spin", "--gen", "H", "--param", "0", "--kappa1", "1e308", "--kappa2", "0.5"], "0.5"),
], ids=["P", "K", "H"])
def test_spin_at_zero_param_is_the_identity_where_a_doubled_label_overflows(argv, kappa2):
    # the cover of the spin element, which printed so3 before exp's closed form
    # did, formed -2*kappa1, -2*kappa2 or -2*kappa1*kappa2 before the coordinate
    # factor; these overflow to inf, and 0 * inf once ended in NonFiniteResult
    # "result nan is not finite"
    expected = (f'{{"alpha":{{"re":1,"im":0,"kappa":{kappa2}}},'
                f'"beta":{{"re":0,"im":0,"kappa":{kappa2}}},' + IDENTITY_SO3)
    assert run_cli(argv) == (0, expected, "")


def test_spin_p_shear_where_the_doubled_kappa1_overflows():
    # -2*kappa1 overflows at 1e308, and the cover's (-2*kappa1)*kappa2 was
    # inf * 0 = nan; exp's closed form takes the label kappa1*kappa2 = 0, so
    # the shear answers
    argv = ["spin", "--gen", "P", "--param", "0.5", "--kappa1", "1e308", "--kappa2", "0"]
    expected = ('{"alpha":{"re":1,"im":0,"kappa":0},"beta":{"re":0,"im":0.25,"kappa":0},'
                '"so3":[[1,0,0],[0,1,0],[0.5,0,1]]}\n')
    assert run_cli(argv) == (0, expected, "")
    assert run_cli([*argv[:6], "1e307", *argv[7:]]) == (0, expected, "")


# labels next to 0 take the branch of their sign; |kappa| < 1e-300 was once
# read as kappa = 0.  The references are computed in 600-bit arithmetic at the
# float arguments the code forms.
TINY_AND_HUGE_LABELS = [
    # x = sqrt(1e-301)*1e151 = 3.16227766016838: cos x = -0.999786072879325894,
    # sin(x)/sqrt(1e-301) = -6.54070696893884002e148 (was the shear
    # [[1,-1e-150,0],[1e151,1,0],[0,0,1]], of determinant 11)
    (["exp", "--gen=H", "--param=1e151", "--kappa1=1e-301", "--kappa2=1"],
     '{"generator":"H","param":1e+151,"matrix":[[-0.99978607287932586,6.5407069689388404e-153,0],'
     '[-6.5407069689388404e+148,-0.99978607287932586,0],[0,0,1]]}\n'),
    # alpha = -cos(x/2) = 0.0103423189052094491, beta = -sin(x/2)/sqrt(1e-301)
    # = -3.16210853140695136e150 (was NotSpin, "unit condition violated by 2.5");
    # so3 is exp's matrix above (the cover of alpha and beta printed cos x as
    # -0.99978607287932564 and the fixed entry as 0.99999999999999967)
    (["spin", "--gen=H", "--param=1e151", "--kappa1=1e-301", "--kappa2=1"],
     '{"alpha":{"re":0.010342318905209449,"im":0,"kappa":1},'
     '"beta":{"re":-3.1621085314069512e+150,"im":0,"kappa":1},'
     '"so3":[[-0.99978607287932586,6.5407069689388404e-153,0],'
     '[-6.5407069689388404e+148,-0.99978607287932586,0],[0,0,1]]}\n'),
    # atan(sqrt(k)*w)/sqrt(k) = 9.99999999999999982e-201 (was 0: the product
    # sqrt(1e-250)*1e-200 underflows)
    (["distance", "--w1=0,0", "--w2=1e-200,0", "--kappa1=1e-250", "--kappa2=1"],
     '{"distance":9.9999999999999998e-201}\n'),
    # atanh(sqrt(1e-301)*3e150)/sqrt(1e-301) = 5.75043261424185652e150 (was 3e150)
    (["distance", "--w1=0,0", "--w2=3e150,0", "--kappa1=-1e-301", "--kappa2=1"],
     '{"distance":5.7504326142418595e+150}\n'),
    # kappa1*kappa2 overflows; the boost of label 1e200 fixes s1.  Rotor
    # cos(2.5e99) = -0.0974664800640460124, sin(2.5e99)/1e100 =
    # -9.95238808158084684e-101 (was TrigOverflow "cosk(nan, 0.25)")
    (["rotate", "--axis=1,0,0", "--angle=0.5", "--vector=1,0,0",
      "--kappa1=1e200", "--kappa2=1e200"],
     '{"rotor":{"kappa1":9.9999999999999997e+199,"kappa2":9.9999999999999997e+199,'
     '"coeffs":[-0.097466480064046013,0,0,0,-9.9523880815808471e-101,0,0,0]},'
     '"vector":[0.99999999999999989,0,0]}\n'),
]


@pytest.mark.parametrize(
    "argv,expected", TINY_AND_HUGE_LABELS,
    ids=["exp-tiny-kappa1", "spin-tiny-kappa1", "distance-underflowing-argument",
         "distance-tiny-negative-kappa1", "rotate-overflowing-label-product"],
)
def test_tiny_and_huge_labels_take_the_branch_of_their_sign(argv, expected):
    assert run_cli(argv) == (0, expected, "")


def test_rotate_of_a_large_vector_is_a_vector():
    # an absolute 1e-9 bound on the sandwich's other grades read rounding at
    # |v| ~ 8.5e7 as GradeError.  Checked in rational arithmetic: reverse(r)
    # v r of the printed rotor has other grades exactly 0 and matches the
    # printed vector to 2.2e-16 relative
    argv = ["rotate",
            "--axis=-0.8957413493691184,-0.3865558371647966,-0.09110774653117804",
            "--angle=0.5032699764486774",
            "--vector=-49137433.639032535,47503693.89542963,-50227868.33489577",
            "--kappa1=-0.5996591763086516", "--kappa2=1.3220983832682358"]
    expected = (
        '{"rotor":{"kappa1":-0.59965917630865162,"kappa2":1.3220983832682358,'
        '"coeffs":[0.96924848192607416,0,0,0,-0.22767547612519684,-0.098253010578840796,'
        '-0.023157354056267759,0]},'
        '"vector":[-45720340.513125509,69449514.350857601,-13139918.310289197]}\n'
    )
    assert run_cli(argv) == (0, expected, "")


def test_rotate_about_a_tiny_axis_normalises_it():
    # the squared norm of these axes is subnormal or 0; the first printed a
    # rotor scalar 0.97167194917256561, as though the "unit" axis were 0.954,
    # and the second ended in DegenerateAxis "axis norm 0.0"
    rest = ["--angle=0.5", "--vector=1,2,3", "--kappa1=1", "--kappa2=1"]
    assert run_cli(["rotate", "--axis=3e-162,0,0", *rest]) == run_cli(["rotate", "--axis=1,0,0", *rest])
    expected = (
        '{"rotor":{"kappa1":1,"kappa2":1,'
        '"coeffs":[0.96891242171064473,0,0,0,0.17494101728127348,0.17494101728127348,0,0]},'
        '"vector":[0.044193570791679002,2.9558064292083208,2.2937426362500726]}\n'
    )
    assert run_cli(["rotate", "--axis=1e-200,1e-200,0", *rest]) == (0, expected, "")
    unit = json.loads(run_cli(["rotate", "--axis=1,1,0", *rest])[1])
    assert json.loads(expected)["vector"] == pytest.approx(unit["vector"], abs=1e-15)


def test_rotate_about_a_huge_axis_normalises_it():
    # the squares of these axes overflow; the second ended in DegenerateAxis
    # "axis (0, 1e+308, -1e+300) overflows when squared"
    rest = ["--angle=0.5", "--vector=1,2,3", "--kappa1=1", "--kappa2=1"]
    assert run_cli(["rotate", "--axis=1e300,0,0", *rest]) == run_cli(["rotate", "--axis=1,0,0", *rest])
    scaled = f"--axis=0,{math.ldexp(1e308, -600)!r},{math.ldexp(-1e300, -600)!r}"
    expected = (
        '{"rotor":{"kappa1":1,"kappa2":1,'
        '"coeffs":[0.96891242171064484,0,0,0,0,0.24740395925452288,-2.4740395925452289e-09,0]},'
        '"vector":[-0.56069404433372516,1.9999999988782677,3.1121732267236708]}\n'
    )
    assert run_cli(["rotate", "--axis=0,1e308,-1e300", *rest]) == (0, expected, "")
    assert run_cli(["rotate", scaled, *rest]) == (0, expected, "")


def test_region_svg_into_missing_directory_is_a_usage_error(tmp_path):
    target = tmp_path / "no-such-dir" / "x.svg"
    code, out, err = run_cli(["region", "--svg", str(target), "--kappa1", "1", "--kappa2", "1"])
    assert code == 2 and out == ""
    assert "--svg" in assert_one_json_error(err, "usage")["message"]
    assert not target.parent.exists()


def test_dumps_rejects_non_finite_floats():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFiniteResult):
            dumps({"x": [1.0, value]}, 17)


def test_reused_parser_keeps_no_state_between_calls():
    code, out, _ = run_cli(["graph", "--format", "dot"])
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run_cli(["graph"])
    assert code == 0 and out == (GOLDEN / "graph.json").read_text()

    table = ["conformal-table", "--kappa1", "1", "--kappa2", "-1"]
    code, out, _ = run_cli(table + ["--diff-paper"])
    assert code == 0 and "diff" in json.loads(out)
    code, out, _ = run_cli(table)
    assert code == 0 and "diff" not in json.loads(out)


def test_goldens_stay_byte_identical_in_interleaved_order():
    order = GOLDEN_CASES + GOLDEN_CASES[::2] + GOLDEN_CASES[::-1] + GOLDEN_CASES[1::2]
    for name, argv in order:
        assert run_cli(argv) == (0, (GOLDEN / name).read_text(), "")


def test_parser_is_built_once_across_calls(monkeypatch):
    # the option table is the parser: no argparse parser is built on any call
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["classify"], ["graph"], ["no-such-command"], ["distance", "--help"], ["--help"]):
        run_cli(argv)
    assert built == []


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("KINEMATICA_PRECISION", "5")
    code, out, _ = run_cli(
        ["distance", "--kappa1", "-1", "--kappa2", "1", "--w1", "0,0", "--w2", "0.5,0"]
    )
    assert out == '{"distance":0.54931}\n'


def test_each_call_reads_the_precision_of_its_environment(monkeypatch):
    # one process, consecutive calls: each answer has the width the variable
    # names at that call, and 17 where it is not an integer or is unset
    argv = ["distance", "--kappa1=-1", "--kappa2=1", "--w1=0,0", "--w2=0.5,0"]
    value = json.loads((GOLDEN / "distance_poincare.json").read_text())["distance"]
    for raw, width in (("17", 17), ("5", 5), ("17", 17), ("junk", 17), (None, 17),
                       ("5", 5), ("0", 1), ("99", 17)):
        if raw is None:
            monkeypatch.delenv("KINEMATICA_PRECISION")
        else:
            monkeypatch.setenv("KINEMATICA_PRECISION", raw)
        assert cli._precision() == width
        assert run_cli(argv) == (0, '{"distance":%.*g}\n' % (width, value), ""), raw


def test_the_precision_follows_each_way_of_changing_the_environment(monkeypatch):
    # os.environ item assignment, update and deletion, os.environb and
    # monkeypatch each reach the next call; monkeypatch's first delenv
    # restores the variable afterwards
    monkeypatch.delenv("KINEMATICA_PRECISION", raising=False)
    assert cli._precision() == 17
    os.environ["KINEMATICA_PRECISION"] = "4"
    assert cli._precision() == 4
    os.environ["KINEMATICA_PRECISION"] = "9"
    assert cli._precision() == 9
    del os.environ["KINEMATICA_PRECISION"]
    assert cli._precision() == 17
    monkeypatch.setenv("KINEMATICA_PRECISION", "3")
    assert cli._precision() == 3
    os.environ.update(KINEMATICA_PRECISION="12")
    assert cli._precision() == 12
    if os.supports_bytes_environ:  # os.environb shares os.environ's data
        os.environb[b"KINEMATICA_PRECISION"] = b"6"
        assert cli._precision() == 6
        os.environb[b"KINEMATICA_PRECISION"] = b"\xff"  # not UTF-8: not an int
        assert cli._precision() == 17
        os.environ["KINEMATICA_PRECISION"] = "12"
    assert os.environ.pop("KINEMATICA_PRECISION") == "12"
    assert cli._precision() == 17


def _int_width(raw: str) -> int:
    try:
        return max(1, min(17, int(raw)))
    except ValueError:
        return 17


@pytest.mark.parametrize("raw,width", [
    (" 5 ", 5), ("1_7", 17), ("٥", 5), ("+3", 3), ("-2", 1), ("", 17), ("0x5", 17),
    ("5.0", 17), ("\t8\n", 8),
])
def test_the_precision_is_the_clamped_int_of_the_value(raw, width, monkeypatch):
    # whatever int() accepts (spaces, underscores, other decimal digits, a
    # sign) gives its clamped value; anything else gives 17
    monkeypatch.setenv("KINEMATICA_PRECISION", raw)
    assert cli._precision() == _int_width(raw) == width


def test_dumps_round_trips_through_json():
    obj = {
        "name": 'quote"slash\\',
        "values": [1, -0.5, True, False, None],
        "control": "line\nbreak\ttab\x00\x1f\x7f é",
        "nested": {"x": 0.0},
    }
    text = dumps(obj, 17)
    assert json.loads(text) == obj
    assert '"x":0' in text  # -0.0 folded to 0
    assert "\n" not in text and "\t" not in text


# finite floats of every size, with the edges of the range drawn often
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
               1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3, 123456789.0]
FINITE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(EDGE_FLOATS))
EDGE_TEXT = ['"', "\\", '\\"', "\x00\x1f\x7f", "line\nbreak\ttab", "é ∞ 𝔤 \u2028", ""]
JSON_SCALARS = st.one_of(
    st.integers(),
    FINITE_FLOATS,
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(EDGE_TEXT),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.sampled_from(EDGE_TEXT)),
                        inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(JSON_VALUES, st.sampled_from([1, 5, 17]))
def test_dumps_writes_the_reference_bytes(obj, precision):
    assert dumps(obj, precision) == reference_dumps(obj, precision)


ERROR_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from([*EDGE_TEXT, "%", "%s", "%%", "%(x)s", "%.17g"]), max_size=6)
    .map("".join),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(["usage", "NonFiniteResult"]), ERROR_TEXT), ERROR_TEXT,
       st.sampled_from([1, 5, 17]))
def test_error_line_is_the_json_error_object(kind, message, precision):
    line = cli._error_line(kind, message)
    assert line == dumps({"error": kind, "message": message}, precision) + "\n"
    assert json.loads(line) == {"error": kind, "message": message}


@pytest.mark.parametrize("precision", [1, 5, 17])
@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), -float("inf"), object(), {1, 2}, 1j, Fraction(1, 3),
     np.bool_(True), b"bytes"],
    # a bare object's repr holds its address, which differs from run to run
    ids=lambda bad: "object()" if type(bad) is object else repr(bad),
)
def test_dumps_rejects_what_the_reference_rejects(bad, precision):
    for obj in (bad, [0, bad], {"x": (1.5, {"y": bad})}):
        with pytest.raises(Exception) as expected:
            reference_dumps(obj, precision)
        with pytest.raises(Exception) as caught:
            dumps(obj, precision)
        assert type(caught.value) is type(expected.value)
        assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize(
    "value",
    [gc(1.5, -2.0, 1.0), KappaPair(1.0, -1.0), Multivector.vector(KappaPair(1.0, 1.0), 1, 2, 3)],
    ids=lambda value: type(value).__name__,
)
def test_dumps_rejects_a_value_type_though_it_is_a_tuple(value):
    # the writer goes by exact type, so a named tuple is no array (the
    # reference writes any tuple as a list, so it cannot decide this case)
    for obj in (value, [0, value], {"x": (1.5, {"y": value})}):
        with pytest.raises(TypeError) as caught:
            dumps(obj, 17)
        assert str(caught.value) == f"cannot serialize {type(value)}"


JSON_SUBCOMMANDS = [
    ["classify"],
    ["contract", "--from", "M", "--type", "speed-time"],
    ["graph", "--format", "json"],
    ["exp", "--gen", "P", "--param", "0.4", "--kappa1", "0", "--kappa2", "-1"],
    ["project", "--kappa1", "1", "--kappa2", "1", "--point", "0.6,0.8,0"],
    ["unproject", "--kappa1", "-1", "--kappa2", "1", "--w", "0.1,0.2"],
    ["distance", "--kappa1", "0", "--kappa2", "1", "--w1", "1,1", "--w2", "4,5"],
    ["rotate", "--kappa1", "0", "--kappa2", "0", "--axis", "1,0,0",
     "--angle", "1.5", "--vector", "1,0,0"],
    ["spin", "--gen", "H", "--param", "0.3", "--kappa1", "1", "--kappa2", "0"],
    ["conformal-table", "--kappa1", "-1", "--kappa2", "0", "--diff-paper"],
]


# the commands whose every answer is text, not JSON (graph prints JSON or dot)
TEXT_ONLY_COMMANDS = {"region"}


@pytest.mark.parametrize("argv", JSON_SUBCOMMANDS, ids=lambda a: a[0])
def test_every_json_subcommand_parses(argv):
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    json.loads(out)


def test_json_and_text_commands_cover_every_command():
    json_commands = {argv[0] for argv in JSON_SUBCOMMANDS}
    assert json_commands.isdisjoint(TEXT_ONLY_COMMANDS)
    assert json_commands | TEXT_ONLY_COMMANDS == set(COMMANDS)


def test_only_text_outputs_are_returned_as_str(tmp_path):
    # main writes a str unchanged, so a JSON answer must never be one
    for argv in JSON_SUBCOMMANDS:
        assert type(COMMANDS[argv[0]].run(parse_args(argv))) is not str, argv
    for argv in (["graph", "--format", "dot"], ["region", "--kappa1", "1", "--kappa2", "1"],
                 ["region", "--svg", str(tmp_path / "r.svg"), "--kappa1", "1", "--kappa2", "1"]):
        assert type(COMMANDS[argv[0]].run(parse_args(argv))) is str, argv


@pytest.mark.parametrize("precision", [None, "5", "1"])
def test_input_free_answers_match_their_goldens_first_repeated_and_interleaved(
        precision, monkeypatch):
    # classify and graph hold no float, so every precision prints the goldens;
    # a fresh interpreter serves each of them first once, then from its kept text
    contract = ["contract", "--from", "dS", "--type", "speed-space"]
    distance = ["distance", "--kappa1", "-1", "--kappa2", "1", "--w1", "0,0", "--w2", "0.5,0"]
    sequence = [["classify"], ["graph"], ["classify"], distance, ["graph", "--format", "dot"],
                ["graph", "--format", "json"], contract, ["classify"], ["graph"]]
    if precision is None:
        monkeypatch.delenv("KINEMATICA_PRECISION", raising=False)
    else:
        monkeypatch.setenv("KINEMATICA_PRECISION", precision)
    goldens = {"classify": "classify.json", "graph": "graph.json"}
    expected = []
    for argv in sequence:
        if argv[0] in goldens and argv[-1] != "dot":
            expected.append((GOLDEN / goldens[argv[0]]).read_text())
        else:
            expected.append(run_cli(argv)[1])
    in_process = [run_cli(argv) for argv in sequence]
    assert in_process == [(0, out, "") for out in expected]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    fresh = subprocess.run(
        [sys.executable, "-c", "import json, sys; from kinematica.cli import main; "
                               "[main(argv) for argv in json.loads(sys.argv[1])]",
         json.dumps(sequence)],
        env=env, capture_output=True, text=True, timeout=60)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "".join(expected), "")


# the exact stdout of each JSON subcommand that has no file in golden/
PINNED_OUTPUTS = [
    (["exp", "--gen", "P", "--param", "0.4", "--kappa1", "0", "--kappa2", "-1"],
     '{"generator":"P","param":0.40000000000000002,'
     '"matrix":[[1,0,0],[0,1,0],[0.40000000000000002,0,1]]}\n'),
    (["project", "--kappa1", "1", "--kappa2", "1", "--point", "0.6,0.8,0"],
     '{"re":0.5,"im":0,"kappa":1}\n'),
    (["unproject", "--kappa1", "-1", "--kappa2", "1", "--w", "0.1,0.2"],
     '{"point":[1.1052631578947367,0.21052631578947367,0.42105263157894735]}\n'),
    (["rotate", "--kappa1", "0", "--kappa2", "0", "--axis", "1,0,0",
      "--angle", "1.5", "--vector", "1,0,0"],
     '{"rotor":{"kappa1":0,"kappa2":0,"coeffs":[1,0,0,0,0.75,0,0,0]},"vector":[1,0,0]}\n'),
    (["spin", "--gen", "H", "--param", "0.3", "--kappa1", "1", "--kappa2", "0"],
     '{"alpha":{"re":0.98877107793604224,"im":0,"kappa":0},'
     '"beta":{"re":0.14943813247359922,"im":0,"kappa":0},'
     '"so3":[[0.95533648912560598,-0.29552020666133955,0],'
     '[0.29552020666133955,0.95533648912560598,0],[0,0,1]]}\n'),
    (["conformal-table", "--kappa1", "1", "--kappa2", "-1", "--diff-paper"],
     '{"brackets":{"[H,P]":{"K":1},"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},'
     '"[H,D]":{"H":-1,"G1":-1},"[P,H]":{"K":-1},"[P,K]":{"H":-1},"[P,G1]":{"K":1},'
     '"[P,G2]":{"D":1},"[P,D]":{"P":-1,"G2":1},"[K,H]":{"P":1},"[K,P]":{"H":1},'
     '"[K,G1]":{"G2":-1},"[K,G2]":{"G1":-1},"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},'
     '"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},"[G2,H]":{"K":-1},"[G2,P]":{"D":-1},'
     '"[G2,K]":{"G1":1},"[G2,D]":{"G2":1},"[D,H]":{"H":1,"G1":1},"[D,P]":{"P":1,"G2":-1},'
     '"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}},'
     '"diff":[{"bracket":"[K,G1]","computed":{"G2":-1},"claimed":"S2 (undefined symbol)"},'
     '{"bracket":"[K,G2]","computed":{"G1":-1},"claimed":{"G2":-1}},'
     '{"bracket":"[G1,K]","computed":{"G2":1},"claimed":"S2 (undefined symbol)"},'
     '{"bracket":"[G2,K]","computed":{"G1":1},"claimed":{"G2":1}}]}\n'),
]


@pytest.mark.parametrize("argv,expected", PINNED_OUTPUTS, ids=[a[0] for a, _ in PINNED_OUTPUTS])
def test_json_subcommand_output_is_byte_identical(argv, expected):
    assert run_cli(argv) == (0, expected, "")


# the exact stdout of conformal-table at the nine sign patterns, at a generic
# pair and at (1e-13, 1e-13), where the ALGEBRA_TOL test hides the [K,G2] erratum:
# (kappa1, kappa2) -> (the brackets object, the --diff-paper list)
CONFORMAL_PINS = {
    ("1", "1"): (
        '{"[H,P]":{"K":1},"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},'
        '"[H,D]":{"H":-1,"G1":-1},"[P,H]":{"K":-1},"[P,K]":{"H":1},"[P,G1]":{"K":1},'
        '"[P,G2]":{"D":-1},"[P,D]":{"P":-1,"G2":1},"[K,H]":{"P":1},"[K,P]":{"H":-1},'
        '"[K,G1]":{"G2":-1},"[K,G2]":{"G1":1},"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},'
        '"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},"[G2,H]":{"K":-1},"[G2,P]":{"D":1},'
        '"[G2,K]":{"G1":-1},"[G2,D]":{"G2":1},"[D,H]":{"H":1,"G1":1},'
        '"[D,P]":{"P":1,"G2":-1},"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[K,G2]","computed":{"G1":1},'
        '"claimed":{"G2":1}},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G2,K]","computed":{"G1":-1},'
        '"claimed":{"G2":-1}}]'
    ),
    ("1", "0"): (
        '{"[H,P]":{"K":1},"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},'
        '"[H,D]":{"H":-1,"G1":-1},"[P,H]":{"K":-1},"[P,G1]":{"K":1},'
        '"[P,D]":{"P":-1,"G2":1},"[K,H]":{"P":1},"[K,G1]":{"G2":-1},'
        '"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},'
        '"[G2,H]":{"K":-1},"[G2,D]":{"G2":1},"[D,H]":{"H":1,"G1":1},'
        '"[D,P]":{"P":1,"G2":-1},"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"}]'
    ),
    ("1", "-1"): (
        '{"[H,P]":{"K":1},"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},'
        '"[H,D]":{"H":-1,"G1":-1},"[P,H]":{"K":-1},"[P,K]":{"H":-1},"[P,G1]":{"K":1},'
        '"[P,G2]":{"D":1},"[P,D]":{"P":-1,"G2":1},"[K,H]":{"P":1},"[K,P]":{"H":1},'
        '"[K,G1]":{"G2":-1},"[K,G2]":{"G1":-1},"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},'
        '"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},"[G2,H]":{"K":-1},"[G2,P]":{"D":-1},'
        '"[G2,K]":{"G1":1},"[G2,D]":{"G2":1},"[D,H]":{"H":1,"G1":1},'
        '"[D,P]":{"P":1,"G2":-1},"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[K,G2]","computed":{"G1":-1},'
        '"claimed":{"G2":-1}},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G2,K]","computed":{"G1":1},'
        '"claimed":{"G2":1}}]'
    ),
    ("0", "1"): (
        '{"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},"[H,D]":{"H":-1},'
        '"[P,K]":{"H":1},"[P,G1]":{"K":1},"[P,G2]":{"D":-1},"[P,D]":{"P":-1},'
        '"[K,H]":{"P":1},"[K,P]":{"H":-1},"[K,G1]":{"G2":-1},"[K,G2]":{"G1":1},'
        '"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},'
        '"[G2,H]":{"K":-1},"[G2,P]":{"D":1},"[G2,K]":{"G1":-1},"[G2,D]":{"G2":1},'
        '"[D,H]":{"H":1},"[D,P]":{"P":1},"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[K,G2]","computed":{"G1":1},'
        '"claimed":{"G2":1}},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G2,K]","computed":{"G1":-1},'
        '"claimed":{"G2":-1}}]'
    ),
    ("0", "0"): (
        '{"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},"[H,D]":{"H":-1},'
        '"[P,G1]":{"K":1},"[P,D]":{"P":-1},"[K,H]":{"P":1},"[K,G1]":{"G2":-1},'
        '"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},'
        '"[G2,H]":{"K":-1},"[G2,D]":{"G2":1},"[D,H]":{"H":1},"[D,P]":{"P":1},'
        '"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"}]'
    ),
    ("0", "-1"): (
        '{"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},"[H,D]":{"H":-1},'
        '"[P,K]":{"H":-1},"[P,G1]":{"K":1},"[P,G2]":{"D":1},"[P,D]":{"P":-1},'
        '"[K,H]":{"P":1},"[K,P]":{"H":1},"[K,G1]":{"G2":-1},"[K,G2]":{"G1":-1},'
        '"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},'
        '"[G2,H]":{"K":-1},"[G2,P]":{"D":-1},"[G2,K]":{"G1":1},"[G2,D]":{"G2":1},'
        '"[D,H]":{"H":1},"[D,P]":{"P":1},"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[K,G2]","computed":{"G1":-1},'
        '"claimed":{"G2":-1}},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G2,K]","computed":{"G1":1},'
        '"claimed":{"G2":1}}]'
    ),
    ("-1", "1"): (
        '{"[H,P]":{"K":-1},"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},'
        '"[H,D]":{"H":-1,"G1":1},"[P,H]":{"K":1},"[P,K]":{"H":1},"[P,G1]":{"K":1},'
        '"[P,G2]":{"D":-1},"[P,D]":{"P":-1,"G2":-1},"[K,H]":{"P":1},"[K,P]":{"H":-1},'
        '"[K,G1]":{"G2":-1},"[K,G2]":{"G1":1},"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},'
        '"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},"[G2,H]":{"K":-1},"[G2,P]":{"D":1},'
        '"[G2,K]":{"G1":-1},"[G2,D]":{"G2":1},"[D,H]":{"H":1,"G1":-1},'
        '"[D,P]":{"P":1,"G2":1},"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[K,G2]","computed":{"G1":1},'
        '"claimed":{"G2":1}},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G2,K]","computed":{"G1":-1},'
        '"claimed":{"G2":-1}}]'
    ),
    ("-1", "0"): (
        '{"[H,P]":{"K":-1},"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},'
        '"[H,D]":{"H":-1,"G1":1},"[P,H]":{"K":1},"[P,G1]":{"K":1},'
        '"[P,D]":{"P":-1,"G2":-1},"[K,H]":{"P":1},"[K,G1]":{"G2":-1},'
        '"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},'
        '"[G2,H]":{"K":-1},"[G2,D]":{"G2":1},"[D,H]":{"H":1,"G1":-1},'
        '"[D,P]":{"P":1,"G2":1},"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"}]'
    ),
    ("-1", "-1"): (
        '{"[H,P]":{"K":-1},"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},'
        '"[H,D]":{"H":-1,"G1":1},"[P,H]":{"K":1},"[P,K]":{"H":-1},"[P,G1]":{"K":1},'
        '"[P,G2]":{"D":1},"[P,D]":{"P":-1,"G2":-1},"[K,H]":{"P":1},"[K,P]":{"H":1},'
        '"[K,G1]":{"G2":-1},"[K,G2]":{"G1":-1},"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},'
        '"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},"[G2,H]":{"K":-1},"[G2,P]":{"D":-1},'
        '"[G2,K]":{"G1":1},"[G2,D]":{"G2":1},"[D,H]":{"H":1,"G1":-1},'
        '"[D,P]":{"P":1,"G2":1},"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[K,G2]","computed":{"G1":-1},'
        '"claimed":{"G2":-1}},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G2,K]","computed":{"G1":1},'
        '"claimed":{"G2":1}}]'
    ),
    ("1.3", "-0.8"): (
        '{"[H,P]":{"K":1.3},"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},'
        '"[H,D]":{"H":-1,"G1":-1.3},"[P,H]":{"K":-1.3},'
        '"[P,K]":{"H":-0.80000000000000004},"[P,G1]":{"K":1},'
        '"[P,G2]":{"D":0.80000000000000004},"[P,D]":{"P":-1,"G2":1.3},'
        '"[K,H]":{"P":1},"[K,P]":{"H":0.80000000000000004},"[K,G1]":{"G2":-1},'
        '"[K,G2]":{"G1":-0.80000000000000004},"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},'
        '"[G1,K]":{"G2":1},"[G1,D]":{"G1":1},"[G2,H]":{"K":-1},'
        '"[G2,P]":{"D":-0.80000000000000004},"[G2,K]":{"G1":0.80000000000000004},'
        '"[G2,D]":{"G2":1},"[D,H]":{"H":1,"G1":1.3},"[D,P]":{"P":1,"G2":-1.3},'
        '"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[K,G2]","computed":{"G1":-0.80000000000000004},'
        '"claimed":{"G2":-0.80000000000000004}},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G2,K]","computed":{"G1":0.80000000000000004},'
        '"claimed":{"G2":0.80000000000000004}}]'
    ),
    ("1e-13", "1e-13"): (
        '{"[H,P]":{"K":1e-13},"[H,K]":{"P":-1},"[H,G1]":{"D":1},"[H,G2]":{"K":1},'
        '"[H,D]":{"H":-1,"G1":-1e-13},"[P,H]":{"K":-1e-13},"[P,K]":{"H":1e-13},'
        '"[P,G1]":{"K":1},"[P,G2]":{"D":-1e-13},"[P,D]":{"P":-1,"G2":1e-13},'
        '"[K,H]":{"P":1},"[K,P]":{"H":-1e-13},"[K,G1]":{"G2":-1},'
        '"[K,G2]":{"G1":1e-13},"[G1,H]":{"D":-1},"[G1,P]":{"K":-1},"[G1,K]":{"G2":1},'
        '"[G1,D]":{"G1":1},"[G2,H]":{"K":-1},"[G2,P]":{"D":1e-13},'
        '"[G2,K]":{"G1":-1e-13},"[G2,D]":{"G2":1},"[D,H]":{"H":1,"G1":1e-13},'
        '"[D,P]":{"P":1,"G2":-1e-13},"[D,G1]":{"G1":-1},"[D,G2]":{"G2":-1}}',
        '[{"bracket":"[K,G1]","computed":{"G2":-1},'
        '"claimed":"S2 (undefined symbol)"},{"bracket":"[G1,K]","computed":{"G2":1},'
        '"claimed":"S2 (undefined symbol)"}]'
    ),
}


@pytest.mark.parametrize("labels", CONFORMAL_PINS, ids=",".join)
def test_conformal_table_output_is_byte_identical(labels):
    brackets, diff = CONFORMAL_PINS[labels]
    argv = ["conformal-table", "--kappa1", labels[0], "--kappa2", labels[1]]
    assert run_cli(argv) == (0, f'{{"brackets":{brackets}}}\n', "")
    expected = f'{{"brackets":{brackets},"diff":{diff}}}\n'
    assert run_cli([*argv, "--diff-paper"]) == (0, expected, "")


# -- the option table against the argparse parser it replaced -----------------

FINITE = st.one_of(
    st.floats(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-07, 1e-200, 1e300, -1e308]),
)
NUMBERS = st.one_of(
    FINITE.map(repr),
    st.sampled_from(["-.5", ".5", "-0", "2E+00", "-1e-3", "nan", "inf", "-inf", "a", ""]),
)
VALUES = st.one_of(
    NUMBERS,
    # pairs and triples, and lists of the wrong arity
    st.lists(NUMBERS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["H", "P", "K", "X", "json", "dot", "dS", "Nplus", "speed-space",
                     "speed-time", "no-such", "-", "1 2", "out.svg"]),
)
# stray positionals, unknown, ambiguous and bare option names, flags given a value
STRAYS = st.one_of(
    VALUES,
    st.sampled_from(["--foo", "--foo=1", "-x", "-h", "--help", "--he", "-hh", "-hx",
                     "--help=x", "--kappa", "--kappa=1", "--w", "--=x", "--diff-paper=1", "--",
                     "new\nline", "--foo=\t"]),
    st.sampled_from(sorted({o.name for command in COMMANDS.values() for o in command.options})),
)
# a value each option accepts (a name --from may still not know)
GOOD = {
    "--from": st.sampled_from(["dS", "adS", "M", "G", "Nplus", "N-", "no-such"]),
    "--svg": st.just("out.svg"),
    "--w": st.tuples(FINITE, FINITE),
    "--w1": st.tuples(FINITE, FINITE),
    "--w2": st.tuples(FINITE, FINITE),
    "--point": st.tuples(FINITE, FINITE, FINITE),
    "--axis": st.tuples(FINITE, FINITE, FINITE),
    "--vector": st.tuples(FINITE, FINITE, FINITE),
}


def good_value(option):
    if option.choices:
        return st.sampled_from(option.choices)
    strategy = GOOD.get(option.name, FINITE)
    return strategy.map(lambda v: ",".join(map(repr, v)) if isinstance(v, tuple)
                        else v if isinstance(v, str) else repr(v))


@st.composite
def argvs(draw, commands=(*COMMANDS, "no-such-command", "-1", "")):
    """A command line near the grammar: every subcommand (or one of ``commands``);
    each option missing, once or twice, by its full name or a prefix, spaced,
    after ``=`` or bare, with a value it takes or any other; stray tokens anywhere."""
    command = draw(st.sampled_from(commands))
    argv = [command]
    clean = draw(st.booleans())  # half are well formed, with values the options take
    for option in COMMANDS[command].options if command in COMMANDS else ():
        for _ in range(1 if clean else draw(st.sampled_from([1, 1, 1, 0, 2]))):
            name = option.name
            if not clean and draw(st.integers(0, 3)) == 0:  # "--" is the end-of-options marker
                name = name[:draw(st.integers(2, len(name) - 1))]
            forms = ["spaced", "joined"] + ["bare"] * (not clean)
            form = draw(st.sampled_from(forms))
            value = draw(good_value(option) if clean or draw(st.booleans()) else VALUES)
            if option.type is None:
                argv += [f"{name}={value}"] if form == "joined" and not clean else [name]
            elif form == "spaced":
                argv += [name, value]
            elif form == "joined" and value != "--":  # see test_explicit_double_dash_is_a_value
                argv.append(f"{name}={value}")
            else:
                argv.append(name)
    for stray in draw(st.lists(STRAYS, max_size=0 if clean else 2)):
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


def float_hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(float_hex, value))
    return value


def parse_outcome(parse, argv):
    """('ok', values with floats as hex), ('usage', message) or ('help', exit code, first words)."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            namespace = parse(list(argv))
    except UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:  # --help; only the layout of its text changed
        return "help", exc.code, out.getvalue().split()[:3]
    return "ok", {key: float_hex(value) for key, value in vars(namespace).items()}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argvs())
def test_option_table_parses_like_argparse(argv):
    assert parse_outcome(parse_args, argv) == parse_outcome(reference_parser().parse_args, argv)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["graph", "--format=--"],
         "kinematica graph: argument --format: invalid choice: '--' (choose from 'json', 'dot')"),
        (["distance", "--w1=--", "--w2=0,0", "--kappa1=1", "--kappa2=1"],
         "kinematica distance: argument --w1: expected 'u,v', got '--'"),
        (["exp", "--gen=H", "--param=--", "--kappa1=1", "--kappa2=1"],
         "kinematica exp: argument --param: invalid float value: '--'"),
    ],
)
def test_explicit_double_dash_is_a_value(argv, message):
    # argparse drops a "--" given after "=" and stores [], so these printed the
    # JSON graph or ended in a TypeError traceback; the table reads the value "--"
    with pytest.raises(UsageError) as caught:
        parse_args(argv)
    assert str(caught.value) == message
    assert parse_args(["region", "--svg=--", "--kappa1=1", "--kappa2=1"]).svg == "--"


def test_option_table_defaults_and_prefixes():
    assert vars(parse_args(["graph"])) == {"command": "graph", "format": "json"}
    assert vars(parse_args(["region", "--kappa1", "-1", "--kappa2=0"])) == {
        "command": "region", "svg": None, "kappa1": -1.0, "kappa2": 0.0}
    args = parse_args(["exp", "--par=1", "--ge", "K", "--kappa1=2", "--kappa1", "-.5",
                       "--kappa2", "-5e-07"])
    assert (args.gen, args.param, args.kappa1, args.kappa2) == ("K", 1.0, -0.5, -5e-07)
    args = parse_args(["conformal-table", "--diff", "--kappa1", "1", "--kappa2", "1"])
    assert args.diff is True


EXACT_EXP = ["exp", "--gen=H", "--param=1", "--kappa1=1", "--kappa2=1"]


# command lines that are all, or nearly all, in the exact --name=value form but
# that argparse reads with a precedence of errors a one-pass reader could miss
@pytest.mark.parametrize("argv", [
    ["exp", "--param=x", "--kappa", "1"],  # the ambiguous option before the bad value
    ["exp", "--param=x", "--param=1", "--gen=H", "--kappa1=1", "--kappa2=1"],  # each converts
    ["exp", "--gen=H", "--param=1", "--param=x", "--kappa1=1", "--kappa2=1"],
    ["exp", "--gen=X", "--param=1", "--kappa1=1"],  # the bad choice before the missing option
    ["exp", "--gen=H", "--param=1", "--kappa1="],
    ["exp", "--gen=H", "--param=1", "--kappa1=1"],
    EXACT_EXP + ["--foo=1"],
    EXACT_EXP + ["--", "--kappa2=2"],
    EXACT_EXP + ["--"],
    EXACT_EXP + ["-h"],
    EXACT_EXP + ["--help"],
    ["exp", "--gen=H", "--param=1", "--kappa1=1", "--kappa1=2", "--kappa2=1"],  # the last wins
    ["conformal-table", "--diff-paper=1", "--kappa1=1", "--kappa2=1"],
    ["conformal-table", "--diff-paper=", "--kappa1=1", "--kappa2=1"],
    ["conformal-table", "--diff-paper", "--diff-paper", "--kappa1=1", "--kappa2=1"],
    ["region", "--svg=", "--kappa1=1", "--kappa2=1"],
    ["region", "--svg=a=b", "--kappa1=1", "--kappa2=1"],
    ["graph", "--format=dot", "--format=json"],
    ["classify", "--format=json"],
    ["contract", "--from=M", "--type=speed-time", "--type=time"],
    # forms that are rewritten into the exact one before they are read
    ["exp", "--gen", "--param=1", "--kappa1=1", "--kappa2=1"],  # a bare option, then another
    ["region", "--svg", "--", "--kappa1=1", "--kappa2=1"],
    ["region", "--svg", "a=b", "--kappa1=1", "--kappa2=1"],  # a spaced value holding "="
    ["exp", "--param=x", "--help", "--gen=H", "--kappa1=1", "--kappa2=1"],  # the error before help
    ["exp", "--gen=H", "--help", "--k=1"],  # the ambiguous option before help
    ["exp", "--gen", "H", "--param", "-1", "--kappa1", "-.5", "--kappa2=1"],
    EXACT_EXP + ["-hh"],
    EXACT_EXP + ["-h=x"],
    EXACT_EXP + ["--he"],
    ["conformal-table", "--diff", "x", "--kappa1=1", "--kappa2=1"],  # a flag takes no value
    ["graph", "--format", "dot", "--", "--format=json"],
], ids=lambda argv: " ".join(argv))
def test_exact_form_keeps_the_error_precedence_of_argparse(argv):
    assert parse_outcome(parse_args, argv) == parse_outcome(reference_parser().parse_args, argv)


# command lines that argvs() seldom or never draws: no subcommand, a "--" before
# it, and an option-like token holding a space, which is a value, before and after it
@pytest.mark.parametrize("argv", [
    [],
    ["--"],
    ["--", "exp"],
    ["--", *EXACT_EXP],
    ["-x y", *EXACT_EXP],
    ["--foo bar", *EXACT_EXP],
    [EXACT_EXP[0], "-x y", *EXACT_EXP[1:]],
    [*EXACT_EXP, "--foo bar"],
], ids=lambda argv: " ".join(argv) or "(empty)")
def test_edge_command_lines_parse_like_argparse(argv):
    assert parse_outcome(parse_args, argv) == parse_outcome(reference_parser().parse_args, argv)


def test_exact_command_lines_are_read_in_one_pass(workloads, monkeypatch):
    # the general reader classifies every token; a request in the exact form
    # never reaches it, and any other form still does
    classified = []
    original = cli._classify

    def counting(token, options, prog):
        classified.append(token)
        return original(token, options, prog)

    monkeypatch.setattr(cli, "_classify", counting)
    commands = set()
    for name, stream in workloads.WORKLOADS.items():
        for request in itertools.islice(stream(7), 2000):
            parse_args(request.argv)
            commands.add(request.argv[0])
    parse_args(["conformal-table", "--diff-paper", "--kappa1=1", "--kappa2=-1"])
    assert classified == [] and commands == set(COMMANDS)
    for argv in (["exp", "--gen=H", "--par=1", "--kappa1=1", "--kappa2=1"],
                 ["exp", "--gen", "H", "--param=1", "--kappa1=1", "--kappa2=1"],
                 ["conformal-table", "--diff", "--kappa1=1", "--kappa2=-1"]):
        classified.clear()
        parse_args(argv)
        assert classified, argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argvs())
def test_a_command_line_that_parses_is_rewritten_into_the_exact_form(argv):
    # a rewritten command line is in the exact form, which parse_args reads
    # to the same namespace without classifying a token
    outcome = parse_outcome(parse_args, argv)
    if outcome[0] != "ok":
        return
    extras = []
    exact = cli._rewrite(argv[0], argv[1:], extras)
    assert extras == []
    options = cli._EXACT[argv[0]]
    for token in exact:
        name, eq, _ = token.partition("=")
        assert name in options and bool(eq) == (options[name].type is not None), token
    classified = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_classify", lambda *args: classified.append(args))
        assert parse_outcome(parse_args, [argv[0], *exact]) == outcome
    assert classified == []


def test_one_call_site_converts_an_option_value():
    # one reader converts the values of every form of the command line; a
    # second reader would call an option's converter again
    tree = ast.parse(Path(cli.__file__).read_text())
    bound = {  # names an option's converter is bound to
        target.id for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.NamedExpr)) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "type"
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    calls = [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr == "type"
            or isinstance(node.func, ast.Name) and node.func.id in bound)
    ]
    assert len(calls) == 1, calls


def reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_every_command_line_ends_in_an_answer_or_one_json_error(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # region --svg writes where it is told
    code, out, err = run_cli(argv)
    if code == 0:
        assert err == ""
        if out.startswith("<svg"):
            assert out.endswith("</svg>\n") and "inf" not in out and "nan" not in out
        elif not out.startswith(("digraph", "usage: kinematica")) and out:
            assert out.endswith("\n") and out.count("\n") == 1
            json.loads(out, parse_constant=reject_constant)
    else:
        assert code in (1, 2) and out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert "error" in json.loads(err)


# -- the templated answers against the library and the reference writer ------

SIGN_PATTERNS = [(k1, k2) for k1 in (1.0, 0.0, -1.0) for k2 in (1.0, 0.0, -1.0)]
TEMPLATED = ["exp", "project", "unproject", "distance", "rotate", "spin"]


def library_answer(args) -> dict:
    """The answer of a templated subcommand as a dict, built from the library calls;
    the spin element and the rotor of ``spin`` and ``rotate`` from the object
    composition kept in ``spin_reference``."""
    kp = KappaPair(args.kappa1, args.kappa2)
    if args.command == "exp":
        matrix = ckgeom.exp_generator(kp, args.gen, args.param)
        return {"generator": args.gen, "param": args.param, "matrix": matrix}
    if args.command == "project":
        w = ckgeom.project(kp, args.point)
        return {"re": w.re, "im": w.im, "kappa": w.kappa}
    if args.command == "unproject":
        return {"point": ckgeom.unproject(kp, gc(*args.w, kp.kappa2))}
    if args.command == "distance":
        return {"distance": ckgeom.distance(kp, gc(*args.w1, kp.kappa2), gc(*args.w2, kp.kappa2))}
    if args.command == "rotate":
        r = spin_reference.lift(spin_reference.spin_element(
            kp, *clifford.UnitAxis(*args.axis), args.angle))
        out = clifford.sandwich(r, Multivector.vector(kp, *args.vector))
        return {"rotor": {"kappa1": kp.kappa1, "kappa2": kp.kappa2, "coeffs": r.coeffs},
                "vector": out.vector_components()}
    s = spin_reference.generator_element(kp, args.gen, args.param)
    return {"alpha": {"re": s.alpha.re, "im": s.alpha.im, "kappa": s.alpha.kappa},
            "beta": {"re": s.beta.re, "im": s.beta.im, "kappa": s.beta.kappa},
            "so3": ckgeom.exp_generator(kp, args.gen, args.param)}


def reference_run(argv, precision):
    """(exit code, stdout, stderr) that the reference writers give for a command line."""
    args = parse_args(argv)
    try:
        if args.command == "region":
            return 0, writers_reference.region_svg(KappaPair(args.kappa1, args.kappa2)), ""
        if args.command == "conformal-table":
            answer = writers_reference.conformal_answer(KappaPair(args.kappa1, args.kappa2), args.diff)
        else:
            answer = library_answer(args)
        return 0, reference_dumps(answer, precision) + "\n", ""
    except KinematicaError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        return 1, "", reference_dumps(payload, precision) + "\n"


@st.composite
def templated_argvs(draw, command, labels):
    """A well-formed command line of ``command``; labels drawn when ``labels`` is None."""
    kappa1, kappa2 = labels or draw(st.tuples(FINITE, FINITE))
    argv = [command, "--kappa1", repr(kappa1), "--kappa2", repr(kappa2)]
    for option in COMMANDS[command].options:
        if option.name not in ("--kappa1", "--kappa2"):
            argv += [option.name, draw(good_value(option))]
    return argv


@pytest.mark.parametrize("labels", [*SIGN_PATTERNS, None],
                         ids=[*(f"{k1:g},{k2:g}" for k1, k2 in SIGN_PATTERNS), "drawn"])
@pytest.mark.parametrize("command", TEMPLATED)
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), precision=st.sampled_from([1, 5, 17]))
def test_templated_answers_write_the_reference_bytes(command, labels, data, precision,
                                                     monkeypatch):
    # stdout is the reference writer's text of the library's answer, and an
    # error is the reference's one-line payload, at every precision
    argv = data.draw(templated_argvs(command, labels))
    monkeypatch.setenv("KINEMATICA_PRECISION", str(precision))
    assert run_cli(argv) == reference_run(argv, precision)


# the edges of the float range, each with both signs
EXTREMES = (0.0, 5e-324, 1e-300, 1e300, sys.float_info.max)
EXTREME = st.one_of(st.sampled_from(EXTREMES + tuple(-x for x in EXTREMES)),
                    st.floats(-3, 3), st.floats(allow_nan=False, allow_infinity=False))
EXTREME_TRIPLE = st.tuples(EXTREME, EXTREME, EXTREME).map(lambda v: ",".join(map(repr, v)))


@st.composite
def rotor_argvs(draw):
    """An exact ``spin`` or ``rotate`` line: labels of one of the nine sign
    patterns or drawn, and every value drawn with the edges of the range."""
    command = draw(st.sampled_from(["spin", "rotate"]))
    kappa1, kappa2 = draw(st.one_of(st.sampled_from(SIGN_PATTERNS), st.tuples(EXTREME, EXTREME)))
    if command == "spin":
        argv = [command, f"--gen={draw(st.sampled_from('HPK'))}", f"--param={draw(EXTREME)!r}"]
    else:
        argv = [command, f"--axis={draw(EXTREME_TRIPLE)}", f"--angle={draw(EXTREME)!r}",
                f"--vector={draw(EXTREME_TRIPLE)}"]
    return [*argv, f"--kappa1={kappa1!r}", f"--kappa2={kappa2!r}"]


@pytest.mark.parametrize("precision", [17, 5])
@settings(max_examples=1500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=rotor_argvs())
def test_spin_and_rotate_write_the_object_reference_bytes(argv, precision, monkeypatch):
    # the answers filled from the four float parts are the bytes, or the
    # typed error, of the spin element and rotor built as objects
    monkeypatch.setenv("KINEMATICA_PRECISION", str(precision))
    assert run_cli(argv) == reference_run(argv, precision)


# -- spin prints exp's matrix --------------------------------------------------


def motion_text(result, key: str):
    """The text of an answer's ``key`` (``so3`` or ``matrix``, the last value),
    or (exit code, error kind) of a line that ends in an error."""
    code, out, err = result
    if code:
        return code, json.loads(err)["error"]
    return out[out.index(f'"{key}":') + len(key) + 3:-2]


def exp_line(argv):
    """The exp command line of a spin command line's generator, parameter and labels."""
    args = parse_args(argv)
    return ["exp", f"--gen={args.gen}", f"--param={args.param!r}",
            f"--kappa1={args.kappa1!r}", f"--kappa2={args.kappa2!r}"]


@pytest.mark.parametrize("precision", ["17", "5"])
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs(commands=("spin",)))
def test_spin_prints_the_matrix_exp_prints(argv, precision, monkeypatch):
    # one closed form per printed motion: spin's so3 is the text of exp's
    # matrix for the same generator, parameter and labels, or both lines end
    # in the same typed error
    if parse_outcome(parse_args, argv)[0] != "ok":
        return
    monkeypatch.setenv("KINEMATICA_PRECISION", precision)
    assert motion_text(run_cli(argv), "so3") == motion_text(run_cli(exp_line(argv)), "matrix")


@pytest.mark.parametrize("precision", ["17", "5"])
def test_spin_prints_the_matrix_exp_prints_on_the_replayed_streams(workloads, precision,
                                                                   monkeypatch):
    monkeypatch.setenv("KINEMATICA_PRECISION", precision)
    spins = 0
    for name in ("rotors-sweep", "nine-geometries"):
        for request in itertools.islice(workloads.WORKLOADS[name](7), 20000):
            if request.argv[0] == "spin":
                spins += 1
                assert (motion_text(run_cli(request.argv), "so3")
                        == motion_text(run_cli(exp_line(request.argv)), "matrix")), request.argv
    assert spins > 10000


def test_spin_answers_where_the_cover_of_its_element_fails():
    # exp(40 K) is a boost with cosh 40 = 1.2e17; the spin element's pseudo-norm
    # a0^2 - a1^2 cancels to 0, so its cover ends in NotSpin, and spin once did
    argv = ["spin", "--gen=K", "--param=40", "--kappa1=1", "--kappa2=-1"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert motion_text((code, out, err), "so3") == motion_text(run_cli(exp_line(argv)), "matrix")
    kp = KappaPair(1.0, -1.0)
    with pytest.raises(NotSpin):
        spin.cover_to_so3(spin.sl2_of_exp(kp, "K", 40.0))


@pytest.mark.parametrize("command", ["spin", "exp"])
@pytest.mark.parametrize("labels,product", [
    # the product 1e-400 flushes to 0, which printed the shear [[1,0,-0],[0,1,0],
    # [1e200,0,1]] where the angle is 1 rad (spin's cover once refused it with
    # NotSpin "unit condition violated by 0.25")
    (["--param=1e200", "--kappa1=1e-200", "--kappa2=1e-200"], "0.0"),
    # the product 4.09e-324 rounds to 5e-324, an angle of 3.03e7 rad for 2.76e7
    (["--param=1.3624198980624286e+169", "--kappa1=-2.7872957096014277e-267",
      "--kappa2=-1.4674241482648512e-57"], "5e-324"),
])
def test_a_p_label_below_the_normal_floats_ends_in_a_typed_error(command, labels, product):
    # spin prints exp's matrix, and exp refuses where the rounding of
    # kappa1*kappa2 would decide its answer, so neither prints a wrong motion
    message = f"P label kappa1*kappa2 rounds to {product}, below the normal floats"
    code, out, err = run_cli([command, "--gen=P", *labels])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "TrigOverflow", "message": message}


@pytest.mark.parametrize("command,key", [("spin", "so3"), ("exp", "matrix")])
def test_a_p_label_below_the_normal_floats_keeps_the_identity_at_zero(command, key):
    code, out, err = run_cli([command, "--gen=P", "--param=0", "--kappa1=1e-200",
                              "--kappa2=1e-200"])
    assert (code, err) == (0, "")
    assert motion_text((code, out, err), key) == "[[1,0,0],[0,1,0],[0,0,1]]"


# label magnitudes at the edges: the float range's ends, 1e+-300, and next to
# ALGEBRA_TOL, where conformal-table's [K,G2] diff record appears
MAGNITUDES = st.one_of(
    st.sampled_from([1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308,
                     math.nextafter(spin.ALGEBRA_TOL, 0.0), spin.ALGEBRA_TOL,
                     math.nextafter(spin.ALGEBRA_TOL, 1.0)]),
    st.floats(spin.ALGEBRA_TOL / 4, spin.ALGEBRA_TOL * 4),
    st.floats(min_value=5e-324, allow_infinity=False),
)


@st.composite
def pattern_labels(draw):
    """A label pair of one of the nine sign patterns; a zero label is 0.0 or -0.0."""
    signs = draw(st.sampled_from(SIGN_PATTERNS))
    return tuple(sign * draw(MAGNITUDES) if sign else draw(st.sampled_from([0.0, -0.0]))
                 for sign in signs)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(labels=pattern_labels())
# the two labels whose SVG ends in an infinite coordinate, and one pair per
# boundary shape (ellipse, lines, branches along t and along x, none)
@example(labels=(-1e308, -1e308))
@example(labels=(-5e-324, 1.0))
@example(labels=(-1.0, 1.0))
@example(labels=(-1.0, -0.0))
@example(labels=(-1.0, -1.0))
@example(labels=(1.0, -1.0))
@example(labels=(-0.0, 1.0))
def test_region_writes_the_reference_bytes(labels, monkeypatch):
    # the per-shape templates give the SVG the per-point writer gave, and end
    # in its error where a coordinate is not finite
    monkeypatch.delenv("KINEMATICA_PRECISION", raising=False)
    argv = ["region", "--kappa1", repr(labels[0]), "--kappa2", repr(labels[1])]
    assert run_cli(argv) == reference_run(argv, 17)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(labels=pattern_labels(), diff=st.booleans(), precision=st.sampled_from([1, 5, 17]))
def test_conformal_table_writes_the_reference_bytes(labels, diff, precision, monkeypatch):
    # the pattern templates give the bytes of the answer dict the library's
    # table gives, at every precision
    monkeypatch.setenv("KINEMATICA_PRECISION", str(precision))
    argv = ["conformal-table", "--kappa1", repr(labels[0]), "--kappa2", repr(labels[1]),
            *["--diff-paper"] * diff]
    assert run_cli(argv) == reference_run(argv, precision)


@pytest.mark.parametrize("precision", [1, 5, 17])
def test_a_negative_zero_slot_prints_zero(precision, monkeypatch):
    argv = ["exp", "--gen", "K", "--param", "-0.0", "--kappa1", "1", "--kappa2", "1"]
    values = COMMANDS["exp"].run(parse_args(argv)).values
    assert [math.copysign(1.0, x) for x in values].count(-1.0) == 2  # param and sin(-0.0)
    monkeypatch.setenv("KINEMATICA_PRECISION", str(precision))
    expected = '{"generator":"K","param":0,"matrix":[[1,0,0],[0,1,0],[0,0,1]]}\n'
    assert run_cli(argv) == reference_run(argv, precision) == (0, expected, "")


def filled_skeleton(skeleton, values):
    """The skeleton with its slots replaced by the values, in writing order."""
    values = iter(values)

    def fill(value):
        if value is SLOT:
            return next(values)
        if isinstance(value, dict):
            return {key: fill(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [fill(item) for item in value]
        return value

    return fill(skeleton)


# one command line per template: exp has one for each generator letter
TEMPLATE_ARGVS = [
    *(["exp", "--gen", gen, "--param", "0.4", "--kappa1", "1", "--kappa2", "-1"] for gen in "HPK"),
    *(argv for argv in JSON_SUBCOMMANDS if argv[0] in TEMPLATED and argv[0] != "exp"),
]


@pytest.mark.parametrize("argv", TEMPLATE_ARGVS, ids=lambda a: a[0] + "-" + a[2])
@pytest.mark.parametrize("precision", [1, 5, 17])
def test_the_first_non_finite_slot_raises_the_reference_error(argv, precision):
    template, values = COMMANDS[argv[0]].run(parse_args(argv))
    skeleton = template.skeleton()
    assert dumps(Filled(template, values), precision) == reference_dumps(
        filled_skeleton(skeleton, values), precision)
    for i in range(len(values)):  # -inf in each slot, and a nan after it
        bad = (*values[:i], -math.inf, *values[i + 1:-1], math.nan)[:len(values)]
        with pytest.raises(NonFiniteResult) as expected:
            reference_dumps(filled_skeleton(skeleton, bad), precision)
        with pytest.raises(NonFiniteResult) as caught:
            dumps(Filled(template, bad), precision)
        assert str(caught.value) == str(expected.value) == "result -inf is not finite"


@pytest.mark.parametrize("values", [(1.7e308, 1.7e308), (-math.inf, math.inf),
                                    (math.nan, -math.inf), (1.7e308, 1.7e308, math.nan),
                                    (-0.0, 1.7e308, 1.7e308)])
@pytest.mark.parametrize("precision", [1, 5, 17])
def test_the_slot_sum_check_prints_an_overflowing_sum_and_names_the_first_bad_value(
        values, precision):
    # finite slots whose sum overflows still print and -0.0 prints as 0;
    # where a slot is not finite, the error names the first such slot, as the
    # reference does, with the noun fill is given
    skeleton = [SLOT] * len(values)
    text = "[" + ",".join([f"%.{precision}g"] * len(values)) + "]"
    try:
        expected = reference_dumps(list(values), precision)
    except NonFiniteResult as exc:
        with pytest.raises(NonFiniteResult) as caught:
            dumps(Filled(Template(lambda: skeleton), values), precision)
        assert str(caught.value) == str(exc)
        with pytest.raises(NonFiniteResult) as caught:
            fill(text, values, "SVG coordinate")
        assert str(caught.value) == str(exc).replace("result", "SVG coordinate")
    else:
        assert dumps(Filled(Template(lambda: skeleton), values), precision) == expected
        assert fill(text, values, "SVG coordinate") == expected


@pytest.mark.parametrize("precision", [1, 5, 17])
def test_a_percent_sign_in_a_skeleton_string_is_written_unchanged(precision):
    skeleton = {"100%": SLOT, "%s%%d": [SLOT, "%.17g", "%", {"%(x)s": SLOT}], "%": "50%"}
    values = (0.1, -0.0, 12.5)
    template = Template(lambda: skeleton)
    for _ in range(2):  # written once, then served from the kept text
        assert dumps(Filled(template, values), precision) == reference_dumps(
            filled_skeleton(skeleton, values), precision)
    assert dumps(Filled(Template(lambda: ["%%", "%d"])), precision) == '["%%","%d"]'


@pytest.mark.parametrize("filled,golden", [(cli._CLASSIFY, "classify.json"),
                                           (cli._GRAPH, "graph.json"),
                                           (Filled(Template(lambda: ["100%", "%%d"])), None)])
def test_input_free_answers_are_kept_as_finished_text(filled, golden):
    # a template without a slot keeps the text it writes, unescaped, and a
    # request returns that text without formatting it
    first = dumps(filled, 17)
    expected = (GOLDEN / golden).read_text() if golden else '["100%","%%d"]\n'
    assert first + "\n" == expected
    assert dumps(filled, 17) is first is filled.template.texts[17]


def test_entry_point_runs_as_a_module():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "kinematica.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    golden = run("distance", "--kappa1", "-1", "--kappa2", "1", "--w1", "0,0", "--w2", "0.5,0")
    assert golden.returncode == 0 and golden.stderr == ""
    assert golden.stdout == (GOLDEN / "distance_poincare.json").read_text()
    missing = run("distance", "--kappa1", "-1", "--w1", "0,0", "--w2", "0.5,0")
    assert missing.returncode == 2 and missing.stdout == ""
    assert "--kappa2" in assert_one_json_error(missing.stderr, "usage")["message"]
    shown = run("distance", "--help")
    assert shown.returncode == 0 and shown.stderr == ""
    assert shown.stdout.startswith("usage: kinematica distance")
    # the package does not import argparse
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, kinematica.cli as c; c.main(['graph']); "
                               "print('argparse' in sys.modules, file=sys.stderr)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert probe.stderr == "False\n"


def python_after_the_cli(lines: list[str]) -> subprocess.CompletedProcess:
    """Run ``lines`` in a fresh interpreter that has imported only sys and the CLI."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    script = "\n".join(["import sys", "from kinematica.cli import dumps, main", *lines])
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


def test_the_command_line_imports_no_numpy():
    # numpy is a dependency of the tests, demos and oracles only
    argv, expected = PINNED_OUTPUTS[0]
    done = python_after_the_cli([
        "print('numpy' in sys.modules)",
        f"main({argv!r})",
        "print('numpy' in sys.modules)",
    ])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False\n" + expected + "False\n"


def test_dumps_rejects_numpy_scalars_loaded_after_the_cli():
    # dumps writes JSON's own types only: a numpy scalar is a type it has no
    # writer for, whether or not numpy is loaded
    done = python_after_the_cli([
        "import numpy as np",
        "for value in (np.float64(0.5), np.int64(-3), np.float64('nan')):",
        "    try:",
        "        dumps(value, 17)",
        "    except TypeError as exc:",
        "        print(exc)",
        "print(dumps([0.5, -3], 17))",
    ])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "cannot serialize <class 'numpy.float64'>\n"
        "cannot serialize <class 'numpy.int64'>\n"
        "cannot serialize <class 'numpy.float64'>\n"
        "[0.5,-3]\n"
    )


LAYERS = ("gentrig", "gencomplex", "ckgeom", "spin", "clifford", "kinclass", "conformal")
GEOMETRY = {"gentrig", "gencomplex", "ckgeom"}
# one valid command line per subcommand, and the layers that answering it runs
KAPPAS = ["--kappa1", "1", "--kappa2", "-1"]
LOAD_MAP = [
    (["classify"], {"kinclass"}),
    (["contract", "--from", "dS", "--type", "speed-space"], {"kinclass"}),
    (["graph"], {"kinclass"}),
    (["exp", "--gen", "P", "--param", "0.4", *KAPPAS], {"gentrig", "ckgeom"}),
    (["project", "--point", "0.6,0.8,0", *KAPPAS], {"gencomplex", "ckgeom"}),
    (["unproject", "--w", "0.1,0.2", *KAPPAS], {"gencomplex", "ckgeom"}),
    (["distance", "--w1", "0,0", "--w2", "0.5,0", *KAPPAS], GEOMETRY),
    (["region", *KAPPAS], {"ckgeom"}),
    (["rotate", "--axis", "1,0,0", "--angle", "1.5", "--vector", "1,0,0", *KAPPAS],
     {"gentrig", "ckgeom", "spin"}),
    (["spin", "--gen", "H", "--param", "0.3", *KAPPAS], {"gentrig", "ckgeom", "spin"}),
    (["conformal-table", "--diff-paper", *KAPPAS], {"gencomplex", "ckgeom", "spin", "conformal"}),
    (["--help"], set()),
    (["distance", "--kappa1", "nan"], set()),  # rejected before any layer is used
]


def test_the_load_map_covers_every_subcommand():
    assert {argv[0] for argv, _ in LOAD_MAP} >= set(COMMANDS)


@pytest.mark.parametrize("argv,expected", LOAD_MAP, ids=[argv[0] for argv, _ in LOAD_MAP])
def test_a_command_line_runs_only_the_layers_it_uses(argv, expected):
    # every layer is registered at import, which is what the benchmark's
    # tracer reads, but a layer's body runs only when a request first uses it
    done = python_after_the_cli([
        "import types",
        f"code = main({argv!r})",
        "report = {",
        "    'code': code,",
        f"    'registered': [m for m in {LAYERS!r} if 'kinematica.' + m in sys.modules],",
        f"    'ran': [m for m in {LAYERS!r}",
        "            if type(sys.modules['kinematica.' + m]) is types.ModuleType],",
        "    'fractions': 'fractions' in sys.modules,",
        "    'dataclasses': 'dataclasses' in sys.modules,",
        "    'inspect': 'inspect' in sys.modules,",
        "}",
        "print(repr(report), file=sys.stderr)",
    ])
    report = ast.literal_eval(done.stderr.splitlines()[-1])
    assert report["code"] == (2 if argv[-1] == "nan" else 0)
    assert report["registered"] == list(LAYERS)
    assert set(report["ran"]) == expected
    # no command line computes on exact rationals, and the value types are
    # named tuples, so none loads dataclasses or the inspect it imports
    assert report["fractions"] is False
    assert report["dataclasses"] is False
    assert report["inspect"] is False


def test_contract_type_choices_are_the_contraction_kinds():
    from kinematica import kinclass

    kind = next(o for o in COMMANDS["contract"].options if o.dest == "kind")
    assert kind.choices == tuple(sorted(kinclass.CONTRACTION_EXPONENTS))
