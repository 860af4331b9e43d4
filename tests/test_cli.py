import argparse
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cli_reference import build_parser as reference_parser
from kinematica import conformal
from kinematica.cli import COMMANDS, UsageError, dumps, main, parse_args
from kinematica.errors import NonFiniteResult

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
    calls = []
    original = conformal.computed_brackets

    def counting(kp):
        calls.append(kp)
        return original(kp)

    monkeypatch.setattr(conformal, "computed_brackets", counting)
    code, _, _ = run_cli(
        ["conformal-table", "--kappa1", "1", "--kappa2", "-1", "--diff-paper"]
    )
    assert code == 0 and len(calls) == 1


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
    assert_one_json_error(err, "usage")
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
        # its pseudo-norm check reads a nan pseudo-norm
        (["rotate", "--axis=2,0,0", "--angle=1e300", "--vector=-1e300,-1e300,0.3",
          "--kappa1=1e-200", "--kappa2=0"], "NotUnitRotor"),
        # numpy warns of the nan product before the grade check rejects it
        (["rotate", "--axis", "0.3,-1.2,-1.2", "--angle", "1.2", "--vector",
          "1e308,-1e308,1e308", "--kappa1", "-1", "--kappa2", "-1"], "GradeError"),
    ],
    ids=["nan-result", "nan-pseudo-norm", "numpy-warning"],
)
def test_non_finite_rotate_ends_in_one_typed_error(argv, kind):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert_one_json_error(err, kind)
    assert [str(w.message) for w in caught] == []


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
        # a zero axis, and one whose squares overflow
        (["rotate", "--axis=0,0,0", "--angle=0.5", "--vector=1,0.5,-0.3",
          "--kappa1=0.5", "--kappa2=-1"], 1, "DegenerateAxis"),
        (["rotate", "--axis=0,1e308,-1e300", "--angle=-1e300", "--vector=1,-0.3,-0.3",
          "--kappa1=0", "--kappa2=2"], 1, "DegenerateAxis"),
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
        "zero-axis", "overflowing-axis", "spin-cosh-overflow", "exp-cos-of-inf",
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
    # = -3.16210853140695136e150 (was NotSpin, "unit condition violated by 2.5")
    (["spin", "--gen=H", "--param=1e151", "--kappa1=1e-301", "--kappa2=1"],
     '{"alpha":{"re":0.010342318905209449,"im":0,"kappa":1},'
     '"beta":{"re":-3.1621085314069512e+150,"im":0,"kappa":1},'
     '"so3":[[-0.99978607287932564,6.5407069689388393e-153,0],'
     '[-6.5407069689388393e+148,-0.99978607287932564,0],[0,0,0.99999999999999967]]}\n'),
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
     '"so3":[[0.95533648912560587,-0.29552020666133955,0],'
     '[0.29552020666133955,0.95533648912560587,0],[0,0,0.99999999999999989]]}\n'),
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
# pair and at (1e-13, 1e-13), where the TOL test hides the [K,G2] erratum:
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
def argvs(draw):
    """A command line near the grammar: every subcommand; each option missing,
    once or twice, by its full name or a prefix, spaced, after ``=`` or bare,
    with a value it takes or any other; stray tokens anywhere."""
    command = draw(st.sampled_from([*COMMANDS, "no-such-command", "-1", ""]))
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
