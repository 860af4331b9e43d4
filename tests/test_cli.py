import argparse
import io
import json
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kinematica import conformal
from kinematica.cli import build_parser, dumps, main
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


def test_help_prints_usage_and_exits_zero():
    code, out, err = run_cli(["distance", "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: kinematica distance")


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
def test_conformal_table_with_overflowing_labels_fails_typed(extra):
    # kappa1 * kappa2 overflows, so some commutator holds nan or inf
    code, out, err = run_cli(
        ["conformal-table", "--kappa1", "1e200", "--kappa2", "1e200", *extra]
    )
    assert code == 1 and out == ""
    assert_one_json_error(err, "DecompositionFailure")


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
        (["unproject", "--w=1e200,0", "--kappa1=0", "--kappa2=1"], 1, "NonFiniteResult"),
        (["distance", "--w1=1e200,0", "--w2=0,0", "--kappa1=0", "--kappa2=1"],
         1, "NonFiniteResult"),
    ],
    ids=[
        "exp-nan", "unproject-inf", "distance-nan-label", "rotate-inf-vector",
        "zero-axis", "overflowing-axis", "spin-cosh-overflow", "exp-cos-of-inf",
        "unproject-nan-result", "distance-inf-result",
    ],
)
def test_non_finite_input_and_output_end_in_one_json_line(argv, code, kind):
    got, out, err = run_cli(argv)
    assert got == code and out == ""
    assert_one_json_error(err, kind)


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
    run_cli(["classify"])  # the first call in the process builds the parser
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["classify"], ["graph"], ["no-such-command"], ["distance", "--help"]):
        run_cli(argv)
    assert built == []
    assert build_parser() is build_parser()


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
        "nested": {"x": 0.0},
    }
    text = dumps(obj, 17)
    assert json.loads(text) == obj
    assert '"x":0' in text  # -0.0 folded to 0


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


@pytest.mark.parametrize("argv", JSON_SUBCOMMANDS, ids=lambda a: a[0])
def test_every_json_subcommand_parses(argv):
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    json.loads(out)
