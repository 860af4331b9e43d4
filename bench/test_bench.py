"""Tests of the benchmark itself: generator, oracle, tracer and runner.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def take(workload: str, seed: int, n: int):
    return list(itertools.islice(workloads.WORKLOADS[workload](seed), n))


@pytest.fixture(scope="module")
def checker():
    return oracle.Oracle(ROOT)


@pytest.fixture(scope="module")
def cli_main():
    from kinematica.cli import main

    return main


# -- generator ----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv_list(workload):
    first = [r.argv for r in take(workload, 7, 400)]
    assert first == [r.argv for r in take(workload, 7, 400)]
    assert first != [r.argv for r in take(workload, 8, 400)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_option_carries_its_value(workload):
    for request in take(workload, 3, 400):
        for token in request.argv[1:]:
            assert token.startswith("--")
            assert "=" in token or token == "--diff-paper"


def test_geometry_sweep_hits_every_domain_error(checker):
    outcomes = Counter(checker.expected_error(r.spec) for r in take("geometry-sweep", 1, 2000))
    for error in ("ProjectionPole", "OutsideModel", "DenominatorNotInvertible",
                  "NullOrImaginarySeparation", "DomainError"):
        assert outcomes[error] > 20, outcomes
    labels = [r.spec[k] for r in take("geometry-sweep", 1, 2000) for k in ("k1", "k2")]
    assert 0.10 < labels.count(0.0) / len(labels) < 0.25
    assert 0.05 < sum(0.0 < abs(k) < 1e-5 for k in labels) / len(labels) < 0.15


def test_rotors_sweep_never_repeats_a_label_pair():
    pairs = [(r.spec["k1"], r.spec["k2"]) for r in take("rotors-sweep", 5, 2000)]
    assert len(set(pairs)) == len(pairs)


def test_nine_geometries_covers_every_subcommand_and_sign_pattern():
    requests = take("nine-geometries", 2, 3000)
    assert {r.argv[0] for r in requests} == {
        "classify", "contract", "graph", "conformal-table", "region", "rotate", "spin",
        "exp", "distance",
    }
    assert {(r.spec["k1"], r.spec["k2"]) for r in requests if "k1" in r.spec} == set(
        workloads.NINE_PAIRS)


# -- oracle -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_oracle_accepts_every_answer_of_the_package(workload, cli_main):
    bench_run = run.Run(cli_main, oracle.Oracle(ROOT))
    for request in take(workload, 11, 150):
        bench_run.record(request.spec, *bench_run.call(request.argv)[:3])
    assert bench_run.failed == 0, bench_run.reasons
    bench_run.replay_goldens()
    assert bench_run.failed == 0, bench_run.reasons


def test_a_golden_without_an_argv_fails_the_run(tmp_path, cli_main):
    golden = tmp_path / "tests" / "golden"
    golden.mkdir(parents=True)
    for path in (ROOT / "tests" / "golden").iterdir():
        (golden / path.name).write_text(path.read_text())
    (golden / "new_case.json").write_text("{}\n")
    bench_run = run.Run(cli_main, oracle.Oracle(tmp_path))
    bench_run.replay_goldens()
    assert bench_run.failed == 1
    assert list(bench_run.reasons) == ["golden new_case.json has no argv in GOLDEN_CASES"]


def _distance_spec():
    return {"cmd": "distance", "k1": 0.5, "k2": 1.0, "w1": (0.1, 0.2), "w2": (-0.3, 0.1),
            "swapped": False}


def test_oracle_flags_a_wrong_value(checker):
    spec = _distance_spec()
    value = oracle.distance_outcome(0.5, 1.0, spec["w1"], spec["w2"])[1]
    assert checker.check(spec, 0, json.dumps({"distance": value}) + "\n", "") is None
    assert "distance" in checker.check(spec, 0, json.dumps({"distance": value * 1.001}) + "\n", "")


def test_oracle_flags_a_nan_token(checker):
    spec = {"cmd": "exp", "k1": 1.0, "k2": 1.0, "gen": "H", "param": 0.5}
    out = '{"generator":"H","param":0.5,"matrix":[[nan,0,0],[0,1,0],[0,0,1]]}\n'
    assert "JSON" in checker.check(spec, 0, out, "")
    assert "non-finite" in checker.check(spec, 0, out.replace("nan", "1e999"), "")
    assert "malformed" in checker.check(spec, 0, '[1, 2]\n', "")


def test_oracle_flags_a_wrong_error_class(checker):
    spec = {"cmd": "unproject", "k1": -1.0, "k2": 1.0, "w": (1.0, 0.0)}
    assert checker.expected_error(spec) == "OutsideModel"
    good = '{"error":"OutsideModel","message":"m"}\n'
    assert checker.check(spec, 1, "", good) is None
    assert checker.check(spec, 1, "", good.replace("OutsideModel", "ProjectionPole"))
    assert checker.check(spec, 2, "", good)
    assert checker.check(spec, 0, '{"point":[0,0,0]}\n', "")


def test_oracle_flags_an_escaped_exception(checker):
    def broken(argv):
        raise ValueError("boom")

    bench_run = run.Run(broken, checker)
    code, out, err, _ = bench_run.call(["exp"])
    assert isinstance(code, ValueError)
    assert not bench_run.record({"cmd": "exp"}, code, out, err)
    assert bench_run.failed == 1
    assert "exception escaped" in next(iter(bench_run.reasons))


def test_oracle_checks_distance_symmetry(checker):
    forward = _distance_spec()
    value = oracle.distance_outcome(0.5, 1.0, forward["w1"], forward["w2"])[1]
    swapped = dict(forward, w1=forward["w2"], w2=forward["w1"], swapped=True)
    assert checker.check(forward, 0, json.dumps({"distance": value}) + "\n", "") is None
    answer = json.dumps({"distance": value + 1e-3}) + "\n"
    assert "distance" in checker.check(swapped, 0, answer, "")


# -- tracer -------------------------------------------------------------------


def test_self_time_arithmetic_on_a_nested_span_tree():
    spans = [
        (0, "request", "request", 0, 100, -1),
        (0, "cli", "main", 5, 95, 0),
        (0, "cli.parse", "build_parser", 10, 40, 1),
        (0, "ckgeom", "distance", 50, 80, 1),
        (0, "gentrig", "atank", 60, 70, 3),
        (1, "request", "request", 200, 210, -1),
        (1, "cli", "main", 201, 209, 5),
    ]
    own = tracing.self_times(spans)
    assert own == {"request": 12, "cli": 38, "cli.parse": 30, "ckgeom": 20, "gentrig": 10}
    assert sum(own.values()) == 110  # the two request spans


def test_tracer_tolerates_a_missing_name(monkeypatch):
    layer = types.ModuleType("kinematica.bench_fake_layer")

    def helper(x):
        return x + 1

    helper.__module__ = layer.__name__
    layer.helper = helper
    monkeypatch.setitem(sys.modules, layer.__name__, layer)
    # no cosk, computed_brackets, cover_to_so3 or product_table anywhere, and
    # no gentrig thresholds to read
    parse_args = argparse.ArgumentParser.parse_args
    tracer = tracing.Tracer({"gentrig": layer})
    tracer.install()
    try:
        assert tracer.run_request(layer.helper, 1) == 2
    finally:
        tracer.uninstall()
    assert layer.helper is helper
    assert argparse.ArgumentParser.parse_args is parse_args
    metrics = run.summarize(tracer, Counter(), 1.0, 0.0)
    # only the gentrig layer and parse_args were found: everything measured
    # through another module or a named callable is missing, not 0
    assert set(metrics) & set(run.PER_LAYER) == {
        "cli.parse_us_per_req", "gentrig.calls_per_req", "gentrig.self_us_per_req",
        "trace.request_us_per_req", "trace.unattributed_us_per_req", "trace.overhead_frac"}
    assert metrics["gentrig.calls_per_req"] == (1.0, 1)
    assert "clifford.table_entries" not in metrics


def test_tracer_attributes_a_real_request_and_restores_the_package(cli_main):
    import kinematica.ckgeom as ckgeom
    from kinematica import cli

    original = ckgeom.distance
    modules = {name: sys.modules[f"kinematica.{name}"] for name in tracing.LAYERS}
    tracer = tracing.Tracer(modules)
    argv = ["distance", "--w1=0.1,0.2", "--w2=-0.3,0.1", "--kappa1=-0.5", "--kappa2=1.0"]
    tracer.install()
    try:
        bench_run = run.Run(cli.main, oracle.Oracle(ROOT))
        code, out, err, _ = bench_run.call(argv, lambda a: tracer.run_request(cli.main, a))
    finally:
        tracer.uninstall()
    assert code == 0 and json.loads(out)["distance"] > 0
    assert ckgeom.distance is original and cli.ckgeom.distance is original
    assert tracer.calls["ckgeom"] == 1 and tracer.branches == {"hyperbolic": 1}
    layers = {span[tracing.LAYER] for span in tracer.spans}
    assert {"request", "cli", "cli.parse", "cli.emit", "ckgeom", "gencomplex", "gentrig"} <= layers
    own = tracing.self_times(tracer.spans)
    request = tracer.spans[0]
    assert sum(own.values()) == request[tracing.END] - request[tracing.START]
    assert all(v >= 0 for v in own.values())
    metrics = run.summarize(tracer, Counter({"distance": 1}), 1.0, 0.0)
    assert set(run.PER_LAYER) - set(metrics) == {
        "setup.interpreter_ms", "setup.import_numpy_ms", "setup.import_kinematica_ms",
        "defects.untyped_answers"}
    assert metrics["spin.cover_us_per_req"][0] == 0.0  # found, but not called


# -- runner -------------------------------------------------------------------


def _null_run():
    checker = types.SimpleNamespace(check=lambda *answer: None)
    stream = itertools.repeat(workloads.Request(["noop"], {"cmd": "noop"}))
    return run.Run(lambda argv: 0, checker), stream


def test_peak_memory_is_read_at_a_fixed_request_count(monkeypatch):
    monkeypatch.setattr(run, "PEAK_REQUESTS", 10)
    readings = itertools.count(1)
    monkeypatch.setattr(run, "max_rss_kb", lambda: next(readings))
    # a loop that runs past the count reads memory once, when it gets there
    fast, stream = _null_run()
    samples = fast.serve(stream, 0.01)
    assert len(samples) > 10
    assert fast.peak_rss_kb(stream, len(samples)) == 1
    assert fast.attempted == len(samples)
    # a loop that stopped after 4 requests is topped up with 6, then read
    slow, stream = _null_run()
    assert slow.peak_rss_kb(stream, 4) == 2
    assert slow.attempted == 6


def test_import_times_counts_top_level_imports_only():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       409 |        409 |       numpy.lib._scimath_impl\n"
        "import time:      2363 |     115557 | numpy\n"
        "import time:      1065 |      43371 |   kinematica\n"
        "import time:      4817 |      55915 | kinematica.cli\n"
    )
    assert run.import_times(stderr) == (115.557, 55.915)


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
