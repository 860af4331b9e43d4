"""Request-stream benchmark over the kinematica JSON command line.

    python3 bench/run.py --workload geometry-sweep --seed 1 --seconds 15 --trace 0

One client sends seeded requests through ``kinematica.cli.main`` in this
process, in a closed loop: each request goes out only after the previous one
has answered.  Every answer is checked by the oracle (bench/oracle.py), and
the golden files under tests/golden are replayed byte for byte.  Set-up time
is measured by spawning fresh interpreters on the workload's first request.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs half the time untraced and half traced (bench/tracing.py) and reports
the per-layer breakdown.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WARMUP_REQUESTS = 100
# Request times are the process's CPU time, which on a paravirtualised
# kernel leaves out the time the host ran something else on this CPU
# ("steal"); such stalls of up to 30 ms otherwise set latency_p99_us.  The
# process is single-threaded, pinned to one CPU, and its requests never wait
# on I/O, so nothing else separates CPU time from wall time.
#
# A shared virtual CPU also drifts in speed by 1.8x to 3x for seconds to
# minutes at a time (on a 2-vCPU VM the same request took 1.45 ms and
# 2.35 ms).  A fixed standard-library snippet (calibration()) is timed between
# chunks of CHUNK requests, outside the requests' own time, and every timing
# is scaled to the speed at which the snippet takes CAL_REF seconds.  Spawned
# interpreters are scaled the same way by a bare interpreter start (`python
# -c pass`) spawned just before each one, to the speed at which that takes
# BARE_REF seconds.  Raw wall times are printed next to the scaled ones.
CHUNK = 5
CAL_REF = 370e-6
BARE_REF = 0.05
# the loop measures --seconds of scaled time, so on a slow CPU it runs longer,
# up to WALL_CAP times --seconds of wall time; the cap keeps a run of every
# workload within a minute even when the CPU stays slow
WALL_CAP = 2.0
SETUP_SPAWNS = 9  # timed spawns per measurement, after one untimed warm spawn
TAIL_BLOCKS = 5  # latency_p99_us is the median over this many blocks of requests
SPAWN_TIMEOUT = 60.0
# peak_rss_mb is read when the timed loop has answered this many requests, so
# that it counts the same work (on rotors-sweep, the same number of
# product_table entries) however fast the requests run; a loop that stops
# short is topped up with untimed requests first
PEAK_REQUESTS = 5000
# the console-script entry point, spelled out so no installation is needed
ENTRY = "import sys; from kinematica.cli import main; sys.exit(main())"

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.parse_us_per_req": "us",
    "cli.emit_us_per_req": "us",
    "cli.self_us_per_req": "us",
    "gentrig.calls_per_req": "count",
    "gentrig.self_us_per_req": "us",
    "gencomplex.ops_per_req": "count",
    "gencomplex.self_us_per_req": "us",
    "ckgeom.calls_per_req": "count",
    "ckgeom.self_us_per_req": "us",
    "ckgeom.domain_errors_per_req": "count",
    "clifford.products_per_req": "count",
    "clifford.self_us_per_req": "us",
    "spin.self_us_per_req": "us",
    "spin.cover_us_per_req": "us",
    "kinclass.self_us_per_req": "us",
    "conformal.self_us_per_req": "us",
    "conformal.bracket_tables_per_req": "count",
    "setup.interpreter_ms": "ms",
    "setup.import_numpy_ms": "ms",
    "setup.import_kinematica_ms": "ms",
    "trace.request_us_per_req": "us",
    "trace.unattributed_us_per_req": "us",
    "trace.overhead_frac": "share",
    "defects.untyped_answers": "count",
}
# printed with the others but left out of the result line: the branch shares
# describe the inputs rather than the code, and the product_table counters
# exist only while that cache does
REPORTED_ONLY = {
    **{f"gentrig.branch_{b}": "share" for b in tracing.BRANCHES},
    "clifford.table_hits": "count",
    "clifford.table_misses": "count",
    "clifford.table_entries": "count",
    "trace.attributed_error_us": "us",
    "cpu.speed_factor": "x",
}
UNITS = {**END_TO_END, **PER_LAYER, **REPORTED_ONLY}


class Run:
    """Tallies of one benchmark run: answers checked and failures seen."""

    def __init__(self, main, checker: oracle.Oracle):
        self.main = main
        self.oracle = checker
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.peak_kb: int | None = None  # max RSS after PEAK_REQUESTS timed requests

    def call(self, argv, entry=None):
        """(exit code or escaped exception, stdout, stderr, (CPU, wall) seconds) of one request."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                code = (entry or self.main)(argv)
            except Exception as exc:  # an escaped exception is a failed answer
                code = exc
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
        return code, out.getvalue(), err.getvalue(), (cpu, wall)

    def record(self, spec, code, out, err) -> bool:
        self.attempted += 1
        if isinstance(code, Exception):
            reason = f"exception escaped cli.main: {type(code).__name__}"
        else:
            reason = self.oracle.check(spec, code, out, err)
        if reason is not None:
            self.failed += 1
            self.reasons[f"{spec['cmd']}: {reason}"[:160]] += 1
        return reason is None

    def answer(self, stream, count: int) -> None:
        """Send and check ``count`` untimed requests."""
        for request in itertools.islice(stream, max(0, count)):
            self.record(request.spec, *self.call(request.argv)[:3])

    def serve(self, stream, seconds: float, entry=None) -> list[tuple[float, float, float]]:
        """Closed loop until the scaled request CPU times add up to ``seconds``.

        Returns (CPU seconds, wall seconds, CPU speed factor) for each request.
        """
        samples = []
        spent = 0.0
        before = calibration()
        deadline = time.perf_counter() + WALL_CAP * seconds
        while spent < seconds and time.perf_counter() < deadline:
            chunk = []
            for request in itertools.islice(stream, CHUNK):
                code, out, err, timing = self.call(request.argv, entry)
                self.record(request.spec, code, out, err)
                chunk.append(timing)
            after = calibration()
            factor = 2.0 * CAL_REF / (before + after)
            samples.extend((cpu, wall, factor) for cpu, wall in chunk)
            spent += sum(cpu for cpu, _ in chunk) * factor
            before = after
            if self.peak_kb is None and len(samples) >= PEAK_REQUESTS:
                self.peak_kb = max_rss_kb()
        return samples

    def peak_rss_kb(self, stream, served: int) -> int:
        """Max RSS once PEAK_REQUESTS timed requests have answered.

        ``serve`` reads it when it gets there; a loop that stopped after
        ``served`` requests, short of that, is topped up with untimed ones.
        """
        self.answer(stream, PEAK_REQUESTS - served)
        return self.peak_kb if self.peak_kb is not None else max_rss_kb()

    def replay_goldens(self) -> None:
        for problem in self.oracle.golden_drift:
            self.attempted += 1
            self.failed += 1
            self.reasons[problem] += 1
        for name, argv in oracle.GOLDEN_CASES:
            code, out, err, _ = self.call(argv)
            self.attempted += 1
            if code != 0 or err or out != self.oracle.golden[name]:
                self.failed += 1
                self.reasons[f"golden {name} not byte-identical"] += 1


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def calibration() -> float:
    """CPU seconds a fixed standard-library snippet takes, best of three: the CPU's speed.

    The snippet builds a small argparse parser and parses one command line,
    work much like most of a request's, so it slows down with the host the
    way requests do.  It calls parse_known_args, which the tracer leaves
    unwrapped, and runs with the collector off, so that neither tracing nor
    the package's live objects change it.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            start = time.process_time()
            parser = argparse.ArgumentParser(prog="calibration")
            commands = parser.add_subparsers(dest="command")
            for i in range(2):
                command = commands.add_parser(f"c{i}")
                for j in range(3):
                    command.add_argument(f"--o{j}", type=float)
            parser.parse_known_args(["c1", "--o1=0.5", "--o2=-1e-3"])
            best = min(best, time.process_time() - start)
    finally:
        gc.enable()
    return best


def scaled(samples: list[tuple[float, float, float]]) -> list[float]:
    """Each request's CPU time, scaled to the reference CPU speed."""
    return [cpu * factor for cpu, _, factor in samples]


def spawn(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """One fresh interpreter: (wall seconds, finished process)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SPAWN_TIMEOUT,
    )
    return time.perf_counter() - start, done


def spawns(argv: list[str], env: dict) -> list[tuple[float, float, subprocess.CompletedProcess]]:
    """SETUP_SPAWNS sequential spawns, after one untimed spawn that warms the caches.

    Returns (wall seconds, speed factor, finished process) for each, the
    factor from a bare interpreter start spawned just before it.
    """
    spawn(argv, env)
    out = []
    for _ in range(SETUP_SPAWNS):
        bare, _ = spawn(["-c", "pass"], env)
        elapsed, done = spawn(argv, env)
        out.append((elapsed, BARE_REF / bare, done))
    return out


def import_times(stderr: str) -> tuple[float, float]:
    """Cumulative ms of the top-level numpy and kinematica imports (-X importtime)."""
    numpy_us = kinematica_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if name.startswith("  "):  # nested import, already counted by its parent
            continue
        name = name.strip()
        if name == "numpy":
            numpy_us += int(cumulative)
        elif name == "kinematica" or name.startswith("kinematica."):
            kinematica_us += int(cumulative)
    return numpy_us / 1e3, kinematica_us / 1e3


def p99(values: list[float]) -> float:
    """Median of the 99th percentiles of TAIL_BLOCKS consecutive blocks.

    One burst of host contention then moves one block's tail, not the result.
    """
    size = -(-len(values) // TAIL_BLOCKS)
    return statistics.median(
        statistics.quantiles(values[i:i + size], n=100, method="inclusive")[98]
        for i in range(0, len(values), size)
    )


def latency_metrics(latencies: list[float], prefix: str = "") -> dict:
    n = len(latencies)
    return {
        prefix + "throughput_rps": (n / sum(latencies), n),
        prefix + "latency_p50_us": (statistics.median(latencies) * 1e6, n),
        prefix + "latency_p99_us": (p99(latencies) * 1e6, n),
    }


def end_to_end(run: Run, stream, seconds: float, env: dict) -> dict:
    first = next(stream)
    setups = spawns(["-c", ENTRY, *first.argv], env)
    for _, _, done in setups:
        run.record(first.spec, done.returncode, done.stdout, done.stderr)
    # the first request again, in process, so the stream's order is unchanged
    run.record(first.spec, *run.call(first.argv)[:3])
    run.answer(stream, WARMUP_REQUESTS)
    samples = run.serve(stream, seconds)
    peak_kb = run.peak_rss_kb(stream, len(samples))
    return {
        **latency_metrics(scaled(samples)),
        "setup_s": (statistics.median(t * f for t, f, _ in setups), SETUP_SPAWNS),
        "peak_rss_mb": (peak_kb / 1024.0, PEAK_REQUESTS),
        **latency_metrics([wall for _, wall, _ in samples], "raw."),
        "raw.setup_s": (statistics.median(t for t, _, _ in setups), SETUP_SPAWNS),
        "cpu.speed_factor": (statistics.median(f for _, _, f in samples), len(samples)),
    }


def layer_breakdown(run: Run, stream, seconds: float, env: dict, name: str) -> dict:
    from kinematica import cli

    importing = spawns(["-X", "importtime", "-c", "import numpy, kinematica.cli"], env)
    imports = [[t * f for t in import_times(done.stderr)] for _, f, done in importing]
    run.answer(stream, WARMUP_REQUESTS)
    plain = scaled(run.serve(stream, seconds / 2))

    modules = {layer: sys.modules[f"kinematica.{layer}"] for layer in tracing.LAYERS
               if f"kinematica.{layer}" in sys.modules}
    tracer = tracing.Tracer(modules)
    commands = Counter()

    def traced_call(argv):
        commands[argv[0]] += 1
        return tracer.run_request(cli.main, argv)

    tracer.install()
    try:
        traced = run.serve(stream, seconds / 2, traced_call)
    finally:
        tracer.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"spans-{name}.jsonl.gz")
    metrics = {
        "setup.interpreter_ms": (
            statistics.median(BARE_REF / f for _, f, _ in importing) * 1e3, SETUP_SPAWNS),
        "setup.import_numpy_ms": (statistics.median(t[0] for t in imports), SETUP_SPAWNS),
        "setup.import_kinematica_ms": (statistics.median(t[1] for t in imports), SETUP_SPAWNS),
    }
    factor = statistics.median(f for _, _, f in traced)
    metrics.update(summarize(tracer, commands, factor, sum(scaled(traced)) / len(traced)
                             / (sum(plain) / len(plain)) - 1.0))
    return metrics


def summarize(tracer: tracing.Tracer, commands: Counter, factor: float,
              overhead: float) -> dict:
    """Per-layer metrics from one traced loop, each with its sample count.

    Times are scaled by the loop's CPU speed ``factor``; ``overhead`` is the
    traced loop's mean request time over the untraced loop's, minus one.
    """
    n = max(1, tracer.request + 1)
    own = tracing.self_times(tracer.spans)

    def per_req(value: float):
        return value / n, n

    def us(ns: float):
        return per_req(ns * factor / 1e3)

    out = {
        "cli.parse_us_per_req": us(own.get("cli.parse", 0.0)),
        "cli.emit_us_per_req": us(own.get("cli.emit", 0.0)),
        "cli.self_us_per_req": us(own.get("cli", 0.0)),
        "gentrig.calls_per_req": per_req(tracer.calls["gentrig"]),
        "gencomplex.ops_per_req": per_req(
            sum(c for k, c in tracer.names.items() if k.startswith("GenComplex."))),
        "ckgeom.calls_per_req": per_req(tracer.calls["ckgeom"]),
        "ckgeom.domain_errors_per_req": per_req(tracer.errors["ckgeom"]),
        "clifford.products_per_req": per_req(tracer.products),
        "spin.cover_us_per_req": us(sum(
            s[tracing.END] - s[tracing.START] for s in tracer.spans
            if s[tracing.NAME] == "cover_to_so3")),
    }
    for layer in tracing.LAYERS[:-1]:  # every layer but cli, split above
        out[f"{layer}.self_us_per_req"] = us(own.get(layer, 0.0))
    trig_calls = sum(tracer.branches.values())
    for branch in tracing.BRANCHES:
        share = tracer.branches[branch] / trig_calls if trig_calls else 0.0
        out[f"gentrig.branch_{branch}"] = (share, trig_calls)
    tables = commands["conformal-table"]
    out["conformal.bracket_tables_per_req"] = (
        tracer.names["computed_brackets"] / tables if tables else 0.0, tables)
    cache_info = getattr(tracer.originals.get("product_table"), "cache_info", None)
    if cache_info is not None:  # reported, but not part of the stable metric set
        info = cache_info()
        out["clifford.table_hits"] = (info.hits, 1)
        out["clifford.table_misses"] = (info.misses, 1)
        out["clifford.table_entries"] = (info.currsize, 1)
    requests = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans
                   if s[tracing.LAYER] == tracing.REQUEST)
    out["trace.request_us_per_req"] = us(requests)
    out["trace.unattributed_us_per_req"] = us(own.get(tracing.REQUEST, 0.0))
    out["trace.attributed_error_us"] = (abs(sum(own.values()) - requests) / 1e3, n)
    out["trace.overhead_frac"] = (overhead, n)
    # a metric whose module or callable was not found at install time is left
    # out and printed as missing, never read as 0
    found = {
        "cli.emit_us_per_req": "dumps" in tracer.originals,
        "cli.self_us_per_req": "cli" in tracer.modules,
        "gentrig.calls_per_req": "gentrig" in tracer.modules,
        "gencomplex.ops_per_req": any(k.startswith("GenComplex.") for k in tracer.originals),
        "ckgeom.calls_per_req": "ckgeom" in tracer.modules,
        "ckgeom.domain_errors_per_req": "ckgeom" in tracer.modules,
        "clifford.products_per_req": tracing.PRODUCT in tracer.originals,
        "spin.cover_us_per_req": "cover_to_so3" in tracer.originals,
        "conformal.bracket_tables_per_req": "computed_brackets" in tracer.originals,
        **{f"{layer}.self_us_per_req": layer in tracer.modules
           for layer in tracing.LAYERS[:-1]},
    }
    return {metric: value for metric, value in out.items() if found.get(metric, True)}


def probe_defects(run: Run, seed: int) -> tuple[list[str], int]:
    """Replay the known non-finite and overflow inputs: (the untyped answers, count).

    They are not checked by the oracle and do not count as attempted: the
    package is known to answer them wrongly (see NOTES.md).
    """
    failures = []
    probes = workloads.defect_probe(seed, str(OUT / "no-such-dir"))
    for request in probes:
        code, out, err, _ = run.call(request.argv)
        typed = (code in (1, 2) and not out and err.count("\n") == 1
                 and err.startswith('{"error":'))
        if not typed:
            shown = type(code).__name__ if isinstance(code, Exception) else f"exit {code}"
            failures.append(f"{' '.join(request.argv[:2])}: {shown}")
    return failures, len(probes)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "kinematica" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"bench: no kinematica source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from kinematica import cli

    # one CPU for the loop, its calibration and the spawned interpreters
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    run = Run(cli.main, oracle.Oracle(ROOT))
    stream = workloads.WORKLOADS[args.workload](args.seed)
    name = f"{args.workload}-{args.seed}"
    if args.trace:
        measured = layer_breakdown(run, stream, args.seconds, env, name)
        wanted = PER_LAYER
    else:
        measured = end_to_end(run, stream, args.seconds, env)
        wanted = END_TO_END
    run.replay_goldens()
    untyped, probed = probe_defects(run, args.seed)
    measured["defects.untyped_answers"] = (len(untyped), probed)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, one client)")
    for metric, (value, samples) in measured.items():
        unit = UNITS[metric.removeprefix("raw.")]
        print(f"  {metric:34s} {value:14.6g} {unit:6s} n={samples}")
    print(f"  {'failed_frac':34s} {run.failed / run.attempted:14.6g} {'share':6s} "
          f"n={run.attempted}")
    for metric in wanted.keys() - measured.keys():
        print(f"  {metric:34s} {'MISSING':>14s} (what it measures was not found)")
    for reason, count in run.reasons.most_common(10):
        print(f"  FAILED x{count}: {reason}")
    print(f"  known defects (non-finite/overflow input): {len(untyped)} of {probed} "
          "answered without a typed error")
    for note in untyped:
        print(f"    {note}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": measured[m][0], "unit": u}
                    for m, u in wanted.items() if m in measured},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
