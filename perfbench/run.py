"""Benchmark of the sandwiched package: seeded workloads, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads (see design.json): corpus, cartier, deep, cli.  Inputs are made
from --seed before timing starts.  Each workload is a closed loop with one
client: passes over the seed's op list repeat until --seconds have elapsed,
and every output is compared with the recorded reference digest for its seed
and op index (or, for a seed with no record, with its own first output).
Oracle checks on independent routes run after the timed region.

End-to-end timings are scaled to a reference machine speed.  On a shared
machine the speed swings by up to 2x within seconds, and for minutes at a
time, as other tenants load its cores.  A calibration that no change to the
package touches is timed between ops: the pure-Python `calibration_loop`,
or on the cli workload a bare interpreter start (`bare_start`).  Each op's
latency is multiplied by the reference time over the calibration's time
around it, i.e. reported as if the calibration took its reference time.
Raw figures are printed as notes.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes over the same ops and prints the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Spans of the first traced pass go to .perfbench-work/.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SETUP_REPEATS = 5
WARMUP_OPS = 20
WARMUP_NS = 200_000_000
# times are reported as if the calibration took its reference time, which is
# about its time on an unloaded 2 GHz x86-64 vCPU under Python 3.11
CALIBRATION_EVERY_NS = 250_000_000
CALIBRATION_REF_NS = 3_000_000
CLI_CALIBRATION_EVERY_NS = 1_000_000_000
CLI_CALIBRATION_REF_NS = 15_000_000
MODULES = ("errors", "cluster", "weighted", "analyzer", "cartier", "synthesis", "dsl", "oracle", "cli")


class Package:
    """The sandwiched modules, freshly imported."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "sandwiched" or n.startswith("sandwiched.")]:
            del sys.modules[name]
        importlib.import_module("sandwiched")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"sandwiched.{name}"))


class Checker:
    """Compares every output with its reference digest; keeps the first
    output of each op for the oracle checks."""

    def __init__(self, workload, seed):
        self.ops = workload.ops
        self.reference = load_reference(workload.name, seed)
        self.seen: dict = {}
        self.first: dict = {}
        self.runs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def expected(self, index, got):
        if self.reference is not None:
            return self.reference[8 * index: 8 * index + 8]
        return self.seen.setdefault(index, got)

    def record(self, op, output):
        got = workloads.digest(output if isinstance(output, Failure) else op.encode(output))
        ok = got == self.expected(op.index, got)
        self.attempted += 1
        self.runs[op.index] = self.runs.get(op.index, 0) + 1
        if not ok:
            self.failed += 1
            self._problem(f"op {op.index} ({op.kind}): output differs from the reference")
        if op.index not in self.first:
            self.first[op.index] = output

    def run_oracles(self):
        checked = 0
        for index, output in sorted(self.first.items()):
            op = self.ops[index]
            if op.check is None or isinstance(output, Failure):
                continue
            checked += 1
            message = call(lambda: op.check(output))
            if message:
                self.failed += self.runs.get(index, 0)
                self._problem(f"op {index} ({op.kind}): {message}")
        return checked

    def _problem(self, text):
        if len(self.problems) < 20 and text not in self.problems:
            self.problems.append(text)


class Failure(tuple):
    """Output of an op that raised."""


def load_reference(workload, seed):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


def call(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
        return Failure(("raised", type(exc).__name__, str(exc)))


def timed(fn):
    start = time.perf_counter_ns()
    output = call(fn)
    return output, time.perf_counter_ns() - start


def calibration_loop():
    total = 0
    table = {}
    for i in range(3000):
        key = tuple(range(i % 17))
        table[key] = table.get(key, 0) + sum(key)
        total += len(table) + (i * 7) // 3
    return total


def bare_start():
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


class Speed:
    """Times of a calibration (best of 3) over the run: `calibration_loop`
    every CALIBRATION_EVERY_NS, or, for the cli workload, whose ops are
    child processes, a bare interpreter start every CLI_CALIBRATION_EVERY_NS."""

    def __init__(self, cli=False):
        self.loop, self.ref_ns, self.every_ns = (
            (bare_start, CLI_CALIBRATION_REF_NS, CLI_CALIBRATION_EVERY_NS) if cli
            else (calibration_loop, CALIBRATION_REF_NS, CALIBRATION_EVERY_NS)
        )
        self.at: list = []
        self.loop_ns: list = []
        self.measure()

    def measure(self):
        best = min(timed(self.loop)[1] for _ in range(3))
        self.at.append(time.perf_counter_ns())
        self.loop_ns.append(best)

    def tick(self):
        if time.perf_counter_ns() - self.at[-1] >= self.every_ns:
            self.measure()

    def scale(self, start_ns):
        """Factor for an interval that started at start_ns: reference time
        over the mean of the calibration times measured just before and after."""
        i = bisect.bisect_right(self.at, start_ns)
        around = self.loop_ns[max(0, i - 1): i + 1]
        return self.ref_ns / statistics.fmean(around)


# -- set-up ------------------------------------------------------------------------


def set_up(args, speed):
    """Import, generate inputs and warm up, SETUP_REPEATS times; the last
    repetition's package and workload are the ones measured.  Returns the
    median set-up time, raw and scaled."""
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}"
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        speed.measure()
        start = time.perf_counter_ns()
        pkg = Package()
        workload = workloads.build(args.workload, pkg, args.seed, args.scale == "tiny", workdir)
        warm = [op for op in workload.ops if op.rung == "small"][:WARMUP_OPS]
        for op in warm:
            call(op.run)
            if time.perf_counter_ns() - start > WARMUP_NS:
                break
        ns = time.perf_counter_ns() - start
        speed.measure()
        raw.append(ns / 1e9)
        scaled.append(ns * speed.scale(start) / 1e9)
    return workload, statistics.median(raw), statistics.median(scaled)


# -- timed passes ---------------------------------------------------------------------


def plain_pass(workload, checker, speed):
    """One pass over the op list; returns (start, duration) per op."""
    times = []
    for op in workload.ops:
        speed.tick()
        start = time.perf_counter_ns()
        output, ns = timed(op.run)
        times.append((start, ns))
        checker.record(op, output)
    return times


def measure(workload, checker, seconds, speed):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(plain_pass(workload, checker, speed))
    speed.measure()
    return passes


def per_op(passes, speed):
    """Each op's median latency over the passes, raw and scaled (ns)."""
    raw = [statistics.median(ns for _, ns in runs) for runs in zip(*passes)]
    scaled = [statistics.median(ns * speed.scale(t) for t, ns in runs) for runs in zip(*passes)]
    return raw, scaled


def measure_traced(workload, checker, seconds, spans_path, speed):
    """Pairs of passes over the op list: untraced, then traced."""
    tracer = tracing.Tracer()
    pairs = []
    start = time.perf_counter()
    is_cli = workload.name == "cli"
    while not pairs or time.perf_counter() - start < seconds:
        pair = {"latencies": plain_pass(workload, checker, speed), "bytes_out": 0}
        if is_cli:
            main_ns = 0
            for op in workload.ops:
                output, ns = timed(op.run_inprocess)
                main_ns += ns
                checker.record(op, output)
            pair["main_ns"] = pair["untraced_ns"] = main_ns
            pair["spawn_ns"] = sum(ns for _, ns in pair["latencies"]) - main_ns
            pair["import_ns"] = timed(lambda: subprocess.run(
                [sys.executable, "-c", "import sandwiched.cli"],
                cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
            ))[1]
        else:
            pair["untraced_ns"] = sum(ns for _, ns in pair["latencies"])
        tracer.keep_spans = not pairs
        tracer.install()
        traced_ns = 0
        try:
            for op in workload.ops:
                fn = op.run_inprocess or op.run
                output, ns = timed(lambda: tracer.run_op(op.index, fn))
                traced_ns += ns
                checker.record(op, output)
                if is_cli and not isinstance(output, Failure):
                    pair["bytes_out"] += len(output[1])
        finally:
            tracer.uninstall()
        pair["traced_ns"] = traced_ns
        pair["agg"] = tracer.take()
        pairs.append(pair)
    speed.measure()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    return pairs, tracer.spans


# -- metrics -----------------------------------------------------------------------------


def ladder(workload, latencies):
    """Per rung, the mean of the ops' latencies (ms) and sizes; and the
    growth exponent log(large/mid) / log(size_large/size_mid)."""
    rung_ms, rung_size = {}, {}
    for rung in workloads.RUNGS:
        mine = [(b, op.size) for b, op in zip(latencies, workload.ops) if op.rung == rung]
        rung_ms[rung] = statistics.fmean(b for b, _ in mine) / 1e6 if mine else 0.0
        rung_size[rung] = statistics.fmean(n for _, n in mine) if mine else 0.0
    mid, large = rung_ms["mid"], rung_ms["large"]
    if mid and large and rung_size["large"] > rung_size["mid"]:
        growth = math.log(large / mid) / math.log(rung_size["large"] / rung_size["mid"])
    else:
        growth = 0.0
    return rung_ms, rung_size, growth


def end_to_end(workload, passes, speed, setup_raw, setup_s):
    raw, scaled = per_op(passes, speed)

    def summary(values):
        ordered = sorted(values)
        n = len(ordered)
        return {
            "throughput_ops_s": n / (sum(values) / 1e9),
            "latency_p50_ms": statistics.median(values) / 1e6,
            "latency_tail_ms": (ordered[-11] if n >= 11 else ordered[-1]) / 1e6,
        }

    rung_ms, rung_size, growth = ladder(workload, scaled)
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    timing = summary(scaled)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (timing["throughput_ops_s"], "1/s"),
        "latency_p50_ms": (timing["latency_p50_ms"], "ms"),
        "latency_tail_ms": (timing["latency_tail_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
        "rung_small_ms": (rung_ms["small"], "ms"),
        "rung_mid_ms": (rung_ms["mid"], "ms"),
        "rung_large_ms": (rung_ms["large"], "ms"),
    }
    n = len(raw)
    kinds = sorted({op.kind for op in workload.ops})
    notes = [
        f"latency_tail_ms is p{100.0 * (n - 10) / n if n >= 11 else 100.0:.2f} of {n} ops' median latencies",
        f"passes: {len(passes)}; calibration loop: median {statistics.median(speed.loop_ns) / 1e6:.3f} ms, "
        f"range {min(speed.loop_ns) / 1e6:.3f}-{max(speed.loop_ns) / 1e6:.3f} ms over {len(speed.loop_ns)} samples, "
        f"reference {speed.ref_ns / 1e6:.3f} ms",
        "raw (unscaled): " + ", ".join(f"{k}={v:.6g}" for k, v in summary(raw).items())
        + f", setup_s={setup_raw:.6g}",
        "rung sizes: " + ", ".join(f"{r}={rung_size[r]:.1f}" for r in workloads.RUNGS)
        + f"; growth exponent {growth:.3f}",
        "median scaled ms by kind: " + ", ".join(
            f"{k}={statistics.median(v for v, op in zip(scaled, workload.ops) if op.kind == k) / 1e6:.3f}"
            for k in kinds
        ),
    ]
    return metrics, notes


def per_layer(workload, pairs, spans, checker, speed):
    first = pairs[0]["agg"]
    calls, counts = first["calls"], first["counts"]

    def self_ms(name):
        return statistics.median(p["agg"]["self_ns"][name] for p in pairs) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    def pair_ms(key):
        return statistics.median(p[key] for p in pairs) / 1e6 if key in pairs[0] else 0.0

    metrics = {
        "cli.import_ms": (pair_ms("import_ns"), "ms"),
        "cli.main_ms": (pair_ms("main_ns"), "ms"),
        "cli.spawn_ms": (pair_ms("spawn_ns"), "ms"),
        "dsl.parse.self_ms": (self_ms("dsl.parse"), "ms"),
        "dsl.serialize.self_ms": (self_ms("dsl.serialize"), "ms"),
        "dsl.report_json.self_ms": (self_ms("dsl.report_json"), "ms"),
        "dsl.bytes_in": (counts["dsl.bytes_in"], "bytes"),
        "dsl.bytes_out": (pairs[0]["bytes_out"], "bytes"),
        "analyzer.analyze.calls": (calls["analyzer.analyze"], "count"),
        "analyzer.analyze.self_ms": (self_ms("analyzer.analyze"), "ms"),
        "analyzer.enumerate_singularities.self_ms": (self_ms("analyzer.enumerate_singularities"), "ms"),
        "analyzer.singular_ratio": (ratio(counts["analyzer.singular_reports"], calls["analyzer.analyze"]), "ratio"),
        "cartier.build.calls": (calls["cartier.build"], "count"),
        "cartier.build.self_ms": (self_ms("cartier.build"), "ms"),
        "cartier.verify.self_ms": (self_ms("cartier.verify"), "ms"),
        "cartier.added_points": (counts["cartier.added_points"], "count"),
        "cartier.trace_len": (counts["cartier.trace_len"], "count"),
        "cartier.certificate_pass_ratio": (ratio(counts["cartier.certificates_passed"], calls["cartier.build"]), "ratio"),
        "synthesis.synthesize.calls": (calls["synthesis.synthesize"], "count"),
        "synthesis.synthesize.self_ms": (self_ms("synthesis.synthesize"), "ms"),
        "synthesis.points_out": (counts["synthesis.points_out"], "count"),
        "weighted.unload.calls": (calls["weighted.unload"], "count"),
        "weighted.unload.self_ms": (self_ms("weighted.unload"), "ms"),
        "weighted.unload.steps": (counts["weighted.unload.steps"], "count"),
        "weighted.unload.tame_ratio": (ratio(counts["weighted.unload.tame_steps"], counts["weighted.unload.steps"]), "ratio"),
        "weighted.excesses.calls": (calls["weighted.excesses"], "count"),
        "weighted.excesses.self_ms": (self_ms("weighted.excesses"), "ms"),
        "weighted.values.self_ms": (self_ms("weighted.values"), "ms"),
        "weighted.drop_zero_points.self_ms": (self_ms("weighted.drop_zero_points"), "ms"),
        "cluster.validate.calls": (calls["cluster.validate"], "count"),
        "cluster.validate.self_ms": (self_ms("cluster.validate"), "ms"),
        "cluster.require_valid.calls": (calls["cluster.require_valid"], "count"),
        "cluster.dual_graph.calls": (calls["cluster.dual_graph"], "count"),
        "cluster.dual_graph.self_ms": (self_ms("cluster.dual_graph"), "ms"),
        "cluster.extend_point.self_ms": (self_ms("cluster.extend_point"), "ms"),
        "trace.overhead_ratio": (
            statistics.median(p["traced_ns"] / p["untraced_ns"] for p in pairs), "ratio",
        ),
        "ladder.growth_exponent": (
            ladder(workload, per_op([p["latencies"] for p in pairs], speed)[1])[2], "1",
        ),
        "baseline.validate_per_build": (validate_per_build(spans), "ratio"),
        "baseline.chain200_unload_steps": (chain200_steps(workload, checker), "count"),
        "baseline.dr100_unload_share": (dr100_unload_share(workload, spans), "ratio"),
    }
    notes = [f"traced passes: {len(pairs)}; counts are from the first traced pass"]
    return metrics, notes


def chain200_steps(workload, checker):
    index = workload.baseline_ops.get("chain200")
    output = checker.first.get(index)
    return len(output.steps) if output is not None and not isinstance(output, Failure) else 0


def validate_per_build(spans):
    """cluster.validate calls made inside cartier.build, per build."""
    builds = inside = 0
    for name, _, _, parent, _ in spans:
        if name == "cartier.build":
            builds += 1
        elif name == "cluster.validate":
            while parent >= 0 and spans[parent][0] != "cartier.build":
                parent = spans[parent][3]
            inside += parent >= 0
    return inside / builds if builds else 0.0


def dr100_unload_share(workload, spans):
    index = workload.baseline_ops.get("dr100")
    if index is None:
        return 0.0
    mine = [s for s in spans if s[4] == index]
    op_ns = sum(s[2] - s[1] for s in mine if s[0] == "op")
    unload_ns = sum(s[2] - s[1] for s in mine if s[0] == "weighted.unload")
    return unload_ns / op_ns if op_ns else 0.0


# -- main ------------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few small inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sandwiched" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # one CPU for the benchmark and its children, so that the calibration
    # loop measures the speed of the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = Speed(cli=args.workload == "cli")
    workload, setup_raw, setup_s = set_up(args, speed)
    checker = Checker(workload, args.seed)
    if args.trace:
        spans_path = ROOT / ".perfbench-work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        pairs, spans = measure_traced(workload, checker, args.seconds, spans_path, speed)
        metrics, notes = per_layer(workload, pairs, spans, checker, speed)
    else:
        passes = measure(workload, checker, args.seconds, speed)
        metrics, notes = end_to_end(workload, passes, speed, setup_raw, setup_s)
    oracle_checked = checker.run_oracles()
    notes.append(
        f"reference: {'recorded digests' if checker.reference is not None else 'none recorded for this seed; first outputs'}; "
        f"oracle checks: {oracle_checked}; failed_ratio: {checker.failed / max(1, checker.attempted):.6f}"
    )
    for problem in checker.problems:
        notes.append(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"{args.workload} {note}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
