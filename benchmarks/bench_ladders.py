"""Size ladders of the paper's constructions, timed with pytest-benchmark.

Fourteen series, each a pytest-benchmark test:

- `chain_unload`: `unload` on the chain weighted (1, ..., 1, n), at 50, 100,
  200 and 400 points; records the step count `steps`.  Every round unloads
  the same skeleton, so its dual-graph rows are derived once and stay
  cached.
- `enumerate_make_dr`: `enumerate_singularities(make_dr(r))` at 2r + 1
  points for about the same sizes; its time is almost all unloading.  It
  records the step count `steps` of the K_w it unloads, counted by one
  untraced `unload` outside the timed rounds.
- `enumerate_staircase`: `enumerate_singularities` on the staircase chain
  of n points weighted nu_p = n - floor(p/2), whose excesses read 0, 1, 0,
  1, ..., so it has n/2 singular points, at 500, 1,000 and 2,000 points.
  Each analysis costs O(n) however little its unloading touches, so the
  series grows as n^2; it times STAIRCASE_ROUNDS rounds, not ROUNDS, since
  one call at 2,000 points takes over a second.
- `analyze_small` and `enumerate_small`: `analyze` at every boundary point
  that `random_boundary_points` picks on 200 seeded generator clusters of at
  most 4, 6, 8 and 10 points, and `enumerate_singularities` on the same
  clusters.  They are cold: every round runs on fresh copies of the
  skeletons, so no stored validity verdict or cached proximity data carries
  over between rounds.  Their `points` is the mean cluster size, and they
  record the number of `calls` per round, so the merge reports them per call.
- `build_d1` and `build_make_dr`: `cartier.build` with alpha 25, 50, 100,
  200 and 400 on every component through Q, on d1 (origin, p1, q1) at
  Satellite(0, 1) and on the one singularity of make_dr(5).  The builder
  adds about alpha points, one stage each, so the growth exponent in alpha
  is the cost of a stage plus one.  Both have one component through Q, so
  they never run the interior-excess check between prescribed dicriticals.
- `build_many_components`: alpha 5, 10, 25 and 50 on the synthesized
  minimal singularity of random_minimal_graph_spec(Random(5), 6, 5): 13
  points and 8 components through Q, about 8 alpha added points.
- `build_d1_untraced` and `build_many_components_untraced`: the build with
  `trace=False`, which keeps no stage, on d1 at alpha 1,000, 2,000, 4,000
  and 8,000 and on the 8-component singularity at alpha 25, 50, 100 and
  200.  A traced build keeps every stage, so its memory and time grow as
  alpha^2; these show what the construction alone costs.
- `build_hub_untraced`: the untraced build at alpha 3 on every component
  through Q of the singularity that `synthesize` makes from one vertex of
  weight W, which has W + 1 components through Q, at 26, 51, 101 and 201
  components; laid out by `components`.  The build series record the
  number of points `added`.
- `verify_sized`: `cartier.verify` alone on the build at alpha 1 on every
  component through the first singularity of perfbench's
  `sized_cluster(Random(3), n)`, at 50, 100, 200 and 400 points; the base
  has about half as many dicriticals as points, all of which the
  certificate's readout solves for.
- `dual_graph_chain` and `dual_graph_sized`: `dual_graph` on a chain and
  on perfbench's `sized_cluster(Random(3), n)`, at 100, 1,000 and 10,000
  points.  They are cold: each round's set-up makes a fresh copy of the
  skeleton and validates it, so the round derives the dual-graph rows
  from scratch.  They record the number of `edges`.

On a shared machine the CPU speed swings by up to 2x for seconds at a
time: raw medians of two runs of one tree were seen to differ by up to 60%
at one size (Xeon vCPU, Python 3.11).  So every series is timed by
`calibrated`, for ROUNDS rounds (STAIRCASE_ROUNDS for the staircase)
after one warm-up: each round's set-up makes
the arguments and then times the pure-Python calibration loop of
`perfbench/run.py`, and the round's time is scaled by the loop's reference
time over its measured time.  The median of the scaled times is recorded as
`calibrated_median_s`.  Under `--benchmark-disable` each series runs once
and records its counts but no time.

Kept outside `tests/` so the test suite does not pay for it.  From the root
of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/bench_ladders.py \\
        --benchmark-json=change.json

(`-k chain_unload` and the like restrict it to some series).  Run it once
more against the source tree of the parent commit, then

    PYTHONPATH=src python benchmarks/bench_ladders.py parent.json change.json > BENCH_N.json

merges the two runs: median time per size on each side, the speed-up, and
the growth exponent of each side (the least-squares slope of log time
against log size).  More runs are given in the order parent, change,
change, parent (and so on, repeating), and each side's median is then the
median of its runs' medians; every run's median is listed as well.  It
merges runs of any file in `benchmarks/`; a benchmark that records `calls`
in its extra info is reported per call, one that records `components` or
`alpha` instead of `points` is laid out by the first of them, and one that
records `calibrated_median_s` is reported by that median rather than the
raw one.  Recorded counts (`steps`,
`calls`, `added`, `edges`, and `bench_startup.py`'s `exit` and `stdout_sha256`) must
agree across all runs.
"""

import functools
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from conftest import make_d1, make_dr  # noqa: E402
from run import CALIBRATION_REF_NS, calibration_loop  # noqa: E402
from workloads import sized_cluster  # noqa: E402

import sandwiched  # noqa: E402
from sandwiched import ClusterSkeleton, FreeOn, Satellite, WeightedCluster, analyze, chain_skeleton, dual_graph  # noqa: E402
from sandwiched.analyzer import extend, zero_excess_components  # noqa: E402
from sandwiched import enumerate_singularities, unload  # noqa: E402
from sandwiched.cartier import CartierRequest, build, verify  # noqa: E402
from sandwiched.oracle import GeneratorConfig, _random_cluster, random_boundary_points  # noqa: E402
from sandwiched.oracle import random_minimal_graph_spec  # noqa: E402
from sandwiched.synthesis import MinimalGraphSpec, synthesize  # noqa: E402

ROUNDS = 100
SIZES = (50, 100, 200, 400)
MAX_POINTS = (4, 6, 8, 10)
CLUSTERS = 200
ALPHAS = (25, 50, 100, 200, 400)
MANY_COMPONENT_ALPHAS = (5, 10, 25, 50)
UNTRACED_ALPHAS = (1_000, 2_000, 4_000, 8_000)
UNTRACED_MANY_COMPONENT_ALPHAS = (25, 50, 100, 200)
HUB_COMPONENTS = (26, 51, 101, 201)
DUAL_GRAPH_SIZES = (100, 1_000, 10_000)
STAIRCASE_SIZES = (500, 1_000, 2_000)
STAIRCASE_ROUNDS = 10


def calibrated(benchmark, target, arguments, rounds=ROUNDS):
    """`target(*arguments())` timed for `rounds` rounds, `arguments()` called
    and the calibration loop timed in each round's set-up; records the
    median of the calibrated round times as `calibrated_median_s` and
    returns the target's result.  With pytest-benchmark disabled, the
    target runs once and nothing is recorded."""
    calibrations = []

    def setup():
        args = arguments()
        start = time.perf_counter_ns()
        calibration_loop()
        calibrations.append(time.perf_counter_ns() - start)
        return args, {}

    result = benchmark.pedantic(target, setup=setup, rounds=rounds, warmup_rounds=1)
    if benchmark.enabled:
        # setup also ran before the warm-up round, so the last `rounds`
        # calibrations precede the timed rounds
        benchmark.extra_info["calibrated_median_s"] = statistics.median(
            t * CALIBRATION_REF_NS / c
            for t, c in zip(benchmark.stats.stats.data, calibrations[-rounds:])
        )
    return result


@pytest.mark.parametrize("points", SIZES)
def test_chain_unload(benchmark, points):
    K = WeightedCluster(chain_skeleton(points), (1,) * (points - 1) + (points,))
    benchmark.extra_info["points"] = points
    result = calibrated(benchmark, unload, lambda: (K,))
    benchmark.extra_info["steps"] = len(result.steps)


@pytest.mark.parametrize("points", SIZES)
def test_enumerate_make_dr(benchmark, points):
    K = make_dr(points // 2)
    benchmark.extra_info["points"] = len(K.skeleton)
    reports = calibrated(benchmark, enumerate_singularities, lambda: (K,))
    assert [(r.mult, r.emdim) for r in reports] == [(points // 2 + 1, points // 2 + 2)]
    (component,) = zero_excess_components(K)
    benchmark.extra_info["steps"] = unload(extend(K, FreeOn(component[0])), trace=False).step_count


@pytest.mark.parametrize("points", STAIRCASE_SIZES)
def test_enumerate_staircase(benchmark, points):
    K = WeightedCluster(chain_skeleton(points), tuple(points - p // 2 for p in range(points)))
    benchmark.extra_info["points"] = points
    reports = calibrated(benchmark, enumerate_singularities, lambda: (K,), STAIRCASE_ROUNDS)
    assert len(reports) == points // 2


def corpus(max_points):
    """Seeded clusters and, per cluster, its boundary points."""
    rng = random.Random(5000 + max_points)
    config = GeneratorConfig(max_points=max_points, satellite_probability=0.4)
    clusters = [_random_cluster(rng, config) for _ in range(CLUSTERS)]
    return [(K, random_boundary_points(K, rng)) for K in clusters]


def fresh(K):
    sk = K.skeleton
    return WeightedCluster(ClusterSkeleton(sk.parents, sk.proximities, sk.tags), K.nu)


def run_cold(benchmark, items, body, calls):
    benchmark.extra_info["points"] = round(sum(len(K.skeleton) for K, _ in items) / len(items), 2)
    benchmark.extra_info["calls"] = calls
    calibrated(benchmark, body, lambda: ([(fresh(K), ws) for K, ws in items],))


@pytest.mark.parametrize("max_points", MAX_POINTS)
def test_analyze_small(benchmark, max_points):
    def body(items):
        for K, ws in items:
            for w in ws:
                analyze(K, w)

    items = corpus(max_points)
    run_cold(benchmark, items, body, sum(len(ws) for _, ws in items))


@pytest.mark.parametrize("max_points", MAX_POINTS)
def test_enumerate_small(benchmark, max_points):
    def body(items):
        for K, _ in items:
            enumerate_singularities(K)

    items = corpus(max_points)
    run_cold(benchmark, items, body, len(items))


def run_build(benchmark, K, report, alpha, trace=True):
    request = CartierRequest(K, report, {p: alpha for p in report.Kplus_Q})
    benchmark.extra_info["alpha"] = alpha
    result = calibrated(benchmark, functools.partial(build, trace=trace), lambda: (request,))
    assert result.certificate.passed
    benchmark.extra_info["added"] = len(result.added)


def d1_at_q():
    K = make_d1()
    return K, analyze(K, Satellite(0, 1))


def many_components():
    K, w = synthesize(random_minimal_graph_spec(random.Random(5), 6, 5))
    report = analyze(K, w)
    assert (len(K.skeleton), len(report.Kplus_Q)) == (13, 8)
    return K, report


@pytest.mark.parametrize("alpha", ALPHAS)
def test_build_d1(benchmark, alpha):
    run_build(benchmark, *d1_at_q(), alpha)


@pytest.mark.parametrize("alpha", UNTRACED_ALPHAS)
def test_build_d1_untraced(benchmark, alpha):
    run_build(benchmark, *d1_at_q(), alpha, trace=False)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_build_make_dr(benchmark, alpha):
    K = make_dr(5)
    (report,) = enumerate_singularities(K)
    run_build(benchmark, K, report, alpha)


@pytest.mark.parametrize("alpha", MANY_COMPONENT_ALPHAS)
def test_build_many_components(benchmark, alpha):
    run_build(benchmark, *many_components(), alpha)


@pytest.mark.parametrize("alpha", UNTRACED_MANY_COMPONENT_ALPHAS)
def test_build_many_components_untraced(benchmark, alpha):
    run_build(benchmark, *many_components(), alpha, trace=False)


@pytest.mark.parametrize("components", HUB_COMPONENTS)
def test_build_hub_untraced(benchmark, components):
    K, w = synthesize(MinimalGraphSpec(("a",), (), (components - 1,)))
    report = analyze(K, w)
    assert len(report.Kplus_Q) == components
    benchmark.extra_info["components"] = components
    run_build(benchmark, K, report, 3, trace=False)


@pytest.mark.parametrize("points", SIZES)
def test_verify_sized(benchmark, points):
    K = sized_cluster(sandwiched, random.Random(3), points)
    report = enumerate_singularities(K)[0]
    alpha = dict.fromkeys(report.Kplus_Q, 1)
    candidate = build(CartierRequest(K, report, alpha), trace=False).cluster
    benchmark.extra_info["points"] = points
    certificate = calibrated(benchmark, verify, lambda: (K, report, alpha, candidate))
    assert certificate.passed


def run_dual_graph(benchmark, sk):
    def fresh():
        return (ClusterSkeleton(sk.parents, sk.proximities, sk.tags).require_valid(),)

    benchmark.extra_info["points"] = len(sk)
    graph = calibrated(benchmark, dual_graph, fresh)
    benchmark.extra_info["edges"] = len(graph.edges)


@pytest.mark.parametrize("points", DUAL_GRAPH_SIZES)
def test_dual_graph_chain(benchmark, points):
    run_dual_graph(benchmark, chain_skeleton(points))


@pytest.mark.parametrize("points", DUAL_GRAPH_SIZES)
def test_dual_graph_sized(benchmark, points):
    run_dual_graph(benchmark, sized_cluster(sandwiched, random.Random(3), points).skeleton)


def growth_exponent(points, seconds):
    """Least-squares slope of log time against log size; None for one size."""
    if len(points) < 2:
        return None
    xs = [math.log(n) for n in points]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return round(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs), 2)


COUNTS = ("steps", "calls", "added", "edges", "exit", "stdout_sha256")
# the first of these a benchmark records is its size
SIZE_KEYS = ("points", "components", "alpha")


def merge(parents: list, changes: list) -> dict:
    """Per series: each side's median over its runs of the median time per
    size (per call when a benchmark records `calls`), every run's median, the
    speed-up and each side's growth exponent."""
    size_of = {}

    def medians(run):
        out, counts = {}, {}
        for bench in run["benchmarks"]:
            series = bench["name"].split("[")[0].removeprefix("test_")
            info = bench["extra_info"]
            size_of[series] = next(key for key in SIZE_KEYS if key in info)
            points = info[size_of[series]]
            median = info.get("calibrated_median_s", bench["stats"]["median"])
            out.setdefault(series, {})[points] = median / info.get("calls", 1)
            for key in COUNTS:
                if key in info:
                    counts.setdefault(series, {}).setdefault(key, {})[points] = info[key]
        return out, counts

    def ms(seconds):
        return float(f"{seconds * 1e3:.4g}")

    before, after = [medians(run) for run in parents], [medians(run) for run in changes]
    counts = before[0][1]
    for _, other in before + after:
        if other != counts:
            raise SystemExit(f"recorded counts differ between runs: {counts} vs {other}")
    merged = {}
    for series, sizes in before[0][0].items():
        points = sorted(sizes)
        runs = {"parent": [run[series] for run, _ in before], "change": [run[series] for run, _ in after]}
        old, new = ({n: statistics.median(r[n] for r in rs) for n in points} for rs in runs.values())
        merged[series] = {
            size_of[series]: points,
            **{key: [c[n] for n in points] for key, c in counts.get(series, {}).items()},
            "parent_median_ms": [ms(old[n]) for n in points],
            "change_median_ms": [ms(new[n]) for n in points],
            "speedup": [round(old[n] / new[n], 2) for n in points],
            "parent_runs_ms": [[ms(r[n]) for r in runs["parent"]] for n in points],
            "change_runs_ms": [[ms(r[n]) for r in runs["change"]] for n in points],
            "parent_growth_exponent": growth_exponent(points, [old[n] for n in points]),
            "change_growth_exponent": growth_exponent(points, [new[n] for n in points]),
        }
    info = changes[0]["machine_info"]
    return {
        "benchmark": sorted({b["fullname"].split("::")[0] for run in changes for b in run["benchmarks"]}),
        "machine": {
            "cpu": info.get("cpu", {}).get("brand_raw"),
            "python": info.get("python_version"),
        },
        "series": merged,
    }


if __name__ == "__main__":
    if len(sys.argv) < 3:
        raise SystemExit("usage: bench_ladders.py PARENT CHANGE [CHANGE PARENT ...]")
    runs = []
    for path in sys.argv[1:]:
        with open(path) as handle:
            runs.append(json.load(handle))
    # the runs come in the order parent, change, change, parent, repeating
    parents = [run for i, run in enumerate(runs) if i % 4 in (0, 3)]
    changes = [run for i, run in enumerate(runs) if i % 4 in (1, 2)]
    print(json.dumps(merge(parents, changes), indent=2))
