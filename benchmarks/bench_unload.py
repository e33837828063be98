"""Size ladder for unloading, timed with pytest-benchmark.

Two series at about 50, 100, 200 and 400 points: `unload` on the chain
weighted (1, ..., 1, n), and `enumerate_singularities` on make_dr(r) (2r + 1
points), whose time is almost all unloading.  The pure-Python calibration
loop of `perfbench/run.py` is timed before each of the 100 rounds per size,
and each round's time is scaled by the loop's reference time over its
measured time (`calibrated`, which `bench_cartier.py` shares), so that the
machine's speed swings do not show as a change; the median of the scaled
times is recorded as `calibrated_median_s`.  Kept outside `tests/` so the
test suite does not pay for it.  From the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/bench_unload.py \\
        --benchmark-json=change.json

Run it once more against the source tree of the parent commit, then

    PYTHONPATH=src python benchmarks/bench_unload.py parent.json change.json > BENCH_N.json

merges the two runs: median time per size on each side, the speed-up, and
the growth exponent of each side (the least-squares slope of log time
against log points).  More runs are given in the order parent, change,
change, parent (and so on, repeating), and each side's median is then the
median of its runs' medians; every run's median is listed as well.  It
merges runs of any file in `benchmarks/`; a benchmark that records `calls`
in its extra info is reported per call, one that records `alpha` instead of
`points` is laid out by alpha, and one that records `calibrated_median_s` is
reported by that median rather than the raw one.  Recorded counts (`steps`,
`calls`, `added`, and `bench_startup.py`'s `exit` and `stdout_sha256`) must
agree across all runs.
"""

import json
import math
import statistics
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from conftest import make_dr  # noqa: E402
from run import CALIBRATION_REF_NS, calibration_loop  # noqa: E402

from sandwiched import WeightedCluster, chain_skeleton, enumerate_singularities, unload  # noqa: E402

SIZES = (50, 100, 200, 400)
ROUNDS = 100


def calibrated(benchmark, target, *args):
    """`target(*args)` timed for ROUNDS rounds, with the calibration loop
    timed before each; records the median of the calibrated round times as
    `calibrated_median_s` and returns the target's result."""
    calibrations = []

    def setup():
        start = time.perf_counter_ns()
        calibration_loop()
        calibrations.append(time.perf_counter_ns() - start)
        return args, {}

    result = benchmark.pedantic(target, setup=setup, rounds=ROUNDS, warmup_rounds=1)
    # setup also ran before the warm-up round, so the last ROUNDS calibrations
    # precede the timed rounds
    benchmark.extra_info["calibrated_median_s"] = statistics.median(
        t * CALIBRATION_REF_NS / c
        for t, c in zip(benchmark.stats.stats.data, calibrations[-ROUNDS:])
    )
    return result


@pytest.mark.parametrize("points", SIZES)
def test_chain_unload(benchmark, points):
    K = WeightedCluster(chain_skeleton(points), (1,) * (points - 1) + (points,))
    benchmark.extra_info["points"] = points
    result = calibrated(benchmark, unload, K)
    benchmark.extra_info["steps"] = len(result.steps)


@pytest.mark.parametrize("points", SIZES)
def test_enumerate_make_dr(benchmark, points):
    K = make_dr(points // 2)
    benchmark.extra_info["points"] = len(K.skeleton)
    reports = calibrated(benchmark, enumerate_singularities, K)
    assert [(r.mult, r.emdim) for r in reports] == [(points // 2 + 1, points // 2 + 2)]


def growth_exponent(points, seconds):
    """Least-squares slope of log time against log size; None for one size."""
    if len(points) < 2:
        return None
    xs = [math.log(n) for n in points]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return round(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs), 2)


COUNTS = ("steps", "calls", "added", "exit", "stdout_sha256")
SIZE_KEYS = ("points", "alpha")  # the first of these a benchmark records is its size


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
        raise SystemExit("usage: bench_unload.py PARENT CHANGE [CHANGE PARENT ...]")
    runs = []
    for path in sys.argv[1:]:
        with open(path) as handle:
            runs.append(json.load(handle))
    # the runs come in the order parent, change, change, parent, repeating
    parents = [run for i, run in enumerate(runs) if i % 4 in (0, 3)]
    changes = [run for i, run in enumerate(runs) if i % 4 in (1, 2)]
    print(json.dumps(merge(parents, changes), indent=2))
