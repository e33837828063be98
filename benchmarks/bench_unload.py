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
against log points).  It merges runs of any file in `benchmarks/`; a
benchmark that records `calls` in its extra info is reported per call, one
that records `alpha` instead of `points` is laid out by alpha, and one that
records `calibrated_median_s` is reported by that median rather than the
raw one.
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
    xs = [math.log(n) for n in points]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


COUNTS = ("steps", "calls", "added")
SIZE_KEYS = ("points", "alpha")  # the first of these a benchmark records is its size


def merge(parent: dict, change: dict) -> dict:
    """Median time per size on each side (per call when a benchmark records
    `calls`), the speed-up and each side's growth exponent, per series."""
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

    (before, old_counts), (after, new_counts) = medians(parent), medians(change)
    if old_counts != new_counts:
        raise SystemExit(f"step or call counts differ: {old_counts} vs {new_counts}")
    merged = {}
    for series, old in before.items():
        points = sorted(old)
        new = after[series]
        merged[series] = {
            size_of[series]: points,
            **{key: [c[n] for n in points] for key, c in new_counts.get(series, {}).items()},
            "parent_median_ms": [float(f"{old[n] * 1e3:.4g}") for n in points],
            "change_median_ms": [float(f"{new[n] * 1e3:.4g}") for n in points],
            "speedup": [round(old[n] / new[n], 2) for n in points],
            "parent_growth_exponent": round(growth_exponent(points, [old[n] for n in points]), 2),
            "change_growth_exponent": round(growth_exponent(points, [new[n] for n in points]), 2),
        }
    info = change["machine_info"]
    return {
        "benchmark": sorted({b["fullname"].split("::")[0] for b in change["benchmarks"]}),
        "machine": {
            "cpu": info.get("cpu", {}).get("brand_raw"),
            "python": info.get("python_version"),
        },
        "series": merged,
    }


if __name__ == "__main__":
    with open(sys.argv[1]) as a, open(sys.argv[2]) as b:
        print(json.dumps(merge(json.load(a), json.load(b)), indent=2))
