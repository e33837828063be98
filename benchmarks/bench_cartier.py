"""Alpha ladder for the Cartier builder, timed with pytest-benchmark.

Two series, alpha 25, 50, 100, 200 and 400 on every component through Q:
`cartier.build` on d1 (origin, p1, q1) at Satellite(0, 1), and on the one
singularity of make_dr(5).  The builder adds about alpha points, one stage
each, so the growth exponent in alpha is the cost of a stage plus one.
Both have one component through Q, so they never run the interior-excess
check between prescribed dicriticals; a third series, alpha 5, 10, 25 and
50, builds on the synthesized minimal singularity of
random_minimal_graph_spec(Random(5), 6, 5): 13 points and 8 components
through Q, about 8 alpha added points.

On a shared machine the CPU speed swings by up to 2x for seconds at a
time: raw medians of two runs of one tree were seen to differ by up to 60%
at one size (Xeon vCPU, Python 3.11), with 5 rounds or 200.  So each size
is timed by `bench_unload.calibrated`: the pure-Python calibration loop of
`perfbench/run.py` is timed before each round, and each round's time is
scaled by the loop's reference time over its measured time; the median of
the scaled times, `calibrated_median_s` in the extra info, is what the
merge reports.

Kept outside `tests/` so the test suite does not pay for it.  From the root
of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/bench_cartier.py \\
        --benchmark-json=change.json

and after the same run against the parent's source tree,

    PYTHONPATH=src python benchmarks/bench_unload.py parent.json change.json > BENCH_N.json
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from bench_unload import calibrated  # noqa: E402
from conftest import make_d1, make_dr  # noqa: E402

from sandwiched import Satellite, analyze, enumerate_singularities  # noqa: E402
from sandwiched.cartier import CartierRequest, build  # noqa: E402
from sandwiched.oracle import random_minimal_graph_spec  # noqa: E402
from sandwiched.synthesis import synthesize  # noqa: E402

ALPHAS = (25, 50, 100, 200, 400)
MANY_COMPONENT_ALPHAS = (5, 10, 25, 50)


def run_ladder(benchmark, K, report, alpha):
    request = CartierRequest(K, report, {p: alpha for p in report.Kplus_Q})
    benchmark.extra_info["alpha"] = alpha
    result = calibrated(benchmark, build, request)
    assert result.certificate.passed
    benchmark.extra_info["added"] = len(result.added)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_build_d1(benchmark, alpha):
    K = make_d1()
    run_ladder(benchmark, K, analyze(K, Satellite(0, 1)), alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_build_make_dr(benchmark, alpha):
    K = make_dr(5)
    (report,) = enumerate_singularities(K)
    run_ladder(benchmark, K, report, alpha)


@pytest.mark.parametrize("alpha", MANY_COMPONENT_ALPHAS)
def test_build_many_components(benchmark, alpha):
    K, w = synthesize(random_minimal_graph_spec(random.Random(5), 6, 5))
    report = analyze(K, w)
    assert (len(K.skeleton), len(report.Kplus_Q)) == (13, 8)
    run_ladder(benchmark, K, report, alpha)
