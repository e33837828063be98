"""Per-call series for the analyzer, timed with pytest-benchmark.

Three series:

- `analyze` at every boundary point that `random_boundary_points` picks on
  200 seeded generator clusters, for at most 4, 6, 8 and 10 points;
- `enumerate_singularities` on the same clusters;
- `enumerate_singularities(make_dr(r))` at about 50, 100, 200 and 400
  points (the series of `bench_unload.py`, collected here as well).

The first two are cold: every round runs on fresh copies of the skeletons,
so no stored validity verdict or cached proximity data carries over between
rounds.  Their `points` is the mean cluster size, and the merged figures are
per call.  From the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/bench_analyze.py \\
        --benchmark-json=change.json

and after the same run against the parent's source tree,

    PYTHONPATH=src python benchmarks/bench_unload.py parent.json change.json > BENCH_N.json
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_unload import test_enumerate_make_dr  # noqa: E402,F401 - collected here too

from sandwiched import ClusterSkeleton, WeightedCluster, analyze, enumerate_singularities  # noqa: E402
from sandwiched.oracle import GeneratorConfig, _random_cluster, random_boundary_points  # noqa: E402

MAX_POINTS = (4, 6, 8, 10)
CLUSTERS = 200
ROUNDS = 30


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
    benchmark.pedantic(
        body,
        setup=lambda: (([(fresh(K), ws) for K, ws in items],), {}),
        rounds=ROUNDS,
        iterations=1,
    )


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
