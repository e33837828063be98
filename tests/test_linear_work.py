"""Work linear in the number of points, counted rather than timed.

Core claims:
    - `enumerate_singularities`, and `cartier.build` at alpha 1 on the last
      point at the singularity with the most contracted points, visit at most 4n points through `ClusterSkeleton.geq` and
      `ClusterSkeleton.predecessors` on a 20,000-point chain and on a
      20,000-point satellite fan; a walk per point of the contracted set in
      the o_Q check, or one predecessor set per base point in the closing
      re-attachment, passes that bound within a few calls
    - each build's traced allocation peak stays under 100 MB

No clock is read: the counts and the allocation peak do not depend on the
machine's speed.
"""

import tracemalloc

import pytest

from sandwiched import SkeletonBuilder, WeightedCluster, chain_skeleton
from sandwiched.analyzer import enumerate_singularities
from sandwiched.cartier import CartierRequest, build
from sandwiched.cluster import ClusterSkeleton
from sandwiched.weighted import simple_multiplicities

POINTS = 20_000
PEAK_BYTES = 100 * 2**20


def _chain(n: int) -> WeightedCluster:
    """n free points, each over the previous, every multiplicity 1."""
    return WeightedCluster(chain_skeleton(n), (1,) * n)


def _satellite_fan(n: int) -> WeightedCluster:
    """Origin O, p1 free over O, then each point a satellite of the previous
    point and O; weighted as the simple cluster of its last point."""
    b = SkeletonBuilder()
    o = b.origin()
    prev = b.free(o)
    for _ in range(2, n):
        prev = b.satellite(prev, o)
    skeleton = b.build()
    return WeightedCluster(skeleton, simple_multiplicities(skeleton, n - 1))


@pytest.fixture
def metered(monkeypatch):
    """Sum the points `geq` and `predecessors` visit, and fail the test once
    the sum passes the limit; returns a function that restarts the count
    with a new limit."""
    real_geq, real_predecessors = ClusterSkeleton.geq, ClusterSkeleton.predecessors
    meter = {"visited": 0, "limit": 0}

    def charge(points):
        meter["visited"] += points
        if meter["visited"] > meter["limit"]:
            pytest.fail(f"visited more than {meter['limit']} points")

    def geq(self, p, q):
        u, visited = p, 1
        while u is not None and u > q:
            u, visited = self.parents[u], visited + 1
        charge(visited)
        return real_geq(self, p, q)

    def predecessors(self, p):
        result = real_predecessors(self, p)
        charge(len(result))
        return result

    monkeypatch.setattr(ClusterSkeleton, "geq", geq)
    monkeypatch.setattr(ClusterSkeleton, "predecessors", predecessors)

    def restart(limit):
        meter.update(visited=0, limit=limit)

    return restart


@pytest.mark.parametrize("shape", [_chain, _satellite_fan], ids=["chain", "satellite-fan"])
def test_enumerate_and_build_visit_linearly_many_points(metered, shape):
    cluster = shape(POINTS)
    last = POINTS - 1

    metered(4 * POINTS)
    # the fan also contracts E_O alone; build on the long contracted chain
    report = max(enumerate_singularities(cluster), key=lambda r: len(r.T_Q))
    assert report.Kplus_Q == (last,)

    metered(4 * POINTS)
    tracemalloc.start()
    try:
        result = build(CartierRequest(cluster, report, {last: 1}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.certificate.passed
    assert peak < PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"
