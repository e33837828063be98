"""Work linear in the number of points, counted rather than timed.

Core claims:
    - `enumerate_singularities`, and `cartier.build` at alpha 1 on every
      component through the singularity with the most contracted points,
      read `parents` at most 4n times on a 20,000-point chain, a
      20,000-point satellite fan and a 19,999-point fork; an o_Q check that
      walks every point of the contracted set down to o_Q, or a closing
      re-attachment that walks every point down to the origin, passes that
      bound within a few calls
    - on the fork, whose build keeps one branch and re-attaches the whole
      other one, the closing re-attachment is metered too: it appends the
      added points onto the base itself and reads no `parents`
    - each build's traced allocation peak stays under 100 MB

Every read of the base skeleton's `parents` goes through `CountedParents`,
a tuple whose `__getitem__` counts.  No clock is read: the counts and the
allocation peak do not depend on the machine's speed.
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


class CountedParents(tuple):
    """A parents tuple that counts its reads through `[]` and fails the test
    once the count passes `limit`; counts nothing while `limit` is None."""

    reads = 0
    limit = None

    def __getitem__(self, key):
        if CountedParents.limit is not None:
            CountedParents.reads += 1
            if CountedParents.reads > CountedParents.limit:
                pytest.fail(f"read parents more than {CountedParents.limit} times")
        return super().__getitem__(key)


def _counted(skeleton: ClusterSkeleton) -> ClusterSkeleton:
    """The skeleton with counted parents, validated before any count starts."""
    sk = ClusterSkeleton(CountedParents(skeleton.parents), skeleton.proximities, skeleton.tags)
    return sk.require_valid()


def _chain(n: int) -> tuple:
    """n free points, each over the previous, every multiplicity 1."""
    return WeightedCluster(_counted(chain_skeleton(n)), (1,) * n), (n - 1,)


def _satellite_fan(n: int) -> tuple:
    """Origin O, p1 free over O, then each point a satellite of the previous
    point and O; weighted as the simple cluster of its last point."""
    b = SkeletonBuilder()
    o = b.origin()
    prev = b.free(o)
    for _ in range(2, n):
        prev = b.satellite(prev, o)
    skeleton = _counted(b.build())
    return WeightedCluster(skeleton, simple_multiplicities(skeleton, n - 1)), (n - 1,)


def _fork(n: int) -> tuple:
    """Origin of weight 3 and two free chains over it of (n - 1) // 2 points
    each, every multiplicity 1: one singularity per chain."""
    b = SkeletonBuilder()
    o = b.origin()
    ends = []
    for _ in range(2):
        prev = o
        for _ in range((n - 1) // 2):
            prev = b.free(prev)
        ends.append(prev)
    skeleton = _counted(b.build())
    return WeightedCluster(skeleton, (3,) + (1,) * (len(skeleton) - 1)), (0, ends[0])


@pytest.fixture
def metered(monkeypatch):
    """A function that restarts the count of `parents` reads with a new limit."""

    def restart(limit):
        monkeypatch.setattr(CountedParents, "reads", 0)
        monkeypatch.setattr(CountedParents, "limit", limit)

    return restart


@pytest.mark.parametrize("shape", [_chain, _satellite_fan, _fork], ids=["chain", "satellite-fan", "fork"])
def test_enumerate_and_build_visit_linearly_many_points(metered, shape):
    cluster, kplus_q = shape(POINTS)
    n = len(cluster.skeleton)

    metered(4 * n)
    # the fan also contracts E_O alone; build on the long contracted chain,
    # and on the fork at the first of its two equal singularities
    report = max(enumerate_singularities(cluster), key=lambda r: len(r.T_Q))
    assert report.Kplus_Q == kplus_q

    metered(4 * n)
    tracemalloc.start()
    try:
        result = build(CartierRequest(cluster, report, dict.fromkeys(kplus_q, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.certificate.passed
    assert set(cluster.skeleton.tags) <= set(result.cluster.skeleton.tags)
    assert peak < PEAK_BYTES, f"peak {peak / 2**20:.1f} MB"
