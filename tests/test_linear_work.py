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
    - `cartier.verify` makes a fixed number of whole-cluster passes
      (`values`, `excesses`, `multiplicities_from_excesses`, `dual_graph`,
      `dicritical_set`), however many dicriticals the base has: on a comb
      with 120 teeth, each tooth a dicritical, it makes at most two of each
    - on that comb, once `enumerate_singularities` has derived the base's
      dual-graph rows, `verify` applies the blow-up rule
      (`extend_adjacency`) 0 times, and `build` with its verify at most
      once per appended stage: both read the base's rows, and each stage
      inherits its rows through `extend_point`
    - an untraced `unload` reads `proximities` at most 10n times, validation
      included, on the chain weighted (1, ..., 1, 200) (19,290 steps) and on
      the K_w that `enumerate_singularities` unloads on make_dr(100) (10,001
      steps): a step reads no proximity row, only the first step at a point
      reads that point's dual-graph row
    - on the same two unloadings, `unload` makes at most n heap pushes and
      n + 1 heap pops: a step that takes a point below the unloaded one
      across 0 hands it to the next step without the heap, so the heap
      calls do not grow with the step count

Every read of the base skeleton's `parents` goes through `CountedParents`,
and every read of an unloaded skeleton's `proximities` through
`CountedProximities`: tuples whose `__getitem__` counts; the heap calls
through the `heap_calls` fixture.  No clock is read: the counts and the
allocation peak do not depend on the machine's speed.
"""

import tracemalloc

import pytest

from sandwiched import FreeOn, SkeletonBuilder, WeightedCluster, chain_skeleton, unload
from sandwiched.analyzer import enumerate_singularities, extend, zero_excess_components
from sandwiched import cartier
from sandwiched import cluster as cluster_module
from sandwiched.cartier import CartierRequest, build, verify
from sandwiched.cluster import ClusterSkeleton
from sandwiched.weighted import dicritical_set, multiplicities_from_excesses

from conftest import make_dr

POINTS = 20_000
PEAK_BYTES = 100 * 2**20


class Counted(tuple):
    """A skeleton field that counts its reads through `[]` and fails the test
    once the count passes `limit`; counts nothing while `limit` is None.
    Each counted field is its own subclass, with its own count."""

    field = ""
    reads = 0
    limit = None

    def __getitem__(self, key):
        counter = type(self)
        if counter.limit is not None:
            counter.reads += 1
            if counter.reads > counter.limit:
                pytest.fail(f"read {counter.field} more than {counter.limit} times")
        return super().__getitem__(key)


class CountedParents(Counted):
    field = "parents"


class CountedProximities(Counted):
    field = "proximities"


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
    unit = [0] * (n - 1) + [1]
    return multiplicities_from_excesses(skeleton, unit), (n - 1,)


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
    """A function that restarts the count of one field's reads (`parents`
    by default) with a new limit."""

    def restart(limit, counter=CountedParents):
        monkeypatch.setattr(counter, "reads", 0)
        monkeypatch.setattr(counter, "limit", limit)

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


def _comb() -> tuple:
    """A free chain, the spine, with one free tooth on each of its points,
    weighted by the simple clusters of its leaves: every leaf is a
    dicritical.  Returns the comb, its leaves and its one singularity."""
    b = SkeletonBuilder()
    spine = [b.origin()]
    for _ in range(119):
        b.free(spine[-1])
        spine.append(b.free(spine[-1]))
    b.free(spine[-1])
    skeleton = b.build()
    leaves = [p for p in skeleton.points if not skeleton.proximate_to[p]]
    comb = multiplicities_from_excesses(skeleton, [int(p in leaves) for p in skeleton.points])
    assert sorted(dicritical_set(comb)) == leaves and len(leaves) > 100
    (report,) = enumerate_singularities(comb)
    return comb, leaves, report


def test_verify_makes_a_fixed_number_of_passes_whatever_the_dicriticals(monkeypatch):
    comb, leaves, report = _comb()

    calls = {}
    for name in ("values", "excesses", "multiplicities_from_excesses", "dual_graph", "dicritical_set"):
        def counted(*args, _name=name, _real=getattr(cartier, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(cartier, name, counted)
    # the comb is its own candidate: one simple cluster of each leaf
    certificate = verify(comb, report, dict.fromkeys(leaves, 1), comb)
    assert certificate.readout_matches
    assert max(calls.values()) <= 2, calls


def test_build_and_verify_read_the_base_dual_rows(monkeypatch):
    comb, leaves, report = _comb()
    calls = {"extend_adjacency": 0, "extend_point": 0}
    for module, name in ((cluster_module, "extend_adjacency"), (cartier, "extend_point")):
        def counted(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    alpha = dict.fromkeys(leaves, 1)
    assert verify(comb, report, alpha, comb).readout_matches
    assert calls["extend_adjacency"] == 0
    assert build(CartierRequest(comb, report, alpha), trace=False).certificate.passed
    assert 0 < calls["extend_adjacency"] <= calls["extend_point"], calls


def _weighted_chain() -> WeightedCluster:
    return WeightedCluster(chain_skeleton(200), (1,) * 199 + (200,))


def _make_dr_kw() -> WeightedCluster:
    K = make_dr(100)
    (component,) = zero_excess_components(K)
    return extend(K, FreeOn(component[0]))


LONG_UNLOADS = pytest.mark.parametrize(
    "shape, steps", [(_weighted_chain, 19_290), (_make_dr_kw, 10_001)], ids=["chain", "make_dr-K_w"]
)


@LONG_UNLOADS
def test_unload_reads_each_proximity_row_a_bounded_number_of_times(metered, shape, steps):
    K = shape()
    sk = K.skeleton
    # not validated yet: the count covers the validation `unload` runs
    counted = WeightedCluster(
        ClusterSkeleton(sk.parents, CountedProximities(sk.proximities), sk.tags), K.nu
    )
    n = len(sk)
    metered(10 * n, CountedProximities)
    result = unload(counted, trace=False)
    assert result.step_count == steps


@LONG_UNLOADS
def test_unload_makes_at_most_n_pushes_and_n_plus_one_pops(heap_calls, shape, steps):
    K = shape()
    n = len(K.skeleton)
    for trace in (False, True):
        heap_calls.update(push=0, pop=0)
        assert unload(K, trace=trace).step_count == steps
        assert heap_calls["push"] <= n and heap_calls["pop"] <= n + 1, heap_calls
