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
      other one, the closing re-attachment is metered too: it lays out the
      base's points and then the added ones in one pass
    - each build's traced allocation peak stays under 100 MB
    - `cartier.verify` makes a fixed number of whole-cluster passes
      (`values`, `excesses`, `multiplicities_from_excesses`,
      `dicritical_set`), however many dicriticals the base has: on a comb
      with 120 teeth, each tooth a dicritical, it makes at most two of each
    - on that comb, once `enumerate_singularities` has derived the base's
      dual-graph rows, `verify` applies the blow-up rule
      (`extend_adjacency`) 0 times, and `build` with its verify at most
      once per appended stage, at alpha 1 and at alpha 2, where an
      unloading drops points: both read the base's rows, each append
      updates the stage's rows, and a drop renumbers them
      (`restrict_adjacency`) without deriving them again
    - an untraced build makes exactly one `ClusterSkeleton`, the result's,
      and calls no public `unload`, on d1 at alpha 2,000 and on the
      8-component ladder instance at alpha 100: the stage grows and unloads
      in lists
    - on the same two builds, each unloading of the stage reads the
      dual-graph row of each point it touches once, and no other row
    - on the 8-component instance the whole-graph interior-excess search
      runs at most once per unloading plus once for the first stage: a
      stage that only appended a point is checked by the local rule
    - an untraced `unload` reads `proximities` at most 10n times, validation
      included, on the chain weighted (1, ..., 1, 200) (19,290 steps) and on
      the K_w that `enumerate_singularities` unloads on make_dr(100) (10,001
      steps): a step reads no proximity row, only the first step at a point
      reads that point's dual-graph row
    - on the same two unloadings, `unload` makes at most 3n heap pushes
      and exactly one pop more than it pushes, since each starts from one
      negative point: a run of tame steps down links is one step, which
      pushes at most its two ends, so the heap calls grow with n, not with
      the step count (586 pushes for the chain's 19,290 steps, 396 for the
      K_w's 10,001)
    - an untraced `_unload_steps` reads its excess list at most 16n times
      on the chains weighted (1, ..., 1, n) at n = 200 and 800 (19,290 and
      316,354 steps) and on the K_w that `_appended` makes of make_dr(100)
      (10,001 steps): a run down links jumps across the stretch of zero
      links an earlier run left, rather than reading it link by link
    - the blow-up rule grows a row in place: `extend_adjacency` copies at
      most 2n row entries, counting each row a call replaces rather than
      changes in place at its length, in deriving `dual_rows` on a
      20,000-point free fan (the origin with every other point free on
      it), a 20,000-point satellite fan and a 19,999-point bladed fan (a
      free fan with a satellite on each blade and the origin), and in
      `synthesize` on a star of 10,000 vertices; a rule that rebuilt each
      target's row at each append copies about 3n on the satellite fan,
      whose rows stay short, and quadratically many on the others (about
      2·10^8 on the free fan)

Every read of the base skeleton's `parents` goes through `CountedParents`,
and every read of an unloaded skeleton's `proximities` through
`CountedProximities`: tuples whose `__getitem__` counts; every read of an
unloading stage's dual-graph rows through `CountedRows`; every read of the
engine's excess list through `CountedExcesses`; the heap calls through the
`heap_calls` fixture.  No clock is read: the counts and the
allocation peak do not depend on the machine's speed.
"""

import random
import tracemalloc

import pytest

from sandwiched import (
    FreeOn,
    Satellite,
    SkeletonBuilder,
    WeightedCluster,
    analyze,
    chain_skeleton,
    unload,
)
from sandwiched.analyzer import enumerate_singularities, extend, zero_excess_components
from sandwiched import cartier, weighted
from sandwiched import cluster as cluster_module
from sandwiched.cartier import CartierRequest, build, verify
from sandwiched.cluster import ClusterSkeleton
from sandwiched.oracle import random_minimal_graph_spec
from sandwiched.synthesis import MinimalGraphSpec, synthesize
from sandwiched.weighted import (
    _appended,
    _unload_steps,
    dicritical_set,
    excesses,
    multiplicities_from_excesses,
)

from conftest import make_d1, make_dr

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
    for name in ("values", "excesses", "multiplicities_from_excesses", "dicritical_set"):
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
    calls = {"extend_adjacency": 0, "append": 0}
    for module, name in ((cluster_module, "extend_adjacency"), (weighted, "extend_adjacency")):
        def counted(*args, _real=getattr(module, name)):
            calls["extend_adjacency"] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    real_append = cartier._Stage.append

    def append(*args):
        calls["append"] += 1
        return real_append(*args)

    monkeypatch.setattr(cartier._Stage, "append", append)
    assert verify(comb, report, dict.fromkeys(leaves, 1), comb).readout_matches
    assert calls["extend_adjacency"] == 0
    # at alpha 2 one unloading drops points, and 121 stages are appended
    for alpha in (1, 2):
        calls.update(extend_adjacency=0, append=0)
        result = build(CartierRequest(comb, report, dict.fromkeys(leaves, alpha)))
        assert result.certificate.passed
        stages = len(result.trace) - 2  # the start and the result are no stage
        assert 0 < calls["extend_adjacency"] <= calls["append"] == stages, calls


def _counted_calls(monkeypatch, owner, name) -> dict:
    """Counts, as {"calls": n}, the calls of `owner.name`."""
    calls = {"calls": 0}
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls["calls"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _many_components():
    """The synthesized singularity with 8 components through Q of the
    benchmark ladders."""
    K, w = synthesize(random_minimal_graph_spec(random.Random(5), 6, 5))
    report = analyze(K, w)
    assert (len(K.skeleton), len(report.Kplus_Q)) == (13, 8)
    return K, report


UNTRACED_BUILDS = pytest.mark.parametrize(
    "instance, alpha", [("d1", 2_000), ("many-components", 100)]
)


def _untraced_request(instance, alpha) -> CartierRequest:
    if instance == "d1":
        K = make_d1()
        report = analyze(K, Satellite(0, 1))
    else:
        K, report = _many_components()
    return CartierRequest(K, report, dict.fromkeys(report.Kplus_Q, alpha))


@UNTRACED_BUILDS
def test_an_untraced_build_makes_one_skeleton_the_result(monkeypatch, instance, alpha):
    request = _untraced_request(instance, alpha)
    unloads = _counted_calls(monkeypatch, cartier._Stage, "unload")
    skeletons = _counted_calls(monkeypatch, ClusterSkeleton, "__init__")
    public_unloads = _counted_calls(monkeypatch, weighted, "unload")
    at_verify = []
    real_verify = cartier.verify

    def verifying(*args):
        at_verify.append((skeletons["calls"], public_unloads["calls"]))
        return real_verify(*args)

    monkeypatch.setattr(cartier, "verify", verifying)
    result = build(request, trace=False)
    assert result.certificate.passed and len(result.added) >= alpha - 1
    assert unloads["calls"] > 0 and skeletons["calls"] == 1, (skeletons, unloads)
    # the one skeleton is the result's, made before its verification, and
    # the stage's unloadings run the engine, not the public `unload`
    assert at_verify == [(1, 0)] and public_unloads["calls"] == 0
    assert not hasattr(cartier, "unload")


class CountedRows(dict):
    """Dual-graph rows that record each point whose row is read by `[]`."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = []

    def __getitem__(self, p):
        self.read.append(p)
        return super().__getitem__(p)


@UNTRACED_BUILDS
def test_an_untraced_builds_unloadings_read_only_their_touched_rows(monkeypatch, instance, alpha):
    request = _untraced_request(instance, alpha)
    real = cartier._Stage.unload
    unloadings = []

    def unloading(stage, negative):
        rows = stage.dual_rows
        stage.dual_rows = CountedRows(rows)
        try:
            step_count, touched = real(stage, negative)
        finally:
            read, stage.dual_rows = stage.dual_rows.read, rows
        # one read per touched point, in the order the engine first unloads them
        assert read == touched
        unloadings.append((len(rows), len(touched)))
        return step_count, touched

    monkeypatch.setattr(cartier._Stage, "unload", unloading)
    assert build(request, trace=False).certificate.passed
    assert unloadings and all(touched < points for points, touched in unloadings), unloadings


def test_the_whole_graph_search_runs_once_per_unloading_plus_the_first_stage(monkeypatch):
    K, report = _many_components()
    request = CartierRequest(K, report, dict.fromkeys(report.Kplus_Q, 100))
    unloads = _counted_calls(monkeypatch, cartier._Stage, "unload")
    searches = _counted_calls(monkeypatch, cartier, "check_interior_excess")
    result = build(request, trace=False)
    assert result.certificate.passed and len(result.added) > 700
    assert 0 < searches["calls"] <= unloads["calls"] + 1, (searches, unloads)


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
def test_unload_makes_at_most_3n_pushes_and_one_pop_more(heap_calls, shape, steps):
    K = shape()
    n = len(K.skeleton)
    for trace in (False, True):
        heap_calls.update(push=0, pop=0)
        assert unload(K, trace=trace).step_count == steps
        assert heap_calls["push"] <= 3 * n, heap_calls
        assert heap_calls["pop"] == heap_calls["push"] + 1, heap_calls


class CountedExcesses(list):
    """An excess list that counts its reads through `[]`."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def _chain_lists(n: int) -> tuple:
    sk = chain_skeleton(n)
    return excesses(WeightedCluster(sk, (1,) * (n - 1) + (n,))), sk.proximate_to, sk.dual_rows


def _make_dr_kw_lists() -> tuple:
    K = make_dr(100)
    (component,) = zero_excess_components(K)
    return _appended(K.skeleton, excesses(K), component[0])


@pytest.mark.parametrize(
    "lists, steps",
    [
        (lambda: _chain_lists(200), 19_290),
        (lambda: _chain_lists(800), 316_354),
        (_make_dr_kw_lists, 10_001),
    ],
    ids=["chain-200", "chain-800", "make_dr-K_w"],
)
def test_a_run_down_links_reads_its_stretch_once(lists, steps):
    rho, proximate_to, dual_rows = lists()
    n = len(rho)
    counted = CountedExcesses(rho)
    queue = [p for p, r in enumerate(rho) if r < 0]
    count, _, _ = _unload_steps(counted, queue, proximate_to, dual_rows, 10 * steps, False)
    assert count == steps
    assert counted.reads <= 16 * n, (counted.reads, n)


@pytest.fixture
def row_copies(monkeypatch):
    """The number of row entries `extend_adjacency` copies, as
    {"calls": ..., "copied": ...}: each target row a call replaces, rather
    than changes in place, counts at its length before the call."""
    counts = {"calls": 0, "copied": 0}
    real = cluster_module.extend_adjacency

    def counted(adjacency, targets):
        before = [adjacency[q] for q in targets]
        real(adjacency, targets)
        counts["calls"] += 1
        replaced = [row for q, row in zip(targets, before) if adjacency[q] is not row]
        counts["copied"] += sum(map(len, replaced))

    for module in (cluster_module, weighted):
        monkeypatch.setattr(module, "extend_adjacency", counted)
    return counts


def _free_fan(n: int) -> ClusterSkeleton:
    """The origin and n - 1 free points on it."""
    parents = (None,) + (0,) * (n - 1)
    proximities = (frozenset(),) + (frozenset((0,)),) * (n - 1)
    return ClusterSkeleton(parents, proximities, tuple(f"p{p}" for p in range(n)))


def _bladed_fan(n: int) -> ClusterSkeleton:
    """The origin, (n - 1) // 2 free points on it, then a satellite of each
    of them and the origin: each satellite separates its blade from the
    origin's long row."""
    b = SkeletonBuilder()
    o = b.origin()
    blades = [b.free(o) for _ in range((n - 1) // 2)]
    for blade in blades:
        b.satellite(blade, o)
    return b.build()


@pytest.mark.parametrize(
    "shape",
    [_free_fan, lambda n: _satellite_fan(n)[0].skeleton, _bladed_fan],
    ids=["free-fan", "satellite-fan", "bladed-fan"],
)
def test_dual_rows_grow_in_place(row_copies, shape):
    sk = shape(POINTS).require_valid()
    rows = sk.dual_rows
    assert row_copies["calls"] == len(sk) - 1
    assert row_copies["copied"] <= 2 * len(sk), row_copies
    assert all(type(row) is tuple for row in rows.values())


def test_synthesize_grows_a_stars_rows_in_place(row_copies):
    n = POINTS // 2
    names = tuple(f"v{i}" for i in range(n))
    edges = tuple((names[0], v) for v in names[1:])
    spec = MinimalGraphSpec(names, edges, (n - 1,) + (2,) * (n - 1))
    cluster, _ = synthesize(spec)
    assert row_copies["calls"] >= len(cluster.skeleton) - 1
    assert row_copies["copied"] <= 2 * len(cluster.skeleton), row_copies
