"""Worklist unloading against the rescanning reference loop.

Core claims:
    - `unload` gives the same cluster and the same step trace as
      `oracle.reference_unload` on seeded generator instances (including the
      raw weightings the generator unloads), on the codimension-one
      extensions of the make_dr family and on chains weighted (1, ..., 1, n)
    - under a small cap both raise CapExceededError with the same partial trace
    - on 600 seeded branchy chains of links with random excesses
      (`oracle.random_link_chain`), `unload` gives the reference loop's
      cluster and steps, traced and untraced, and under caps that fall
      before runs down links and inside them it raises at the reference's
      step with its partial trace: there the stretches of zero links that
      runs leave behind break at both ends
    - `unload(K, trace=False)` keeps no step record and otherwise agrees with
      the traced call on every instance above and on weights up to 10^40: the
      same cluster, `step_count == len(steps)`, the same touched points, and
      in both modes `rho` is the excess vector of the result; under a small
      cap it raises at the same step as the traced call, with an empty trace
    - whatever order the reference loop unloads in, it ends on the cluster
      `unload` reaches, and that cluster has no negative excess
    - at every pop the engine's heap holds exactly the negative points of
      its excess list, each once, checked against the list itself by a
      `heappop` stand-in: a step lowers every excess it changes but the
      unloaded point's (checked by replaying the trace); every entry pushed
      is popped as a step, so none is stale (initial negatives + pushes =
      pops); and no crossing is pushed twice (pushes <= the replay's net
      crossings, fewer where a run down links takes several steps in one).
      This holds on instances where the earlier multiplicity-form step
      raised a negative point out of the negatives and lowered it back
    - a step moves the excesses along the dual tree, where a satellite
      proximate to two points separates them: on every weighting of a
      5-point skeleton with such a satellite, `unload` matches the reference
      loop
    - the engine behind `unload`, driven directly on list storage (rows of
      `proximate_to` as lists and a dict of dual-graph rows, as the Cartier
      stage holds them), gives `unload`'s excesses, touched points, step
      count and, traced, its steps, on seeded generator instances; from an
      empty queue it takes no step and leaves the excesses as they are, and
      so does a Cartier stage unloaded from no negative point
    - the engine takes a run of tame steps down a chain of links in a
      constant number of writes: on the chain weighted (1, ..., 1, 200),
      traced and untraced, and on make_dr(100)'s K_w it writes at most one
      excess per four steps, and ends as on a plain list
    - an `UnloadStep` is a frozen value: its fields cannot be assigned, its
      repr names them, and it is not equal to the tuple of its fields
    - one traced call gives equal steps one shared record, tame and non-tame
      alike, and a step of increment 1 from an excess below -1 (-2 at
      w = 2) is recorded non-tame, as the reference loop records it
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandwiched import (
    CapExceededError,
    ClusterSkeleton,
    FreeOn,
    Satellite,
    SkeletonBuilder,
    WeightedCluster,
    chain_skeleton,
    dual_graph,
    excesses,
    unload,
)
from sandwiched import oracle, weighted
from sandwiched.analyzer import extend, zero_excess_components
from sandwiched.oracle import (
    GeneratorConfig,
    random_link_chain,
    random_skeleton,
    reference_unload,
)
from sandwiched.weighted import UnloadStep, _appended, _default_cap, _Stage, _unload_steps

from conftest import make_dr


def assert_same_unload(K, **kwargs):
    got = unload(K, **kwargs)
    want = reference_unload(K, **kwargs)
    assert got.cluster == want.cluster
    assert got.steps == want.steps
    return got


def assert_untraced_agrees(K, traced, **kwargs):
    untraced = unload(K, trace=False, **kwargs)
    assert untraced.cluster == traced.cluster
    assert untraced.steps == ()
    assert untraced.step_count == traced.step_count == len(traced.steps)
    assert untraced.touched == traced.touched == frozenset(s.point for s in traced.steps)
    assert untraced.rho == traced.rho == excesses(traced.cluster)


def test_matches_reference_on_generator_instances(monkeypatch):
    raw = []
    real = oracle.unload

    def capture(cluster, **kwargs):
        raw.append(cluster)
        return real(cluster, **kwargs)

    monkeypatch.setattr(oracle, "unload", capture)
    rng = random.Random(20261017)
    config = GeneratorConfig(max_points=10, max_multiplicity=5, satellite_probability=0.4)
    noisy = []
    for _ in range(3000):
        K = oracle._random_cluster(rng, config)
        noisy.append(
            WeightedCluster(K.skeleton, tuple(m + rng.randint(-3, 1) for m in K.nu))
        )
    monkeypatch.undo()
    assert len(raw) > 1000
    nontame = 0
    for K in raw + noisy:
        result = assert_same_unload(K)
        assert_untraced_agrees(K, result)
        nontame += any(not s.tame for s in result.steps)
    assert nontame > 100  # the non-tame branch is exercised, not just tame steps


def test_the_engine_on_list_storage_agrees_with_unload():
    rng = random.Random(20261019)
    config = GeneratorConfig(max_points=10, max_multiplicity=5, satellite_probability=0.4)
    stepped = 0
    for _ in range(1000):
        K = oracle._random_cluster(rng, config)
        K = WeightedCluster(K.skeleton, tuple(m + rng.randint(-3, 1) for m in K.nu))
        sk = K.skeleton
        expected = unload(K)
        for trace in (False, True):
            rho = list(excesses(K))
            queue = [p for p, r in enumerate(rho) if r < 0]
            if not queue:
                assert expected.step_count == 0
                break
            prox_to = [list(row) for row in sk.proximate_to]
            step_count, touched, steps = _unload_steps(
                rho, queue, prox_to, dict(sk.dual_rows), _default_cap(K.nu), trace
            )
            assert tuple(rho) == expected.rho
            assert frozenset(touched) == expected.touched and len(touched) == len(expected.touched)
            assert step_count == expected.step_count
            assert tuple(steps) == (expected.steps if trace else ())
            stepped += trace
    assert stepped > 500


def test_the_engine_takes_no_step_from_an_empty_queue():
    K = WeightedCluster(chain_skeleton(3), (2, 1, 1))
    sk, rho = K.skeleton, list(excesses(K))
    for trace in (False, True):
        assert _unload_steps(
            rho, [], sk.proximate_to, sk.dual_rows, _default_cap(K.nu), trace
        ) == (0, [], [])
        assert tuple(rho) == excesses(K)
    stage = _Stage(K, excesses(K))
    assert stage.unload([]) == (0, [])
    assert (stage.nu, stage.rho) == (list(K.nu), list(excesses(K)))


class WriteCountingList(list):
    """An excess list that counts the element writes made to it."""

    writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


def test_a_run_of_tame_hand_offs_down_links_is_one_move():
    # unloading a chain of (-2)-curves carries each unit down the chain one
    # tame step per link; the engine takes such a run in a constant
    # number of writes, so a long unloading writes far fewer excesses than
    # it takes steps, and otherwise runs as the plain list does
    chain = WeightedCluster(chain_skeleton(200), (1,) * 199 + (200,))
    K = make_dr(100)
    target = excesses(K).index(0)
    rho, prox_to, rows = _appended(K.skeleton, excesses(K), target)
    sk = chain.skeleton
    cases = [
        (excesses(chain), [198], sk.proximate_to, sk.dual_rows, _default_cap(chain.nu), False),
        (excesses(chain), [198], sk.proximate_to, sk.dual_rows, _default_cap(chain.nu), True),
        (rho, [target], prox_to, rows, _default_cap((*K.nu, 1)), False),
    ]
    for rho, queue, *rest in cases:
        assert queue == [p for p, r in enumerate(rho) if r < 0]
        plain, counted = list(rho), WriteCountingList(rho)
        expected = _unload_steps(plain, list(queue), *rest)
        assert _unload_steps(counted, list(queue), *rest) == expected
        assert counted == plain
        steps = expected[0]
        assert steps > 10_000
        assert counted.writes * 4 <= steps, (counted.writes, steps)


def test_stretches_of_links_break_as_the_stepwise_order_does():
    # branchy chains of links with random excesses: their unloadings run
    # across remembered stretches of links and break stretches at both ends.
    # Each is compared with the reference loop's first 200 steps, to the end
    # when it takes fewer, and under caps that fall before runs and inside them
    rng = random.Random(20261021)
    inside = full = 0
    for _ in range(600):
        K = random_link_chain(rng)
        try:
            want = reference_unload(K, cap=200)
            trace, caps = want.steps, []
        except CapExceededError as overrun:
            want, trace, caps = None, overrun.trace, [200]
        caps += rng.sample(range(len(trace)), min(3, len(trace)))
        for cap in caps:
            # the overrun step, trace[cap], goes on a run down links
            before, step = trace[cap - 1], trace[cap]
            inside += cap > 0 and before.tame and step.tame and step.point == before.point - 1
        for trace_mode in (False, True):
            for cap in caps:
                with pytest.raises(CapExceededError) as got:
                    unload(K, cap=cap, trace=trace_mode)
                assert str(got.value) == f"unloading exceeded the {cap}-step safety cap"
                assert got.value.trace == (trace[: cap + 1] if trace_mode else ())
        if want is not None:
            result = unload(K)
            assert (result.cluster, result.steps) == (want.cluster, want.steps)
            assert_untraced_agrees(K, result)
            full += 1
    assert full > 200 and inside > 600, (full, inside)


def test_matches_reference_on_make_dr_extensions():
    for r in range(1, 31):
        K = make_dr(r)
        # the extensions enumerate_singularities unloads, plus every boundary
        # point while the reference loop is still cheap
        spots = [FreeOn(component[0]) for component in zero_excess_components(K)]
        if r <= 6:
            spots += [FreeOn(p) for p in K.skeleton.points]
            spots += [Satellite(u, v) for u, v in dual_graph(K.skeleton).edges]
        for w in spots:
            K_w = extend(K, w)
            assert_untraced_agrees(K_w, assert_same_unload(K_w))


def test_matches_reference_on_weighted_chains():
    for n in range(1, 61):
        K = WeightedCluster(chain_skeleton(n), (1,) * (n - 1) + (n,))
        result = assert_same_unload(K)
        assert_untraced_agrees(K, result)
        assert all(r >= 0 for r in excesses(result.cluster))


@pytest.mark.parametrize("cap", [0, 1, 2, 5, 17])
def test_cap_overrun_has_the_reference_partial_trace(cap):
    instances = [
        WeightedCluster(chain_skeleton(12), (1,) * 11 + (12,)),
        extend(make_dr(6), FreeOn(0)),
    ]
    for K in instances:
        with pytest.raises(CapExceededError) as got:
            unload(K, cap=cap)
        with pytest.raises(CapExceededError) as want:
            reference_unload(K, cap=cap)
        assert str(got.value) == str(want.value)
        assert got.value.trace == want.value.trace
        assert len(got.value.trace) == cap + 1


def test_untraced_unloading_agrees_at_weights_up_to_10_40():
    rng = random.Random(20261019)
    config = GeneratorConfig(max_points=10, max_multiplicity=5, satellite_probability=0.4)
    steps = 0
    for k in (3, 10, 20, 40):
        scale = 10**k
        for _ in range(100):
            K = oracle._random_cluster(rng, config)
            nu = (m * scale + rng.randint(-3, 1) * rng.randint(1, scale) for m in K.nu)
            big = WeightedCluster(K.skeleton, tuple(nu))
            traced = unload(big, cap=20_000)
            assert_untraced_agrees(big, traced, cap=20_000)
            steps += traced.step_count
    assert steps > 5_000  # the big weights are unloaded, not just consistent


def test_untraced_cap_overrun_comes_at_the_same_step():
    instances = [
        WeightedCluster(chain_skeleton(12), (1,) * 11 + (12,)),
        extend(make_dr(6), FreeOn(0)),
        extend(make_dr(2), FreeOn(0)),
    ]
    for K in instances:
        needed = unload(K).step_count
        for cap in range(needed):
            with pytest.raises(CapExceededError) as traced:
                unload(K, cap=cap)
            with pytest.raises(CapExceededError) as untraced:
                unload(K, cap=cap, trace=False)
            assert str(untraced.value) == str(traced.value)
            assert len(traced.value.trace) == cap + 1
            assert untraced.value.trace == ()
        # a cap the unloading just reaches raises in neither mode
        assert_untraced_agrees(K, unload(K, cap=needed), cap=needed)


@st.composite
def weighted_clusters(draw):
    """A valid skeleton of up to 9 points and arbitrary small weights."""
    n = draw(st.integers(1, 9))
    parents = [None]
    prox = [frozenset()]
    occupied = set()
    for p in range(1, n):
        parent = draw(st.integers(0, p - 1))
        targets = frozenset({parent})
        free_pairs = sorted(
            q for q in prox[parent] if frozenset({parent, q}) not in occupied
        )
        if free_pairs and draw(st.booleans()):
            targets = frozenset({parent, draw(st.sampled_from(free_pairs))})
            occupied.add(targets)
        parents.append(parent)
        prox.append(targets)
    skeleton = ClusterSkeleton(
        tuple(parents), tuple(prox), tuple(f"p{p}" for p in range(n))
    ).require_valid()
    nu = draw(st.tuples(*(st.integers(-4, 6) for _ in range(n))))
    return WeightedCluster(skeleton, nu)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(K=weighted_clusters(), choices=st.lists(st.integers(0, 10**6), min_size=1, max_size=30))
def test_result_is_independent_of_pick_order(K, choices):
    calls = itertools.count()

    def pick(negative):
        return negative[choices[next(calls) % len(choices)] % len(negative)]

    result = unload(K)
    assert reference_unload(K, pick=pick).cluster == result.cluster
    assert all(r >= 0 for r in excesses(result.cluster))


def crossings(K, steps):
    """Replay `steps` on K by the definition of a step, checking that a step
    lowers every excess but the unloaded point's.  Return the number of net
    crossings over all steps (points whose excess goes from >= 0 before the
    step to < 0 after it) and the number of re-pushes a multiplicity-form
    step would make: points x next to the unloaded point p (a target of p
    or proximate to p), negative before the step, >= 0 after raising nu_p
    and lowering nu at the points proximate to p, and < 0 after the step."""
    sk = K.skeleton
    nu = list(K.nu)
    net = repushes = 0
    for step in steps:
        p, inc = step.point, step.increment
        before = excesses(WeightedCluster(sk, tuple(nu)))
        nu[p] += inc
        for u in sk.proximate_to[p]:
            nu[u] -= inc
        after = excesses(WeightedCluster(sk, tuple(nu)))
        for x in sk.points:
            if x != p:
                assert after[x] <= before[x]
                net += before[x] >= 0 > after[x]
        for x in sk.proximities[p] | set(sk.proximate_to[p]):
            raised = before[x] + inc * sum(
                x in sk.proximities[u] for u in sk.proximate_to[p]
            )
            repushes += before[x] < 0 <= raised and after[x] < 0
    return net, repushes


def test_heap_holds_exactly_the_negative_points(heap_calls, monkeypatch):
    rng = random.Random(20261018)
    found = []
    for _ in range(4000):
        sk = random_skeleton(rng, 10, 0.6)
        K = WeightedCluster(sk, tuple(rng.randint(-3, 5) for _ in sk.points))
        net, repushes = crossings(K, reference_unload(K).steps)
        if repushes:
            found.append((K, net, assert_same_unload(K)))
    assert len(found) >= 500

    rho: list[int] = []
    counting_pop = weighted.heappop

    def checking_pop(queue):
        # the heap is exactly the ascending negative points of the engine's
        # own excess list, each once
        assert sorted(queue) == [x for x, r in enumerate(rho) if r < 0]
        return counting_pop(queue)

    monkeypatch.setattr(weighted, "heappop", checking_pop)
    total_pushes = 0
    for K, net, expected in found:
        sk = K.skeleton
        for trace in (False, True):
            heap_calls.update(push=0, pop=0)
            rho[:] = excesses(K)
            queue = [p for p, r in enumerate(rho) if r < 0]
            initial = len(queue)
            step_count, touched, steps = _unload_steps(
                rho, queue, sk.proximate_to, sk.dual_rows, _default_cap(K.nu), trace
            )
            assert (step_count, tuple(rho)) == (expected.step_count, expected.rho)
            assert frozenset(touched) == expected.touched
            assert tuple(steps) == (expected.steps if trace else ())
            pushes, pops = heap_calls["push"], heap_calls["pop"]
            # every entry is popped once, as a step: none is stale
            assert initial + pushes == pops
            assert pushes <= net
        total_pushes += pushes
    assert total_pushes > 5000  # steps push points, not just the initial negatives


def test_matches_reference_on_every_small_weighting_of_a_separating_satellite():
    # O; p1, p2 free on O; p3 a satellite on p1 and O; p4 free on p2.  p3
    # separates O from p1, so O's neighbours are p2 and p3, not its targets
    # and proximate points p1, p2, p3
    b = SkeletonBuilder()
    o = b.origin()
    p1, p2 = b.free(o), b.free(o)
    b.satellite(p1, o)
    b.free(p2)
    skeleton = b.build()
    nontame = 0
    for nu in itertools.product(range(-2, 4), repeat=len(skeleton)):
        K = WeightedCluster(skeleton, nu)
        result = assert_same_unload(K)
        nontame += any(not s.tame for s in result.steps)
    assert nontame > 100


def test_unload_step_is_a_frozen_value():
    step = UnloadStep(3, 1, True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.point = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.tame = False
    assert repr(step) == "UnloadStep(point=3, increment=1, tame=True)"
    assert step != (3, 1, True)
    assert step == UnloadStep(3, 1, True) and hash(step) == hash(UnloadStep(3, 1, True))
    assert step != UnloadStep(3, 1, False)
    assert not hasattr(step, "__dict__")


def test_equal_steps_of_one_call_share_one_record():
    # O of weight 0 under p1 of weight 2: rho_O = -2 at w_O = 2 forces an
    # increment of 1, but the step is not tame
    K = WeightedCluster(chain_skeleton(2), (0, 2))
    assert assert_same_unload(K).steps == (UnloadStep(0, 1, False),)

    rng = random.Random(20261020)
    shared = {True: 0, False: 0}
    unit_nontame = 0
    for _ in range(500):
        sk = random_skeleton(rng, 10, 0.5)
        K = WeightedCluster(sk, tuple(rng.randint(-3, 5) for _ in sk.points))
        result = assert_same_unload(K)
        first = {}
        for step in result.steps:
            if step in first:
                assert first[step] is step
                shared[step.tame] += 1
            first[step] = step
            unit_nontame += step.increment == 1 and not step.tame
    assert unit_nontame >= 100
    assert shared[True] > 100 and shared[False] > 100
