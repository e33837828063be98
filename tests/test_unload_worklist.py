"""Worklist unloading against the rescanning reference loop.

Core claims:
    - `unload` gives the same cluster and the same step trace as
      `oracle.reference_unload` on seeded generator instances (including the
      raw weightings the generator unloads), on the codimension-one
      extensions of the make_dr family and on chains weighted (1, ..., 1, n)
    - under a small cap both raise CapExceededError with the same partial trace
    - `unload(K, trace=False)` keeps no step record and otherwise agrees with
      the traced call on every instance above and on weights up to 10^40: the
      same cluster, `step_count == len(steps)`, the same touched points, and
      in both modes `rho` is the excess vector of the result; under a small
      cap it raises at the same step as the traced call, with an empty trace
    - whatever order the reference loop unloads in, it ends on the cluster
      `unload` reaches, and that cluster has no negative excess
    - the heap is the only worklist: a point is pushed exactly when a step
      takes its excess from >= 0 (after the step's raises) to below 0, so a
      point raised out of the negatives and lowered back gets a second
      entry, and the stale entries this leaves are skipped, step for step
      as the reference loop unloads
    - an `UnloadStep` is a frozen value: its fields cannot be assigned, its
      repr names them, and it is not equal to the tuple of its fields
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
    WeightedCluster,
    chain_skeleton,
    dual_graph,
    excesses,
    unload,
)
from sandwiched import oracle, weighted
from sandwiched.analyzer import extend, zero_excess_components
from sandwiched.oracle import GeneratorConfig, random_skeleton, reference_unload
from sandwiched.weighted import UnloadStep

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
    """Replay `steps` on K by the definition of a step and count, over all
    steps, the points x next to the unloaded point p (a target of p or
    proximate to p) whose excess after the step's raises is >= 0 and after
    the step is < 0, and how many of those were negative before the step."""
    sk = K.skeleton
    nu = list(K.nu)
    pushes = repushes = 0
    for step in steps:
        p, inc = step.point, step.increment
        before = excesses(WeightedCluster(sk, tuple(nu)))
        nu[p] += inc
        for u in sk.proximate_to[p]:
            nu[u] -= inc
        after = excesses(WeightedCluster(sk, tuple(nu)))
        for x in sk.proximities[p] | set(sk.proximate_to[p]):
            raised = before[x] + inc * sum(
                x in sk.proximities[u] for u in sk.proximate_to[p]
            )
            assert after[x] == raised - inc
            if raised >= 0 > after[x]:
                pushes += 1
                repushes += before[x] < 0
    return pushes, repushes


def test_repushed_points_leave_stale_entries_that_are_skipped(monkeypatch):
    rng = random.Random(20261018)
    found = []
    for _ in range(4000):
        sk = random_skeleton(rng, 10, 0.6)
        K = WeightedCluster(sk, tuple(rng.randint(-3, 5) for _ in sk.points))
        pushes, repushes = crossings(K, reference_unload(K).steps)
        if repushes:
            found.append((K, pushes))
    assert len(found) >= 500

    pushed = []
    heappush = weighted.heappush

    def counting_push(queue, x):
        pushed.append(x)
        heappush(queue, x)

    monkeypatch.setattr(weighted, "heappush", counting_push)
    for K, pushes in found:
        pushed.clear()
        result = assert_same_unload(K)
        assert len(pushed) == pushes
        # every entry is popped once, as a step or skipped as stale
        initial = sum(r < 0 for r in excesses(K))
        assert initial + len(pushed) > len(result.steps)


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
