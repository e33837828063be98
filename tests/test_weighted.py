"""Values, excesses, unloading, zero-dropping, simple clusters, combinations.

Core claims:
    - values and multiplicities determine each other exactly
    - excesses match the proximity-matrix identities rho = P^T nu, nu = P v,
      and the dual-tree identity rho = A v, A minus the intersection matrix
      of the dual graph (a graph-only route, taken from the static rule)
    - unloading reaches the consistent cluster with pointwise-minimal
      dominating values (checked against the exhaustive-search oracle),
      independently of the unloading order, raising values only at unloaded
      points
    - zero points drop only when nothing remaining is proximate to them
    - simple clusters have a unit excess vector
    - linear combinations are pointwise and preserve consistency
"""

import random

import pytest

from sandwiched import (
    ClusterError,
    SkeletonBuilder,
    WeightedCluster,
    chain_skeleton,
    dicritical_set,
    drop_zero_points,
    excesses,
    is_consistent,
    linear_combination,
    multiplicities_from_values,
    self_intersection,
    simple_cluster,
    unload,
    values,
)
from sandwiched.oracle import (
    GeneratorConfig,
    _random_cluster,
    brute_unload,
    brute_values,
    proximity_matrix,
    random_skeleton,
    reference_unload,
    static_dual_graph,
)


def chain_plus_origin_satellite():
    """Chain O, p1, q1 plus the satellite w at the meeting of p1 and O."""
    b = SkeletonBuilder()
    o = b.origin()
    p1 = b.free(o, "p1")
    b.free(p1, "q1")
    w = b.satellite(p1, o, "w")
    return b.build(), w


def with_satellite_w():
    """Chain O, p1, q1 plus the satellite w at the meeting of q1 and p1."""
    b = SkeletonBuilder()
    o = b.origin()
    p1 = b.free(o, "p1")
    q1 = b.free(p1, "q1")
    b.satellite(q1, p1, "w")
    return b.build()


# -- values ------------------------------------------------------------------------


def test_values_free_chain():
    K = WeightedCluster(chain_skeleton(3), (1, 1, 1))
    assert values(K) == (1, 2, 3)


def test_values_single_point():
    assert values(WeightedCluster(chain_skeleton(1), (1,))) == (1,)


def test_values_satellite_sums_both_targets():
    K = WeightedCluster(with_satellite_w(), (1, 1, 1, 1))
    assert values(K) == (1, 2, 3, 6)  # v_w = 1 + v_q1 + v_p1


def test_values_round_trip():
    rng = random.Random(2)
    config = GeneratorConfig()
    for _ in range(50):
        K = _random_cluster(rng, config)
        assert multiplicities_from_values(K.skeleton, values(K)) == K


def test_values_match_plain_recursion():
    rng = random.Random(3)
    config = GeneratorConfig()
    for _ in range(50):
        K = _random_cluster(rng, config)
        assert brute_values(K) == values(K)


# -- excesses, consistency, dicritical points ------------------------------------------


def test_excesses_free_chain():
    K = WeightedCluster(chain_skeleton(3), (1, 1, 1))
    assert excesses(K) == (0, 0, 1)
    assert is_consistent(K)
    assert dicritical_set(K) == {2}


def test_excesses_satellite_overload():
    skeleton, w = chain_plus_origin_satellite()
    K = WeightedCluster(skeleton, (1, 1, 1, 1))
    rho = excesses(K)
    assert rho[0] == -1 and rho[1] == -1
    assert not is_consistent(K)


def test_excesses_single_point():
    K = WeightedCluster(chain_skeleton(1), (1,))
    assert excesses(K) == (1,)
    assert dicritical_set(K) == {0}


def test_matrix_identities_on_random_clusters():
    rng = random.Random(4)
    config = GeneratorConfig()
    for _ in range(40):
        K = _random_cluster(rng, config)
        p = proximity_matrix(K.skeleton)
        assert p.transpose().apply(K.nu) == excesses(K)
        assert p.apply(values(K)) == K.nu


def test_excesses_are_the_dual_tree_matrix_times_the_values():
    # A_pp = r_p + 1 and A_pq = -1 for neighbours, on any weighting
    rng = random.Random(29)
    inconsistent = 0
    for _ in range(3000):
        sk = random_skeleton(rng, 12, 0.5)
        K = WeightedCluster(sk, tuple(rng.randint(-5, 9) for _ in sk.points))
        graph = static_dual_graph(sk)
        v = values(K)
        Av = [w * x for w, x in zip(graph.weights, v)]
        for p, q in graph.edges:
            Av[p] -= v[q]
            Av[q] -= v[p]
        assert excesses(K) == tuple(Av)
        inconsistent += not is_consistent(K)
    assert inconsistent > 1000


# -- unloading -----------------------------------------------------------------------


def test_unload_satellite_overload_frozen():
    skeleton, _ = chain_plus_origin_satellite()
    K = WeightedCluster(skeleton, (1, 1, 1, 1))
    result = unload(K)
    assert result.cluster.nu == (2, 1, 0, 0)
    assert values(result.cluster) == (2, 3, 3, 5)
    assert [(s.point, s.tame) for s in result.steps] == [(0, True), (1, True), (3, True)]
    assert brute_unload(K) == result.cluster


def test_unload_consistent_is_identity():
    K = WeightedCluster(chain_skeleton(3), (1, 1, 1))
    result = unload(K)
    assert result.cluster == K
    assert result.steps == ()


def test_unload_free_overload_frozen():
    # chain O, p1, q1 plus a free point w on O, one unit too heavy at O
    b = SkeletonBuilder()
    o = b.origin()
    p1 = b.free(o, "p1")
    b.free(p1, "q1")
    b.free(o, "w")
    K = WeightedCluster(b.build(), (2, 2, 2, 1))
    result = unload(K)
    assert result.cluster.nu == (3, 2, 1, 0)
    assert values(result.cluster) == (3, 5, 6, 3)
    assert [(s.point, s.tame) for s in result.steps] == [(0, True), (1, True)]
    assert brute_unload(K) == result.cluster


def test_unload_values_grow_exactly_at_touched_points():
    rng = random.Random(6)
    config = GeneratorConfig()
    for _ in range(60):
        K = _random_cluster(rng, config)
        noisy = WeightedCluster(K.skeleton, tuple(m + rng.randint(-2, 1) for m in K.nu))
        result = unload(noisy)
        before, after = values(noisy), values(result.cluster)
        assert is_consistent(result.cluster)
        for p in K.skeleton.points:
            assert after[p] >= before[p]
            assert (after[p] > before[p]) == (p in result.touched)
        for step in result.steps:
            assert step.increment >= 1
            if step.tame:
                assert step.increment == 1


def test_unload_is_order_independent():
    rng = random.Random(8)
    config = GeneratorConfig()
    for _ in range(60):
        K = _random_cluster(rng, config)
        noisy = WeightedCluster(K.skeleton, tuple(m + rng.randint(-3, 0) for m in K.nu))
        reference = unload(noisy).cluster
        for _ in range(3):
            assert reference_unload(noisy, pick=rng.choice).cluster == reference


def test_unload_agrees_with_exhaustive_oracle():
    rng = random.Random(9)
    checked = 0
    while checked < 120:
        sk = random_skeleton(rng, 6, 0.4)
        nu = tuple(rng.randint(-3, 5) for _ in sk.points)
        K = WeightedCluster(sk, nu)
        assert brute_unload(K) == unload(K).cluster
        checked += 1


def test_unload_nontame_step():
    b = SkeletonBuilder()
    o = b.origin()
    b.free(o, "p1")
    K = WeightedCluster(b.build(), (0, 3))
    result = unload(K)
    assert result.cluster.nu == (2, 1)
    assert [(s.point, s.increment, s.tame) for s in result.steps] == [(0, 2, False)]
    assert brute_unload(K) == result.cluster


# -- dropping zero points ----------------------------------------------------------------


def test_drop_zero_points_removes_maximal_zeros():
    skeleton, _ = chain_plus_origin_satellite()
    K = WeightedCluster(skeleton, (2, 1, 0, 0))
    result = drop_zero_points(K)
    assert result.cluster.nu == (2, 1)
    assert result.cluster.skeleton.tags == ("O", "p1")
    assert result.dropped == (2, 3)
    assert result.blocked == ()


def test_drop_zero_points_identity_without_zeros():
    K = WeightedCluster(chain_skeleton(3), (1, 1, 1))
    result = drop_zero_points(K)
    assert result.cluster == K
    assert result.dropped == ()


def test_drop_zero_points_reports_blocked_parent():
    K = WeightedCluster(chain_skeleton(2), (0, 1))
    result = drop_zero_points(K)
    assert result.cluster == K
    assert result.blocked == (0,)


def test_drop_zero_points_long_zero_tail():
    # a zero tail is decided in one pass, not one layer of zeros per rescan
    K = WeightedCluster(chain_skeleton(2000), (1,) + (0,) * 1999)
    result = drop_zero_points(K)
    assert result.cluster.nu == (1,)
    assert result.kept == (0,)
    assert result.dropped == tuple(range(1, 2000))
    assert result.blocked == ()


def _drop_by_rescanning(cluster):
    """Reference: remove the removable zero points layer by layer until stall."""
    sk = cluster.skeleton
    alive = set(sk.points)
    while True:
        removable = [
            p
            for p in alive
            if cluster.nu[p] == 0 and not any(q in alive for q in sk.proximate_to[p])
        ]
        if not removable:
            return alive
        alive.difference_update(removable)


def test_drop_zero_points_matches_rescanning_reference():
    rng = random.Random(2024)
    config = GeneratorConfig(max_points=12, satellite_probability=0.4)
    with_blocked = 0
    for _ in range(2000):
        skeleton = _random_cluster(rng, config).skeleton
        nu = tuple(rng.choice((0, 0, 0, 1, 2, -1)) for _ in skeleton.points)
        K = WeightedCluster(skeleton, nu)
        alive = _drop_by_rescanning(K)
        result = drop_zero_points(K)
        assert result.blocked == tuple(sorted(p for p in alive if K.nu[p] == 0))
        alive = alive or {0}  # an all-zero cluster keeps its origin
        assert result.kept == tuple(sorted(alive))
        assert result.dropped == tuple(p for p in skeleton.points if p not in alive)
        with_blocked += bool(result.blocked)
        # a consistent cluster has no negative multiplicity, so nothing but a
        # zero point is proximate to a zero point: none is blocked
        if is_consistent(K):
            assert result.blocked == ()
        assert drop_zero_points(unload(K).cluster).blocked == ()
    assert with_blocked > 100


# -- simple clusters ------------------------------------------------------------------


def test_simple_cluster_chain():
    sk = chain_skeleton(3)
    K = simple_cluster(sk, 2)
    assert K.nu == (1, 1, 1)
    assert excesses(K) == (0, 0, 1)


def test_simple_cluster_origin():
    K = simple_cluster(chain_skeleton(3), 0)
    assert K.nu == (1,)
    assert len(K.skeleton) == 1


def test_simple_cluster_satellite_support():
    sk = with_satellite_w()
    K = simple_cluster(sk, 3)
    assert K.nu == (2, 2, 1, 1)
    rho = excesses(K)
    assert rho == (0, 0, 0, 1)


def test_simple_cluster_of_deep_chain():
    K = simple_cluster(chain_skeleton(3000), 2999)
    assert K.nu == (1,) * 3000
    assert excesses(K) == (0,) * 2999 + (1,)


def test_simple_cluster_unit_excess_on_random_skeletons():
    rng = random.Random(10)
    for _ in range(50):
        sk = random_skeleton(rng, 9, 0.45)
        p = rng.randrange(len(sk))
        K = simple_cluster(sk, p)
        rho = excesses(K)
        target = K.skeleton.index_of(sk.tags[p])
        assert all(r == (1 if q == target else 0) for q, r in enumerate(rho))


# -- linear combinations ---------------------------------------------------------------


def test_linear_combination_scaling():
    sk = chain_skeleton(3)
    K = linear_combination([(simple_cluster(sk, 2), 2)])
    assert K.nu == (2, 2, 2)


def test_linear_combination_mixed_supports():
    sk = chain_skeleton(3)
    K = linear_combination([(simple_cluster(sk, 2), 1), (simple_cluster(sk, 1), 1)])
    assert K.nu == (2, 2, 1)


def test_linear_combination_identity():
    K = WeightedCluster(chain_skeleton(3), (1, 1, 1))
    assert linear_combination([(K, 1)]) == K


def test_linear_combination_adds_excesses():
    rng = random.Random(12)
    config = GeneratorConfig(max_points=8)
    for _ in range(30):
        a = _random_cluster(rng, config)
        sk = a.skeleton
        b = simple_cluster(sk, rng.randrange(len(sk)))
        combo = linear_combination([(a, 2), (b, 3)], ambient=sk)
        assert is_consistent(combo)
        rho_a, rho_b, rho_c = excesses(a), excesses(b), excesses(combo)
        embed = {b.skeleton.tags[p]: p for p in b.skeleton.points}
        for p in sk.points:
            expected = 2 * rho_a[p] + 3 * rho_b[embed[sk.tags[p]]] if sk.tags[p] in embed else 2 * rho_a[p]
            assert rho_c[p] == expected


def test_linear_combination_rejects_foreign_skeletons():
    a = WeightedCluster(chain_skeleton(3), (1, 1, 1))
    builder = SkeletonBuilder()
    builder.free(builder.origin("X"), "Y")
    b = WeightedCluster(builder.build(), (1, 1))
    with pytest.raises(ClusterError):
        linear_combination([(a, 1), (b, 1)])


# -- self-intersection and excesses ----------------------------------------


def test_self_intersection():
    assert self_intersection(WeightedCluster(chain_skeleton(3), (1, 1, 1))) == 3
    assert self_intersection(WeightedCluster(chain_skeleton(2), (2, 1))) == 5
    assert self_intersection(WeightedCluster(chain_skeleton(3), (3, 2, 1))) == 14


def test_excess_examples():
    assert excesses(WeightedCluster(chain_skeleton(3), (1, 1, 1))) == (0, 0, 1)
    assert excesses(WeightedCluster(chain_skeleton(2), (2, 1))) == (1, 1)
    assert excesses(WeightedCluster(chain_skeleton(1), (1,))) == (1,)


def test_unload_cap_aborts_with_trace():
    from sandwiched import CapExceededError

    skeleton, _ = chain_plus_origin_satellite()
    K = WeightedCluster(skeleton, (1, 1, 1, 1))
    with pytest.raises(CapExceededError) as err:
        unload(K, cap=1)
    assert len(err.value.trace) == 2  # the steps taken before the abort
