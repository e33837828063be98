"""Bounded-exhaustive checks: every valid skeleton of at most 5 points.

Random corpora sample; a small complete domain covers every shape it holds.

Core claims:
    - there are 1 / 1 / 3 / 15 / 105 valid admissible-order skeletons of 1 to
      5 points, found by trying every one or two earlier points as the new
      point's proximity targets and keeping what `validate` accepts
    - `unload` gives the cluster, the step trace, the excesses, the step
      count and the touched points of `oracle.reference_unload` on every
      excess vector with entries in {-2, ..., 1} up to 4 points and in
      {-1, 0, 1} at 5 points: 29,567 unloads, 25,937 of which take a step
    - on every cluster with excesses in {0, 1, 2} up to 4 points or {0, 1}
      at 5 points and every multiplicity positive, at every singular point
      that `enumerate_singularities` finds, the untraced `cartier.build`
      certifies at every alpha in {1, 2}^K⁺_Q: 1,466 reports, 4,982 builds
    - on the same 1,500 clusters, at every free point and every satellite
      on a dual-graph edge, `analyze` agrees with the skeleton route
      `unload(extend(K, w), trace=False)`: smooth exactly when that takes no
      step, and otherwise T_Q is its touched points without w, epsilon its
      difference of multiplicities and z its difference of values; the
      resolution graph is the dual graph induced on T_Q: 12,020 analyses,
      4,516 singular
"""

import itertools

from sandwiched import (
    ClusterSkeleton,
    FreeOn,
    Satellite,
    analyze,
    dual_graph,
    enumerate_singularities,
    extend,
    unload,
    values,
)
from sandwiched.cartier import CartierRequest, build
from sandwiched.cluster import validate
from sandwiched.oracle import reference_unload
from sandwiched.weighted import multiplicities_from_excesses

MAX_POINTS = 5


def _skeletons():
    """Every valid skeleton of at most MAX_POINTS points, by size: each one
    of n points grown by a point proximate to any one earlier point or any
    two, kept when `validate` finds no problem."""
    by_size = [[ClusterSkeleton((None,), (frozenset(),), ("O",))]]
    while len(by_size) < MAX_POINTS:
        grown = []
        for sk in by_size[-1]:
            n = len(sk)
            for targets in itertools.chain(
                itertools.combinations(range(n), 1), itertools.combinations(range(n), 2)
            ):
                candidate = ClusterSkeleton(
                    sk.parents + (max(targets),),
                    sk.proximities + (frozenset(targets),),
                    sk.tags + (f"p{n}",),
                )
                if not validate(candidate):
                    grown.append(candidate)
        by_size.append(grown)
    return by_size


SKELETONS = _skeletons()


def _clusters(values_small, values_at_max):
    """Every skeleton weighted by every excess vector over `values_small`,
    or over `values_at_max` at MAX_POINTS points."""
    for size in SKELETONS:
        for sk in size:
            values = values_at_max if len(sk) == MAX_POINTS else values_small
            for rho in itertools.product(values, repeat=len(sk)):
                yield multiplicities_from_excesses(sk, rho)


def test_there_are_1_1_3_15_105_skeletons():
    assert [len(size) for size in SKELETONS] == [1, 1, 3, 15, 105]
    for size in SKELETONS:
        assert len({(sk.parents, sk.proximities) for sk in size}) == len(size)


def test_unload_equals_the_reference_on_every_small_excess_vector():
    unloads = stepped = 0
    for K in _clusters(range(-2, 2), range(-1, 2)):
        got, want = unload(K), reference_unload(K)
        assert got.cluster == want.cluster and got.steps == want.steps, K
        assert (got.rho, got.step_count, got.touched) == (want.rho, want.step_count, want.touched)
        unloads += 1
        stepped += got.step_count > 0
    assert (unloads, stepped) == (29_567, 25_937)


def test_every_build_at_alpha_one_or_two_certifies():
    reports = builds = 0
    for K in _clusters(range(3), range(2)):
        if min(K.nu) <= 0:
            continue
        for report in enumerate_singularities(K):
            reports += 1
            for alphas in itertools.product((1, 2), repeat=len(report.Kplus_Q)):
                alpha = dict(zip(report.Kplus_Q, alphas))
                result = build(CartierRequest(K, report, alpha), trace=False)
                assert result.certificate.passed, (K, report, alpha, result.certificate.failures)
                builds += 1
    assert (reports, builds) == (1_466, 4_982)


def test_analyze_equals_the_skeleton_route_at_every_boundary_point():
    clusters = analyses = singular = 0
    for K in _clusters(range(3), range(2)):
        if min(K.nu) <= 0:
            continue
        clusters += 1
        sk, n = K.skeleton, len(K.skeleton)
        graph, v = dual_graph(sk), values(K)
        for w in [FreeOn(p) for p in sk.points] + [Satellite(p, q) for p, q in graph.edges]:
            report = analyze(K, w)
            result = unload(extend(K, w), trace=False)
            analyses += 1
            assert report.smooth == (result.step_count == 0), (K, w)
            if report.smooth:
                continue
            singular += 1
            nu_after, v_after = result.cluster.nu, values(result.cluster)
            assert set(report.T_Q) == result.touched - {n}, (K, w)
            assert report.epsilon == tuple(nu_after[p] - K.nu[p] for p in sk.points), (K, w)
            assert report.z == tuple(v_after[p] - v[p] for p in sk.points), (K, w)
            assert report.resolution_graph == graph.induced(report.T_Q), (K, w)
    assert (clusters, analyses, singular) == (1_500, 12_020, 4_516)
