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
    - on each of those 4,516 singular reports, K⁺_Q is the points of positive
      excess next to T_Q in the dual graph, the oracle's graph routes read
      the report's multiplicity (`graph_multiplicity`), branch count
      (`graph_branches`) and z on T_Q (`laufer_cycle`) off its resolution
      graph, and `verify_difexcess` and `verify_coef_fund` hold; on T_Q,
      w_p·z_p minus z over p's dual-graph row (-Z·E_p) is p's excess in the
      unloaded cluster of multiplicities `nu_prime`
    - at each of those 12,020 boundary points, the base held as a
      `weighted._Stage` with w appended has the parents, proximities, tags,
      tag index, `proximate_to` rows, dual-graph rows, multiplicities and
      excesses of `extend(K, w)`, and after unloading the multiplicities and
      excesses of `unload(extend(K, w), trace=False)`
    - at each of the 6,760 free points among them, the analyzer's K_w lists
      (`weighted._appended`) are the excesses, `proximate_to` rows and
      dual-graph rows of `extend(K, w)`, and once unloaded by the engine
      from w's target the multiplicities and excesses of
      `unload(extend(K, w), trace=False)`: 1,809 take a step
    - a report belongs to the point Q of the blow-up, not to w: at each of
      the 4,516 boundary points over a singular point Q, `analyze` gives, in
      every field but w, the report `enumerate_singularities` gives for Q's
      zero-excess component (`zero_excess_components`), the one holding w's
      targets of excess 0

`benchmarks/exhaustive_domain.py` runs the full domain, excesses in
{0, 1, 2} on every skeleton of at most N points, on these generators.
"""

import itertools
from dataclasses import replace

from sandwiched import (
    ClusterSkeleton,
    FreeOn,
    Satellite,
    WeightedCluster,
    analyze,
    dual_graph,
    enumerate_singularities,
    excesses,
    extend,
    unload,
    values,
)
from sandwiched.analyzer import zero_excess_components
from sandwiched.cartier import CartierRequest, build
from sandwiched.cluster import _fresh_tag, validate
from sandwiched.oracle import (
    graph_branches,
    graph_multiplicity,
    laufer_cycle,
    nu_prime,
    reference_unload,
    verify_coef_fund,
    verify_difexcess,
)
from sandwiched.weighted import (
    _appended,
    _default_cap,
    _multiplicities,
    _Stage,
    _unload_steps,
    multiplicities_from_excesses,
)

MAX_POINTS = 5


def _skeletons(points):
    """Every valid skeleton of at most `points` points, by size: each one of
    n points grown by a point proximate to any one earlier point or any two,
    kept when `validate` finds no problem."""
    by_size = [[ClusterSkeleton((None,), (frozenset(),), ("O",))]]
    while len(by_size) < points:
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


SKELETONS = _skeletons(MAX_POINTS)


def _clusters(values_small, values_at_max, skeletons=SKELETONS):
    """Every skeleton of `skeletons` (by size, as `_skeletons` gives them)
    weighted by every excess vector over `values_small`, or over
    `values_at_max` at the largest size."""
    for size in skeletons:
        for sk in size:
            values = values_at_max if len(sk) == len(skeletons) else values_small
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
        graph, v, rho = dual_graph(sk), values(K), excesses(K)
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
            t_set, resolution = set(report.T_Q), report.resolution_graph
            next_to_t = (p for p in sk.points if any(q in t_set for q in graph.adjacency[p]))
            assert report.Kplus_Q == tuple(p for p in next_to_t if rho[p] > 0), (K, w)
            assert graph_multiplicity(resolution) == report.mult, (K, w)
            assert graph_branches(resolution) == report.br, (K, w)
            assert laufer_cycle(resolution) == {p: report.z[p] for p in report.T_Q}, (K, w)
            assert verify_difexcess(K, report) and verify_coef_fund(K, report), (K, w)
            z, rho_after = report.z, excesses(WeightedCluster(sk, nu_prime(K, report)))
            for p in report.T_Q:
                minus_z_dot_e = graph.weight(p) * z[p] - sum(z[q] for q in graph.adjacency[p])
                assert minus_z_dot_e == rho_after[p], (K, w, p)
    assert (clusters, analyses, singular) == (1_500, 12_020, 4_516)


def test_every_boundary_point_over_a_singular_point_gives_its_components_report():
    clusters = analyses = 0
    for K in _clusters(range(3), range(2)):
        if min(K.nu) <= 0:
            continue
        clusters += 1
        sk, rho = K.skeleton, excesses(K)
        reports = enumerate_singularities(K)
        assert [report.T_Q for report in reports] == zero_excess_components(K), K
        over = {p: report for report in reports for p in report.T_Q}
        for w in [FreeOn(p) for p in sk.points] + [Satellite(*e) for e in dual_graph(sk).edges]:
            targets = (w.point,) if isinstance(w, FreeOn) else (w.p, w.q)
            zero = [q for q in targets if rho[q] == 0]
            if zero:
                assert analyze(K, w) == replace(over[zero[0]], w=w), (K, w)
                analyses += 1
    assert (clusters, analyses) == (1_500, 4_516)


def test_the_stage_equals_the_extend_point_chain_at_every_boundary_point():
    stages = unloaded = 0
    for K in _clusters(range(3), range(2)):
        if min(K.nu) <= 0:
            continue
        sk = K.skeleton
        for targets in [(p,) for p in sk.points] + list(dual_graph(sk).edges):
            stage = _Stage(K, excesses(K))
            stage.append(targets, _fresh_tag("w", sk.tag_index))
            extended = extend(K, FreeOn(*targets) if len(targets) == 1 else Satellite(*targets))
            ext = extended.skeleton
            assert (stage.parents, stage.proximities) == (list(ext.parents), list(ext.proximities))
            assert (stage.tags, stage.tag_index) == (list(ext.tags), ext.tag_index), (K, targets)
            assert [tuple(row) for row in stage.proximate_to] == list(ext.proximate_to)
            rows = {q: tuple(row) for q, row in stage.dual_rows.items()}  # a changed row is a list
            assert rows == ext.dual_rows, (K, targets)
            assert (stage.nu, stage.rho) == (list(extended.nu), list(excesses(extended)))
            stages += 1
            negative = [q for q in sorted(targets) if stage.rho[q] < 0]
            if negative:
                stage.unload(negative)
                unloaded += 1
            result = unload(extended, trace=False)
            assert (stage.nu, stage.rho) == (list(result.cluster.nu), list(result.rho))
    assert (stages, unloaded) == (12_020, 4_516)


def test_the_appended_lists_equal_the_extend_point_chain_at_every_free_point():
    lists = unloaded = 0
    for K in _clusters(range(3), range(2)):
        if min(K.nu) <= 0:
            continue
        sk = K.skeleton
        for p in sk.points:
            rho, prox_to, rows = _appended(sk, excesses(K), p)
            extended = extend(K, FreeOn(p))
            ext = extended.skeleton
            assert rho == list(excesses(extended)), (K, p)
            assert prox_to == list(ext.proximate_to), (K, p)
            assert {q: tuple(row) for q, row in rows.items()} == ext.dual_rows, (K, p)
            lists += 1
            if rho[p] < 0:
                _unload_steps(rho, [p], prox_to, rows, _default_cap(extended.nu), False)
                unloaded += 1
            result = unload(extended, trace=False)
            assert (_multiplicities(rho, prox_to), rho) == (
                list(result.cluster.nu),
                list(result.rho),
            ), (K, p)
    assert (lists, unloaded) == (6_760, 1_809)
