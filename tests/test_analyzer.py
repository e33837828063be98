"""Singularity reports: detection, invariants, verification operations.

Core claims:
    - attaching a one-unit point detects singularity exactly when the
      extension is inconsistent; smooth points get first-class reports
    - a free or satellite point over an index outside the cluster is a
      ClusterError naming that index, never a KeyError; so is an index that
      is not an int, or is a bool
    - the basic worked example (chain of three, satellite at the bottom)
      reproduces every report field
    - all boundary points on one zero-excess component give the same report
    - enumerate finds one singularity per zero-excess component
    - an unloading of K_w that stops while some excess is negative raises
      InternalCheckError
    - the excess-shift and fundamental-cycle verifications hold on random
      instances, as do the dicritical split facts
    - the resolution graph carries base-cluster weights and, on minimal
      singularities, its weight-minus-degree sum gives the multiplicity; on
      the corpus it is the dual graph induced on T_Q
    - `analyze`, at the smooth and singular free points of the corpus
      clusters, and `enumerate_singularities` on make_dr(100) make no
      `ClusterSkeleton` and call neither the public `unload` nor
      `extend_point` nor `dual_graph`: K_w is one `weighted._Stage`,
      unloaded in place, and a smooth analysis makes none; calls are
      counted by a profile hook, not timed
"""

import random
import sys
from itertools import combinations

import pytest

from sandwiched import (
    ClusterError,
    FreeOn,
    InternalCheckError,
    Satellite,
    WeightedCluster,
    analyze,
    chain_skeleton,
    dicritical_set,
    dual_graph,
    enumerate_singularities,
    excesses,
    extend,
    unload,
)
from sandwiched import cluster, weighted
from sandwiched.analyzer import zero_excess_components
from sandwiched.oracle import (
    GeneratorConfig,
    _random_cluster,
    nu_prime,
    random_boundary_points,
    verify_coef_fund,
    verify_difexcess,
)

from conftest import make_dr


# -- extension ---------------------------------------------------------------------


def test_extend_appends_satellite_with_later_parent(d1):
    k_w = extend(d1, Satellite(0, 1))
    sk = k_w.skeleton
    assert sk.parents[3] == 1
    assert sk.proximities[3] == {0, 1}
    assert k_w.nu == (1, 1, 1, 1)


def test_extend_free(d1):
    k_w = extend(d1, FreeOn(2))
    assert k_w.skeleton.proximities[3] == {2}


def test_extend_rejects_nonadjacent_satellite(d1):
    with pytest.raises(ClusterError):
        extend(d1, Satellite(0, 2))


@pytest.mark.parametrize(
    "operation, w, index",
    [
        (analyze, Satellite(9, 0), 9),
        (extend, Satellite(-1, 0), -1),
        (extend, Satellite(0, 3), 3),
        (analyze, FreeOn(-1), -1),
        (extend, FreeOn(9), 9),
    ],
)
def test_a_boundary_point_outside_the_cluster_is_an_input_error(d1, operation, w, index):
    with pytest.raises(ClusterError) as err:
        operation(d1, w)
    assert str(err.value) == f"proximity target {index} is not a point of the cluster"


@pytest.mark.parametrize(
    "w, index",
    [
        (FreeOn("a"), "'a'"),
        (Satellite("a", 0), "'a'"),
        (Satellite(1.0, 0), "1.0"),
        (FreeOn(True), "True"),
        (Satellite(True, 0), "True"),
    ],
)
def test_a_boundary_point_index_that_is_not_an_int_is_an_input_error(d1, w, index):
    for operation in (analyze, extend):
        with pytest.raises(ClusterError) as err:
            operation(d1, w)
        assert str(err.value) == f"boundary point index {index} is not an integer"


def test_analyze_rejects_inconsistent_and_zero_weight_input():
    K = WeightedCluster(chain_skeleton(2), (0, 1))
    with pytest.raises(ClusterError):
        analyze(K, FreeOn(0))
    bad = WeightedCluster(chain_skeleton(2), (1, 2))
    with pytest.raises(ClusterError):
        analyze(bad, FreeOn(0))


def test_an_unloading_stopped_early_is_caught(d1, monkeypatch):
    # after the first of its two steps the unloading of K_w on d1 passes every
    # earlier check; only the consistency of the result tells it is unfinished
    def first_step_only(rho, queue, proximate_to, dual_rows, cap, trace):
        p = queue[0]
        w = len(proximate_to[p]) + 1
        inc = (w - 1 - rho[p]) // w
        rho[p] += inc * w
        for x in dual_rows[p]:
            rho[x] -= inc
        return 1, [p], []

    assert len(unload(extend(d1, FreeOn(1))).steps) == 2
    monkeypatch.setattr(weighted, "_unload_steps", first_step_only)
    with pytest.raises(InternalCheckError, match="unloaded cluster is not consistent"):
        analyze(d1, FreeOn(1))


# -- the worked example -----------------------------------------------------------------


def test_d1_satellite_report(d1):
    report = analyze(d1, Satellite(0, 1))
    assert not report.smooth
    assert report.T_Q == (0, 1)
    assert report.o_Q == 0
    assert report.epsilon == (1, 0, -1)
    assert report.B_Q == (2,)
    assert report.B1_Q == (2,)
    assert report.B2_Q == ()
    assert report.Kplus_Q == (2,)
    assert report.z == (1, 1, 0)
    assert report.mult == 2
    assert report.emdim == 3
    assert report.br == 2
    assert report.minimal is True
    graph = report.resolution_graph
    assert graph.vertices == (0, 1)
    assert graph.edges == ((0, 1),)
    assert graph.weights == (2, 2)


def test_d1_free_point_gives_identical_report(d1):
    by_satellite = analyze(d1, Satellite(0, 1))
    by_free = analyze(d1, FreeOn(1))
    for field in ("T_Q", "o_Q", "epsilon", "B_Q", "Kplus_Q", "z", "mult", "emdim", "br", "minimal"):
        assert getattr(by_free, field) == getattr(by_satellite, field)


def test_smooth_point_report(d1):
    report = analyze(d1, FreeOn(2))
    assert report.smooth
    assert report.mult is None


# -- enumeration -------------------------------------------------------------------------


def test_enumerate_single_point_cluster_is_smooth():
    K = WeightedCluster(chain_skeleton(1), (1,))
    assert enumerate_singularities(K) == []


def test_enumerate_chain_finds_one_component(d1):
    reports = enumerate_singularities(d1)
    assert len(reports) == 1
    assert reports[0].T_Q == (0, 1)


def test_enumerate_d2_contracts_all_non_dicritical_points():
    K = make_dr(2)
    reports = enumerate_singularities(K)
    assert len(reports) == 1
    expected = tuple(sorted(set(K.skeleton.points) - dicritical_set(K)))
    assert reports[0].T_Q == expected
    assert reports[0].minimal is False  # the fundamental cycle is not reduced


def test_all_boundary_points_on_component_agree():
    rng = random.Random(77)
    config = GeneratorConfig(max_points=9, satellite_probability=0.45)
    checked = 0
    while checked < 40:
        K = _random_cluster(rng, config)
        rho = excesses(K)
        graph = dual_graph(K.skeleton)
        for component in zero_excess_components(K):
            comp = set(component)
            specs = [FreeOn(p) for p in component]
            specs += [
                Satellite(u, v)
                for u, v in graph.edges
                if u in comp or v in comp
                if rho[u] == 0 or rho[v] == 0
                if (u in comp and v in comp) or rho[u] > 0 or rho[v] > 0
            ]
            reports = [analyze(K, w) for w in specs]
            reference = reports[0]
            for report in reports[1:]:
                assert report.T_Q == reference.T_Q
                assert report.epsilon == reference.epsilon
                assert report.mult == reference.mult
                assert report.br == reference.br
            checked += 1


# -- verification operations ----------------------------------------------------------------


def test_difexcess_on_d1(d1):
    report = analyze(d1, Satellite(0, 1))
    assert excesses(d1) == (0, 0, 1)
    prime = WeightedCluster(d1.skeleton, nu_prime(d1, report))
    assert excesses(prime) == (1, 1, 0)
    assert verify_difexcess(d1, report)


def test_difexcess_smooth_is_vacuous(d1):
    assert verify_difexcess(d1, analyze(d1, FreeOn(2)))
    assert verify_coef_fund(d1, analyze(d1, FreeOn(2)))


def test_coef_fund_on_d1(d1):
    report = analyze(d1, Satellite(0, 1))
    assert report.z[report.o_Q] == 1
    assert verify_coef_fund(d1, report)


def test_verifications_on_random_instances():
    rng = random.Random(13)
    config = GeneratorConfig(max_points=10, satellite_probability=0.45)
    checked = 0
    while checked < 250:
        K = _random_cluster(rng, config)
        for w in random_boundary_points(K, rng):
            report = analyze(K, w)
            assert verify_difexcess(K, report)
            assert verify_coef_fund(K, report)
            checked += 1


# -- dicritical split facts --------------------------------------------------------------


def test_dicritical_split_by_minimal_point():
    # K_+^Q splits into the part infinitely near o_Q (exactly K_+^Q inside
    # B_Q) and the rest (proximity targets of o_Q)
    rng = random.Random(14)
    config = GeneratorConfig(max_points=10, satellite_probability=0.45)
    checked = 0
    while checked < 300:
        K = _random_cluster(rng, config)
        sk = K.skeleton
        for report in enumerate_singularities(K):
            near = {p for p in report.Kplus_Q if sk.geq(p, report.o_Q)}
            far = set(report.Kplus_Q) - near
            assert near == set(report.Kplus_Q) & set(report.B_Q)
            assert far <= sk.proximities[report.o_Q]
            checked += 1


def test_triple_chain_zero_interior_forces_excess_two():
    # if three dicriticals hang off a contracted point by chains that meet
    # only there and every interior excess vanishes, that point keeps excess
    # at least two
    rng = random.Random(15)
    config = GeneratorConfig(max_points=11, satellite_probability=0.45)
    hits = 0
    for _ in range(500):
        K = _random_cluster(rng, config)
        sk = K.skeleton
        graph = dual_graph(sk)
        for report in enumerate_singularities(K):
            if len(report.Kplus_Q) < 3:
                continue
            prime = excesses(WeightedCluster(sk, nu_prime(K, report)))
            for u in report.T_Q:
                for trio in combinations(report.Kplus_Q, 3):
                    chains = [graph.chain(u, p) for p in trio]
                    if any(
                        set(a) & set(b) != {u}
                        for a, b in combinations(chains, 2)
                    ):
                        continue
                    if any(
                        prime[v] != 0 for chain in chains for v in chain[1:-1]
                    ):
                        continue
                    assert prime[u] >= 2, (K.by_tag(), u, trio)
                    hits += 1
    assert hits > 0  # the hypothesis fires on the corpus


# -- resolution graph ---------------------------------------------------------------------


def test_resolution_graph_weight_sum_on_minimal_reports():
    rng = random.Random(16)
    config = GeneratorConfig(max_points=10, satellite_probability=0.45)
    seen_minimal = 0
    for _ in range(400):
        K = _random_cluster(rng, config)
        for report in enumerate_singularities(K):
            graph = report.resolution_graph
            if report.minimal:
                seen_minimal += 1
                total = sum(
                    graph.weight(v) - graph.degree(v) for v in graph.vertices
                )
                assert total == report.mult
    assert seen_minimal > 0


def test_the_resolution_graph_is_the_dual_graph_induced_on_the_contracted_set(corpus):
    for instance in corpus:
        report = instance.report
        graph = dual_graph(instance.cluster.skeleton)
        assert report.resolution_graph == graph.induced(report.T_Q)


def _calls(codes, run) -> dict:
    """The number of calls of each code object of `codes` while `run()` runs."""
    counts = dict.fromkeys(codes, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


SKELETON_ROUTE = (
    cluster.ClusterSkeleton.__init__.__code__,
    weighted.unload.__code__,
    cluster.extend_point.__code__,
    cluster.dual_graph.__code__,
)


def test_an_analysis_makes_no_skeleton_and_one_stage_when_singular(corpus):
    STAGE = weighted._Stage.__init__.__code__
    clusters = list({id(instance.cluster): instance.cluster for instance in corpus}.values())
    seen = {True: 0, False: 0}
    for K in clusters[:500]:
        for p in K.skeleton.points:
            reports = []
            calls = _calls((*SKELETON_ROUTE, STAGE), lambda: reports.append(analyze(K, FreeOn(p))))
            (report,) = reports
            assert [calls[code] for code in SKELETON_ROUTE] == [0, 0, 0, 0], (K, p)
            assert calls[STAGE] == (not report.smooth), (K, p)
            seen[report.smooth] += 1
    assert min(seen.values()) > 500, seen
    K = make_dr(100)
    calls = _calls((*SKELETON_ROUTE, STAGE), lambda: enumerate_singularities(K))
    assert [calls[code] for code in SKELETON_ROUTE] == [0, 0, 0, 0]
    assert calls[STAGE] == 1


# -- tame unloading of extensions ------------------------------------------------------------


def test_extension_unloads_tamely():
    rng = random.Random(17)
    config = GeneratorConfig(max_points=10, satellite_probability=0.45)
    checked = 0
    while checked < 200:
        K = _random_cluster(rng, config)
        for w in random_boundary_points(K, rng):
            result = unload(extend(K, w))
            assert all(s.tame for s in result.steps)
            checked += 1


def test_satellite_argument_order_is_irrelevant(d1):
    assert analyze(d1, Satellite(0, 1)).T_Q == analyze(d1, Satellite(1, 0)).T_Q
