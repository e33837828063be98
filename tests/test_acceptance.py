"""Acceptance suite: the exit criteria, one test per criterion.

Each criterion recomputes its facts from the raw operations (unloading,
values, excesses, chains) rather than trusting the analyzer's own
cross-checks, and prints one PASS line with the corpus size it covered.
"""

import random
import time
from collections import Counter
from dataclasses import replace

from sandwiched import (
    FreeOn,
    Satellite,
    WeightedCluster,
    analyze,
    canonical,
    dual_graph,
    enumerate_singularities,
    excesses,
    extend,
    unload,
    values,
)
from sandwiched.analyzer import zero_excess_components
from sandwiched.cartier import CartierRequest, build
from sandwiched.oracle import (
    graph_branches,
    graph_multiplicity,
    laufer_cycle,
    nu_prime,
    random_minimal_graph_spec,
)
from sandwiched.synthesis import synthesize, weighted_trees_isomorphic

from conftest import CORPUS_TARGET, make_d1, make_dr


def test_criterion_1_primitive_family():
    """One singularity per cluster; one component through it; multiplicity
    grows linearly with the depth; embedding dimension one more."""
    start = time.monotonic()
    for r in range(1, 7):
        cluster = make_dr(r)
        reports = enumerate_singularities(cluster)
        assert len(reports) == 1
        report = reports[0]
        assert len(report.Kplus_Q) == 1
        assert report.mult == r + 1
        assert report.emdim == r + 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: family r=1..6, one singularity each, "
          f"mult=r+1, emdim=r+2, {elapsed:.3f}s")


def test_criterion_2_extension_invariants(corpus):
    """Tame unloading throughout; the minimal contracted point gains one
    unit and every other point loses at most one; no dicritical point is
    contracted; the drop set off the contracted set is exactly the points
    proximate to it."""
    assert len(corpus) >= CORPUS_TARGET
    for instance in corpus:
        K, w, report = instance.cluster, instance.w, instance.report
        sk = K.skeleton
        result = unload(extend(K, w))
        assert all(step.tame for step in result.steps)
        assert report.epsilon[report.o_Q] == 1
        assert all(
            report.epsilon[p] in (-1, 0)
            for p in sk.points
            if p != report.o_Q
        )
        rho = excesses(K)
        t_set = set(report.T_Q)
        assert all(rho[p] == 0 for p in t_set)
        b_set = set(report.B_Q)
        for u in sk.points:
            if u in t_set:
                continue
            proximate_to_t = any(q in t_set for q in sk.proximities[u])
            assert proximate_to_t == (u in b_set)
    print(f"\nACCEPTANCE 2 PASS: extension invariants on {len(corpus)} instances")


def test_criterion_3_formula_equivalences(corpus):
    """Multiplicity by drop count and by self-intersection difference;
    branches by free-drop count and by contracted excess sum; fundamental
    cycle by value differences and by the proximity recursion."""
    for instance in corpus:
        K, w, report = instance.cluster, instance.w, instance.report
        sk = K.skeleton
        unloaded = unload(extend(K, w)).cluster
        assert unloaded.nu[len(sk)] == 0
        assert report.mult == 1 + len(report.B_Q)
        assert report.mult == sum(m * m for m in unloaded.nu) - sum(
            m * m for m in K.nu
        )
        prime = excesses(WeightedCluster(sk, nu_prime(K, report)))
        b1_in_t = set(report.B1_Q) & set(report.T_Q)
        assert report.br == report.mult - len(b1_in_t)
        assert report.br == sum(prime[p] for p in report.T_Q)
        v_before, v_after = values(K), values(unloaded)
        for p in sk.points:
            z_by_values = v_after[p] - v_before[p]
            assert report.z[p] == z_by_values
            assert report.z[p] == report.epsilon[p] + sum(
                report.z[q] for q in sk.proximities[p]
            )
    print(f"\nACCEPTANCE 3 PASS: formula equivalences on {len(corpus)} instances")


def test_criterion_4_bound_chain_and_equality_flags(corpus):
    """Component count <= branches + 1 <= multiplicity + 1 = embedding
    dimension; both equalities hold exactly when their three flags do; the
    embedding-dimension equality only on minimal singularities."""
    branch_equalities = embed_equalities = 0
    for instance in corpus:
        report = instance.report
        n_components = len(report.Kplus_Q)
        assert n_components <= report.br + 1
        assert report.br + 1 <= report.mult + 1
        assert report.mult + 1 == report.emdim
        branch_equality = report.br == n_components - 1
        assert branch_equality == all(report.branches_equality)
        embed_equality = n_components == report.emdim
        assert embed_equality == all(report.embed_equality)
        if embed_equality:
            assert report.minimal
            embed_equalities += 1
        branch_equalities += branch_equality
    assert branch_equalities and embed_equalities  # both sides exercised
    print(f"\nACCEPTANCE 4 PASS: bound chain on {len(corpus)} instances "
          f"({branch_equalities} branch equalities, {embed_equalities} extremal)")


def test_criterion_5_minimality_triple_agreement(corpus):
    """Reduced fundamental cycle, branches = multiplicity, and no free drop
    inside the contracted set are one condition."""
    minimal_count = 0
    for instance in corpus:
        report = instance.report
        reduced = all(report.z[p] == 1 for p in report.T_Q)
        by_branches = report.br == report.mult
        by_drops = not (set(report.B1_Q) & set(report.T_Q))
        assert reduced == by_branches == by_drops == report.minimal
        minimal_count += report.minimal
    assert 0 < minimal_count < len(corpus)
    print(f"\nACCEPTANCE 5 PASS: minimality tests agree on {len(corpus)} "
          f"instances ({minimal_count} minimal)")


def test_criterion_6_cartier_builder(corpus):
    """Every randomized prescribed-intersection request builds and its
    certificate passes all four checks; the worked example reproduces its
    cluster exactly."""
    d1 = make_d1()
    report = enumerate_singularities(d1)[0]
    result = build(CartierRequest(d1, report, {2: 2}))
    tags = result.cluster.by_tag()
    added_tag = result.added[0].tag
    assert tags == {"O": 3, "p1": 2, "q1": 1, added_tag: 1}
    assert result.certificate.passed

    rng = random.Random(616)
    built = 0
    for instance in corpus:
        if built >= 1000:
            break
        alpha = {p: rng.randint(1, 5) for p in instance.report.Kplus_Q}
        outcome = build(CartierRequest(instance.cluster, instance.report, alpha))
        certificate = outcome.certificate
        assert certificate.consistent
        assert certificate.value_condition
        assert certificate.localization
        assert certificate.off_excess_zero
        assert certificate.readout_matches
        built += 1
    assert built >= 1000
    print(f"\nACCEPTANCE 6 PASS: {built} builds certified, worked example exact")


def test_criterion_7_interior_excess_between_components(corpus):
    """Between any two components through the singularity, some interior
    point of their chain keeps positive excess after the extension."""
    pairs = 0
    for instance in corpus:
        K, report = instance.cluster, instance.report
        if len(report.Kplus_Q) < 2:
            continue
        graph = dual_graph(K.skeleton)
        prime = excesses(WeightedCluster(K.skeleton, nu_prime(K, report)))
        for i, p in enumerate(report.Kplus_Q):
            for q in report.Kplus_Q[i + 1:]:
                interior = graph.open_chain(p, q)
                assert any(prime[u] > 0 for u in interior), (K.by_tag(), p, q)
                pairs += 1
    assert pairs > 0
    print(f"\nACCEPTANCE 7 PASS: interior positive excess on {pairs} component pairs")


def test_criterion_8_synthesis_round_trip():
    """Synthesized minimal singularities reproduce their resolution graph up
    to weighted isomorphism and attain component count = multiplicity + 1."""
    rng = random.Random(808)
    for _ in range(120):
        spec = random_minimal_graph_spec(rng, max_vertices=8, max_weight=6)
        cluster, w = synthesize(spec)
        report = analyze(cluster, w)
        assert len(report.Kplus_Q) == report.mult + 1
        graph = report.resolution_graph
        tags = cluster.skeleton.tags
        weights = {tags[v]: graph.weight(v) for v in graph.vertices}
        edges = tuple((tags[u], tags[v]) for u, v in graph.edges)
        assert weighted_trees_isomorphic(
            tuple(weights), edges, weights,
            spec.vertices, spec.edges, dict(zip(spec.vertices, spec.weights)),
        )
    print("\nACCEPTANCE 8 PASS: 120 synthesis round trips up to isomorphism")


def _check_graph_only_bounds(report):
    """The branch count -Z.E, minimality and the bound chain
    |Kplus_Q| <= br + 1 <= mult + 1 = emdim with its two equalities, read
    from the resolution graph and the number of components through Q alone."""
    graph = report.resolution_graph
    z = laufer_cycle(graph)
    br, mult, components = graph_branches(graph), graph_multiplicity(graph), len(report.Kplus_Q)
    assert br == report.br
    assert report.minimal == all(z_v == 1 for z_v in z.values())
    assert components <= br + 1 <= mult + 1 == report.emdim
    assert (components == br + 1) == all(report.branches_equality)
    assert (components == mult + 1) == all(report.embed_equality)
    return z, mult


def test_criterion_9_fundamental_cycle_from_the_graph_alone(corpus):
    """Laufer's computation sequence on the resolution graph gives the
    fundamental cycle the unloading gave, Artin's -Z.Z gives the
    multiplicity and -Z.E the branch count, which bound the number of
    components through Q: a third route that shares no code with unloading."""
    start = time.monotonic()
    for instance in corpus:
        report = instance.report
        z, mult = _check_graph_only_bounds(report)
        assert z == {p: report.z[p] for p in report.T_Q}, instance.cluster.by_tag()
        assert mult == report.mult
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 9 PASS: Laufer cycle and Artin multiplicity on "
          f"{len(corpus)} instances in {elapsed:.2f}s")


def test_criterion_9_on_non_reduced_cycles_of_make_dr():
    """The corpus holds few non-minimal singularities; the make_dr(r, s)
    family, with a satellite chain of r points and a free chain of s, gives
    the graph-only route many non-reduced fundamental cycles."""
    reports = non_minimal = 0
    for r in range(1, 16):
        for s in range(16):
            for report in enumerate_singularities(make_dr(r, s)):
                z, mult = _check_graph_only_bounds(report)
                assert z == {p: report.z[p] for p in report.T_Q}, (r, s)
                assert mult == report.mult
                reports += 1
                non_minimal += not report.minimal
    assert non_minimal >= 190, (reports, non_minimal)
    print(f"\nACCEPTANCE 9 PASS: make_dr(r, s), r=1..15, s=0..15: {reports} "
          f"singularities, {non_minimal} non-minimal")


SCALES = (7, 1_000, 2**70, 10**40)


def _named(report, tags):
    """Every field of a singular report but w, each point named by its tag:
    the same for two admissible orders of one cluster."""
    graph = report.resolution_graph

    def points(ps):
        return frozenset(tags[p] for p in ps)

    return (
        points(report.T_Q),
        tags[report.o_Q],
        frozenset(zip(tags, report.epsilon)),
        points(report.B_Q),
        points(report.B1_Q),
        points(report.B2_Q),
        points(report.Kplus_Q),
        frozenset(zip(tags, report.z)),
        (report.mult, report.emdim, report.br, report.minimal),
        (report.branches_equality, report.embed_equality),
        frozenset((tags[v], graph.weight(v)) for v in graph.vertices),
        frozenset(frozenset((tags[u], tags[v])) for u, v in graph.edges),
    )


def test_criterion_10_scale_and_order(corpus):
    """The ideal I^c has the blow-up of I for every c >= 1, so the cluster c·K
    gives K's report at every boundary point, in every field; and a report
    describes the surface, not the admissible order the points are listed
    in, so the singularities of the `canonical` relabelling of K are K's,
    point for point by tag."""
    rng = random.Random(1010)
    clusters = {}
    for instance in corpus:
        clusters.setdefault(id(instance.cluster), (instance.cluster, []))[1].append(instance)
    analyses = reordered = 0
    for K, instances in clusters.values():
        sk = K.skeleton
        c = rng.choice(SCALES)
        scaled = WeightedCluster(sk, tuple(c * m for m in K.nu))
        for instance in instances:
            assert analyze(scaled, instance.w) == instance.report, (K, instance.w, c)
            analyses += 1
        for p in sk.points:
            assert analyze(scaled, FreeOn(p)) == analyze(K, FreeOn(p)), (K, p, c)
            analyses += 1
        relabelled = canonical(sk)
        nu = K.by_tag()
        other = WeightedCluster(relabelled, tuple(nu[t] for t in relabelled.tags))
        assert Counter(_named(r, sk.tags) for r in enumerate_singularities(K)) == Counter(
            _named(r, relabelled.tags) for r in enumerate_singularities(other)
        ), K
        reordered += relabelled.tags != sk.tags
    assert reordered > 0
    print(f"\nACCEPTANCE 10 PASS: {analyses} analyses of {len(clusters)} clusters "
          f"scaled by c in {{7, 1000, 2^70, 10^40}}; {reordered} clusters reordered")


def test_criterion_11_a_report_belongs_to_q_not_to_w(corpus):
    """Every boundary point over a singular point Q of the blow-up, free or
    satellite, gives Q's report in every field but w: the report
    `enumerate_singularities` gives for the zero-excess component holding
    w's targets of excess 0, found by a search of the dual graph."""
    clusters = {}
    for instance in corpus:
        K, w = instance.cluster, instance.w
        if id(K) not in clusters:
            reports = enumerate_singularities(K)
            assert [report.T_Q for report in reports] == zero_excess_components(K), K
            clusters[id(K)] = excesses(K), {p: r for r in reports for p in r.T_Q}
        rho, over = clusters[id(K)]
        targets = (w.point,) if isinstance(w, FreeOn) else (w.p, w.q)
        q = next(p for p in targets if rho[p] == 0)
        assert instance.report == replace(over[q], w=w), (K, w)
    print(f"\nACCEPTANCE 11 PASS: {len(corpus)} analyses of {len(clusters)} clusters "
          f"equal their singular point's report but for w")


def test_criterion_12_smooth_exactly_when_the_skeleton_route_takes_no_step(corpus):
    """A boundary point is smooth exactly when K_w, built on the skeleton
    by `extend`, unloads in no step.  The corpus keeps singular analyses
    only, so this criterion reads every free point and every satellite on
    a dual-graph edge of its clusters, smooth ones included."""
    clusters = {id(instance.cluster): instance.cluster for instance in corpus}
    points = smooth = 0
    for K in clusters.values():
        spots = [FreeOn(p) for p in K.skeleton.points]
        spots += [Satellite(u, v) for u, v in dual_graph(K.skeleton).edges]
        for w in spots:
            report = analyze(K, w)
            assert report.smooth == (unload(extend(K, w), trace=False).step_count == 0), (K, w)
            points += 1
            smooth += report.smooth
    print(f"\nACCEPTANCE 12 PASS: {points} boundary points of {len(clusters)} clusters, "
          f"{smooth} smooth, smooth exactly when K_w takes no unloading step")
