"""Prescribed-intersection cluster construction and its certificate.

Core claims:
    - the worked chain-of-three example reproduces the expected clusters for
      multiplicities 1 and 2
    - certificates verify independently of the builder and catch tampering
    - requests are validated (domain, integrality and positivity of the
      prescription)
    - the seed-point override changes the start but never the certificate;
      a seed point that is not an integer (a bool, a float) is a one-line
      ClusterError
    - mixed prescriptions over several components build and certify
    - the builder's whole output (cluster, added points, trace, certificate)
      on the first 300 acceptance requests and the worked example matches a
      recorded digest byte for byte
    - the excess updates the builder carries from stage to stage agree with
      `excesses` recomputed: dropping zero points, appending a point of
      multiplicity 1, re-attaching base points
    - only an unloading makes a multiplicity zero, so every stage but the
      last has positive multiplicities; the closing re-attachment, one pass,
      gives what re-appending the added points to the base by `extend_point`
      gives, raises its error where it does, changes the stage exactly when
      a base point is missing, and puts every base point first, in base order
    - every stage of a build is consistent
    - a traced build whose last stage holds every base point keeps that
      stage as its result, the same object, and makes no second skeleton
    - a build that exceeds the safety cap raises with the cap in its message
      and carries the stages done before the overrun, the start first; an
      untraced build's overrun carries no stage
    - an untraced build gives the cluster, added points and certificate of
      the traced one and keeps the result alone as its trace, on the 600
      benchmark-style requests and on the worked example up to alpha 400;
      on the worked example at alpha 10,000 its traced peak stays under 20 MB
    - a growth anchor missing from the stage raises a named check rather
      than being re-attached
    - a growth stage attaches where a walk along the satellites of its
      dicritical from the anchor ends, also after an unloading dropped the
      satellite the builder appended last
    - every skeleton the builder makes of its stage (traced stages and the
      result) equals, field for field and in each cache it holds, the stage
      that the `extend_point` chain with `unload` and `drop_zero_points`
      gives, and so do the stage's lists at every append, also after an
      unloading dropped points, and on both sides of every unloading, which
      the stage runs on its own lists with `unload`'s step count and
      touched points
    - the stage's own dual-graph rows equal fresh ones at every stage the
      builder checks, and the interior-excess check, one walk of the
      components of excess <= 0, agrees message for message with two
      references, one chain per pair of dicriticals and one breadth-first
      search per dicritical: on those stages with some positive excesses
      zeroed, and on 10,000 seeded skeletons of at most 14 points with 2 to
      5 present dicriticals, some of excess <= 0 inside another pair's
      chain, which decides the pair named
    - the builder leaves a stage to the local interior-excess rule only
      when an append alone made it from the stage before, and on every such
      stage, with some or all positive excesses off the targets zeroed, the
      rule lets none through that the whole-graph search fails while the
      stage before passes it
    - the readout, one integer solve on the base's dual tree, agrees with
      exact rational Gauss-Jordan elimination over the simple-cluster values
      on the criterion-6 builds from every contracted seed point and on
      one-point perturbations of them: matching, mismatching and
      non-integral readouts, each at least 200 times
    - a candidate whose skeleton is invalid raises a one-line ClusterError
"""

import dataclasses
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from sandwiched import (
    ClusterError,
    FreeOn,
    Satellite,
    WeightedCluster,
    analyze,
    chain_skeleton,
    drop_zero_points,
    excesses,
    values,
)
from sandwiched import cartier, dsl
from sandwiched.cartier import (
    CartierRequest,
    _may_break_a_chain,
    _reattach,
    _Stage,
    build,
    check_interior_excess,
    verify,
)
from sandwiched.cluster import ClusterSkeleton, bfs, dual_graph, extend_point, restrict
from sandwiched.errors import CapExceededError, InternalCheckError
from sandwiched.oracle import GeneratorConfig, _random_cluster, random_skeleton
from sandwiched.analyzer import contracted_neighbor, enumerate_singularities
from sandwiched.synthesis import MinimalGraphSpec, synthesize
from sandwiched.weighted import (
    dicritical_set,
    embed_indices,
    multiplicities_from_excesses,
    unload,
)

from conftest import FORK


@pytest.fixture
def d1_report(d1):
    return analyze(d1, Satellite(0, 1))


def test_multiplicity_one_never_loops(d1, d1_report):
    result = build(CartierRequest(d1, d1_report, {2: 1}))
    assert result.cluster.by_tag() == {"O": 2, "p1": 1, "q1": 0}
    assert result.certificate.passed
    assert len(result.added) == 0  # the free seed point unloads away
    assert values(result.cluster)[2] == 3  # one copy of the branch value


def test_multiplicity_two_grows_one_satellite(d1, d1_report):
    result = build(CartierRequest(d1, d1_report, {2: 2}))
    tags = result.cluster.by_tag()
    added = result.added[0]
    assert tags == {"O": 3, "p1": 2, "q1": 1, added.tag: 1}
    assert added.targets == ("q1", "p1")
    assert result.certificate.passed
    assert result.certificate.readout == (("q1", 2),)
    assert values(result.cluster)[2] == 6  # twice the branch value


def test_certificate_catches_tampering(d1, d1_report):
    result = build(CartierRequest(d1, d1_report, {2: 2}))
    cluster = result.cluster
    q1 = cluster.skeleton.index_of("q1")
    tampered = WeightedCluster(
        cluster.skeleton,
        tuple(m + (1 if p == q1 else 0) for p, m in enumerate(cluster.nu)),
    )
    certificate = verify(d1, d1_report, {2: 2}, tampered)
    assert not certificate.passed
    assert not certificate.value_condition
    assert "value-condition" in certificate.failures


def test_request_validation(d1, d1_report):
    with pytest.raises(ClusterError):
        CartierRequest(d1, d1_report, {1: 1}).validated()  # not a component through Q
    with pytest.raises(ClusterError):
        CartierRequest(d1, d1_report, {2: 0}).validated()
    smooth = analyze(d1, FreeOn(2))
    with pytest.raises(ClusterError):
        build(CartierRequest(d1, smooth, {2: 1}))


@pytest.mark.parametrize("a", [1.5, "2", True, Fraction(2)], ids=["float", "str", "bool", "fraction"])
def test_a_prescription_that_is_not_an_integer_is_rejected(d1, d1_report, a):
    with pytest.raises(ClusterError) as err:
        build(CartierRequest(d1, d1_report, {2: a}))
    assert str(err.value) == "prescribed multiplicities must be integers"


def test_seed_point_override(d1, d1_report):
    result = build(CartierRequest(d1, d1_report, {2: 2}), seed_point=1)
    assert result.certificate.passed
    with pytest.raises(ClusterError):
        build(CartierRequest(d1, d1_report, {2: 2}), seed_point=2)  # not contracted


@pytest.mark.parametrize("seed_point", [True, 1.0], ids=["bool", "float"])
def test_a_seed_point_that_is_not_an_integer_is_rejected(d1, d1_report, seed_point):
    with pytest.raises(ClusterError) as err:
        build(CartierRequest(d1, d1_report, {2: 2}), seed_point=seed_point)
    assert str(err.value) == f"seed point {seed_point!r} is not an integer"


def test_mixed_prescription_on_three_components():
    spec = MinimalGraphSpec(("a",), (), (3,))
    cluster, w = synthesize(spec)
    report = analyze(cluster, w)
    assert len(report.Kplus_Q) == 4
    alpha = dict(zip(report.Kplus_Q, (1, 2, 2, 2)))
    result = build(CartierRequest(cluster, report, alpha))
    assert result.certificate.passed
    readout = dict(result.certificate.readout)
    for p, a in alpha.items():
        assert readout[cluster.skeleton.tags[p]] == a


def test_trace_starts_at_combination_and_ends_at_result(d1, d1_report):
    result = build(CartierRequest(d1, d1_report, {2: 2}))
    assert result.trace[0].nu == (2, 2, 2)  # twice the simple cluster
    assert result.trace[-1] == result.cluster


def test_cap_overrun_carries_the_stages_before_it(monkeypatch):
    cluster, w = synthesize(MinimalGraphSpec(("a",), (), (3,)))
    report = analyze(cluster, w)
    alpha = {p: 3 for p in report.Kplus_Q}
    request = CartierRequest(cluster, report, alpha)
    stages = build(request).trace
    cap = 4 * sum(alpha.values()) * len(cluster.skeleton) ** 2
    real = _Stage.unload
    unloaded = []

    def repeating(stage, negative):
        # the real steps; from the second unloading on, repeated past the cap
        step_count, touched = real(stage, negative)
        unloaded.append(WeightedCluster(_skeleton_of(stage), tuple(stage.nu)))
        times = cap if len(unloaded) > 1 else 1
        return step_count * times, touched

    monkeypatch.setattr(_Stage, "unload", repeating)
    with pytest.raises(CapExceededError) as raised:
        build(request)
    assert str(raised.value) == f"builder exceeded the {cap}-step safety cap"
    done = raised.value.trace
    assert len(unloaded) == 2 and len(done) > 2
    # the start first, then every stage up to the one whose unloading overran
    assert done == stages[: len(done)]
    assert stages[len(done)] == drop_zero_points(unloaded[-1]).cluster

    unloaded.clear()
    with pytest.raises(CapExceededError) as raised:
        build(request, trace=False)
    assert str(raised.value) == f"builder exceeded the {cap}-step safety cap"
    assert raised.value.trace == ()


def test_random_requests_always_certify():
    rng = random.Random(41)
    config = GeneratorConfig(max_points=9, satellite_probability=0.4)
    built = 0
    while built < 60:
        K = _random_cluster(rng, config)
        for report in enumerate_singularities(K):
            alpha = {p: rng.randint(1, 4) for p in report.Kplus_Q}
            result = build(CartierRequest(K, report, alpha))
            assert result.certificate.passed, result.certificate.failures
            # only an unloading makes a multiplicity zero, and it drops them;
            # the last entry re-attaches every base point
            assert all(min(stage.nu) > 0 for stage in result.trace[:-1])
            built += 1


def _encode_cluster(cluster):
    sk = cluster.skeleton
    return [
        list(sk.tags),
        list(sk.parents),
        [sorted(prox) for prox in sk.proximities],
        list(cluster.nu),
    ]


def _encode_result(result):
    c = result.certificate
    return [
        _encode_cluster(result.cluster),
        [[a.tag, list(a.targets)] for a in result.added],
        [_encode_cluster(t) for t in result.trace],
        [
            c.consistent,
            c.value_condition,
            c.localization,
            c.off_excess_zero,
            [list(r) for r in c.readout],
            c.readout_matches,
            list(c.failures),
        ],
    ]


# sha256 over the builder's outputs, recorded from the tag-keyed builder that
# preceded the cluster-state one; any change to a cluster, an added point's
# tag or targets, a trace entry or the certificate changes it
GOLDEN_DIGEST = "1de9c8714a8cd4b04c5b93f113a2ca99a7073ff0a003adfa9ace0078bf491ad1"


def test_golden_digest_of_builds(corpus, d1, d1_report):
    h = hashlib.sha256()

    def feed(result):
        h.update(json.dumps(_encode_result(result), separators=(",", ":")).encode())
        h.update(b"\n")

    for alpha in (1, 2, 3):
        feed(build(CartierRequest(d1, d1_report, {2: alpha})))
    feed(build(CartierRequest(d1, d1_report, {2: 2}), seed_point=1))
    rng = random.Random(616)  # the criterion-6 request sequence
    for instance in corpus[:300]:
        alpha = {p: rng.randint(1, 5) for p in instance.report.Kplus_Q}
        feed(build(CartierRequest(instance.cluster, instance.report, alpha)))
    assert h.hexdigest() == GOLDEN_DIGEST


# -- what the builder carries between stages ------------------------------------


def _weighted(rng, skeleton):
    """`skeleton` with random multiplicities, a third of them zero."""
    return WeightedCluster(
        skeleton, tuple(rng.choice((0, 0, 1, 2, 3, -1)) for _ in skeleton.points)
    )


def test_dropping_zero_points_keeps_the_excesses_of_kept_points():
    rng = random.Random(71)
    dropped = 0
    for _ in range(2000):
        cluster = _weighted(rng, random_skeleton(rng, 10, 0.5))
        rho = excesses(cluster)
        result = drop_zero_points(cluster)
        assert excesses(result.cluster) == tuple(rho[p] for p in result.kept)
        dropped += bool(result.dropped)
    assert dropped > 500


def test_a_point_of_multiplicity_one_lowers_only_its_targets():
    rng = random.Random(73)
    for _ in range(2000):
        cluster = _weighted(rng, random_skeleton(rng, 10, 0.5))
        sk = cluster.skeleton
        p = rng.choice(list(sk.points))
        targets = rng.choice([(p,)] + [(p, q) for q in sk.proximities[p]])
        try:
            grown = extend_point(sk, targets)
        except ClusterError:  # the satellite position is occupied
            continue
        expected = [r - (q in targets) for q, r in enumerate(excesses(cluster))] + [1]
        assert excesses(WeightedCluster(grown, cluster.nu + (1,))) == tuple(expected)


def _reattach_by_extend_point(cluster, base):
    """The re-attachment that the one-pass layout replaced: the base, then
    each added point appended again by `extend_point`."""
    cur = cluster.skeleton
    skeleton = base
    for p, tag in enumerate(cur.tags):
        if tag not in base.tag_index:
            targets = (skeleton.tag_index[cur.tags[q]] for q in cur.proximities[p])
            skeleton = extend_point(skeleton, targets, tag)
    nu = tuple(cluster.nu[cur.tag_index[t]] if t in cur.tag_index else 0 for t in skeleton.tags)
    return WeightedCluster(skeleton, nu)


def test_reattached_points_have_excess_zero_and_move_no_other():
    rng = random.Random(79)
    rebuilt = occupied = 0
    for _ in range(2000):
        base = random_skeleton(rng, 10, 0.5).require_valid()
        seeds = rng.sample(list(base.points), rng.randint(1, len(base)))
        sk, _ = restrict(base, set().union(*(base.predecessors(q) for q in seeds)))
        for _ in range(rng.randint(0, 3)):
            p = rng.choice(list(sk.points))
            try:
                sk = extend_point(sk, rng.choice([(p,)] + [(p, q) for q in sk.proximities[p]]))
            except ClusterError:
                pass
        cluster = _weighted(rng, sk)
        try:
            expected = _reattach_by_extend_point(cluster, base)
        except ClusterError as error:  # a base satellite's position is taken by an added one
            with pytest.raises(ClusterError) as raised:
                _reattach(_Stage(cluster, excesses(cluster)), base)
            assert str(raised.value) == str(error)
            occupied += 1
            continue
        grown = _reattach(_Stage(cluster, excesses(cluster)), base)
        assert grown == expected
        assert grown.skeleton.__dict__.get("_verdict") == ()
        assert (grown == cluster) == all(t in sk.tag_index for t in base.tags)
        assert grown.skeleton.tags[: len(base)] == base.tags
        before = dict(zip(sk.tags, excesses(cluster)))
        after = dict(zip(grown.skeleton.tags, excesses(grown)))
        assert after == {tag: before.get(tag, 0) for tag in grown.skeleton.tags}
        rebuilt += grown != cluster
    assert rebuilt > 500 and occupied > 20, (rebuilt, occupied)


# -- where a growth stage attaches -----------------------------------------------


def _corpus_requests(corpus):
    """600 requests on the first corpus instances: alpha 1..5 on each
    component, and on every fourth request 1..20 on one of them."""
    rng = random.Random(101)
    requests = []
    for i, instance in enumerate(corpus[:600]):
        alpha = {p: rng.randint(1, 5) for p in instance.report.Kplus_Q}
        if i % 4 == 3:
            alpha[rng.choice(instance.report.Kplus_Q)] = rng.randint(1, 20)
        requests.append(CartierRequest(instance.cluster, instance.report, alpha))
    return requests


def test_every_stage_is_consistent(corpus):
    for request in _corpus_requests(corpus):
        for stage in build(request).trace:
            assert min(excesses(stage)) >= 0


def test_a_last_stage_holding_every_base_point_is_the_result(corpus):
    whole = 0
    for request in _corpus_requests(corpus):
        trace = build(request).trace
        holds_every_base_point = all(
            t in trace[-2].skeleton.tag_index for t in request.base.skeleton.tags
        )
        assert (trace[-1] is trace[-2]) == holds_every_base_point
        whole += holds_every_base_point
    assert whole > 150, whole  # 180 of the 600


def test_an_untraced_build_keeps_only_the_result(corpus, d1, d1_report):
    requests = _corpus_requests(corpus)
    requests += [CartierRequest(d1, d1_report, {2: a}) for a in (1, 2, 7, 50, 400)]
    for request in requests:
        traced = build(request)
        untraced = build(request, trace=False)
        assert untraced.cluster == traced.cluster
        assert untraced.added == traced.added
        assert untraced.certificate == traced.certificate
        assert untraced.trace == (untraced.cluster,)


def test_an_untraced_build_at_alpha_10000_stays_small(d1, d1_report):
    # a traced build keeps one stage per added point, O(alpha^2) in all: it
    # peaks at 326 MB at alpha 3,000 and ran out of memory at 10,000
    tracemalloc.start()
    try:
        result = build(CartierRequest(d1, d1_report, {2: 10_000}), trace=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.certificate.passed
    assert len(result.added) == 9_999
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_a_growth_anchor_missing_from_the_stage_is_named(monkeypatch):
    fork = dsl.parse(FORK)["k"]
    request = CartierRequest(fork, analyze(fork, FreeOn(1)), {0: 2, 2: 2})
    assert all("b1" not in stage.skeleton.tag_index for stage in build(request).trace[:-1])
    # name b1 as the contracted neighbour of every component through a1
    monkeypatch.setattr(cartier, "contracted_neighbor", lambda graph, report, p: 3)
    with pytest.raises(InternalCheckError) as err:
        build(request)
    assert str(err.value) == "growth loop: anchor b1 is not in the stage"


def _partner_by_walk(skeleton, anchor, dicritical):
    """The lookup the builder's chains replaced: from the anchor, follow the
    satellite at the dicritical and the current point while there is one."""
    pairs = {}
    for s in skeleton.points:
        if len(skeleton.proximities[s]) == 2:
            pairs.setdefault(skeleton.proximities[s], s)
    partner = anchor
    while frozenset((dicritical, partner)) in pairs:
        partner = pairs[frozenset((dicritical, partner))]
    return partner


def _skeleton_of(stage):
    """A fresh skeleton on the stage's points, caching nothing yet."""
    return ClusterSkeleton(tuple(stage.parents), tuple(stage.proximities), tuple(stage.tags))


def _frozen_rows(stage) -> dict:
    """The stage's dual-graph rows as tuples: a stage grows a row it has
    changed in place, as a list."""
    return {q: tuple(row) for q, row in stage.dual_rows.items()}


def test_growth_stages_attach_where_the_satellite_walk_ends(monkeypatch, corpus):
    appended = []
    real = _Stage.append

    def recording(stage, targets, tag):
        appended.append((_skeleton_of(stage), tuple(targets), tag))
        return real(stage, targets, tag)

    monkeypatch.setattr(_Stage, "append", recording)
    stages = dropped = 0
    for request in _corpus_requests(corpus):
        appended.clear()
        build(request)
        sk = request.base.skeleton
        anchor = {
            sk.tags[p]: sk.tags[contracted_neighbor(sk.dual_rows, request.report, p)]
            for p in request.report.Kplus_Q
        }
        last: dict = {}  # dicritical tag -> tag of the satellite appended last for it
        for skeleton, targets, tag in appended:
            if len(targets) == 1:
                continue  # the first stage
            partner, p = targets
            d = skeleton.tags[p]
            assert partner == _partner_by_walk(skeleton, skeleton.tag_index[anchor[d]], p)
            stages += 1
            dropped += d in last and last[d] not in skeleton.tag_index
            last[d] = tag
    assert stages > 3000 and dropped >= 20, (stages, dropped)


def test_every_materialized_stage_equals_the_extend_point_chain(monkeypatch, corpus):
    """Replays each build with the cluster operations, as the builder ran
    before it held its stage in lists: `restrict` for the start, one
    `extend_point` per append, and `unload` then `drop_zero_points` where a
    target's excess turned negative.  Every skeleton the builder makes of
    its stage equals the replayed one, field for field and in each cache it
    holds, and so do the stage's own lists at every append and on both
    sides of every unloading, whose step count and touched points are
    those of `unload`."""
    ref = {}
    counts = {"append": 0, "cluster": 0, "unload": 0, "dropped": 0}
    real_append, real_cluster, real_unload = _Stage.append, _Stage.cluster, _Stage.unload

    def same_lists(stage, cluster, rho):
        sk = cluster.skeleton
        assert stage.proximate_to == [list(row) for row in sk.proximate_to]
        assert (stage.tag_index, _frozen_rows(stage)) == (sk.tag_index, sk.dual_rows)
        assert (stage.nu, stage.rho) == (list(cluster.nu), list(rho))

    def same(skeleton, cluster_nu):
        expected = ref["cluster"]
        assert skeleton == expected.skeleton and cluster_nu == expected.nu
        assert skeleton.__dict__.get("_verdict") == expected.skeleton._verdict == ()
        for cache in ("proximate_to", "tag_index", "dual_rows"):
            if cache in skeleton.__dict__:
                assert skeleton.__dict__[cache] == getattr(expected.skeleton, cache), cache

    def append(stage, targets, tag):
        cluster = ref["cluster"]
        same_lists(stage, cluster, excesses(cluster))
        real_append(stage, targets, tag)
        grown = WeightedCluster(extend_point(cluster.skeleton, targets, tag), cluster.nu + (1,))
        if min(excesses(grown)) < 0:
            ref["pending"] = grown  # unloaded at the builder's unload
        else:
            ref["cluster"] = grown
        counts["append"] += 1

    def cluster(stage, base):
        made = real_cluster(stage, base)
        same(made.skeleton, made.nu)
        counts["cluster"] += 1
        return made

    def unloading(stage, negative):
        grown = ref.pop("pending")
        same_lists(stage, grown, excesses(grown))
        assert negative == [p for p, r in enumerate(stage.rho) if r < 0]
        step_count, touched = real_unload(stage, negative)
        expected = unload(grown)
        same_lists(stage, expected.cluster, expected.rho)
        assert (step_count, frozenset(touched)) == (expected.step_count, expected.touched)
        dropped = drop_zero_points(expected.cluster)
        ref["cluster"] = dropped.cluster
        counts["unload"] += 1
        counts["dropped"] += bool(dropped.dropped)
        return step_count, touched

    monkeypatch.setattr(_Stage, "append", append)
    monkeypatch.setattr(_Stage, "cluster", cluster)
    monkeypatch.setattr(_Stage, "unload", unloading)
    for request in _corpus_requests(corpus)[:300]:
        sk = request.base.skeleton
        combined = multiplicities_from_excesses(sk, [request.alpha.get(p, 0) for p in sk.points])
        start, kept = restrict(sk, (q for q in sk.points if combined.nu[q] > 0))
        ref.clear()
        ref["cluster"] = WeightedCluster(start, tuple(combined.nu[q] for q in kept))
        build(request)
    assert counts["append"] > 3000 and counts["cluster"] > 3000, counts
    assert counts["dropped"] > 400, counts


# -- the interior-excess check --------------------------------------------------


def _interior_excess_by_pairs(label, skeleton, rho, tags):
    """The check that one search per dicritical replaced: a fresh dual graph
    and one open chain per pair of prescribed dicriticals."""
    if len(tags) < 2:
        return
    graph = dual_graph(skeleton)
    present = [skeleton.tag_index[t] for t in tags]
    for i, a in enumerate(present):
        for b in present[i + 1 :]:
            if not any(rho[u] > 0 for u in graph.open_chain(a, b)):
                raise InternalCheckError(
                    f"{label}: no positive excess between "
                    f"{skeleton.tags[a]} and {skeleton.tags[b]}"
                )


def _interior_excess_by_search(label, skeleton, rho, tags):
    """The check that one walk replaced: one breadth-first search of the
    dual graph per present dicritical but the last, whose parents give the
    chain to every later one."""
    present = [skeleton.tag_index[t] for t in tags]
    for i, a in enumerate(present[:-1]):
        _, parent = bfs(skeleton.dual_rows, a)
        for b in present[i + 1 :]:
            u = parent[b]
            while u != a and rho[u] <= 0:
                u = parent[u]
            if u == a:
                raise InternalCheckError(
                    f"{label}: no positive excess between "
                    f"{skeleton.tags[a]} and {skeleton.tags[b]}"
                )


def _failure(check, *args):
    try:
        check(*args)
    except InternalCheckError as error:
        return str(error)
    return None


def _checked_stages(monkeypatch, corpus):
    """Every stage with two prescribed dicriticals present that the builder
    checks on the multi-component corpus requests, as a dict: the check's
    `label`, the stage as a fresh `skeleton`, its `rho` and present `tags`;
    for a stage left to the local rule also the append's `targets`, the
    `present` indices, the local `verdict` and the stage `before` the
    append, as a fresh skeleton and its excesses; and whether the builder
    `searched` the whole graph.  Asserts that the stage's own rows are the
    ones a fresh skeleton derives."""
    stages = []
    open_local = []  # the stage whose local verdict asks for the search
    before = {}
    real_append, real_local, real_search = _Stage.append, cartier._may_break_a_chain, check_interior_excess

    def snapshot(stage):
        skeleton = _skeleton_of(stage)
        assert _frozen_rows(stage) == skeleton.dual_rows
        assert stage.proximate_to == [list(row) for row in skeleton.proximate_to]
        assert stage.tag_index == skeleton.tag_index
        return {"skeleton": skeleton, "rho": list(stage.rho), "searched": False}

    def append(stage, targets, tag):
        before.update(skeleton=_skeleton_of(stage), rho=list(stage.rho))
        return real_append(stage, targets, tag)

    def local(stage, targets, present):
        verdict = real_local(stage, targets, present)
        record = snapshot(stage)
        tags = [stage.tags[p] for p in sorted(present)]
        record.update(label="growth loop", tags=tags, targets=tuple(targets), present=set(present))
        record.update(verdict=verdict, before=dict(before))
        stages.append(record)
        open_local[:] = [record] if verdict else []
        return verdict

    def search(label, stage, rho, tags):
        if open_local:
            open_local.pop()["searched"] = True
        else:
            stages.append({**snapshot(stage), "label": label, "tags": tags, "searched": True})
        return real_search(label, stage, rho, tags)

    monkeypatch.setattr(_Stage, "append", append)
    monkeypatch.setattr(cartier, "_may_break_a_chain", local)
    monkeypatch.setattr(cartier, "check_interior_excess", search)
    rng = random.Random(89)
    requests = [i for i in corpus if len(i.report.Kplus_Q) > 1][:40]
    for instance in requests:
        alpha = {p: rng.randint(1, 8) for p in instance.report.Kplus_Q}
        build(CartierRequest(instance.cluster, instance.report, alpha))
    return stages


@dataclasses.dataclass
class _View:
    """What the local rule reads of a stage."""

    rho: list
    dual_rows: dict


def _zeroed(rng, rho):
    """`rho` with each positive excess set to zero with probability 1/2."""
    return [0 if r > 0 and rng.random() < 0.5 else r for r in rho]


def test_interior_excess_search_agrees_with_the_pairwise_chains(monkeypatch, corpus):
    stages = _checked_stages(monkeypatch, corpus)
    rng = random.Random(97)
    outcomes = {"passed": 0, "failed": 0, "local": 0}
    for stage in stages:
        label, skeleton, rho, tags = stage["label"], stage["skeleton"], stage["rho"], stage["tags"]
        outcomes["local"] += not stage["searched"]
        # the stage's own excesses, then some positive ones set to zero
        for trial in range(3):
            if trial:
                rho = _zeroed(rng, rho)
            expected = _failure(_interior_excess_by_pairs, label, skeleton, rho, tags)
            assert _failure(_interior_excess_by_search, label, skeleton, rho, tags) == expected
            got = _failure(check_interior_excess, label, skeleton, rho, tags)
            assert got == expected
            outcomes["failed" if expected else "passed"] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_zero_excess_on_a_chain_interior_is_reported(monkeypatch, corpus):
    stages = _checked_stages(monkeypatch, corpus)
    reported = 0
    for stage in stages:
        label, skeleton, tags = stage["label"], stage["skeleton"], stage["tags"]
        a, b = (skeleton.tag_index[t] for t in tags[:2])
        graph = dual_graph(skeleton)
        interior = graph.open_chain(a, b)
        rho = [0 if u in interior else r for u, r in enumerate(stage["rho"])]
        message = f"{label}: no positive excess between {tags[0]} and {tags[1]}"
        with pytest.raises(InternalCheckError) as raised:
            check_interior_excess(label, skeleton, rho, tags)
        assert str(raised.value) == message
        reported += bool(interior)
    assert reported > 500


def test_the_local_rule_never_skips_a_failing_stage(monkeypatch, corpus):
    """The builder leaves a stage to the local rule only when the stage came
    from the one before by an append alone; and whenever the stage before
    passes the whole-graph search, with some positive excesses set to zero,
    a stage the rule lets through passes it too."""
    stages = _checked_stages(monkeypatch, corpus)
    rng = random.Random(101)
    outcomes = {"skipped": 0, "caught": 0, "searched": 0}
    for stage in stages:
        if "verdict" not in stage:
            continue  # the first stage, or one after an unloading: searched
        targets, present, tags = stage["targets"], stage["present"], stage["tags"]
        before, skeleton = stage["before"], stage["skeleton"]
        assert stage["searched"] == stage["verdict"]

        def appended(rho):
            return [r - (q in targets) for q, r in enumerate(rho)] + [1]

        assert stage["rho"] == appended(before["rho"])
        # the stage's own excesses, some positive ones set to zero, and
        # every positive one set to zero but at the targets
        only_targets = [r if q in targets else min(r, 0) for q, r in enumerate(before["rho"])]
        for rho in [before["rho"], only_targets] + [_zeroed(rng, before["rho"]) for _ in range(8)]:
            if _failure(check_interior_excess, "", before["skeleton"], rho, tags):
                continue  # the builder would have stopped at the stage before
            rho = appended(rho)
            fails = _failure(check_interior_excess, "", skeleton, rho, tags)
            if not _may_break_a_chain(_View(rho, skeleton.dual_rows), targets, present):
                assert fails is None
                outcomes["skipped"] += 1
            else:
                outcomes["caught" if fails else "searched"] += 1
    assert outcomes["skipped"] > 1000 and min(outcomes.values()) > 40, outcomes


def test_interior_excess_walk_agrees_on_random_skeletons():
    """10,000 seeded skeletons of at most 14 points, each with random
    excesses in -1..2, most of them positive, and 2 to 5 present points; in
    half of them one more present point of excess <= 0 is put inside the
    chain of two others, at a random place in the order.  The walk names
    the pair both references name, also when the chain of the pair named
    holds a present point of excess <= 0, which a walk that stopped at
    present points would miss."""
    rng = random.Random(103)
    outcomes = {"passed": 0, "failed": 0, "named-across": 0}
    skeletons = 0
    while skeletons < 10_000:
        skeleton = random_skeleton(rng, 14, 0.4)
        n = len(skeleton)
        if n < 3:
            continue
        skeletons += 1
        graph = dual_graph(skeleton)
        rho = [rng.choice((-1, 0, 1, 1, 2)) for _ in range(n)]
        present = rng.sample(range(n), rng.randint(2, min(5, n - 1)))
        if rng.random() < 0.5:
            a, b = present[:2]
            interior = [c for c in graph.open_chain(a, b) if c not in present]
            if interior:
                c = rng.choice(interior)
                rho[c] = rng.choice((-1, 0))
                present.insert(rng.randint(0, len(present)), c)
        tags = [skeleton.tags[p] for p in present]
        expected = _failure(_interior_excess_by_pairs, "walk", skeleton, rho, tags)
        assert _failure(_interior_excess_by_search, "walk", skeleton, rho, tags) == expected
        assert _failure(check_interior_excess, "walk", skeleton, rho, tags) == expected
        outcomes["failed" if expected else "passed"] += 1
        if expected:
            a, b = (skeleton.tag_index[t] for t in expected.split(" between ")[1].split(" and "))
            across = set(graph.open_chain(a, b)).intersection(present)
            outcomes["named-across"] += any(rho[c] <= 0 for c in across)
    assert min(outcomes.values()) > 1000, outcomes


# -- the readout ---------------------------------------------------------------


def _read_by_gauss_jordan(dicriticals, simple_values, v_candidate, mapping, alpha, sk):
    """The rational Gauss-Jordan readout that the integer elimination replaced."""
    m = len(dicriticals)
    rows = [
        [Fraction(simple_values[q][p]) for q in dicriticals]
        + [Fraction(v_candidate[mapping[p]])]
        for p in dicriticals
    ]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            return (), False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    solution = {}
    for i, q in enumerate(dicriticals):
        x = rows[i][m] / rows[i][i]
        if x.denominator != 1:
            return (), False
        solution[q] = int(x)
    readout = tuple((sk.tags[q], solution[q]) for q in dicriticals)
    matches = all(solution[q] == alpha.get(q, 0) for q in dicriticals)
    return readout, matches


def test_tree_readout_agrees_with_rational_gauss_jordan(corpus):
    rng = random.Random(616)  # the criterion-6 request sequence
    perturb = random.Random(83)
    outcomes = {"match": 0, "mismatch": 0, "non-integral": 0}
    for instance in corpus[:300]:
        base, report = instance.cluster, instance.report
        alpha = {p: rng.randint(1, 5) for p in report.Kplus_Q}
        sk = base.skeleton
        dicriticals = sorted(dicritical_set(base))
        simple_values = {
            q: values(multiplicities_from_excesses(sk, [int(p == q) for p in sk.points]))
            for q in dicriticals
        }
        for seed_point in report.T_Q:
            built = build(CartierRequest(base, report, alpha), seed_point, trace=False).cluster
            nu = list(built.nu)
            nu[perturb.randrange(len(nu))] += perturb.choice((-2, -1, 1, 2))
            for candidate in (built, WeightedCluster(built.skeleton, tuple(nu))):
                mapping = embed_indices(sk, candidate.skeleton)
                readout, matches = _read_by_gauss_jordan(
                    dicriticals, simple_values, values(candidate), mapping, alpha, sk
                )
                # the prescription, one with a key on the origin, and a wrong one;
                # the readout does not depend on the prescription
                for prescribed in (alpha, {**alpha, 0: 1}, {p: a + 1 for p, a in alpha.items()}):
                    if prescribed is not alpha:
                        matches = bool(readout) and all(
                            x == prescribed.get(q, 0) for q, (_, x) in zip(dicriticals, readout)
                        )
                    certificate = verify(base, report, prescribed, candidate)
                    assert (certificate.readout, certificate.readout_matches) == (readout, matches)
                    outcomes["match" if matches else "mismatch" if readout else "non-integral"] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_an_invalid_candidate_skeleton_raises_a_cluster_error(d1, d1_report):
    built = build(CartierRequest(d1, d1_report, {2: 2})).cluster
    sk = built.skeleton
    w1 = sk.index_of("w1")
    proximities = sk.proximities[:w1] + (frozenset({9}),) + sk.proximities[w1 + 1 :]
    broken = WeightedCluster(ClusterSkeleton(sk.parents, proximities, sk.tags), built.nu)
    with pytest.raises(ClusterError) as err:
        verify(d1, d1_report, {2: 2}, broken)
    message = str(err.value)
    assert message.startswith("invalid skeleton: ") and "\n" not in message
