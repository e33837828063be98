"""Skeleton validation, proximity matrices, dual graphs, chains, maximal proximity.

Core claims:
    - validate() accepts the legal structures and names each broken rule
    - a skeleton is validated once; extend_point and non-empty restrictions
      of a valid skeleton inherit its verdict soundly, and a broken skeleton
      raises in every operation that checks it
    - restricting to every point is the identity
    - proximity matrices transcribe the structure and invert integrally
    - the dual graph is a tree obeying the intersection edge rule: replaying
      the blow-ups point by point gives the graph of the static rule in the
      oracle, and the adjacency rows of an appended point derived by the
      local blow-up rule equal fresh ones, and the shared rows stay as they were
    - the skeleton's `dual_rows`, on skeletons grown by chains of free and
      satellite appends, equal those of a fresh skeleton and of the static
      rule; a restriction that drops points derives them afresh, and
      `restrict_adjacency` gives the same rows from the source's, whether
      they are tuples or lists; and no
      analysis, enumeration or Cartier build changes a base's rows
    - extend_point names the occupant of a taken satellite position
    - chains are unique tree paths; the open variant drops endpoints
    - the infinitely-near order matches ancestry in the parent tree
    - maximal proximity follows the infinitely-near order
    - every chain between comparable points ascends then descends, and the
      descending part stays proximate to the ascending part
"""

import random

import networkx as nx
import pytest

from sandwiched import (
    ClusterSkeleton,
    ClusterError,
    FreeOn,
    SkeletonBuilder,
    WeightedCluster,
    analyze,
    canonical,
    chain_skeleton,
    dual_graph,
    extend,
    unload,
    validate,
)
from sandwiched import cluster as cluster_module
from sandwiched.analyzer import Satellite, enumerate_singularities
from sandwiched.cartier import CartierRequest, build
from sandwiched.cluster import extend_adjacency, extend_point, restrict, restrict_adjacency
from sandwiched.oracle import (
    is_mK_free,
    is_mK_proximate,
    is_mK_satellite,
    proximity_matrix,
    random_minimal_graph_spec,
    random_skeleton,
    static_dual_graph,
)
from sandwiched.synthesis import synthesize

from conftest import make_dr


def satellite_triangle() -> ClusterSkeleton:
    b = SkeletonBuilder()
    o = b.origin()
    p1 = b.free(o, "p1")
    b.satellite(p1, o, "w")
    return b.build()


# -- validate -----------------------------------------------------------------


def test_validate_free_chain_is_clean():
    assert validate(chain_skeleton(3)) == []


def test_validate_satellite_is_clean():
    assert validate(satellite_triangle()) == []


# One skeleton per broken rule, each built directly (its verdict is unknown).
BROKEN = {
    "target-missing": lambda: ClusterSkeleton(
        parents=(None, 0, 1),
        proximities=(frozenset(), frozenset({0}), frozenset({1, 7})),
        tags=("O", "p1", "w"),
    ),
    "single-origin": lambda: ClusterSkeleton(
        parents=(None, None),
        proximities=(frozenset(), frozenset()),
        tags=("O", "O2"),
    ),
    "satellite-inheritance": lambda: ClusterSkeleton(
        parents=(None, 0, 1, 2),
        proximities=(frozenset(), frozenset({0}), frozenset({1}), frozenset({2, 0})),
        tags=("O", "p1", "p2", "w"),
    ),
    "satellite-occupied": lambda: ClusterSkeleton(
        parents=(None, 0, 1, 1),
        proximities=(frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1})),
        tags=("O", "p1", "a", "b"),
    ),
    "tag-duplicate": lambda: ClusterSkeleton(
        parents=(None, 0),
        proximities=(frozenset(), frozenset({0})),
        tags=("O", "O"),
    ),
}


def test_validate_reports_missing_target():
    rules = {d.rule for d in validate(BROKEN["target-missing"]())}
    assert "target-missing" in rules


def test_validate_reports_second_origin():
    broken = BROKEN["single-origin"]()
    assert any(d.rule == "single-origin" and d.point == 1 for d in validate(broken))


def test_validate_reports_inheritance_violation():
    broken = BROKEN["satellite-inheritance"]()
    assert any(d.rule == "satellite-inheritance" for d in validate(broken))


def test_validate_reports_occupied_satellite_position():
    broken = BROKEN["satellite-occupied"]()
    assert any(d.rule == "satellite-occupied" for d in validate(broken))


def test_validate_reports_duplicate_tags():
    broken = BROKEN["tag-duplicate"]()
    assert any(d.rule == "tag-duplicate" for d in validate(broken))


# -- stored verdicts -------------------------------------------------------------


@pytest.mark.parametrize("rule", sorted(BROKEN))
def test_broken_skeleton_raises_in_every_operation(rule):
    # the first check stores the verdict; every later one must still raise
    broken = BROKEN[rule]()
    K = WeightedCluster(broken, (1,) * len(broken))
    for operation in (
        lambda: unload(K),
        lambda: dual_graph(broken),
        lambda: proximity_matrix(broken),
        lambda: analyze(K, FreeOn(0)),
        lambda: extend(K, FreeOn(0)),
        broken.require_valid,
    ):
        with pytest.raises(ClusterError, match="invalid skeleton"):
            operation()
    assert validate(broken) == validate(BROKEN[rule]())


def _count_validate(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(
        cluster_module, "validate", lambda sk: calls.append(sk) or validate(sk)
    )
    return calls


def test_inherited_verdicts_are_sound(monkeypatch):
    # extend_point and a non-empty restrict of a checked skeleton pass its
    # verdict on without validating; a fresh copy must then validate clean
    calls = _count_validate(monkeypatch)
    rng = random.Random(37)
    checked = 0
    for _ in range(2000):
        sk = random_skeleton(rng, 10, 0.5).require_valid()
        points = list(sk.points)
        attempts = [rng.sample(points, min(len(sk), rng.randint(1, 2))) for _ in range(3)]
        p = rng.choice(points)
        attempts += [[p, q] for q in sk.proximities[p]]  # satellites, some occupied
        derived = []
        for targets in attempts:
            tag = rng.choice((None, "fresh", sk.tags[-1]))
            try:
                derived.append(extend_point(sk, targets, tag))
            except ClusterError:
                pass
        seeds = rng.sample(points, rng.randint(1, len(sk)))
        derived.append(restrict(sk, set().union(*(sk.predecessors(q) for q in seeds)))[0])
        for d in derived:
            calls.clear()
            d.require_valid()
            assert calls == []
            assert validate(ClusterSkeleton(d.parents, d.proximities, d.tags)) == []
            checked += 1
    assert checked > 5000


def test_unknown_or_empty_verdict_is_not_passed_on(monkeypatch):
    calls = _count_validate(monkeypatch)
    sk = chain_skeleton(3)
    empty, kept = restrict(sk, [])
    assert kept == ()
    with pytest.raises(ClusterError, match="empty cluster"):
        empty.require_valid()
    unchecked = ClusterSkeleton(sk.parents, sk.proximities, sk.tags)
    calls.clear()
    extend_point(unchecked, (2,)).require_valid()
    restrict(unchecked, {0, 1})[0].require_valid()
    assert len(calls) == 2


def test_restrict_keeping_every_point_returns_the_skeleton():
    rng = random.Random(59)
    for _ in range(2000):
        sk = random_skeleton(rng, 10, 0.5).require_valid()
        keep = list(sk.points)
        rng.shuffle(keep)
        sub, kept = restrict(sk, keep)
        assert sub is sk and kept == tuple(sk.points)


def test_restrict_rejects_indices_outside_the_cluster():
    sk = chain_skeleton(2)
    with pytest.raises(ClusterError):
        restrict(sk, {-1, 0})
    with pytest.raises(ClusterError):
        restrict(sk, {0, 1, 2})


# -- proximity matrix ----------------------------------------------------------


def test_matrix_single_point():
    assert proximity_matrix(chain_skeleton(1)).rows == ((1,),)


def test_matrix_free_chain():
    assert proximity_matrix(chain_skeleton(3)).rows == (
        (1, 0, 0),
        (-1, 1, 0),
        (0, -1, 1),
    )


def test_matrix_satellite():
    assert proximity_matrix(satellite_triangle()).rows == (
        (1, 0, 0),
        (-1, 1, 0),
        (-1, -1, 1),
    )


def test_matrix_inverse_is_integral_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        sk = random_skeleton(rng, 9, 0.45)
        p = proximity_matrix(sk)
        inv = p.inverse()
        n = len(p)
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        product = tuple(
            tuple(
                sum(p.rows[i][k] * inv.rows[k][j] for k in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        assert product == identity


# -- dual graph ------------------------------------------------------------------


def test_dual_graph_free_chain():
    g = dual_graph(chain_skeleton(3))
    assert g.edges == ((0, 1), (1, 2))
    assert g.weights == (2, 2, 1)


def test_dual_graph_single_point():
    g = dual_graph(chain_skeleton(1))
    assert g.edges == ()
    assert g.weights == (1,)


def test_dual_graph_satellite_breaks_parent_edge():
    g = dual_graph(satellite_triangle())
    assert g.edges == ((0, 2), (1, 2))  # w-O and w-p1; O-p1 separated by w


def test_extended_adjacency_is_the_adjacency_of_the_extension():
    # a free point adds a leaf, a satellite splits the edge of its targets
    rng = random.Random(61)
    extended = {1: 0, 2: 0}
    for _ in range(2000):
        sk = random_skeleton(rng, 10, 0.5).require_valid()
        p = rng.choice(list(sk.points))
        for targets in [(p,)] + [(p, q) for q in sk.proximities[p]]:
            try:
                ext = extend_point(sk, targets)
            except ClusterError:  # the satellite position is occupied
                continue
            shared = dual_graph(sk).adjacency
            snapshot = dict(shared)
            adjacency = dict(shared)
            extend_adjacency(adjacency, targets)
            fresh = ClusterSkeleton(ext.parents, ext.proximities, ext.tags)
            # the changed rows are lists, and the shared tuples stay as they were
            assert {q: tuple(row) for q, row in adjacency.items()} == dual_graph(fresh).adjacency
            assert shared == snapshot
            extended[len(targets)] += 1
    assert min(extended.values()) > 300, extended


def test_dual_graph_replays_the_static_rule():
    # blowing the points up in order gives the graph of the static rule
    rng = random.Random(67)
    skeletons = [random_skeleton(rng, 10, 0.5) for _ in range(2000)]
    skeletons += [make_dr(r, s).skeleton for r in range(1, 7) for s in (None, 0, 1, 6)]
    skeletons += [synthesize(random_minimal_graph_spec(rng, 7, 6))[0].skeleton for _ in range(60)]
    for sk in skeletons:
        graph, reference = dual_graph(sk), static_dual_graph(sk)
        assert graph == reference
        assert graph.adjacency == reference.adjacency


def _assert_reference_rows(sk):
    """The skeleton's rows equal a fresh, uncached copy's and the static rule's."""
    fresh = ClusterSkeleton(sk.parents, sk.proximities, sk.tags)
    assert sk.dual_rows == fresh.dual_rows == static_dual_graph(fresh).adjacency


def test_dual_rows_of_grown_skeletons_equal_fresh_ones():
    # seeded generator skeletons and chains grown from the origin alone, each
    # grown point by point by free and satellite appends
    rng = random.Random(73)
    starts = [random_skeleton(rng, 10, 0.5) for _ in range(600)]
    starts += [chain_skeleton(1) for _ in range(60)]
    appended = {1: 0, 2: 0}
    for sk in starts:
        _assert_reference_rows(sk)
        for _ in range(rng.randint(1, 30)):
            p = rng.choice(list(sk.points))
            targets = rng.choice([(p,)] + [(p, q) for q in sk.proximities[p]])
            try:
                ext = extend_point(sk, targets)
            except ClusterError:  # the satellite position is occupied
                continue
            _assert_reference_rows(ext)
            appended[len(targets)] += 1
            sk = ext
    assert min(appended.values()) > 2000, appended


def test_restriction_derives_its_rows_afresh():
    rng = random.Random(79)
    derived = 0
    for _ in range(600):
        sk = random_skeleton(rng, 10, 0.5)
        sk.dual_rows
        sub, kept = restrict(sk, sk.predecessors(rng.choice(list(sk.points))))
        if sub is not sk:
            assert "dual_rows" not in sub.__dict__
            derived += 1
        _assert_reference_rows(sub)
    assert derived > 300


def test_restricted_rows_are_the_rows_of_the_restriction():
    # undoing the blow-ups of the points left out, the last first, gives the
    # rows the restriction derives afresh, and leaves the source's rows alone
    rng = random.Random(83)
    dropped = {1: 0, 2: 0}
    for _ in range(1000):
        sk = random_skeleton(rng, 12, 0.5)
        rows = sk.dual_rows
        snapshot = dict(rows)
        seeds = rng.sample(list(sk.points), rng.randint(1, len(sk)))
        kept = sorted(set().union(*(sk.predecessors(q) for q in seeds)))
        sub, _ = restrict(sk, kept)
        assert restrict_adjacency(rows, sk.proximities, kept) == static_dual_graph(sub).adjacency
        assert rows == snapshot
        # a stage's rows, grown in place, are lists
        listed = {q: list(row) for q, row in rows.items()}
        assert restrict_adjacency(listed, sk.proximities, kept) == static_dual_graph(sub).adjacency
        for p in set(sk.points) - set(kept):
            dropped[len(sk.proximities[p])] += 1
    assert min(dropped.values()) > 400, dropped


def test_no_reader_changes_the_rows_of_a_base(corpus):
    # the rows are shared with the dual graph, K_w and every Cartier stage
    seen = {"enumerate": 0, "satellite": 0, "build": 0}
    for instance in corpus[:300]:
        cluster = instance.cluster
        rows = cluster.skeleton.dual_rows
        snapshot = dict(rows)
        enumerate_singularities(cluster)
        seen["enumerate"] += 1
        for p, row in snapshot.items():
            for q in row:
                analyze(cluster, Satellite(p, q))
                seen["satellite"] += 1
        alpha = dict.fromkeys(instance.report.Kplus_Q, 3)
        assert build(CartierRequest(cluster, instance.report, alpha)).certificate.passed
        seen["build"] += 1
        assert cluster.skeleton.dual_rows is rows and rows == snapshot
    assert min(seen.values()) >= 300, seen


def test_extend_point_finds_the_occupant_of_a_satellite_position():
    rng = random.Random(71)
    seen = {True: 0, False: 0}
    for _ in range(2000):
        sk = random_skeleton(rng, 10, 0.5).require_valid()
        p = rng.choice(list(sk.points))
        for q in sk.proximities[p]:
            occupants = [s for s in sk.points if sk.proximities[s] == {p, q}]
            if occupants:
                message = f"satellite position already occupied by point {sk.tags[occupants[0]]}"
                with pytest.raises(ClusterError, match=f"^{message}$"):
                    extend_point(sk, (q, p))
            else:
                extend_point(sk, (q, p))
            seen[bool(occupants)] += 1
    assert min(seen.values()) > 300, seen


def test_dual_graph_is_tree_on_random_skeletons():
    rng = random.Random(11)
    for _ in range(120):
        sk = random_skeleton(rng, 10, 0.5)
        g = dual_graph(sk)
        assert len(g.edges) == len(sk) - 1
        # connectivity: a chain exists from the origin to every vertex
        for v in sk.points:
            assert g.chain(0, v)[-1] == v


# -- chains -----------------------------------------------------------------------


def test_chain_whole_path():
    g = dual_graph(chain_skeleton(3))
    assert g.chain(0, 2) == (0, 1, 2)


def test_chain_identity():
    g = dual_graph(chain_skeleton(3))
    assert g.chain(2, 2) == (2,)


def test_open_chain_drops_endpoints():
    g = dual_graph(chain_skeleton(3))
    assert g.open_chain(0, 2) == (1,)


def test_chain_ascends_then_descends_on_random_skeletons():
    # Between comparable points, inside the subcluster of predecessors of the
    # later one, the chain climbs to a single peak and then falls, and every
    # vertex from the peak on is proximate to a vertex of the climbing part.
    # (In the full graph this can fail: points later than p can separate
    # components along the chain and create interior dips.)
    rng = random.Random(23)
    for _ in range(150):
        sk = random_skeleton(rng, 10, 0.5)
        for p in sk.points:
            sub, kept = restrict(sk, sk.predecessors(p))
            g = dual_graph(sub)
            new_p = kept.index(p)
            for q in sub.predecessors(new_p) - {new_p}:
                path = g.chain(q, new_p)
                n = len(path) - 2
                i0 = 0
                while i0 <= n and path[i0] in sub.proximities[path[i0 + 1]]:
                    i0 += 1
                assert i0 >= 1, (path, i0)
                for k in range(i0, n + 1):
                    assert path[k + 1] in sub.proximities[path[k]], (path, i0)
                for j in range(i0, n + 2):
                    assert any(
                        path[s] in sub.proximities[path[j]] for s in range(i0)
                    ), (path, i0, j)


# -- infinitely-near order ------------------------------------------------------------


def test_geq_matches_networkx_ancestors():
    rng = random.Random(41)
    for _ in range(200):
        sk = random_skeleton(rng, 12, 0.5)
        tree = nx.DiGraph()
        tree.add_nodes_from(sk.points)
        tree.add_edges_from((sk.parents[p], p) for p in sk.points if p)
        for p in sk.points:
            below = nx.ancestors(tree, p)
            assert sk.predecessors(p) == below | {p}
            for q in sk.points:
                assert sk.geq(p, q) == (q == p or q in below)


def test_predecessors_of_deep_chain():
    sk = chain_skeleton(3000)
    assert sk.predecessors(2999) == frozenset(sk.points)
    assert sk.geq(2999, 0) and not sk.geq(0, 2999)


# -- maximal proximity ----------------------------------------------------------------


def test_mk_proximate_on_free_chain():
    sk = chain_skeleton(3)
    assert is_mK_proximate(sk, 1, 0)


def test_mk_proximate_fails_under_satellite():
    sk = satellite_triangle()
    assert not is_mK_proximate(sk, 1, 0)  # w is infinitely near p1 and proximate to O


def test_mk_satellite():
    sk = satellite_triangle()
    assert is_mK_satellite(sk, 2)
    assert is_mK_free(sk, 1) is False  # p1 is maximal nowhere


# -- canonical form and structure helpers ---------------------------------------------


def test_canonical_is_relabeling_invariant():
    b = SkeletonBuilder()
    o = b.origin()
    a = b.free(o, "a")
    b.free(o, "b")
    b.free(a, "c")
    first = b.build()

    b2 = SkeletonBuilder()
    o = b2.origin()
    b2.free(o, "b")
    a = b2.free(o, "a")
    b2.free(a, "c")
    second = b2.build()

    assert first != second
    assert canonical(first) == canonical(second)


def test_restrict_requires_closure():
    sk = chain_skeleton(3)
    with pytest.raises(ClusterError):
        restrict(sk, {0, 2})


def test_extend_point_rejects_occupied_position():
    sk = satellite_triangle()
    with pytest.raises(ClusterError):
        extend_point(sk, (0, 1))


def test_extend_point_rejects_inheritance_violation():
    sk = chain_skeleton(3)
    with pytest.raises(ClusterError):
        extend_point(sk, (0, 2))  # q1 is not proximate to O
