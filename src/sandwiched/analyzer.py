"""Singularities of the blow-up of a complete ideal, from cluster data alone.

Attaching one extra point w of the exceptional divisor to a consistent
cluster, with virtual multiplicity one, produces the codimension-one cluster
K_w.  The corresponding point Q of the blown-up surface is singular exactly
when K_w is not consistent, i.e. when unloading K_w takes a step, and then
every invariant of Q is read off that one unloading: the contracted
components T_Q, the multiplicity-drop set B_Q, the dicritical components
through Q, the fundamental cycle, the multiplicity, embedding dimension,
branch count and minimality tests.  K_w is not consistent exactly when w
is proximate to a point of excess 0, so a smooth point is decided from the
base's excesses alone; for a singular one K_w is a `weighted._Stage` of the
base with w appended, unloaded in place by the package's one unloading
engine, and no skeleton is made for it.

Each invariant that admits two independent formulas is computed both ways and
compared; a mismatch raises InternalCheckError (a bug, never bad input).  The
checks read the vectors the analysis already holds: the unloaded cluster must
be consistent, by the excesses the unloading ends with, which also give the
branch count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .cluster import ClusterSkeleton, DualGraph, _fresh_tag, bfs, extend_point
from .errors import ClusterError, InternalCheckError
from .weighted import WeightedCluster, _Stage, excesses, self_intersection, values


@dataclass(frozen=True)
class FreeOn:
    """A generic free point on the component of `point`, proximate only to it."""

    point: int


@dataclass(frozen=True)
class Satellite:
    """The intersection point of the components of p and q (adjacent in the
    dual graph), proximate to both."""

    p: int
    q: int


BoundaryPoint = Union[FreeOn, Satellite]


@dataclass(frozen=True)
class SingularityReport:
    """Everything the calculus attaches to a point Q of the blown-up surface.

    `epsilon` and `z` are full vectors over the points of the base cluster;
    z is nonzero exactly on T_Q (the fundamental cycle).  All sets are sorted
    tuples of point indices of the base cluster.
    """

    w: BoundaryPoint
    smooth: bool
    T_Q: tuple[int, ...] = ()
    o_Q: Optional[int] = None
    epsilon: tuple[int, ...] = ()
    B_Q: tuple[int, ...] = ()
    B1_Q: tuple[int, ...] = ()
    B2_Q: tuple[int, ...] = ()
    Kplus_Q: tuple[int, ...] = ()
    z: tuple[int, ...] = ()
    mult: Optional[int] = None
    emdim: Optional[int] = None
    br: Optional[int] = None
    minimal: Optional[bool] = None
    branches_equality: Optional[tuple[bool, bool, bool]] = None
    embed_equality: Optional[tuple[bool, bool, bool]] = None
    resolution_graph: Optional[DualGraph] = None


def _check(condition: bool, message: str):
    if not condition:
        raise InternalCheckError(message)


def _all_infinitely_near(sk: ClusterSkeleton, points, q: int) -> bool:
    """True if every one of `points` is infinitely near or equal to q.

    Each walk down the parents stops at a point already known to be
    infinitely near q, or below q, since parents precede their children.
    Every point of a walk that reaches q is remembered, so no point is
    walked twice.
    """
    near = {q}
    for p in points:
        walked = []
        while p is not None and p > q and p not in near:
            walked.append(p)
            p = sk.parents[p]
        if p not in near:
            return False
        near.update(walked)
    return True


def _require_base_cluster(cluster: WeightedCluster) -> tuple[int, ...]:
    """Check the cluster can be analyzed; return its excess vector."""
    cluster.skeleton.require_valid()
    if any(m <= 0 for m in cluster.nu):
        raise ClusterError(
            "analysis needs a base-point cluster: all multiplicities positive"
        )
    rho = excesses(cluster)
    if any(r < 0 for r in rho):
        raise ClusterError("analysis needs a consistent cluster")
    return rho


def extend(cluster: WeightedCluster, w: BoundaryPoint) -> WeightedCluster:
    """The codimension-one cluster K_w: K plus the point w with multiplicity 1."""
    _require_base_cluster(cluster)
    sk = cluster.skeleton
    return WeightedCluster(extend_point(sk, _targets(sk, w)), cluster.nu + (1,))


def _targets(sk: ClusterSkeleton, w: BoundaryPoint) -> tuple[int, ...]:
    """The proximity targets of w, once w is checked to be a boundary point
    of `sk`: integer indices of points of `sk`, and for a satellite two
    points whose components meet.  Such a point passes every rule of
    `check_attachment`."""
    if isinstance(w, FreeOn):
        targets = (w.point,)
    elif isinstance(w, Satellite):
        targets = (w.p, w.q)
    else:
        raise ClusterError(f"not a boundary point spec: {w!r}")
    for q in targets:
        if isinstance(q, bool) or not isinstance(q, int):
            raise ClusterError(f"boundary point index {q!r} is not an integer")
    for q in targets:
        if not 0 <= q < len(sk):
            raise ClusterError(f"proximity target {q} is not a point of the cluster")
    if isinstance(w, Satellite) and w.q not in sk.dual_rows[w.p]:
        raise ClusterError(
            f"{sk.tags[w.p]} and {sk.tags[w.q]} are not adjacent: their "
            "components do not meet"
        )
    return targets


def analyze(cluster: WeightedCluster, w: BoundaryPoint) -> SingularityReport:
    """Full report for the point of the blow-up determined by w."""
    return _analyze(cluster, w, _require_base_cluster(cluster), None)


def _analyze(
    cluster: WeightedCluster,
    w: BoundaryPoint,
    rho_before: tuple[int, ...],
    v_before: Optional[tuple[int, ...]],
) -> SingularityReport:
    """`analyze` on a checked base cluster with excesses `rho_before`; its
    values are computed at most once, unless `v_before` already is them.

    K_w is a `_Stage` of the base with w appended, unloaded in place, and
    made only for a singular point."""
    sk = cluster.skeleton
    targets = _targets(sk, w)
    # appending w lowers each target's excess by 1, so K_w needs unloading
    # (Q is singular) exactly when some target has excess 0
    negative = sorted(q for q in targets if rho_before[q] == 0)
    if not negative:
        return SingularityReport(w=w, smooth=True)

    n = len(sk)
    k_w = _Stage(cluster)
    k_w.append(targets, _fresh_tag("w", sk.tags))
    _, touched = k_w.unload(negative)
    nu_after, rho_after = k_w.nu, k_w.rho
    unloaded = WeightedCluster(sk, tuple(nu_after[:n]))

    if v_before is None:
        v_before = values(cluster)
    v_after = values(unloaded)
    _check(nu_after[n] == 0, "attached point kept nonzero multiplicity after unloading")

    t_q = tuple(p for p in sk.points if v_after[p] > v_before[p])
    _check(bool(t_q), "inconsistent extension produced no unloaded points")
    _check(
        frozenset(t_q) == frozenset(touched) - {n},
        "value-increase set differs from unloading trace",
    )

    # t_q ascends and predecessors come first: a unique minimal point must be t_q[0]
    o_q = t_q[0]
    _check(_all_infinitely_near(sk, t_q, o_q), "contracted set has no unique minimal point")

    eps = tuple(nu_after[p] - cluster.nu[p] for p in sk.points)
    _check(eps[o_q] == 1, "multiplicity at the minimal contracted point did not grow by 1")
    _check(
        all(eps[p] in (-1, 0) for p in sk.points if p != o_q),
        "a multiplicity moved by more than one",
    )

    k_plus = frozenset(p for p in sk.points if rho_before[p] > 0)
    _check(not (k_plus & set(t_q)), "a dicritical point was unloaded")

    b_q = tuple(p for p in sk.points if eps[p] == -1)
    t_set = frozenset(t_q)
    b1_q, b2_q = [], []
    for p in b_q:
        hits = len(sk.proximities[p] & t_set)
        _check(hits >= 1, "a dropped-multiplicity point is not proximate to the contracted set")
        (b1_q if hits == 1 else b2_q).append(p)
    _check(set(b2_q) <= t_set, "a contracted-satellite point lies outside the contracted set")

    rows = sk.dual_rows
    kplus_q = tuple(sorted(p for p in k_plus if any(q in t_set for q in rows[p])))

    z = tuple(v_after[p] - v_before[p] for p in sk.points)
    _check(all(z[p] >= 1 for p in t_q), "fundamental cycle not >= 1 on the contracted set")
    for p, targets in enumerate(sk.proximities):
        recursion = eps[p]
        for q in targets:
            recursion += z[q]
        _check(z[p] == recursion, "fundamental cycle fails its proximity recursion")

    mult = 1 + len(b_q)
    mult_by_self_intersection = self_intersection(unloaded) - self_intersection(cluster)
    _check(mult == mult_by_self_intersection, "multiplicity formulas disagree")
    emdim = mult + 1

    # consistency also rules out blocked zero points: with every nu >= 0, only
    # zero points can be proximate to a zero point
    _check(min(rho_after) >= 0, "unloaded cluster is not consistent")
    b1_in_t = [p for p in b1_q if p in t_set]
    br = mult - len(b1_in_t)
    br_by_excess = sum(rho_after[p] for p in t_q)
    _check(br == br_by_excess, "branch-count formulas disagree")

    minimal = all(z[p] == 1 for p in t_q)
    _check(minimal == (br == mult), "reduced fundamental cycle vs branch count disagree")
    _check(minimal == (not b1_in_t), "reduced fundamental cycle vs contracted free drops disagree")

    # Equality conditions.  A dropped point off the contracted set, and a
    # proximity target of the minimal contracted point, count toward the
    # extremal equalities exactly when the exceptional component of the point
    # passes through Q, i.e. when the point lies in Kplus_Q.  (Maximal
    # proximity to T_Q is sufficient for that but not necessary: a satellite
    # inside T_Q can break maximality while the components still meet.)
    kplus_q_set = frozenset(kplus_q)
    flags_branches = (
        not b2_q,
        all(p in kplus_q_set for p in b_q if p not in t_set),
        len(sk.proximities[o_q] & kplus_q_set) == 2,
    )
    _check(
        (br == len(kplus_q) - 1) == all(flags_branches),
        "branch-count equality does not match its three conditions",
    )

    flags_embed = (
        not (set(b_q) & t_set),
        flags_branches[1],
        flags_branches[2],
    )
    _check(
        (len(kplus_q) == emdim) == all(flags_embed),
        "component-count equality does not match its three conditions",
    )
    if all(flags_embed):
        _check(minimal, "component-count equality holding on a non-minimal singularity")

    # the dual graph induced on T_Q: its edges ascend as `dual_graph`'s do
    resolution = DualGraph(
        t_q,
        tuple((p, q) for p in t_q for q in rows[p] if q > p and q in t_set),
        tuple(len(sk.proximate_to[p]) + 1 for p in t_q),
    )
    if minimal:
        total = sum(
            resolution.weight(p) - resolution.degree(p) for p in resolution.vertices
        )
        _check(total == mult, "resolution-graph weight sum does not give the multiplicity")

    return SingularityReport(
        w=w,
        smooth=False,
        T_Q=t_q,
        o_Q=o_q,
        epsilon=eps,
        B_Q=tuple(b_q),
        B1_Q=tuple(b1_q),
        B2_Q=tuple(b2_q),
        Kplus_Q=kplus_q,
        z=z,
        mult=mult,
        emdim=emdim,
        br=br,
        minimal=minimal,
        branches_equality=flags_branches,
        embed_equality=flags_embed,
        resolution_graph=resolution,
    )


def zero_excess_components(cluster: WeightedCluster) -> list[tuple[int, ...]]:
    """Connected components of the zero-excess points in the dual graph,
    ordered by their smallest point."""
    return _zero_excess_components(excesses(cluster), cluster.skeleton.dual_rows)


def _zero_excess_components(rho: tuple[int, ...], rows: dict) -> list[tuple[int, ...]]:
    zero = {p for p, r in enumerate(rho) if r == 0}
    restricted = {p: tuple(q for q in rows[p] if q in zero) for p in zero}
    components = []
    seen: set[int] = set()
    for start in sorted(zero):
        if start not in seen:
            order, _ = bfs(restricted, start)
            seen.update(order)
            components.append(tuple(sorted(order)))
    return components


def enumerate_singularities(cluster: WeightedCluster) -> list[SingularityReport]:
    """One report per singular point of the blow-up.

    The singular points correspond to the connected components of the
    zero-excess set; each is analyzed through a free point on its
    lowest-index member, and the contracted set must come back equal to the
    component.
    """
    rho = _require_base_cluster(cluster)
    v = values(cluster)
    reports = []
    for component in _zero_excess_components(rho, cluster.skeleton.dual_rows):
        report = _analyze(cluster, FreeOn(component[0]), rho, v)
        _check(not report.smooth, "zero-excess component analyzed as smooth")
        _check(
            report.T_Q == component,
            "contracted set differs from its zero-excess component",
        )
        reports.append(report)
    return reports


def contracted_neighbor(adjacency: dict, report: SingularityReport, p: int) -> int:
    """The unique contracted component adjacent to the dicritical p, in the
    dual graph's `adjacency` rows (a skeleton's `dual_rows`)."""
    t_set = set(report.T_Q)
    hits = [t for t in adjacency[p] if t in t_set]
    _check(len(hits) == 1, "dicritical point adjacent to several contracted components")
    return hits[0]
