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
base's excesses alone.

A report belongs to Q, not to w: every free point on E_p with p in T_Q,
and every satellite at E_p ∩ E_q with p or q in T_Q, maps to Q.  So a
singular analysis takes K_w to be the base with a free point on w's lowest
target of excess 0, whatever w is, and reports the caller's w.  That K_w is
three copies of the base's lists with the point appended
(`weighted._appended`: excesses, `proximate_to` rows and dual-graph rows),
unloaded in place by the package's one unloading engine from that one
target, and no skeleton is made for it.

Each invariant that admits two independent formulas is computed both ways and
compared; a mismatch raises InternalCheckError (a bug, never bad input).  The
checks read the vectors the analysis already holds: the unloaded cluster must
be consistent, by the excesses the unloading ends with, which also give the
branch count.  The fundamental cycle z is the values of epsilon, and on T_Q
it must give those excesses: p's final excess there is -Z·E_p.  The checks
on epsilon read its nonzero entries only.  Last, T_Q must be the target's
zero-excess component in the dual tree, the support of Laufer's computation
sequence for the fundamental cycle, read off the dual rows the K⁺_Q line
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import weighted
from .cluster import ClusterSkeleton, DualGraph, bfs, extend_point
from .errors import ClusterError, InternalCheckError
from .weighted import WeightedCluster, _appended, _default_cap, _multiplicities, _values, excesses


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

    Every field but `w`, the boundary point the caller asked about, belongs
    to Q: each boundary point over Q gives the same report but for `w`.
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
    if min(cluster.nu) <= 0:
        raise ClusterError("analysis needs a base-point cluster: all multiplicities positive")
    rho = excesses(cluster)
    if min(rho) < 0:
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
    return _analyze(cluster, w, _require_base_cluster(cluster))


def _analyze(
    cluster: WeightedCluster, w: BoundaryPoint, rho_before: tuple[int, ...]
) -> SingularityReport:
    """`analyze` on a checked base cluster with excesses `rho_before`.

    K_w is `weighted._appended`'s lists for a free point on w's lowest
    target of excess 0, unloaded in place from that target, and made only
    for a singular point.  The fundamental cycle z is the values of
    epsilon, one `_values` pass, and it is checked against the excesses the
    unloading ends with: -Z·E_p is p's final excess on T_Q.  The checks on
    epsilon, B_Q and the self-intersection difference read the points
    whose multiplicity moved.  The last check reads T_Q as the target's
    zero-excess component."""
    sk = cluster.skeleton
    # appending w lowers each target's excess by 1, so K_w needs unloading
    # (Q is singular) exactly when some target has excess 0; every point of
    # E_target maps to Q, so a free point on the lowest such target gives Q
    targets = _targets(sk, w)
    target = min((q for q in targets if rho_before[q] == 0), default=None)
    if target is None:
        return SingularityReport(w=w, smooth=True)

    n = len(sk)
    rho_after, prox_to, rows_w = _appended(sk, rho_before, target)
    # the module attribute, so a test may stand in for the engine
    _, touched, _ = weighted._unload_steps(
        rho_after, [target], prox_to, rows_w, _default_cap((*cluster.nu, 1)), False
    )
    nu_after = _multiplicities(rho_after, prox_to)
    _check(nu_after[n] == 0, "attached point kept nonzero multiplicity after unloading")

    eps = tuple([a - m for a, m in zip(nu_after, cluster.nu)])
    # values are linear in nu, so the values' increment is the values of eps;
    # unloading only raises values, so T_Q is z's support, and a negative z
    # fails the trace check
    z = tuple(_values(eps, sk.proximities))
    t_q = tuple([p for p, v in enumerate(z) if v])
    _check(bool(t_q), "inconsistent extension produced no unloaded points")
    _check(
        frozenset(t_q) == frozenset(touched) - {n},
        "value-increase set differs from unloading trace",
    )

    # t_q ascends and predecessors come first: a unique minimal point must be t_q[0]
    o_q = t_q[0]
    _check(_all_infinitely_near(sk, t_q, o_q), "contracted set has no unique minimal point")

    _check(eps[o_q] == 1, "multiplicity at the minimal contracted point did not grow by 1")
    moved = [(p, e) for p, e in enumerate(eps) if e]
    _check(all([e == -1 for p, e in moved if p != o_q]), "a multiplicity moved by more than one")

    # t_q is not empty, so no point of it is dicritical when its largest
    # excess before the unloading is at most 0
    _check(max(map(rho_before.__getitem__, t_q)) <= 0, "a dicritical point was unloaded")

    b_q = [p for p, e in moved if e == -1]
    t_set = frozenset(t_q)
    b1_q, b2_q = [], []
    for p in b_q:
        hits = len(sk.proximities[p] & t_set)
        _check(hits >= 1, "a dropped-multiplicity point is not proximate to the contracted set")
        (b1_q if hits == 1 else b2_q).append(p)
    _check(set(b2_q) <= t_set, "a contracted-satellite point lies outside the contracted set")

    rows = sk.dual_rows
    # K⁺_Q: the dicritical points among T_Q's neighbours in the dual graph
    boundary = {q for p in t_q for q in rows[p]} - t_set
    kplus_q = tuple(sorted([q for q in boundary if rho_before[q] > 0]))

    # the dual graph induced on T_Q: its edges ascend as `dual_graph`'s do
    prox_to = sk.proximate_to
    weights = [len(prox_to[p]) + 1 for p in t_q]
    edges = tuple([(p, q) for p in t_q for q in rows[p] if q > p and q in t_set])

    # rho_before is 0 on T_Q, so p's final excess there is (A·z)_p = -Z·E_p;
    # z is 0 off T_Q, so the sum of z over p's dual row is its sum over
    # p's neighbours in T_Q, each edge read once for both its ends
    around = dict.fromkeys(t_q, 0)
    for p, q in edges:
        around[p] += z[q]
        around[q] += z[p]
    _check(
        all([w_p * z[p] - around[p] == rho_after[p] for p, w_p in zip(t_q, weights)]),
        "fundamental cycle does not give the excesses on T_Q",
    )

    mult = 1 + len(b_q)
    # the self-intersection difference: (m + e)² - m² summed over the points
    # whose multiplicity moved
    mult_by_self_intersection = sum([e * (2 * cluster.nu[p] + e) for p, e in moved])
    _check(mult == mult_by_self_intersection, "multiplicity formulas disagree")
    emdim = mult + 1

    # consistency also rules out blocked zero points: with every nu >= 0, only
    # zero points can be proximate to a zero point
    _check(min(rho_after) >= 0, "unloaded cluster is not consistent")
    b1_in_t = [p for p in b1_q if p in t_set]
    br = mult - len(b1_in_t)
    br_by_excess = sum(map(rho_after.__getitem__, t_q))
    _check(br == br_by_excess, "branch-count formulas disagree")

    minimal = all([z[p] == 1 for p in t_q])
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
        all([p in kplus_q_set for p in b_q if p not in t_set]),
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

    resolution = DualGraph(t_q, edges, tuple(weights))
    if minimal:
        # the sum of weight minus degree: each edge counts at both its ends
        total = sum(resolution.weights) - 2 * len(resolution.edges)
        _check(total == mult, "resolution-graph weight sum does not give the multiplicity")

    # T_Q is zero-excess, so it is the target's zero-excess component when it
    # holds the target, is connected (a subtree: one edge fewer than points)
    # and every neighbour outside it is dicritical
    _check(
        target in t_set
        and len(resolution.edges) == len(t_q) - 1
        and len(boundary) == len(kplus_q),
        "contracted set differs from its zero-excess component",
    )

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
    zero = {p for p, r in enumerate(excesses(cluster)) if r == 0}
    rows = cluster.skeleton.dual_rows
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
    zero-excess set.  The zero-excess points are walked in ascending order,
    and each one that no earlier report contracts is the lowest point of a
    new component: it is analyzed through a free point on it, and the
    analysis checks that its contracted set is that component.
    """
    rho = _require_base_cluster(cluster)
    reports = []
    contracted: set[int] = set()
    for p, r in enumerate(rho):
        if r == 0 and p not in contracted:
            report = _analyze(cluster, FreeOn(p), rho)
            _check(not report.smooth, "zero-excess component analyzed as smooth")
            contracted.update(report.T_Q)
            reports.append(report)
    return reports


def contracted_neighbor(adjacency: dict, report: SingularityReport, p: int) -> int:
    """The unique contracted component adjacent to the dicritical p, in the
    dual graph's `adjacency` rows (a skeleton's `dual_rows`)."""
    t_set = set(report.T_Q)
    hits = [t for t in adjacency[p] if t in t_set]
    _check(len(hits) == 1, "dicritical point adjacent to several contracted components")
    return hits[0]
