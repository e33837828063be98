"""Weighted clusters: values, excesses, unloading, and cluster arithmetic.

A weighted cluster attaches an integer virtual multiplicity to every point of
a skeleton.  Three mutually determined integer vectors describe it: the
multiplicities nu, the values v (v_p = nu_p plus the values of the points p
is proximate to) and the excesses rho (rho_p = nu_p minus the sum of nu over
the points proximate to p).  A cluster is consistent when no excess is
negative; unloading turns any cluster into the unique consistent one defining
the same ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

from .cluster import ClusterSkeleton, restrict
from .errors import CapExceededError, ClusterError


@dataclass(frozen=True)
class WeightedCluster:
    skeleton: ClusterSkeleton
    nu: tuple[int, ...]

    def __post_init__(self):
        if len(self.nu) != len(self.skeleton):
            raise ClusterError(
                f"{len(self.nu)} multiplicities for {len(self.skeleton)} points"
            )

    def by_tag(self) -> dict:
        return {tag: m for tag, m in zip(self.skeleton.tags, self.nu)}


def values(cluster: WeightedCluster) -> tuple[int, ...]:
    """v_p = nu_p + sum of v_q over the points q that p is proximate to."""
    v: list[int] = []
    for m, targets in zip(cluster.nu, cluster.skeleton.proximities):
        for q in targets:
            m += v[q]
        v.append(m)
    return tuple(v)


def multiplicities_from_values(
    skeleton: ClusterSkeleton, v: Sequence[int]
) -> WeightedCluster:
    """Inverse of `values`: nu_p = v_p - sum of v_q over proximity targets."""
    if len(v) != len(skeleton):
        raise ClusterError(f"{len(v)} values for {len(skeleton)} points")
    nu = tuple(v[p] - sum(v[q] for q in skeleton.proximities[p]) for p in skeleton.points)
    return WeightedCluster(skeleton, nu)


def multiplicities_from_excesses(
    skeleton: ClusterSkeleton, rho: Sequence[int]
) -> WeightedCluster:
    """Solve rho_p = nu_p - sum of nu over points proximate to p, from the top down."""
    if len(rho) != len(skeleton):
        raise ClusterError(f"{len(rho)} excesses for {len(skeleton)} points")
    nu = [0] * len(skeleton)
    proximate_to = skeleton.proximate_to
    for p in reversed(skeleton.points):
        m = rho[p]
        for q in proximate_to[p]:
            m += nu[q]
        nu[p] = m
    return WeightedCluster(skeleton, tuple(nu))


def excesses(cluster: WeightedCluster) -> tuple[int, ...]:
    return tuple(_excesses(cluster.nu, cluster.skeleton.proximate_to))


def _excesses(nu: Sequence[int], proximate_to) -> list[int]:
    """rho_p = nu_p minus nu over the row of points proximate to p."""
    rho: list[int] = []
    for m, row in zip(nu, proximate_to):
        for q in row:
            m -= nu[q]
        rho.append(m)
    return rho


def is_consistent(cluster: WeightedCluster) -> bool:
    return all(r >= 0 for r in excesses(cluster))


def dicritical_set(cluster: WeightedCluster) -> frozenset[int]:
    """Points with positive excess; one exceptional component of the blow-up each."""
    return frozenset(p for p, r in enumerate(excesses(cluster)) if r > 0)


def self_intersection(cluster: WeightedCluster) -> int:
    return sum(m * m for m in cluster.nu)


# -- Unloading -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class UnloadStep:
    """One unloading at `point`: its value grew by `increment`.

    A step is tame when the increment is 1 and the excess before the step was
    exactly -1; tame steps raise one value and leave every other value alone.
    """

    point: int
    increment: int
    tame: bool


@dataclass(frozen=True)
class UnloadResult:
    """The unloaded cluster, its excesses `rho` and what the unloading did.

    `step_count` is the number of steps and `touched` the set of points
    unloaded at least once, in both modes.  `steps` holds one record per step
    for a traced call, and is empty for an untraced one.
    """

    cluster: WeightedCluster
    steps: tuple[UnloadStep, ...]
    rho: tuple[int, ...]
    step_count: int
    touched: frozenset[int]


def unload(
    cluster: WeightedCluster, *, cap: Optional[int] = None, trace: bool = True
) -> UnloadResult:
    """Unload until no excess is negative.

    Works in value form: a step at p raises v_p by n = ceil(-rho_p/(r_p + 1)),
    leaving all other values unchanged, and the multiplicities are recomputed
    (equivalently nu_p grows by n and nu drops by n at each point proximate
    to p).  The lowest-index negative point is always unloaded next; the
    result is independent of that choice (`oracle.reference_unload` takes
    any order, and the tests compare the two).  The cap is a bug trap only:
    termination is guaranteed.

    `trace=False` builds no step records: the result's `steps` is empty, and
    its `step_count`, `touched`, `rho` and cluster are those of a traced
    call.  The cap counts steps in both modes, and a `CapExceededError`
    carries the steps taken as its `trace` when traced, and `()` when not.

    The excesses are computed once.  A step at p changes them only at p, at
    its proximity targets, at the points proximate to p and at their targets,
    and only those are updated, so a step costs O(r_p + log n).  The vector
    the loop ends with is the result's `rho`.

    A min-heap of point indices is the only worklist.  Invariant: every point
    with a negative excess has at least one entry.  A step leaves p with
    excess >= 0.  It raises the excesses of the targets t != p of the points
    proximate to p, then lowers those of the targets of p and of the points
    proximate to p, visiting each changed point after its last raise (see the
    loops below).  A point is pushed exactly when that lowering takes it from
    >= 0 to below 0; a point negative before the step and still negative
    after it kept its entry.  So the smallest entry whose point is still
    negative is the lowest-index negative point.  An entry whose point has
    excess >= 0 when popped is stale and is skipped: the point was unloaded
    or raised out of the negatives since the push, and it is pushed again if
    it falls back below 0.

    Step records are frozen values, so equal steps of one call share one
    record: a long trace repeats a few steps many times, and building a
    record costs more than a step's arithmetic.  The shared records also
    name every touched point, so a traced call reads `touched` from them.
    The up-front skeleton check reads the verdict stored on the skeleton, so
    only the first check of a skeleton runs `validate`.
    """
    sk = cluster.skeleton
    sk.require_valid()
    n_points = len(sk)
    nu = list(cluster.nu)
    prox = sk.proximities
    prox_to = sk.proximate_to
    if cap is None:
        cap = 10 * max(1, sum(abs(m) for m in cluster.nu)) * n_points * n_points
    rho = _excesses(nu, prox_to)
    queue = [p for p in sk.points if rho[p] < 0]  # ascending, so already a heap
    steps: list[UnloadStep] = []
    records: dict[tuple[int, int, bool], UnloadStep] = {}
    touched: set[int] = set()
    count = 0
    while queue:
        p = heappop(queue)
        rho_p = rho[p]
        if rho_p >= 0:
            continue
        proximate = prox_to[p]
        r_p1 = len(proximate) + 1
        inc = (r_p1 - 1 - rho_p) // r_p1
        nu[p] += inc
        rho[p] = rho_p + inc * r_p1
        # rho_x = nu_x - sum of nu over the points proximate to x.  Raising
        # nu_p and lowering nu_u for each u proximate to p moves rho only at
        # p, at the targets of p, at each u and at the targets t != p of each
        # u.  Such a u is a satellite proximate to p and t, so t is a target
        # of p or proximate to p (satellite inheritance): the last two loops
        # visit every changed point after its last change.
        for u in proximate:
            nu[u] -= inc
            for t in prox[u]:
                if t != p:
                    rho[t] += inc
        for x in prox[p]:
            r = rho[x]
            rho[x] = r - inc
            if r >= 0 > r - inc:
                heappush(queue, x)
        for x in proximate:
            r = rho[x]
            rho[x] = r - inc
            if r >= 0 > r - inc:
                heappush(queue, x)
        count += 1
        if trace:
            key = (p, inc, inc == 1 and rho_p == -1)
            step = records.get(key)
            if step is None:
                step = records[key] = UnloadStep(*key)
            steps.append(step)
        else:
            touched.add(p)
        if count > cap:
            raise CapExceededError(
                f"unloading exceeded the {cap}-step safety cap", trace=tuple(steps)
            )
    points = frozenset(p for p, _, _ in records) if trace else frozenset(touched)
    return UnloadResult(WeightedCluster(sk, tuple(nu)), tuple(steps), tuple(rho), count, points)


# -- Dropping zero points ----------------------------------------------------------


@dataclass(frozen=True)
class DropResult:
    cluster: WeightedCluster
    kept: tuple[int, ...]
    dropped: tuple[int, ...]
    blocked: tuple[int, ...]


def drop_zero_points(cluster: WeightedCluster) -> DropResult:
    """Remove zero-multiplicity points that nothing remaining is proximate to.

    One backward pass decides every point: the points proximate to p come
    after p, so their fate is final when the pass reaches p.  Zero points
    that stay structurally required (some remaining point is proximate to
    them) are reported as blocked, never silently dropped; on consistent
    clusters none are.
    """
    sk = cluster.skeleton
    alive: set[int] = set()
    for p in reversed(sk.points):
        if cluster.nu[p] != 0 or any(q in alive for q in sk.proximate_to[p]):
            alive.add(p)
    blocked = tuple(sorted(p for p in alive if cluster.nu[p] == 0))
    if not alive:
        # the origin alone carries weight 0: keep it so the cluster stays a cluster
        alive = {0}
    sub, kept = restrict(sk, alive)
    dropped = tuple(p for p in sk.points if p not in alive)
    return DropResult(
        WeightedCluster(sub, tuple(cluster.nu[p] for p in kept)), kept, dropped, blocked
    )


# -- Simple clusters and linear combinations -----------------------------------------


def simple_multiplicities(skeleton: ClusterSkeleton, p: int) -> tuple[int, ...]:
    """Multiplicities of the simple cluster of p, as a full-length vector:
    excess 1 at p and 0 elsewhere.  Proximity targets are predecessors, so
    the vector is zero outside the predecessors of p."""
    rho = [0] * len(skeleton)
    rho[p] = 1
    return multiplicities_from_excesses(skeleton, rho).nu


def simple_cluster(skeleton: ClusterSkeleton, p: int) -> WeightedCluster:
    """The weighted cluster of the simple ideal of p: support is the
    predecessors of p, excess 1 at p and 0 below."""
    if not 0 <= p < len(skeleton):
        raise ClusterError(f"point {p} is not in the cluster")
    full = simple_multiplicities(skeleton, p)
    sub, kept = restrict(skeleton, skeleton.predecessors(p))
    return WeightedCluster(sub, tuple(full[old] for old in kept))


def embed_indices(sub: ClusterSkeleton, ambient: ClusterSkeleton) -> tuple[int, ...]:
    """Index map sub -> ambient, matching points by tag and checking structure."""
    mapping = []
    for p in sub.points:
        tag = sub.tags[p]
        if tag not in ambient.tag_index:
            raise ClusterError(f"incompatible skeletons: no point tagged {tag!r} in the ambient")
        mapping.append(ambient.tag_index[tag])
    for p in sub.points:
        img_prox = frozenset(mapping[q] for q in sub.proximities[p])
        if img_prox != ambient.proximities[mapping[p]]:
            raise ClusterError(
                f"incompatible skeletons: proximities of {sub.tags[p]!r} disagree"
            )
    return tuple(mapping)


def linear_combination(
    terms: Iterable[tuple[WeightedCluster, int]],
    ambient: Optional[ClusterSkeleton] = None,
) -> WeightedCluster:
    """Pointwise sum of weighted clusters with positive integer coefficients.

    All skeletons must embed (by tag) into a common ambient skeleton; by
    default the term with the most points is taken as the ambient.  The sum
    of consistent clusters is consistent and excesses add linearly.
    """
    terms = list(terms)
    if not terms:
        raise ClusterError("linear combination needs at least one term")
    for _, c in terms:
        if c <= 0:
            raise ClusterError("coefficients must be positive integers")
    if ambient is None:
        ambient = max((k.skeleton for k, _ in terms), key=len)
    nu = [0] * len(ambient)
    for k, c in terms:
        mapping = embed_indices(k.skeleton, ambient)
        for p in k.skeleton.points:
            nu[mapping[p]] += c * k.nu[p]
    return WeightedCluster(ambient, tuple(nu))
