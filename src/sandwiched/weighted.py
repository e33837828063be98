"""Weighted clusters: values, excesses, unloading, and cluster arithmetic.

A weighted cluster attaches an integer virtual multiplicity to every point of
a skeleton.  Three mutually determined integer vectors describe it: the
multiplicities nu, the values v (v_p = nu_p plus the values of the points p
is proximate to) and the excesses rho (rho_p = nu_p minus the sum of nu over
the points proximate to p).  A cluster is consistent when no excess is
negative; unloading turns any cluster into the unique consistent one defining
the same ideal.

One engine, `_unload_steps`, runs every unloading step of the package, on
its caller's excesses and rows, from one min-heap of the negative points.
A run of tame steps down a chain of links, points of w = 2 between p - 1
and p + 1, is most of a long unloading on a chain; the engine takes it as
one tame step at the run's last link, with the steps, records and
excesses of the stepwise order.
`unload` wraps it for a `WeightedCluster`.
`_Stage` holds a cluster in lists that change in place and unloads them by
the same engine: the Cartier builder grows its stages in one.  The
analyzer's K_w, the base with one free point appended, is the three lists
of `_appended`, which the engine unloads as they are from that point's
target.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

from .cluster import (
    ClusterSkeleton,
    _inherit_verdict,
    check_attachment,
    extend_adjacency,
    restrict,
    restrict_adjacency,
)
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
    return tuple(_values(cluster.nu, cluster.skeleton.proximities))


def _values(nu: Sequence[int], proximities) -> list[int]:
    """The values of `nu` on a skeleton with these `proximities`: nu_p plus
    the values of p's targets, which come before p."""
    v: list[int] = []
    for m, targets in zip(nu, proximities):
        for q in targets:
            m += v[q]
        v.append(m)
    return v


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
    return WeightedCluster(skeleton, tuple(_multiplicities(rho, skeleton.proximate_to)))


def _multiplicities(rho: Sequence[int], proximate_to) -> list[int]:
    """The inverse of `_excesses`: nu_p = rho_p plus nu over the row of
    points proximate to p, which come after p."""
    nu = list(rho)
    for p in range(len(nu) - 1, -1, -1):
        m = nu[p]
        for q in proximate_to[p]:
            m += nu[q]
        nu[p] = m
    return nu


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

    A step is tame when the excess before the step was exactly -1.  An
    excess of -1 forces an increment of 1, so a tame step raises one value
    by 1 and leaves every other value alone.  A step of increment 1 from a
    lower excess (-2 at w = 2, say) is not tame.

    Records are frozen values, and one traced call gives equal steps one
    shared record: a tame step is fixed by its point, so its record is kept
    per point, and any other step's per (point, increment).  Records of
    different calls are equal but not shared.
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

    The excesses are computed once and handed to the engine,
    `_unload_steps`, which works in value form on the dual tree and always
    unloads the lowest-index negative point next; the result is independent
    of that choice (`oracle.reference_unload` takes any order, and the tests
    compare the two).  The excesses determine the multiplicities
    (`multiplicities_from_excesses`), so the unloaded cluster is read off
    the final excesses in one pass.  The cap is a bug trap only:
    termination is guaranteed, and its default is `_default_cap`.

    `trace=False` builds no step records: the result's `steps` is empty, and
    its `step_count`, `touched`, `rho` and cluster are those of a traced
    call.  The cap counts steps in both modes, and a `CapExceededError`
    carries the steps taken as its `trace` when traced, and `()` when not.

    The up-front skeleton check reads the verdict stored on the skeleton, so
    only the first check of a skeleton runs `validate`.
    """
    sk = cluster.skeleton
    sk.require_valid()
    prox_to = sk.proximate_to
    rho = _excesses(cluster.nu, prox_to)
    queue = [p for p, r in enumerate(rho) if r < 0]  # ascending, so already a heap
    if not queue:
        return UnloadResult(cluster, (), tuple(rho), 0, frozenset())
    if cap is None:
        cap = _default_cap(cluster.nu)
    count, touched, steps = _unload_steps(rho, queue, prox_to, sk.dual_rows, cap, trace)
    nu = _multiplicities(rho, prox_to)
    return UnloadResult(
        WeightedCluster(sk, tuple(nu)), tuple(steps), tuple(rho), count, frozenset(touched)
    )


def _default_cap(nu: Sequence[int]) -> int:
    """The unloading's safety cap on steps: 10·max(1, sum |nu_p|)·n²."""
    return 10 * max(1, sum(map(abs, nu))) * len(nu) ** 2


def _unload_steps(
    rho: list[int], queue: list[int], proximate_to, dual_rows, cap: int, trace: bool
) -> tuple[int, list[int], list[UnloadStep]]:
    """The unloading engine: unload the excesses `rho`, in place, until none
    is negative, and return the step count, the touched points and the step
    records (none unless `trace`).

    `queue` is the ascending list of the points with a negative excess, so
    already a heap, and is consumed; an empty one takes no step.  The
    caller's storage gives the rest: `proximate_to[p]` is the row of points
    proximate to p, so w_p = len(proximate_to[p]) + 1, and `dual_rows[p]`
    p's dual-graph neighbours, ascending.  A step past `cap` raises
    `CapExceededError`, whose `trace` holds the records taken.

    A step at p raises the value v_p by inc = ceil(-rho_p / w_p) and leaves
    every other value alone.  The excesses are rho = A·v, A the dual tree's
    matrix (A_pp = w_p, A_pq = -1 when E_p meets E_q), so the step adds
    w_p·inc to rho_p, subtracts inc from rho_x at each dual-graph neighbour
    x of p, and moves no other excess.  The lowest-index negative point is
    always unloaded next.

    The first step at p reads w_p and p's row of `dual_rows` and keeps
    them for the call; the points whose row was read are the touched ones,
    in the order first unloaded.  A tame step (rho_p = -1, the unit step of
    Laufer's computation sequence and almost every step of a long
    unloading) sets inc = 1 and rho_p = w_p - 1 without a division.

    Worklist invariant: at every pop, the min-heap `queue` holds exactly
    the points with a negative excess, each once.  A step leaves p with
    excess >= 0 and lowers every other excess it changes, so a neighbour
    is pushed exactly when the step takes it from >= 0 to below 0, and a
    negative point stays negative until it is popped and unloaded.  The
    pop is the lowest negative point, and a step costs O(deg_p) plus
    O(log n) for each heap call.

    Runs down links.  A link is a point p of w_p = 2 whose dual-graph
    neighbours are exactly p - 1 and p + 1, as its row reads at its first
    step: the points of a free chain, and of make_dr's satellite chain.  On
    a chain of links Laufer's sequence carries each unit of the cycle down
    the chain one link per step, so the chain weighted (1, ..., 1, 200)
    takes 19,290 steps.  At a tame step at a link p, let s be the lowest
    point such that every point of p - 1, ..., s is a link whose row was
    read and whose excess is 0.  The lowest-index order then steps p,
    p - 1, ..., s back to back: each of them raises its own excess from -1
    to 1, takes its lower neighbour from 0 to -1, the next pop, and takes
    its upper one, stepped just before, from 1 to 0.  So the run lowers
    rho_{p+1} by 1, leaves p, ..., s + 1 at 0 and s at 1, and lowers
    rho_{s-1} by 1: it is one tame step at s with neighbours s - 1 and
    p + 1, each pushed if it crosses.  The engine sets rho_p to 0, counts
    the p - s steps before s's and appends their tame records, p first,
    when traced, and the common tame step does the rest.  These are the
    steps, the records and the excesses of the stepwise order, and the
    heap holds the same points at the next pop.  A run that would pass the
    cap is stepped one step at a time, so it raises at the same step with
    the same records.  Points not yet read are stepped alone, which keeps
    `touched` and its order, and so is every upward wave: its pushed points
    interleave with others.

    Step records are frozen values shared within a call (see `UnloadStep`):
    a long trace repeats a few steps many times, and building a record
    costs more than a step's arithmetic.
    """
    # p -> (w_p, p's dual-graph neighbours, p is a link)
    rows: list = [None] * len(rho)
    touched: list[int] = []
    steps: list[UnloadStep] = []
    tame_steps: list = [None] * len(rho) if trace else []
    records: dict[tuple[int, int], UnloadStep] = {}
    count = 0
    while queue:
        p = heappop(queue)
        row = rows[p]
        if row is None:
            neighbours = dual_rows[p]
            w = len(proximate_to[p]) + 1
            link = w == 2 and len(neighbours) == 2 and neighbours[0] == p - 1 and neighbours[1] == p + 1
            row = rows[p] = (w, neighbours, link)
            touched.append(p)
        w, neighbours, link = row
        rho_p = rho[p]
        if rho_p == -1:
            if link:
                # the run of tame steps p, p - 1, ..., s down read links of
                # excess 0 is one tame step at s, with neighbours p + 1 and
                # s - 1; a run whose last step, count + p - s + 1, would pass
                # the cap is stepped one step at a time
                s = p - 1
                while rho[s] == 0 and (lower := rows[s]) is not None and lower[2]:
                    s -= 1
                s += 1
                if s < p and count + p - s < cap:
                    count += p - s
                    if trace:
                        for x in range(p, s, -1):
                            step = tame_steps[x]
                            if step is None:
                                step = tame_steps[x] = UnloadStep(x, 1, True)
                            steps.append(step)
                    rho[p] = 0
                    p, neighbours = s, (s - 1, p + 1)
            inc = 1
            rho[p] = w - 1
            if trace:
                step = tame_steps[p]
                if step is None:
                    step = tame_steps[p] = UnloadStep(p, 1, True)
                steps.append(step)
        else:
            inc = (w - 1 - rho_p) // w
            rho[p] = rho_p + inc * w
            if trace:
                key = (p, inc)
                step = records.get(key)
                if step is None:
                    step = records[key] = UnloadStep(p, inc, False)
                steps.append(step)
        count += 1
        if count > cap:
            raise CapExceededError(
                f"unloading exceeded the {cap}-step safety cap", trace=tuple(steps)
            )
        for x in neighbours:
            r = rho[x]
            rho[x] = r - inc
            if 0 <= r < inc:
                heappush(queue, x)
    return count, touched, steps


def _appended(sk: ClusterSkeleton, rho: Sequence[int], target: int) -> tuple[list, list, dict]:
    """K_w, the cluster of excesses `rho` on `sk` with a free point w
    of multiplicity 1 appended on `target`, as the three lists
    `_unload_steps` reads: its excesses, its `proximate_to` rows and its
    dual-graph rows.

    `target` must be a point of `sk`, as `analyzer._targets` checks it.
    No rule of `check_attachment` can then fail, so it is not run: w has
    one target, in range, no satellite rule applies to a free point, and
    the tag `extend_point` would give w is fresh by its making.  Each list
    is one copy of the skeleton's: the target's excess falls by 1 and its
    rows gain w, as new tuples, and w's excess is 1.  The skeleton's rows
    are left as they are.
    """
    n = len(rho)
    rho, proximate_to = [*rho, 1], [*sk.proximate_to, ()]
    rho[target] -= 1
    proximate_to[target] += (n,)
    rows = dict(sk.dual_rows)
    extend_adjacency(rows, (target,))
    return rho, proximate_to, rows


class _Stage:
    """A weighted cluster held in lists that change in place, for the
    Cartier construction's append-and-unload of each stage.

    `parents`, `proximities`, `tags`, `nu` and `rho` are per point;
    `proximate_to` holds each point's ascending row of the points proximate
    to it, `dual_rows` the dual graph's rows as `ClusterSkeleton.dual_rows`
    does, and `tag_index` each tag's point.  These are the names a skeleton
    reads them by, so `check_attachment` and `cartier.check_interior_excess`
    read a stage as they read a skeleton, and `_unload_steps` unloads `rho`
    on the rows as they are.  A skeleton is made of a stage only to hand it
    out, as a traced Cartier stage or the builder's result.  The analyzer
    appends one free point and never drops one, so its K_w is
    `_appended`'s three lists, not a stage; a stage also appends
    satellites.

    A stage starts from `cluster` and its caller's excess vector `rho`,
    which must be `excesses(cluster)`: every caller already holds it.
    """

    def __init__(self, cluster: WeightedCluster, rho: Sequence[int]):
        sk = cluster.skeleton
        self.parents = list(sk.parents)
        self.proximities = list(sk.proximities)
        self.tags = list(sk.tags)
        self.tag_index = dict(sk.tag_index)
        self.proximate_to = [list(row) for row in sk.proximate_to]
        self.dual_rows = dict(sk.dual_rows)
        self.nu = list(cluster.nu)
        self.rho = list(rho)

    def append(self, targets: Sequence[int], tag: str) -> None:
        """Append a point of multiplicity 1 proximate to `targets`, as
        `extend_point` would, with its checks: each target's excess falls by
        1, and the new point's is 1."""
        targets = frozenset(targets)
        parent = check_attachment(self, targets, tag)
        n = len(self.tags)
        self.parents.append(parent)
        self.proximities.append(targets)
        self.tags.append(tag)
        self.tag_index[tag] = n
        for q in targets:
            self.proximate_to[q].append(n)
            self.rho[q] -= 1
        self.proximate_to.append([])
        extend_adjacency(self.dual_rows, targets)
        self.nu.append(1)
        self.rho.append(1)

    def keep(self, kept: Sequence[int]) -> None:
        """Keep the points `kept`, ascending and closed under proximity
        targets, numbered 0, 1, ... in order, as `restrict` numbers them."""
        if len(kept) == len(self.tags):
            return
        self.dual_rows = restrict_adjacency(self.dual_rows, self.proximities, kept)
        index = {old: new for new, old in enumerate(kept)}
        parents, proximities, prox_to = self.parents, self.proximities, self.proximate_to
        self.parents = [None if parents[p] is None else index[parents[p]] for p in kept]
        self.proximities = [frozenset(index[q] for q in proximities[p]) for p in kept]
        self.proximate_to = [[index[q] for q in prox_to[p] if q in index] for p in kept]
        self.tags = [self.tags[p] for p in kept]
        self.tag_index = {tag: p for p, tag in enumerate(self.tags)}
        self.nu = [self.nu[p] for p in kept]
        self.rho = [self.rho[p] for p in kept]

    def cluster(self, base: ClusterSkeleton) -> WeightedCluster:
        """The stage as a weighted cluster, known valid when `base` is."""
        skeleton = ClusterSkeleton(tuple(self.parents), tuple(self.proximities), tuple(self.tags))
        return WeightedCluster(_inherit_verdict(base, skeleton), tuple(self.nu))

    def unload(self, negative: list[int]) -> tuple[int, list[int]]:
        """Unload the stage in place and untraced, from its ascending
        `negative` points, by `unload`'s engine on the stage's `rho`,
        `proximate_to` and dual-graph rows, then read nu back off `rho`.
        Returns the step count and the touched points."""
        count, touched, _ = _unload_steps(
            self.rho, negative, self.proximate_to, self.dual_rows, _default_cap(self.nu), False
        )
        self.nu = _multiplicities(self.rho, self.proximate_to)
        return count, touched


# -- Dropping zero points ----------------------------------------------------------


@dataclass(frozen=True)
class DropResult:
    cluster: WeightedCluster
    kept: tuple[int, ...]
    dropped: tuple[int, ...]
    blocked: tuple[int, ...]


def drop_zero_points(cluster: WeightedCluster) -> DropResult:
    """Remove zero-multiplicity points that nothing remaining is proximate
    to (`closed_support`).  Zero points that stay structurally required
    (some remaining point is proximate to them) are reported as blocked,
    never silently dropped; on consistent clusters none are.
    """
    sk = cluster.skeleton
    alive = closed_support(cluster.nu, sk.proximate_to)
    blocked = tuple(p for p in alive if cluster.nu[p] == 0)
    if not alive:
        # the origin alone carries weight 0: keep it so the cluster stays a cluster
        alive = [0]
    sub, kept = restrict(sk, alive)
    kept_set = set(kept)
    dropped = tuple(p for p in sk.points if p not in kept_set)
    return DropResult(
        WeightedCluster(sub, tuple(cluster.nu[p] for p in kept)), kept, dropped, blocked
    )


def closed_support(nu: Sequence[int], proximate_to) -> list[int]:
    """The points of nonzero multiplicity and every point one of them is
    proximate to, repeatedly, ascending: the points `drop_zero_points` keeps.

    One backward pass decides every point: the points proximate to p come
    after p, so their fate is final when the pass reaches p.
    """
    alive = [False] * len(nu)
    for p in range(len(nu) - 1, -1, -1):
        alive[p] = nu[p] != 0 or any(alive[q] for q in proximate_to[p])
    return [p for p, kept in enumerate(alive) if kept]


# -- Simple clusters and linear combinations -----------------------------------------


def simple_cluster(skeleton: ClusterSkeleton, p: int) -> WeightedCluster:
    """The weighted cluster of the simple ideal of p: support is the
    predecessors of p, excess 1 at p and 0 below.  Proximity targets are
    predecessors, so the multiplicities with excess 1 at p and 0 elsewhere
    vanish off the predecessors of p."""
    if not 0 <= p < len(skeleton):
        raise ClusterError(f"point {p} is not in the cluster")
    rho = [0] * len(skeleton)
    rho[p] = 1
    full = multiplicities_from_excesses(skeleton, rho).nu
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
