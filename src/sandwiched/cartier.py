"""Construction of clusters whose generic curve is Cartier at one singularity.

Given a singular point Q of the blow-up and a prescribed positive
intersection multiplicity for every exceptional component through Q, this
module builds a consistent cluster T whose generic curve has a strict
transform that is a Cartier divisor, meets the exceptional locus only at Q,
and realizes exactly the prescribed intersections.

The construction starts from the weighted sum of the simple clusters of the
components through Q.  One loop in `build` runs every stage: the first
attaches a free point over the minimal contracted point, and each later one
grows the satellite chain of a dicritical component toward its contracted
neighbour, until all the relevant excesses are used up, unloading and
discarding zero points along the way.  The loop checks every stage in one
place: the interior excess between the prescribed dicriticals, the excesses
the first stage leaves, the drop in prescribed excess at each later stage,
and a safety cap on the points appended plus the unloading steps taken.
Each stage of the construction is a weighted cluster whose points keep one
admissible order: the points of the base cluster present, in base order,
then the added points in creation order.  A stage drops points or appends
one at the end, and only the result re-attaches the missing base points,
among the base points, so no stage re-sorts, and every tag names the same
point throughout.  The base points a stage holds are its first points, so
the stage keeps each base point's index (`_Stage.position`) and their
number (`_Stage.held`), renumbered only when points are dropped, and a
point is an added one when its index is at least that number.  The
satellites grown for a dicritical are the added points proximate to it,
each proximate to the one before, so the next one attaches to the last of
them in the stage's `proximate_to` row, or to the anchor when none is left.

The loop keeps the excess at each prescribed dicritical, their total, the
stage index of each one present, and the first one whose excess is
positive, and updates them only where the stage changes: an append changes
excesses at its targets alone, and an unloading also at the points it
touched and at their dual-graph neighbours.  Prescribed excesses only
fall, so the first pending dicritical only moves forward, and a stage
costs no pass over the dicriticals.

The stage lives in lists that grow in place (`weighted._Stage`, which
serves the builder alone): the points' parents, proximities and
tags, the rows of `proximate_to` and of the dual graph, the tag index, the
multiplicities nu and the excesses rho.  Appending
a point of multiplicity 1 makes `extend_point`'s checks, updates each list
at the point's targets and gives it excess 1, so a stage costs the degree of
its targets, not the number of points.  Only an unloading, which runs only
when some target's excess turned negative, changes more: `unload`'s engine
(`weighted._unload_steps`) moves the stage's rho in place, reading the
stage's own `proximate_to` and dual-graph rows and only at the points it
touches, nu is read back off rho in one pass, and the zero points are
dropped, renumbering every list; a dropped point has multiplicity 0, so
dropping it changes no kept excess.  A build unloads a few times per
component, whatever the prescription.  A `ClusterSkeleton` is made only for
a traced stage and for the result, so an untraced build makes one; each is
built from the validated base by appends that passed `extend_point`'s
checks and by restrictions, so it inherits the base's verdict, and no stage
runs `validate`.

The interior-excess check between prescribed dicriticals runs the
whole-graph check (`check_interior_excess`) on the first stage and after
every unloading.  On a stage that only appended a point it runs the check
only when a local rule (`_may_break_a_chain`) cannot rule a failure out,
which reads the rows of the point's targets alone.  The check is one walk:
two present dicriticals fail when a tree edge joins them, or when both lie
in or next to one component of the points of excess <= 0, so labelling the
components next to the present dicriticals decides every pair, in time
linear in the stage, and names the pair a search pair by pair would name
first.

A result is never trusted on construction: `verify` re-checks it from
scratch (value identities, localization of the dicritical points, vanishing
excesses off the contracted set, and an exact readout of the intersection
multiplicities by one integer solve on the base's dual tree, linear in the
number of points).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd, lcm
from typing import Container, Optional, Sequence

from .analyzer import SingularityReport, contracted_neighbor
from .cluster import ClusterSkeleton, _inherit_verdict, bfs
from .errors import CapExceededError, ClusterError, InternalCheckError
from .weighted import (
    WeightedCluster,
    _excesses,
    _multiplicities,
    _Stage,
    _values,
    closed_support,
    embed_indices,
    multiplicities_from_excesses,
)


@dataclass(frozen=True)
class CartierRequest:
    """A singular point plus one positive multiplicity per component through it."""

    base: WeightedCluster
    report: SingularityReport
    alpha: dict

    def validated(self) -> "CartierRequest":
        if self.report.smooth:
            raise ClusterError("the chosen point is smooth: nothing to prescribe")
        if set(self.alpha) != set(self.report.Kplus_Q):
            raise ClusterError(
                "multiplicities must be prescribed exactly on the components through Q"
            )
        if any(isinstance(a, bool) or not isinstance(a, int) for a in self.alpha.values()):
            raise ClusterError("prescribed multiplicities must be integers")
        if any(a <= 0 for a in self.alpha.values()):
            raise ClusterError("prescribed multiplicities must be positive")
        return self


@dataclass(frozen=True)
class AddedPoint:
    """A point appended by the builder; targets are tags, parent first."""

    tag: str
    targets: tuple[str, ...]


@dataclass(frozen=True)
class CartierCertificate:
    consistent: bool
    value_condition: bool
    localization: bool
    off_excess_zero: bool
    readout: tuple[tuple[str, int], ...]
    readout_matches: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class CartierResult:
    """The built cluster, the points it added, its stages and the certificate.

    By default `trace` holds every stage of the construction in order: the
    start (the weighted sum of simple clusters) first, then one stage per
    appended point, and last the result, the final stage with every base
    point re-attached.  When the builder's safety cap is exceeded, the
    `CapExceededError` carries instead the stages done before the overrun,
    the start first.  A build with `trace=False` keeps no stage: its `trace`
    holds the result alone, and its `CapExceededError.trace` is `()`.
    """

    cluster: WeightedCluster
    added: tuple[AddedPoint, ...]
    trace: tuple[WeightedCluster, ...]
    certificate: CartierCertificate


def build(
    request: CartierRequest, seed_point: Optional[int] = None, *, trace: bool = True
) -> CartierResult:
    """Run the construction; the returned certificate is verified independently.

    `seed_point` overrides where the first free point is attached (default:
    the minimal contracted point); any contracted point is acceptable and
    the certificate, not the choice, guarantees correctness.  `trace=False`
    keeps no stage but the one being built, so memory stays linear in the
    result instead of quadratic in alpha; the cluster, the added points and
    the certificate are those of a traced build (see `CartierResult`).
    """
    request = request.validated()
    base = request.base
    report = request.report
    sk = base.skeleton
    alpha = request.alpha
    dicriticals = sorted(report.Kplus_Q)
    base_excesses = _excesses(base.nu, sk.proximate_to)
    base_dicriticals = {tag for tag, r in zip(sk.tags, base_excesses) if r > 0}
    neighbor = {p: contracted_neighbor(sk.dual_rows, report, p) for p in dicriticals}

    if seed_point is None:
        seed_point = report.o_Q
    if isinstance(seed_point, bool) or not isinstance(seed_point, int):
        raise ClusterError(f"seed point {seed_point!r} is not an integer")
    if seed_point not in report.T_Q:
        raise ClusterError("the seed point must be one of the contracted components")

    cap = 4 * sum(alpha.values()) * len(sk) * len(sk)
    micro = 0
    # w0, w1, ... in order, skipping the base's tags
    fresh_tags = (t for t in (f"w{i}" for i in count()) if t not in sk.tag_index)

    # multiplicities are linear in excesses: the sum of alpha[p] simple clusters
    start = [alpha.get(p, 0) for p in sk.points]
    stage = _Stage(multiplicities_from_excesses(sk, start), start)
    stage.keep([q for q, m in enumerate(stage.nu) if m > 0])
    stages = [stage.cluster(sk)] if trace else []
    # The per-stage state, kept where the stage changes: `excess[i]` is the
    # excess at dicriticals[i] (0 once it is absent), `total` their sum,
    # `present` the stage index of each one present -> i, in order, and
    # `first` the first whose excess is positive.  Prescribed excesses only
    # fall, so `first` only moves forward.
    excess = [alpha[p] for p in dicriticals]
    total, first = sum(excess), 0
    present = _present(stage, dicriticals)

    # The first stage appends a point free over the seed; each growth stage the
    # next satellite of the first dicritical with positive excess, on its chain
    # toward its contracted neighbour.
    dicritical, anchor, label = None, seed_point, "first stage"
    while True:
        position = stage.position
        if position[anchor] is None:
            raise InternalCheckError(f"{label}: anchor {sk.tags[anchor]} is not in the stage")
        targets = (position[anchor],)
        if dicritical is not None:
            d = position[dicritical]
            # the added points proximate to d are its satellites, each on the
            # one before; the base points held are the stage's first ones
            row = stage.proximate_to[d]
            tail = row[-1] if row and row[-1] >= stage.held else targets[0]
            targets = (tail, d)
        stage.append(targets, next(fresh_tags))
        micro += 1
        # only the first stage and an unloading may break a chain the stage before kept
        local = dicritical is not None
        rho = stage.rho
        # every stage starts consistent, so only a target's excess can turn negative
        negative = [q for q in targets if rho[q] < 0]
        if negative:
            negative.sort()
            steps, touched = stage.unload(negative)
            micro += steps
            if any(stage.tags[p] in base_dicriticals for p in touched):
                raise InternalCheckError(
                    f"{label}: unloading touched a dicritical point of the base cluster"
                )
            # a step moves the excess at its point and at the point's neighbours
            rows = stage.dual_rows
            changed = {x for p in touched for x in rows[p]}.union(touched, targets)
            total = _update(excess, total, present, changed, rho)
            stage.keep(closed_support(stage.nu, stage.proximate_to))
            present = _present(stage, dicriticals)
            rho = stage.rho
            local = False
        else:
            total = _update(excess, total, present, targets, rho)
        if micro > cap:
            raise CapExceededError(
                f"builder exceeded the {cap}-step safety cap", trace=tuple(stages)
            )
        if trace:
            stages.append(stage.cluster(sk))
        if len(present) > 1:
            if not local or _may_break_a_chain(stage, targets, present):
                check_interior_excess(label, stage, rho, [stage.tags[q] for q in present])
        if dicritical is None:
            for p, got in zip(dicriticals, excess):
                if got != alpha[p] - 1:
                    raise InternalCheckError(
                        f"first stage: excess {got} at {sk.tags[p]}, expected {alpha[p] - 1}"
                    )
        elif total >= total_before:
            raise InternalCheckError("growth loop: total prescribed excess did not drop")
        while first < len(excess) and excess[first] <= 0:
            first += 1
        if first == len(excess):
            break
        dicritical = dicriticals[first]
        anchor, label = neighbor[dicritical], "growth loop"
        total_before = total

    # finalize: every base point comes back, at multiplicity zero if absent; a
    # stage that holds them all is the result, and a traced one is made already
    if stage.held == len(sk):
        final = stages[-1] if trace else stage.cluster(sk)
    else:
        final = _reattach(stage, sk)
    stages.append(final)
    certificate = verify(base, report, alpha, final)
    # the points past the base ones were added, in creation order
    tags, proximities = final.skeleton.tags, final.skeleton.proximities
    added = tuple(
        AddedPoint(tags[p], tuple(map(tags.__getitem__, sorted(proximities[p], reverse=True))))
        for p in range(len(sk), len(tags))
    )
    return CartierResult(final, added, tuple(stages), certificate)


def _present(stage: _Stage, dicriticals: Sequence[int]) -> dict:
    """The stage index of each of the base points `dicriticals` that the
    stage holds -> its place in `dicriticals`, in that order."""
    position = stage.position
    return {position[p]: i for i, p in enumerate(dicriticals) if position[p] is not None}


def _update(excess: list, total: int, present: dict, changed, rho: Sequence[int]) -> int:
    """Copy into `excess` the stage excesses `rho` at the present prescribed
    dicriticals among the stage indices `changed`, and return `total` moved
    by what they changed."""
    for q in changed:
        i = present.get(q)
        if i is not None:
            total += rho[q] - excess[i]
            excess[i] = rho[q]
    return total


def _may_break_a_chain(stage: _Stage, targets: Sequence[int], present: Container[int]) -> bool:
    """False when the point just appended to `targets`, with no unloading,
    cannot have left the chain between two of the `present` prescribed
    dicriticals (stage indices) without a positive interior excess, given
    that every such chain had one before the append.

    The append lowers the excess only at its targets and gives the new point
    excess 1; a chain the new point joins gains that point, and any other is
    the chain before.  So a chain that now fails had its last positive
    interior point at a target t whose excess is now <= 0, and t's two
    neighbours on the chain are each an end, a present prescribed
    dicritical, or an interior point of excess <= 0.  A target with at most
    one such neighbour lies inside no failing chain.  O(deg) per target.
    """
    rho, rows = stage.rho, stage.dual_rows
    return any(
        rho[t] <= 0 and sum(rho[u] <= 0 or u in present for u in rows[t]) > 1 for t in targets
    )


def check_interior_excess(label: str, skeleton, rho, tags) -> None:
    """Raise InternalCheckError unless, between any two of the prescribed
    dicriticals `tags` (those present, in order), some interior point of
    their chain keeps positive excess; this is what makes the growth loop
    sound.  The chains are read off the `dual_rows` of `skeleton`, a
    `ClusterSkeleton` or a builder stage.

    One walk decides every pair.  The dual graph is a tree, so the chain
    between two present dicriticals a and b has no interior point of
    positive excess exactly when a tree edge joins them, or when its
    interior lies in one component of the points of excess <= 0, which a
    and b then each lie in or next to.  A present dicritical of excess <= 0
    is such a point like any other.  The walk labels the components that
    hold or neighbour a present dicritical, reading the row of each of
    their points and of each present dicritical once.  A scan of the
    dicriticals from the last to the first then finds each one's first
    failing partner after it: the first later dicritical next to it, or
    sharing a component with it.  The pair named is the one a search pair
    by pair in `tags` order meets first: the first dicritical that has a
    failing partner, and its first failing partner.
    """
    rows = skeleton.dual_rows
    present = [skeleton.tag_index[t] for t in tags]
    order = dict(zip(present, range(len(present))))
    component: dict = {}  # each point of excess <= 0 reached -> its component's first point
    nearest: dict = {}  # a component -> the first dicritical in or next to it, of those scanned
    failing = None
    for i in range(len(present) - 1, -1, -1):
        d = present[i]
        row = rows[d]
        partners = [order[u] for u in row if order.get(u, i) > i]
        labels = set()
        for s in (d, *row):
            if rho[s] > 0:
                continue
            if s not in component:
                component[s] = s
                walk = [s]
                for u in walk:
                    for x in rows[u]:
                        if rho[x] <= 0 and x not in component:
                            component[x] = s
                            walk.append(x)
            labels.add(component[s])
        for c in labels:
            if c in nearest:
                partners.append(nearest[c])
            nearest[c] = i
        if partners:
            failing = i, min(partners)
    if failing is not None:
        i, j = failing
        raise InternalCheckError(f"{label}: no positive excess between {tags[i]} and {tags[j]}")


def _reattach(stage: _Stage, base: ClusterSkeleton) -> WeightedCluster:
    """The stage as a weighted cluster with every base point it lacks
    re-attached at multiplicity 0.

    One pass lays out the base's points, in base order, then the stage's
    added points, in their stage order.  A base satellite whose position an
    added point took raises ClusterError, as `extend_point` would; no other
    rule can break, since each added point passed them in the stage.
    """
    parents, proximities, tags = list(base.parents), list(base.proximities), list(base.tags)
    nu = [0] * len(base)
    index = dict(base.tag_index)
    owner = {targets: q for q, targets in enumerate(proximities) if len(targets) == 2}
    for p, tag in enumerate(stage.tags):
        if tag in base.tag_index:
            nu[base.tag_index[tag]] = stage.nu[p]
            continue
        targets = frozenset(index[stage.tags[q]] for q in stage.proximities[p])
        if len(targets) == 2:
            if targets in owner:
                raise ClusterError(
                    f"satellite position already occupied by point {tags[owner[targets]]}"
                )
            owner[targets] = len(tags)
        index[tag] = len(tags)
        parents.append(max(targets))
        proximities.append(targets)
        tags.append(tag)
        nu.append(stage.nu[p])
    skeleton = ClusterSkeleton(tuple(parents), tuple(proximities), tuple(tags))
    return WeightedCluster(_inherit_verdict(base, skeleton), tuple(nu))


def verify(
    base: WeightedCluster,
    report: SingularityReport,
    alpha: dict,
    candidate: WeightedCluster,
) -> CartierCertificate:
    """Check a candidate cluster against the request, independently of build().

    Four checks: (1) at every dicritical of the base, the value equals the
    prescribed combination of simple-cluster values; (2) every dicritical
    point of the candidate is contracted to Q or added over Q; (3) the
    candidate has excess zero at every base point off the contracted set;
    (4) the multiplicities that one integer solve on the base's dual tree
    reads off the values at the base dicriticals are the prescription.
    Keys of `alpha` off the base dicriticals are ignored; an invalid
    candidate skeleton raises ClusterError.
    """
    csk = candidate.skeleton
    csk.require_valid()
    failures = []
    sk = base.skeleton
    try:
        mapping = embed_indices(sk, csk)
    except ClusterError:
        return CartierCertificate(
            False, False, False, False, (), False, ("embedding",)
        )

    rho_candidate = _excesses(candidate.nu, csk.proximate_to)
    consistent = min(rho_candidate, default=0) >= 0
    if not consistent:
        failures.append("consistency")

    dicriticals = [p for p, r in enumerate(_excesses(base.nu, sk.proximate_to)) if r > 0]
    # by linearity, the sum of alpha_q simple(q) has excess alpha_q at each q, 0 elsewhere
    prescribed = [0] * len(sk)
    for p in dicriticals:
        prescribed[p] = alpha.get(p, 0)
    expected = _values(_multiplicities(prescribed, sk.proximate_to), sk.proximities)
    v_candidate = _values(candidate.nu, csk.proximities)
    on_dicriticals = [v_candidate[mapping[p]] for p in dicriticals]
    value_condition = on_dicriticals == [expected[p] for p in dicriticals]
    if not value_condition:
        failures.append("value-condition")

    # by candidate index: a base point is over Q when it is a point of T_Q,
    # and an added point when one of its targets is
    over_q = [False] * len(csk)
    for p in report.T_Q:
        over_q[mapping[p]] = True
    base_points = set(mapping)
    for p, targets in enumerate(csk.proximities):
        if p not in base_points and any(map(over_q.__getitem__, targets)):
            over_q[p] = True
    localization = all(over_q[d] for d, r in enumerate(rho_candidate) if r > 0)
    if not localization:
        failures.append("localization")

    contracted = set(report.T_Q)
    off_excess_zero = all(
        rho_candidate[mapping[p]] == 0 for p in sk.points if p not in contracted
    )
    if not off_excess_zero:
        failures.append("off-excess-zero")

    x = _read_multiplicities(sk, dict(zip(dicriticals, on_dicriticals)))
    readout = () if x is None else tuple((sk.tags[q], x[q]) for q in dicriticals)
    readout_matches = x is not None and all(x[q] == alpha.get(q, 0) for q in dicriticals)
    if not readout_matches:
        failures.append("readout")

    return CartierCertificate(
        consistent,
        value_condition,
        localization,
        off_excess_zero,
        readout,
        readout_matches,
        tuple(failures),
    )


def _read_multiplicities(skeleton: ClusterSkeleton, v: dict) -> Optional[dict]:
    """The multiplicities x with sum_q x_q * v(simple(q)) = v on the keys D
    of `v` (the base dicriticals, with the candidate's values), or None when
    x is not integral; `v` is extended in place to the other points N.

    Excesses are A·v, A minus the intersection matrix of the dual tree
    (A_pp = r_p + 1, read off the skeleton's `proximate_to` row of p, and
    A_pq = -1 for the neighbours in its `dual_rows`), so x = (A·v)_D for the v
    with excess zero on N: A_NN·v_N = -A_ND·v_D.  A_NN is positive definite
    on a forest.  Leaves first, each point u of a tree of N keeps
    P·v_u = Q·v_parent + B in integers; root first, v is read back by exact
    division.  A is unimodular, so v is integral exactly when x is, and a
    remainder means x is not.
    """
    adjacency, prox_to = skeleton.dual_rows, skeleton.proximate_to
    rest = {p: tuple(q for q in adjacency[p] if q not in v) for p in adjacency if p not in v}
    for root in rest:
        if root in v:
            continue
        order, parent = bfs(rest, root)
        relation = {}
        for u in reversed(order):
            children = [relation[c] for c in rest[u] if c != parent[u]]
            scale = lcm(*(Pc for Pc, _, _ in children))
            P = (len(prox_to[u]) + 1) * scale
            B = scale * sum(v[d] for d in adjacency[u] if d not in rest)
            for Pc, Qc, Bc in children:
                P -= Qc * (scale // Pc)
                B += Bc * (scale // Pc)
            g = gcd(P, scale, B)
            relation[u] = (P // g, scale // g, B // g)
        for u in order:
            P, Q, B = relation[u]
            v[u], remainder = divmod(B if parent[u] is None else Q * v[parent[u]] + B, P)
            if remainder:
                return None
    return {
        d: (len(prox_to[d]) + 1) * v[d] - sum(v[q] for q in adjacency[d])
        for d in v
        if d not in rest
    }
