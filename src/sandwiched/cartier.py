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
point throughout.  The satellites grown for a dicritical are the added
points proximate to it, each proximate to the one before, so the next one
attaches to the last of them in the stage's `proximate_to` row, or to the
anchor when none is left.

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
whole-graph search (`check_interior_excess`) on the first stage and after
every unloading.  On a stage that only appended a point it runs the search
only when a local rule (`_may_break_a_chain`) cannot rule a failure out,
which reads the rows of the point's targets alone.

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
from typing import Optional, Sequence

from .analyzer import SingularityReport, contracted_neighbor
from .cluster import ClusterSkeleton, _inherit_verdict, bfs
from .errors import CapExceededError, ClusterError, InternalCheckError
from .weighted import (
    WeightedCluster,
    _Stage,
    closed_support,
    dicritical_set,
    embed_indices,
    excesses,
    multiplicities_from_excesses,
    values,
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
    base_dicriticals = {sk.tags[p] for p in dicritical_set(base)}
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
    stage.keep([q for q in sk.points if stage.nu[q] > 0])
    stages = [stage.cluster(sk)] if trace else []

    # The first stage appends a point free over the seed; each growth stage the
    # next satellite of the first dicritical with positive excess, on its chain
    # toward its contracted neighbour.
    dicritical, anchor, label = None, seed_point, "first stage"
    while True:
        index = stage.tag_index
        if sk.tags[anchor] not in index:
            raise InternalCheckError(f"{label}: anchor {sk.tags[anchor]} is not in the stage")
        targets = (index[sk.tags[anchor]],)
        if dicritical is not None:
            d = index[sk.tags[dicritical]]
            # the added points proximate to d are its satellites, each on the one before
            row = stage.proximate_to[d]
            tail = row[-1] if row and stage.tags[row[-1]] not in sk.tag_index else targets[0]
            targets = (tail, d)
        stage.append(targets, next(fresh_tags))
        micro += 1
        # only the first stage and an unloading may break a chain the stage before kept
        local = dicritical is not None
        # every stage starts consistent, so only a target's excess can turn negative
        negative = sorted(q for q in targets if stage.rho[q] < 0)
        if negative:
            steps, touched = stage.unload(negative)
            micro += steps
            if any(stage.tags[p] in base_dicriticals for p in touched):
                raise InternalCheckError(
                    f"{label}: unloading touched a dicritical point of the base cluster"
                )
            stage.keep(closed_support(stage.nu, stage.proximate_to))
            local = False
        if micro > cap:
            raise CapExceededError(
                f"builder exceeded the {cap}-step safety cap", trace=tuple(stages)
            )
        if trace:
            stages.append(stage.cluster(sk))
        index, rho = stage.tag_index, stage.rho
        # the excess at each prescribed dicritical present; an absent one has excess 0
        at = {p: rho[index[sk.tags[p]]] for p in dicriticals if sk.tags[p] in index}
        if len(at) > 1:
            present = {index[sk.tags[p]] for p in at}
            if not local or _may_break_a_chain(stage, targets, present):
                check_interior_excess(label, stage, rho, [sk.tags[p] for p in at])
        if dicritical is None:
            for p in dicriticals:
                got = at.get(p, 0)
                if got != alpha[p] - 1:
                    raise InternalCheckError(
                        f"first stage: excess {got} at {sk.tags[p]}, expected {alpha[p] - 1}"
                    )
        elif sum(at.values()) >= total_before:
            raise InternalCheckError("growth loop: total prescribed excess did not drop")
        pending = [p for p in dicriticals if at.get(p, 0) > 0]
        if not pending:
            break
        dicritical, anchor, label = pending[0], neighbor[pending[0]], "growth loop"
        total_before = sum(at.values())

    # finalize: every base point comes back, at multiplicity zero if absent; a
    # stage that holds them all is the result, and a traced one is made already
    if all(t in stage.tag_index for t in sk.tags):
        final = stages[-1] if trace else stage.cluster(sk)
    else:
        final = _reattach(stage, sk)
    stages.append(final)
    certificate = verify(base, report, alpha, final)
    # the points past the base ones were added, in creation order
    fsk = final.skeleton
    added = tuple(
        AddedPoint(
            fsk.tags[p], tuple(fsk.tags[q] for q in sorted(fsk.proximities[p], reverse=True))
        )
        for p in fsk.points[len(sk) :]
    )
    return CartierResult(final, added, tuple(stages), certificate)


def _may_break_a_chain(stage: _Stage, targets: Sequence[int], present: set) -> bool:
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
    sound.  The chains are searched in the `dual_rows` of `skeleton`, a
    `ClusterSkeleton` or a builder stage.

    The dual graph is a tree, so the chain from a to b is the path through
    the breadth-first parents from a: one search per dicritical but the last
    reads the chains to every later one.
    """
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
    candidate.skeleton.require_valid()
    failures = []
    sk = base.skeleton
    try:
        mapping = embed_indices(sk, candidate.skeleton)
    except ClusterError:
        return CartierCertificate(
            False, False, False, False, (), False, ("embedding",)
        )

    rho_candidate = excesses(candidate)
    consistent = all(r >= 0 for r in rho_candidate)
    if not consistent:
        failures.append("consistency")

    dicritical = dicritical_set(base)
    dicriticals = sorted(dicritical)
    # by linearity, the sum of alpha_q simple(q) has excess alpha_q at each q, 0 elsewhere
    prescribed = [alpha.get(p, 0) if p in dicritical else 0 for p in sk.points]
    expected = values(multiplicities_from_excesses(sk, prescribed))
    v_candidate = values(candidate)
    on_dicriticals = [v_candidate[mapping[p]] for p in dicriticals]
    value_condition = on_dicriticals == [expected[p] for p in dicriticals]
    if not value_condition:
        failures.append("value-condition")

    t_tags = {sk.tags[p] for p in report.T_Q}
    over_q: dict = {}
    csk = candidate.skeleton
    for p in csk.points:
        tag = csk.tags[p]
        if tag in sk.tag_index:
            continue
        over_q[tag] = any(
            csk.tags[t] in t_tags or over_q.get(csk.tags[t], False)
            for t in csk.proximities[p]
        )
    localization = all(
        tag in t_tags if tag in sk.tag_index else over_q.get(tag, False)
        for tag in (csk.tags[d] for d, r in enumerate(rho_candidate) if r > 0)
    )
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
