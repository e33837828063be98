"""Construction of clusters whose generic curve is Cartier at one singularity.

Given a singular point Q of the blow-up and a prescribed positive
intersection multiplicity for every exceptional component through Q, this
module builds a consistent cluster T whose generic curve has a strict
transform that is a Cartier divisor, meets the exceptional locus only at Q,
and realizes exactly the prescribed intersections.

The construction starts from the weighted sum of the simple clusters of the
components through Q, attaches a free point over the minimal contracted
point, and then grows satellite chains on each dicritical component toward
its contracted neighbour until all the relevant excesses are used up,
unloading and discarding zero points along the way.  Each stage of the
construction is a weighted cluster whose points keep one admissible order:
the points of the base cluster present, in base order, then the added
points in creation order.  A stage drops points or appends one at the end,
and a base point that comes back is re-attached among the base points, so
no stage re-sorts, and every tag names the same point throughout.

Each stage carries forward what it does not change.  The skeleton of an
appended point keeps the proximity lists and tag index of the previous one,
updated for the new point (`cluster.extend_point`).  The builder keeps the
tags of each chain it grows, and the stage's excess vector: appending a
point of multiplicity 1 lowers the excess of each of its targets by 1 and
gives the point excess 1.  From the first stage with two prescribed
dicriticals on, it also carries the adjacency rows of the stage's dual
graph, all that the interior-excess check reads of it; the new point
changes only its targets' rows (`cluster.extend_adjacency`), and an
unloading, which renumbers the points, or a rebuild drops them until the
check needs them again.  Only an unloading makes a multiplicity zero.  The
start has positive multiplicities, and every stage is predecessor-closed,
so a base point comes back only when the new point's target is missing; it
is re-attached at multiplicity 0 with its missing predecessors, the
target's excess drops to -1 and an unloading follows.  So zero points are
dropped, and the excesses recomputed, only after an unloading, which runs
only when some carried excess is negative.  A re-attachment restricts the
base and appends the added points again, so it inherits the base's verdict:
no stage runs `validate`.

A result is never trusted on construction: `verify` re-checks it from
scratch (value identities, localization of the dicritical points, vanishing
excesses off the contracted set, and an exact linear readout of the
intersection multiplicities).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Optional

from .analyzer import SingularityReport, contracted_neighbor
from .cluster import ClusterSkeleton, bfs, dual_graph, extend_adjacency, extend_point, restrict
from .errors import CapExceededError, ClusterError, InternalCheckError
from .weighted import (
    WeightedCluster,
    dicritical_set,
    drop_zero_points,
    embed_indices,
    excesses,
    multiplicities_from_excesses,
    simple_multiplicities,
    unload,
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
    cluster: WeightedCluster
    added: tuple[AddedPoint, ...]
    trace: tuple[WeightedCluster, ...]
    certificate: CartierCertificate


def build(request: CartierRequest, seed_point: Optional[int] = None) -> CartierResult:
    """Run the construction; the returned certificate is verified independently.

    `seed_point` overrides where the first free point is attached (default:
    the minimal contracted point); any contracted point is acceptable and
    the certificate, not the choice, guarantees correctness.
    """
    request = request.validated()
    base = request.base
    report = request.report
    sk = base.skeleton
    alpha = {p: int(a) for p, a in request.alpha.items()}
    base_graph = dual_graph(sk)
    dicriticals = sorted(report.Kplus_Q)
    neighbor = {p: contracted_neighbor(base_graph, report, p) for p in dicriticals}
    kplus_tags = {sk.tags[p] for p in dicritical_set(base)}

    if seed_point is None:
        seed_point = report.o_Q
    if seed_point not in report.T_Q:
        raise ClusterError("the seed point must be one of the contracted components")

    cap = 4 * sum(alpha.values()) * len(sk) * len(sk)
    micro = 0
    # w0, w1, ... in order, skipping the base's tags
    fresh_tags = (t for t in (f"w{i}" for i in count()) if t not in sk.tag_index)

    # multiplicities are linear in excesses: the sum of alpha[p] simple clusters
    combined = multiplicities_from_excesses(sk, [alpha.get(p, 0) for p in sk.points]).nu
    start, kept = restrict(sk, (q for q in sk.points if combined[q] > 0))
    cluster = WeightedCluster(start, tuple(combined[q] for q in kept))
    rho = list(excesses(cluster))
    trace = [cluster]
    # per prescribed dicritical: its anchor's tag, then the satellites appended for
    # it; each is proximate to the one before, so the tags present are a prefix
    chains = {p: [sk.tags[neighbor[p]]] for p in dicriticals}

    def stage(
        cluster: WeightedCluster,
        rho: list,
        adjacency: Optional[dict],
        anchor: int,
        dicritical: Optional[int],
        label: str,
    ):
        """Re-attach the base point `anchor` and append a point of
        multiplicity 1: free over the anchor, or the next satellite of
        `dicritical` on the chain toward it.  The excess drops by 1 at each
        target and is 1 at the point, and the adjacency rows of the stage's
        dual graph, when carried, are blown up at the point.  Every stage
        starts consistent, so only a target's excess can turn negative; if
        one does, unload (never at an original dicritical) and drop the zero
        points.  Appends the stage to the trace and checks its interior
        excess.  Returns the stage, its excesses, its adjacency rows (None
        until two prescribed dicriticals are present, and again after an
        unloading or a rebuild) and the excess at each prescribed dicritical
        present (an absent one has excess 0).

        The re-attachment has never been seen to rebuild here.  The seed
        point t is in the start: the points infinitely near t span a
        connected subtree of the dual graph that reaches a maximal point,
        which is dicritical, and the first dicritical on the way is
        prescribed, so its simple cluster is positive at t.  A growth
        anchor is a predecessor of its pending dicritical, so present with
        it, or else proximate to it, a case with no such argument; but no
        seeded search (82,613 builds from every contracted seed point,
        alpha up to 20) reached the rebuild.  It stays as a guard and
        drops the carried rows.
        """
        nonlocal micro
        grown = _reattach(cluster, sk, (anchor,))
        if grown is not cluster:
            cluster, rho, adjacency = grown, list(excesses(grown)), None
        cur = cluster.skeleton
        tag = next(fresh_tags)
        targets = (cur.tag_index[sk.tags[anchor]],)
        if dicritical is not None:
            chain = chains[dicritical]
            while chain[-1] not in cur.tag_index:
                chain.pop()
            targets = (cur.tag_index[chain[-1]], cur.tag_index[sk.tags[dicritical]])
            chain.append(tag)
        cluster = WeightedCluster(extend_point(cur, targets, tag), cluster.nu + (1,))
        for q in targets:
            rho[q] -= 1
        rho.append(1)
        micro += 1
        if any(rho[q] < 0 for q in targets):
            result = unload(cluster)
            micro += len(result.steps)
            for step in result.steps:
                if cluster.skeleton.tags[step.point] in kplus_tags:
                    raise InternalCheckError(
                        f"{label}: unloading touched a dicritical point of the base cluster"
                    )
            cluster = drop_zero_points(result.cluster).cluster
            rho, adjacency = list(excesses(cluster)), None
        elif adjacency is not None:
            extend_adjacency(adjacency, targets)
        if micro > cap:
            raise CapExceededError(
                f"builder exceeded the {cap}-step safety cap", trace=tuple(trace)
            )
        index = cluster.skeleton.tag_index
        at = {p: rho[index[sk.tags[p]]] for p in dicriticals if sk.tags[p] in index}
        trace.append(cluster)
        present = [sk.tags[p] for p in at]
        adjacency = check_interior_excess(label, cluster.skeleton, adjacency, rho, present)
        return cluster, rho, adjacency, at

    # first stage: one free point over the seed
    cluster, rho, adjacency, at = stage(cluster, rho, None, seed_point, None, "first stage")
    for p in dicriticals:
        got = at.get(p, 0)
        if got != alpha[p] - 1:
            raise InternalCheckError(
                f"first stage: excess {got} at {sk.tags[p]}, expected {alpha[p] - 1}"
            )

    # growth loop: satellite chains on each dicritical toward its neighbour
    while pending := [p for p in dicriticals if at.get(p, 0) > 0]:
        total_before = sum(at.values())
        cluster, rho, adjacency, at = stage(
            cluster, rho, adjacency, neighbor[pending[0]], pending[0], "growth loop"
        )
        if sum(at.values()) >= total_before:
            raise InternalCheckError("growth loop: total prescribed excess did not drop")

    # finalize: every base point comes back, at multiplicity zero if absent
    final = _reattach(cluster, sk, sk.points)
    trace.append(final)
    certificate = verify(base, report, alpha, final)
    # the points past the base ones were added, in creation order
    fsk = final.skeleton
    added = tuple(
        AddedPoint(
            fsk.tags[p], tuple(fsk.tags[q] for q in sorted(fsk.proximities[p], reverse=True))
        )
        for p in fsk.points[len(sk) :]
    )
    return CartierResult(final, added, tuple(trace), certificate)


def check_interior_excess(
    label: str, skeleton: ClusterSkeleton, adjacency: Optional[dict], rho, tags
) -> Optional[dict]:
    """Between any two of the prescribed dicriticals `tags` (those present,
    in order) some interior point of their chain keeps positive excess; this
    is what makes the growth loop sound.

    The dual graph is a tree, so the chain from a to b is the path through
    the breadth-first parents from a: one search per dicritical but the last
    reads the chains to every later one.  Returns the adjacency rows of the
    stage's dual graph: `adjacency`, or fresh rows when it is None and two
    dicriticals are present.
    """
    if len(tags) < 2:
        return adjacency
    if adjacency is None:
        adjacency = dual_graph(skeleton).adjacency
    present = [skeleton.tag_index[t] for t in tags]
    for i, a in enumerate(present[:-1]):
        _, parent = bfs(adjacency, a)
        for b in present[i + 1 :]:
            u = parent[b]
            while u != a and rho[u] <= 0:
                u = parent[u]
            if u == a:
                raise InternalCheckError(
                    f"{label}: no positive excess between "
                    f"{skeleton.tags[a]} and {skeleton.tags[b]}"
                )
    return adjacency


def _reattach(
    cluster: WeightedCluster, base: ClusterSkeleton, points
) -> WeightedCluster:
    """Re-attach base `points` and their predecessors at multiplicity 0.

    Every stage is predecessor-closed, so a stage holding the points holds
    their predecessors and is returned as it is.  Otherwise the skeleton is
    rebuilt by the cluster operations: the base restricted to the points
    needed, then the added points appended again in their current order.
    A base satellite whose position an added point took raises ClusterError.
    """
    cur = cluster.skeleton
    if all(base.tags[p] in cur.tag_index for p in points):
        return cluster
    needed = set().union(*(base.predecessors(p) for p in points))
    needed.update(base.tag_index[t] for t in cur.tags if t in base.tag_index)
    skeleton, _ = restrict(base, needed)
    for p, tag in enumerate(cur.tags):
        if tag not in base.tag_index:
            targets = (skeleton.tag_index[cur.tags[q]] for q in cur.proximities[p])
            skeleton = extend_point(skeleton, targets, tag)
    nu = tuple(cluster.nu[cur.tag_index[t]] if t in cur.tag_index else 0 for t in skeleton.tags)
    return WeightedCluster(skeleton, nu)


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
    (4) solving the value identities for the multiplicities returns exactly
    the prescription.
    """
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

    dicriticals = sorted(dicritical_set(base))
    simple_values = {
        q: values(WeightedCluster(sk, simple_multiplicities(sk, q)))
        for q in dicriticals
    }
    v_candidate = values(candidate)
    value_condition = all(
        v_candidate[mapping[p]]
        == sum(alpha.get(q, 0) * simple_values[q][p] for q in dicriticals)
        for p in dicriticals
    )
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

    readout, readout_matches = _read_multiplicities(
        dicriticals, simple_values, v_candidate, mapping, alpha, sk
    )
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


def _read_multiplicities(dicriticals, simple_values, v_candidate, mapping, alpha, sk):
    """Solve sum_q x_q * v_p(simple(q)) = v_p(candidate) over the dicriticals.

    Exact: fraction-free (Bareiss) elimination in integers, pivoting on the
    first nonzero entry of each column, then fraction-free back substitution
    for det * x_q, and one exact division by det per unknown.  The
    simple-cluster value matrix is invertible, so the multiplicities are
    determined by the values alone.
    """
    m = len(dicriticals)
    rows = [
        [simple_values[q][p] for q in dicriticals] + [v_candidate[mapping[p]]]
        for p in dicriticals
    ]
    # every entry below the pivot rows is a minor of the matrix, so each
    # division by the previous pivot is exact; the last pivot is +-det
    det = 1
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            return (), False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for r in range(col + 1, m):
            row = rows[r]
            rows[r] = [(top[col] * a - row[col] * b) // det for a, b in zip(row, top)]
        det = top[col]
    # det * x is integral (Cramer), so every division here is exact too
    scaled = [0] * m
    for i in reversed(range(m)):
        row = rows[i]
        rest = sum(row[j] * scaled[j] for j in range(i + 1, m))
        scaled[i] = (det * row[m] - rest) // row[i]
    solution = [divmod(x, det) for x in scaled]
    if any(remainder for _, remainder in solution):
        return (), False
    readout = tuple((sk.tags[q], x) for q, (x, _) in zip(dicriticals, solution))
    matches = all(x == alpha.get(q, 0) for q, (x, _) in zip(dicriticals, solution))
    return readout, matches
