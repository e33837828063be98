"""Independent brute-force oracles, paper checks, and seeded random instances.

No oracle shares a code path with the operations it checks: values are
recomputed by plain recursion, unloading results are compared against an
exhaustive search over dominating consistent clusters, and the fundamental
cycle and multiplicity of a singularity are recomputed from its resolution
graph alone.  The paper checks (the proximity matrix, the dual graph by its
static rule, maximal proximity, and the excess and fundamental-cycle lemmas)
restate the paper on top of the library; only the tests evaluate them.  The
generators drive both the property-test corpus and the CLI selftest; all
randomness flows through an explicit seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional, Sequence

from .analyzer import (
    FreeOn,
    Satellite,
    SingularityReport,
    analyze,
    enumerate_singularities,
)
from .cluster import ClusterSkeleton, DualGraph, dual_graph, validate
from .errors import CapExceededError, OracleInstanceTooLarge
from .synthesis import MinimalGraphSpec
from .weighted import (
    UnloadResult,
    UnloadStep,
    WeightedCluster,
    dicritical_set,
    drop_zero_points,
    excesses,
    is_consistent,
    unload,
    values,
)


@dataclass(frozen=True)
class GeneratorConfig:
    max_points: int = 10
    max_multiplicity: int = 5
    satellite_probability: float = 0.35
    seed: int = 0


# -- Random instances ---------------------------------------------------------


def random_skeleton(rng: random.Random, max_points: int, satellite_probability: float) -> ClusterSkeleton:
    """Valid skeleton with a random mix of free and satellite points."""
    n = rng.randint(1, max_points)
    parents: list[Optional[int]] = [None]
    prox: list[frozenset[int]] = [frozenset()]
    occupied = set()
    for p in range(1, n):
        parent = rng.randrange(p)
        targets = frozenset({parent})
        if rng.random() < satellite_probability:
            candidates = [
                q
                for q in prox[parent]
                if frozenset({parent, q}) not in occupied
            ]
            if candidates:
                other = rng.choice(candidates)
                targets = frozenset({parent, other})
                occupied.add(targets)
        parents.append(parent)
        prox.append(targets)
    return ClusterSkeleton(
        tuple(parents), tuple(prox), tuple("O" if p == 0 else f"p{p}" for p in range(n))
    )


def random_cluster(config: GeneratorConfig) -> WeightedCluster:
    """Deterministic-for-seed consistent cluster with positive multiplicities."""
    return _random_cluster(random.Random(config.seed), config)


def _random_cluster(rng: random.Random, config: GeneratorConfig) -> WeightedCluster:
    skeleton = random_skeleton(rng, config.max_points, config.satellite_probability)
    if rng.random() < 0.5:
        nu = tuple(
            0 if rng.random() < 0.15 else rng.randint(1, config.max_multiplicity)
            for _ in skeleton.points
        )
        candidate = unload(WeightedCluster(skeleton, nu)).cluster
    else:
        # weighted sum of simple clusters: plenty of zero-excess points
        from .weighted import linear_combination, simple_cluster

        picks = sorted(
            rng.sample(list(skeleton.points), rng.randint(1, len(skeleton)))
        )
        terms = [
            (simple_cluster(skeleton, p), rng.randint(1, max(1, config.max_multiplicity // 2)))
            for p in picks
        ]
        candidate = linear_combination(terms, ambient=skeleton)
    dropped = drop_zero_points(candidate).cluster
    if len(dropped.skeleton) == 1 and dropped.nu[0] == 0:
        dropped = WeightedCluster(dropped.skeleton, (rng.randint(1, config.max_multiplicity),))
    assert all(m > 0 for m in dropped.nu), "generator invariant: positive multiplicities"
    return dropped


def random_boundary_points(cluster: WeightedCluster, rng: random.Random) -> list:
    """Boundary points that hit singularities: free points on zero-excess
    components and satellites on dual-graph edges touching them, twice as many
    as there are zero-excess components at most (two if there are none), plus
    the occasional smooth pick."""
    rho = excesses(cluster)
    graph = dual_graph(cluster.skeleton)
    out = []
    zero = [p for p in cluster.skeleton.points if rho[p] == 0]
    for p in zero:
        out.append(FreeOn(p))
    for u, v in graph.edges:
        if rho[u] == 0 or rho[v] == 0:
            out.append(Satellite(u, v))
    rng.shuffle(out)
    out = out[: 2 * max(1, len(zero))]
    dicriticals = sorted(dicritical_set(cluster))
    if dicriticals and rng.random() < 0.3:
        out.append(FreeOn(rng.choice(dicriticals)))
    return out


def random_minimal_graph_spec(
    rng: random.Random, max_vertices: int = 8, max_weight: int = 6
) -> MinimalGraphSpec:
    """Random tree with weights >= max(2, degree)."""
    n = rng.randint(1, max_vertices)
    names = tuple(f"v{i}" for i in range(n))
    edges = tuple((names[rng.randrange(i)], names[i]) for i in range(1, n))
    degree = {name: 0 for name in names}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    weights = tuple(
        rng.randint(max(2, degree[name]), max(2, degree[name], max_weight))
        for name in names
    )
    return MinimalGraphSpec(names, edges, weights).require_valid()


# -- Brute-force oracles ---------------------------------------------------------


def brute_values(cluster: WeightedCluster) -> tuple[int, ...]:
    """Values by a memoized depth-first search down the proximity targets,
    started from the last point first, so it shares nothing with the
    forward-substitution path.  The stack is explicit: deep clusters hit no
    recursion limit."""
    sk = cluster.skeleton.require_valid()  # targets precede points: no cycles
    value: dict[int, int] = {}
    for root in reversed(sk.points):
        stack = [root]
        while stack:
            p = stack[-1]
            missing = [q for q in sk.proximities[p] if q not in value]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            value[p] = cluster.nu[p] + sum(value[q] for q in sk.proximities[p])
    return tuple(value[p] for p in sk.points)


def brute_unload(cluster: WeightedCluster, max_states: int = 2_000_000) -> WeightedCluster:
    """The consistent cluster on the same points whose values are pointwise
    minimal among those dominating the input values, by exhaustive search.

    The search box on value increments is sized from an upper bound (the
    unloading result itself); this cannot bias the check, because the true
    minimum always dominates the input and is dominated by any member of the
    searched set, hence lies inside the box whenever the candidate does.
    Raises OracleInstanceTooLarge when the box has more states than allowed.
    """
    sk = cluster.skeleton
    v0 = values(cluster)
    candidate = unload(cluster).cluster
    v_candidate = values(candidate)
    spans = [v_candidate[p] - v0[p] + 1 for p in sk.points]
    states = 1
    for s in spans:
        states *= s + 1
        if states > max_states:
            raise OracleInstanceTooLarge(
                f"brute unload box of {states}+ states exceeds {max_states}"
            )
    best: Optional[tuple[int, ...]] = None
    members: list[tuple[int, ...]] = []
    for increments in product(*(range(s + 1) for s in spans)):
        v = tuple(a + d for a, d in zip(v0, increments))
        nu = [v[p] - sum(v[q] for q in sk.proximities[p]) for p in sk.points]
        consistent = all(
            nu[p] - sum(nu[q] for q in sk.proximate_to[p]) >= 0 for p in sk.points
        )
        if consistent:
            members.append(v)
            if best is None or all(a <= b for a, b in zip(v, best)):
                best = v
    assert best is not None  # the candidate itself is in the box
    assert all(
        all(a <= b for a, b in zip(best, v)) for v in members
    ), "no pointwise-minimal consistent dominating cluster in the box"
    nu = tuple(best[p] - sum(best[q] for q in sk.proximities[p]) for p in sk.points)
    return WeightedCluster(sk, nu)


def laufer_cycle(graph: DualGraph) -> dict:
    """Fundamental cycle of a resolution graph by Laufer's computation
    sequence: start from the sum of all components and add E_v while
    Z.E_v > 0, where E_v.E_v = -weight(v) and adjacent components meet once
    (H. Laufer, "On rational singularities", Amer. J. Math. 94, 1972)."""
    z = {v: 1 for v in graph.vertices}
    while True:
        for v in graph.vertices:
            if sum(z[u] for u in graph.adjacency[v]) > graph.weight(v) * z[v]:
                z[v] += 1
                break
        else:
            return z


def graph_multiplicity(graph: DualGraph) -> int:
    """Multiplicity of a rational singularity from its resolution graph,
    -Z.Z with Z the fundamental cycle (M. Artin, "On isolated rational
    singularities of surfaces", Amer. J. Math. 88, 1966)."""
    z = laufer_cycle(graph)
    return sum(
        z[v] * (graph.weight(v) * z[v] - sum(z[u] for u in graph.adjacency[v]))
        for v in graph.vertices
    )


def graph_branches(graph: DualGraph) -> int:
    """Branch count of a rational singularity from its resolution graph,
    -Z.E with Z the fundamental cycle and E the sum of all components: the
    sum over v of weight(v) z_v minus the z_u of the neighbours u of v."""
    z = laufer_cycle(graph)
    return sum(
        graph.weight(v) * z[v] - sum(z[u] for u in graph.adjacency[v])
        for v in graph.vertices
    )


def reference_unload(
    cluster: WeightedCluster,
    *,
    pick: Optional[Callable[[list[int]], int]] = None,
    cap: Optional[int] = None,
) -> UnloadResult:
    """`weighted.unload` as a plain loop that rescans every excess after every
    step (O(n) per step); the worklist version must match it step for step."""
    sk = cluster.skeleton
    sk.require_valid()
    n_points = len(sk)
    nu = list(cluster.nu)
    prox_to = sk.proximate_to
    if cap is None:
        cap = 10 * max(1, sum(abs(m) for m in cluster.nu)) * n_points * n_points
    steps: list[UnloadStep] = []
    while True:
        negative = [
            p for p in sk.points if nu[p] - sum(nu[q] for q in prox_to[p]) < 0
        ]
        if not negative:
            break
        p = negative[0] if pick is None else pick(negative)
        rho_p = nu[p] - sum(nu[q] for q in prox_to[p])
        r_p = len(prox_to[p])
        inc = (-rho_p + r_p) // (r_p + 1)
        nu[p] += inc
        for u in prox_to[p]:
            nu[u] -= inc
        steps.append(UnloadStep(p, inc, inc == 1 and rho_p == -1))
        if len(steps) > cap:
            raise CapExceededError(
                f"unloading exceeded the {cap}-step safety cap", trace=tuple(steps)
            )
    unloaded = WeightedCluster(sk, tuple(nu))
    return UnloadResult(
        unloaded, tuple(steps), excesses(unloaded), len(steps), frozenset(s.point for s in steps)
    )


# -- Paper checks ------------------------------------------------------------------


@dataclass(frozen=True)
class ProximityMatrix:
    """Lower-triangular unimodular matrix: 1 on the diagonal, -1 at (p, q) iff p -> q."""

    rows: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)

    def transpose(self) -> "ProximityMatrix":
        n = len(self.rows)
        return ProximityMatrix(tuple(tuple(self.rows[i][j] for i in range(n)) for j in range(n)))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(r * x for r, x in zip(row, vec)) for row in self.rows)

    def inverse(self) -> "ProximityMatrix":
        """Exact integer inverse (forward substitution; determinant is 1)."""
        n = len(self.rows)
        inv = [[0] * n for _ in range(n)]
        for j in range(n):
            col = [0] * n
            col[j] = 1
            for i in range(j, n):
                s = col[i] - sum(self.rows[i][k] * inv[k][j] for k in range(j, i))
                inv[i][j] = s
        return ProximityMatrix(tuple(tuple(row) for row in inv))


def proximity_matrix(skeleton: ClusterSkeleton) -> ProximityMatrix:
    skeleton.require_valid()
    n = len(skeleton)
    rows = []
    for p in range(n):
        row = [0] * n
        row[p] = 1
        for q in skeleton.proximities[p]:
            row[q] = -1
        rows.append(tuple(row))
    return ProximityMatrix(tuple(rows))


def static_dual_graph(skeleton: ClusterSkeleton) -> DualGraph:
    """The dual graph by its static rule, the reference for `dual_graph`.

    For q later than p, the components of p and q meet exactly when q is
    proximate to p and no point of the cluster is proximate to both (such a
    point is their intersection, and blowing it up separates them).  The
    weight of p is one more than the number of points proximate to p.
    """
    skeleton.require_valid()
    occupied = {prox for prox in skeleton.proximities if len(prox) == 2}
    edges = sorted(
        (p, q)
        for q in skeleton.points
        for p in skeleton.proximities[q]
        if frozenset((p, q)) not in occupied
    )
    weights = tuple(
        1 + sum(p in prox for prox in skeleton.proximities) for p in skeleton.points
    )
    return DualGraph(tuple(skeleton.points), tuple(edges), weights)


def is_mK_proximate(skeleton: ClusterSkeleton, p: int, q: int) -> bool:
    """True if p is maximal (for the infinitely-near order) among points proximate to q."""
    if q not in skeleton.proximities[p]:
        return False
    return not any(r != p and skeleton.geq(r, p) for r in skeleton.proximate_to[q])


def mK_targets(skeleton: ClusterSkeleton, p: int) -> frozenset[int]:
    return frozenset(q for q in skeleton.proximities[p] if is_mK_proximate(skeleton, p, q))


def is_mK_free(skeleton: ClusterSkeleton, p: int) -> bool:
    return len(mK_targets(skeleton, p)) == 1


def is_mK_satellite(skeleton: ClusterSkeleton, p: int) -> bool:
    return len(mK_targets(skeleton, p)) == 2


def nu_prime(cluster: WeightedCluster, report: SingularityReport) -> tuple[int, ...]:
    """Multiplicities of the codimension-one ideal's cluster, on the base points."""
    return tuple(m + e for m, e in zip(cluster.nu, report.epsilon))


def verify_difexcess(cluster: WeightedCluster, report: SingularityReport) -> bool:
    """Check how excesses move under the codimension-one extension:
    rho'_p = rho_p + eps_p - sum of eps over points proximate to p, and the
    excess grows on T_Q, drops by one exactly on the dicriticals adjacent to
    T_Q, and is unchanged elsewhere."""
    if report.smooth:
        return True
    sk = cluster.skeleton
    rho = excesses(cluster)
    rho_p = excesses(WeightedCluster(sk, nu_prime(cluster, report)))
    eps = report.epsilon
    for p in sk.points:
        if rho_p[p] != rho[p] + eps[p] - sum(eps[q] for q in sk.proximate_to[p]):
            return False
    t_set, kplus_q = set(report.T_Q), set(report.Kplus_Q)
    for p in sk.points:
        if p in t_set:
            if rho_p[p] < rho[p]:
                return False
        elif p in kplus_q:
            if rho_p[p] != rho[p] - 1:
                return False
        elif rho_p[p] != rho[p]:
            return False
    return True


def verify_coef_fund(cluster: WeightedCluster, report: SingularityReport) -> bool:
    """Check the fundamental-cycle facts: the coefficient is 1 at the minimal
    contracted point, at contracted points with a dicritical point proximate
    to them, and at contracted points proximate to something outside T_Q;
    and B_Q is exactly the set of non-contracted points proximate to T_Q."""
    if report.smooth:
        return True
    sk = cluster.skeleton
    t_set = set(report.T_Q)
    rho = excesses(cluster)
    z = report.z
    for p in report.T_Q:
        if p == report.o_Q and z[p] != 1:
            return False
        if any(rho[q] > 0 for q in sk.proximate_to[p]) and z[p] != 1:
            return False
        if any(q not in t_set for q in sk.proximities[p]) and z[p] != 1:
            return False
    expected_b = {
        u
        for u in sk.points
        if u not in t_set and any(q in t_set for q in sk.proximities[u])
    }
    return expected_b == set(report.B_Q) - t_set


# -- Selftest ---------------------------------------------------------------------


@dataclass
class SelftestReport:
    seed: int
    clusters: int
    analyzed: int = 0
    unload_oracle_checked: int = 0
    cartier_built: int = 0
    synthesized: int = 0
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


def selftest(seed: int = 0, clusters: int = 120) -> SelftestReport:
    """Randomized equivalence and invariant suites, deterministic per seed."""
    from .cartier import CartierRequest, build
    from .synthesis import synthesize

    rng = random.Random(seed)
    config = GeneratorConfig(seed=seed)
    report = SelftestReport(seed=seed, clusters=clusters)
    start = time.monotonic()
    for i in range(clusters):
        cluster = _random_cluster(rng, config)
        name = f"instance {i}"
        try:
            _check_cluster_identities(cluster, rng, report)
            for w in random_boundary_points(cluster, rng):
                analyze(cluster, w)
                report.analyzed += 1
            singular = enumerate_singularities(cluster)
            if singular and report.cartier_built < max(20, clusters // 4):
                target = rng.choice(singular)
                alpha = {p: rng.randint(1, 5) for p in target.Kplus_Q}
                result = build(CartierRequest(cluster, target, alpha))
                if not result.certificate.passed:
                    raise AssertionError(
                        f"certificate failed: {result.certificate.failures}"
                    )
                report.cartier_built += 1
        except Exception as exc:  # noqa: BLE001 - collected, not swallowed
            report.failures.append(f"{name}: {type(exc).__name__}: {exc}")
    for i in range(max(20, clusters // 4)):
        try:
            synthesize(random_minimal_graph_spec(rng))  # self-certifying
            report.synthesized += 1
        except Exception as exc:  # noqa: BLE001
            report.failures.append(f"synthesis {i}: {type(exc).__name__}: {exc}")
    report.elapsed = time.monotonic() - start
    return report


def _check_cluster_identities(cluster: WeightedCluster, rng: random.Random, report: SelftestReport):
    if brute_values(cluster) != values(cluster):
        raise AssertionError("value recursion disagrees with forward substitution")
    problems = validate(cluster.skeleton)
    if problems:
        raise AssertionError(f"generator produced an invalid skeleton: {problems}")
    if not is_consistent(cluster):
        raise AssertionError("generator produced an inconsistent cluster")
    # perturb and unload; cross-check against the exhaustive oracle when small
    noisy = WeightedCluster(
        cluster.skeleton,
        tuple(m + rng.randint(-2, 1) for m in cluster.nu),
    )
    result = unload(noisy)
    if not is_consistent(result.cluster):
        raise AssertionError("unloading ended on an inconsistent cluster")
    shuffled = reference_unload(noisy, pick=rng.choice)
    if shuffled.cluster != result.cluster:
        raise AssertionError("unloading result depends on the unloading order")
    if len(cluster.skeleton) <= 6 and all(abs(m) <= 6 for m in noisy.nu):
        try:
            oracle = brute_unload(noisy)
        except OracleInstanceTooLarge:
            return
        if oracle != result.cluster:
            raise AssertionError("unloading disagrees with the exhaustive oracle")
        report.unload_oracle_checked += 1
