"""Clusters of infinitely near points: proximity structure, dual graph, chains.

A cluster is a finite set of points equal or infinitely near to a single
origin O, closed under taking predecessors.  Points are kept in an admissible
total order (index 0 is O, every proximity target precedes the point).  Each
non-origin point records the point in whose first neighbourhood it lies (its
parent) and the set of one or two earlier points it is proximate to: one for
a free point, two for a satellite.

Everything here is unweighted; virtual multiplicities live in `weighted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Optional, Sequence

from .errors import ClusterError

ORIGIN = 0


@dataclass(frozen=True)
class Diagnostic:
    """One violated skeleton rule, attached to the offending point."""

    rule: str
    point: Optional[int]
    message: str

    def __str__(self) -> str:
        where = "" if self.point is None else f" at point {self.point}"
        return f"[{self.rule}]{where}: {self.message}"


@dataclass(frozen=True)
class ClusterSkeleton:
    """Ordered point set with parent and proximity structure.

    `parents[p]` is None for the origin; `proximities[p]` is a frozenset of
    earlier indices (empty for the origin).  Tags are unique human-readable
    names used by the DSL and all reports.  Derived data is cached on first
    use: `proximate_to`, `tag_index`, `dual_rows` and the validity verdict.
    """

    parents: tuple[Optional[int], ...]
    proximities: tuple[frozenset[int], ...]
    tags: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.parents)

    @property
    def points(self) -> range:
        return range(len(self.parents))

    def is_satellite(self, p: int) -> bool:
        return len(self.proximities[p]) == 2

    def second_target(self, p: int) -> Optional[int]:
        """The non-parent proximity target of a satellite, else None."""
        for q in self.proximities[p]:
            if q != self.parents[p]:
                return q
        return None

    @cached_property
    def proximate_to(self) -> tuple[tuple[int, ...], ...]:
        """For each q, the points of the cluster proximate to q (ascending)."""
        rows: list[list[int]] = [[] for _ in self.points]
        # p ascends, so every row does
        for p in self.points:
            for q in self.proximities[p]:
                if 0 <= q < len(rows):
                    rows[q].append(p)
        return tuple(tuple(row) for row in rows)

    def geq(self, p: int, q: int) -> bool:
        """True if p is infinitely near or equal to q."""
        # parents precede their children, so the walk can stop below q
        while p is not None and p > q:
            p = self.parents[p]
        return p == q

    def predecessors(self, p: int) -> frozenset[int]:
        """p together with every point preceding it."""
        chain = []
        while p is not None:
            chain.append(p)
            p = self.parents[p]
        return frozenset(chain)

    @cached_property
    def tag_index(self) -> dict:
        return {tag: p for p, tag in enumerate(self.tags)}

    def index_of(self, tag: str) -> int:
        try:
            return self.tag_index[tag]
        except KeyError:
            raise ClusterError(f"no point tagged {tag!r}") from None

    @cached_property
    def dual_rows(self) -> dict:
        """Each point's dual-graph neighbours, ascending: `extend_adjacency`
        replayed point by point.  Shared by all readers, so read-only."""
        self.require_valid()
        rows: dict = {ORIGIN: ()}
        for q in self.points[1:]:
            extend_adjacency(rows, self.proximities[q])
        return rows

    @cached_property
    def _verdict(self) -> tuple[Diagnostic, ...]:
        return tuple(validate(self))

    def require_valid(self) -> "ClusterSkeleton":
        """Raise ClusterError unless the skeleton is valid.

        The skeleton is immutable, so `validate` runs at most once per object;
        `extend_point` and `restrict` hand a valid verdict on to what they build.
        """
        problems = self._verdict
        if problems:
            raise ClusterError(
                "invalid skeleton: " + "; ".join(str(d) for d in problems)
            )
        return self


def validate(skeleton: ClusterSkeleton) -> list[Diagnostic]:
    """Check every skeleton rule; return one diagnostic per violation.

    An empty list means the skeleton is a valid Enriques-diagram structure.
    Rules follow the order/closure/proximity axioms, plus two structural
    rules: unique tags, and at most one satellite per proximity pair (two
    points at the same intersection of exceptional components cannot exist,
    and without this rule the dual graph need not be a tree).
    """
    out: list[Diagnostic] = []
    n = len(skeleton)
    if n == 0:
        return [Diagnostic("single-origin", None, "empty cluster has no origin")]
    if skeleton.parents[ORIGIN] is not None or skeleton.proximities[ORIGIN]:
        out.append(
            Diagnostic("single-origin", ORIGIN, "origin must have no parent and no proximities")
        )

    seen_tags: dict = {}
    for p, tag in enumerate(skeleton.tags):
        if tag in seen_tags:
            out.append(Diagnostic("tag-duplicate", p, f"tag {tag!r} already used by point {seen_tags[tag]}"))
        else:
            seen_tags[tag] = p

    for p in range(1, n):
        prox = skeleton.proximities[p]
        parent = skeleton.parents[p]
        if not prox or parent is None:
            out.append(Diagnostic("single-origin", p, "non-origin point with no proximities (second origin)"))
            continue
        bad_target = False
        for q in prox:
            if not 0 <= q < n:
                out.append(Diagnostic("target-missing", p, f"proximity target {q} is not a point of the cluster"))
                bad_target = True
            elif q >= p:
                out.append(Diagnostic("admissible-order", p, f"proximity target {q} does not precede the point"))
                bad_target = True
        if len(prox) > 2:
            out.append(Diagnostic("proximity-count", p, f"proximate to {len(prox)} points; at most 2 allowed"))
        if parent not in prox:
            out.append(Diagnostic("parent-membership", p, "parent is not among the proximity targets"))
            continue
        if bad_target or len(prox) > 2:
            continue
        if len(prox) == 2:
            other = next(q for q in prox if q != parent)
            if other not in skeleton.proximities[parent]:
                out.append(
                    Diagnostic(
                        "satellite-inheritance",
                        p,
                        f"satellite target {other} is not a proximity target of the parent {parent}",
                    )
                )

    pair_owner: dict = {}
    for p in range(1, n):
        prox = skeleton.proximities[p]
        if len(prox) == 2 and all(0 <= q < p for q in prox):
            if prox in pair_owner:
                out.append(
                    Diagnostic(
                        "satellite-occupied",
                        p,
                        f"points {pair_owner[prox]} and {p} are both proximate to the same pair",
                    )
                )
            else:
                pair_owner[prox] = p
    return out


class SkeletonBuilder:
    """Incremental constructor; `build()` validates and freezes the result."""

    def __init__(self):
        self._parents: list[Optional[int]] = []
        self._prox: list[frozenset[int]] = []
        self._tags: list[str] = []

    def _add(self, parent: Optional[int], prox: frozenset[int], tag: Optional[str]) -> int:
        p = len(self._parents)
        if tag is None:
            tag = "O" if p == ORIGIN else f"p{p}"
        self._parents.append(parent)
        self._prox.append(prox)
        self._tags.append(tag)
        return p

    def origin(self, tag: str = "O") -> int:
        if self._parents:
            raise ClusterError("origin must be the first point")
        return self._add(None, frozenset(), tag)

    def free(self, parent: int, tag: Optional[str] = None) -> int:
        return self._add(parent, frozenset({parent}), tag)

    def satellite(self, parent: int, other: int, tag: Optional[str] = None) -> int:
        return self._add(parent, frozenset({parent, other}), tag)

    def build(self) -> ClusterSkeleton:
        skeleton = ClusterSkeleton(tuple(self._parents), tuple(self._prox), tuple(self._tags))
        return skeleton.require_valid()


def chain_skeleton(length: int) -> ClusterSkeleton:
    """Origin followed by `length - 1` free points, each over the previous."""
    b = SkeletonBuilder()
    prev = b.origin()
    for _ in range(1, length):
        prev = b.free(prev)
    return b.build()


def extend_point(
    skeleton: ClusterSkeleton, targets: Iterable[int], tag: Optional[str] = None
) -> ClusterSkeleton:
    """Append one new point proximate to `targets`; parent is the latest target.

    The result inherits the validity verdict of `skeleton`; its derived data
    (`proximate_to`, `tag_index`, `dual_rows`) is computed on demand."""
    targets = frozenset(targets)
    if tag is None:
        tag = _fresh_tag("w", skeleton.tag_index)
    parent = check_attachment(skeleton, targets, tag)
    extended = ClusterSkeleton(
        skeleton.parents + (parent,),
        skeleton.proximities + (targets,),
        skeleton.tags + (tag,),
    )
    return _inherit_verdict(skeleton, extended)


def check_attachment(skeleton, targets: frozenset, tag: str) -> int:
    """The parent of a new point proximate to `targets` and tagged `tag`,
    once the point passes every rule it could break: one or two targets,
    each a point, a fresh tag, satellite inheritance and a free satellite
    position.  Raises ClusterError at the first rule broken.

    Reads only `tags`, `tag_index`, `proximities` and `proximate_to`, so it
    checks a stage that the Cartier builder holds in lists as it checks a
    skeleton.
    """
    if not 1 <= len(targets) <= 2:
        raise ClusterError("a new point must be proximate to one or two existing points")
    for q in targets:
        if not 0 <= q < len(skeleton.tags):
            raise ClusterError(f"proximity target {q} is not a point of the cluster")
    parent = max(targets)
    if tag in skeleton.tag_index:
        raise ClusterError(f"tag {tag!r} already in use")
    if len(targets) == 2:
        other = min(targets)
        if other not in skeleton.proximities[parent]:
            raise ClusterError(
                f"cannot attach satellite: {skeleton.tags[other]} is not a proximity "
                f"target of {skeleton.tags[parent]}"
            )
        # a point at E_a ∩ E_b is proximate to both, so it is in the parent's row
        for q in skeleton.proximate_to[parent]:
            if skeleton.proximities[q] == targets:
                raise ClusterError(
                    f"satellite position already occupied by point {skeleton.tags[q]}"
                )
    return parent


def _inherit_verdict(source: ClusterSkeleton, derived: ClusterSkeleton) -> ClusterSkeleton:
    """Mark `derived` valid if `source` is already known to be valid.

    Sound only for what `extend_point` and a non-empty `restrict` build, or
    a chain of them: each new point passed `check_attachment` (target count
    and range, fresh tag, satellite inheritance, free satellite position)
    with its parent the latest target, and a non-empty predecessor-closed
    subset of a valid skeleton is valid.
    """
    if source.__dict__.get("_verdict") == ():
        derived.__dict__["_verdict"] = ()
    return derived


def _fresh_tag(stem: str, taken: Collection[str]) -> str:
    if stem not in taken:
        return stem
    i = 1
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


def restrict(
    skeleton: ClusterSkeleton, keep: Iterable[int]
) -> tuple[ClusterSkeleton, tuple[int, ...]]:
    """Sub-skeleton on `keep` (which must be predecessor-closed).

    Returns the restricted skeleton and the kept old indices in order;
    keeping every point returns `skeleton` itself.
    """
    kept = tuple(sorted(set(keep)))
    if kept and not (0 <= kept[0] and kept[-1] < len(skeleton)):
        raise ClusterError("restriction keeps an index that is not a point of the cluster")
    if len(kept) == len(skeleton):
        # every point stays: the skeleton itself, with its verdict and caches
        return skeleton, kept
    kept_set = set(kept)
    for old in kept:
        for q in skeleton.proximities[old]:
            if q not in kept_set:
                raise ClusterError(
                    f"restriction is not predecessor-closed: {skeleton.tags[old]} "
                    f"needs {skeleton.tags[q]}"
                )
    sub = _relabel(skeleton, kept)
    return (_inherit_verdict(skeleton, sub) if kept else sub), kept


def canonical(skeleton: ClusterSkeleton) -> ClusterSkeleton:
    """Relabel points into the canonical admissible order.

    Depth-first from the origin, visiting children sorted by subtree size
    then tag.  Two skeletons equal up to an order-preserving relabeling have
    identical canonical forms.
    """
    skeleton.require_valid()
    children: list[list[int]] = [[] for _ in skeleton.points]
    for p in skeleton.points:
        par = skeleton.parents[p]
        if par is not None:
            children[par].append(p)

    size = [1] * len(skeleton)
    for p in reversed(skeleton.points):
        par = skeleton.parents[p]
        if par is not None:
            size[par] += size[p]

    order: list[int] = []
    stack = [ORIGIN]
    while stack:
        p = stack.pop()
        order.append(p)
        for c in sorted(children[p], key=lambda c: (size[c], skeleton.tags[c]), reverse=True):
            stack.append(c)
    return _relabel(skeleton, order)


def _relabel(skeleton: ClusterSkeleton, order: Sequence[int]) -> ClusterSkeleton:
    """The points `order` of `skeleton`, renumbered 0, 1, ... in that order;
    every proximity target of a listed point must be listed too."""
    index = {old: new for new, old in enumerate(order)}
    parents = tuple(
        None if skeleton.parents[old] is None else index[skeleton.parents[old]] for old in order
    )
    prox = tuple(frozenset(index[q] for q in skeleton.proximities[old]) for old in order)
    return ClusterSkeleton(parents, prox, tuple(skeleton.tags[old] for old in order))


# -- Dual graph and chains -----------------------------------------------------


def adjacency(vertices: Iterable, edges: Iterable[tuple]) -> dict:
    """Each vertex's neighbours in an undirected edge list, as a sorted tuple."""
    adj: dict = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def bfs(adjacency: dict, root, key=None) -> tuple[list, dict]:
    """Breadth-first order from `root` and the parent of each vertex reached
    (None for the root); neighbours are visited sorted by `key` when given."""
    parent = {root: None}
    order = [root]
    for v in order:
        neighbours = adjacency[v] if key is None else sorted(adjacency[v], key=key)
        for nxt in neighbours:
            if nxt not in parent:
                parent[nxt] = v
                order.append(nxt)
    return order, parent


@dataclass(frozen=True)
class DualGraph:
    """Intersection tree of the exceptional components, with vertex weights.

    Vertices are point indices of a cluster, or names for a prescribed graph;
    for a cluster's graph `weight(p)` is r_p + 1, the negative of the
    self-intersection of the component of p.
    """

    vertices: tuple
    edges: tuple[tuple, ...]
    weights: tuple[int, ...]

    @cached_property
    def adjacency(self) -> dict:
        return adjacency(self.vertices, self.edges)

    @cached_property
    def _weight_of(self) -> dict:
        return dict(zip(self.vertices, self.weights))

    def weight(self, p) -> int:
        return self._weight_of[p]

    def degree(self, p) -> int:
        return len(self.adjacency[p])

    def chain(self, a, b) -> tuple:
        """The unique path from a to b (inclusive)."""
        if a not in self.adjacency or b not in self.adjacency:
            raise ClusterError("chain endpoints must be vertices of the graph")
        _, parent = bfs(self.adjacency, a)
        if b not in parent:
            raise ClusterError("graph is disconnected; no chain exists")
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        path.reverse()
        return tuple(path)

    def open_chain(self, a, b) -> tuple:
        """ch0(a, b): the chain with both endpoints removed."""
        return self.chain(a, b)[1:-1]

    def induced(self, keep: Iterable) -> "DualGraph":
        """Subgraph on `keep`, weights retained from this graph."""
        keep_set = set(keep)
        vertices = tuple(v for v in self.vertices if v in keep_set)
        edges = tuple((u, v) for u, v in self.edges if u in keep_set and v in keep_set)
        weights = tuple(self._weight_of[v] for v in vertices)
        return DualGraph(vertices, edges, weights)


def dual_graph(skeleton: ClusterSkeleton) -> DualGraph:
    """Dual graph of the exceptional divisor obtained by blowing up the cluster.

    Its adjacency is the skeleton's `dual_rows`, shared, so read-only."""
    rows = skeleton.dual_rows
    edges = sorted((p, q) for q, row in rows.items() for p in row if p < q)
    weights = tuple(len(skeleton.proximate_to[p]) + 1 for p in skeleton.points)
    graph = DualGraph(tuple(skeleton.points), tuple(edges), weights)
    graph.__dict__["adjacency"] = rows
    return graph


def extend_adjacency(adjacency: dict, targets: Collection[int]) -> None:
    """Update, in place, the dual graph's `adjacency` rows of a skeleton to
    those of `extend_point(skeleton, targets)`.

    The one statement of the blow-up rule, for `dual_rows`, for the lists
    of a `weighted._Stage` and for the analyzer's K_w, the rows
    `weighted._appended` copies.
    Blowing up the new point n changes the graph only locally: a free point
    on E_p adds n to the row of p; a satellite at E_a ∩ E_b separates a and
    b and adds n to both rows.  n is the largest index, so every row stays
    sorted, and the row of n is its sorted targets.
    """
    n = len(adjacency)
    if len(targets) == 1:
        (p,) = targets
        adjacency[p] += (n,)
        adjacency[n] = (p,)
    else:
        a, b = sorted(targets)
        adjacency[a] = tuple(v for v in adjacency[a] if v != b) + (n,)
        adjacency[b] = tuple(v for v in adjacency[b] if v != a) + (n,)
        adjacency[n] = (a, b)


def restrict_adjacency(
    adjacency: dict, proximities: Sequence[frozenset], kept: Sequence[int]
) -> dict:
    """The dual graph's rows of `restrict(skeleton, kept)`, from `adjacency`,
    those of the skeleton with `proximities`; `adjacency` is left as it is.

    `extend_adjacency` undone for each point left out, the last first.  No
    kept point is proximate to it and the later points proximate to it are
    gone, so its neighbours are its targets: a free point leaves its
    target's row, and a satellite leaves the rows of its two targets, which
    meet again.  The kept points are then numbered in order, as `restrict`
    numbers them, which keeps every row ascending.
    """
    rows = dict(adjacency)
    kept_set = set(kept)
    for p in range(len(proximities) - 1, -1, -1):
        if p in kept_set:
            continue
        targets = proximities[p]
        for q in targets:
            rows[q] = tuple(v for v in rows[q] if v != p)
        if len(targets) == 2:
            a, b = targets
            rows[a] = tuple(sorted(rows[a] + (b,)))
            rows[b] = tuple(sorted(rows[b] + (a,)))
    index = {old: new for new, old in enumerate(kept)}
    return {index[p]: tuple(index[v] for v in rows[p]) for p in kept}
