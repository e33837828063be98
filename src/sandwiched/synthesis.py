"""Minimal singularities from their resolution graphs.

A minimal surface singularity is determined (as a resolution graph) by a
tree with vertex weights at least 2 and at least the vertex degree.  This
module builds, for any such graph, a weighted cluster and a boundary point
whose analysis reproduces the graph exactly and attains the extremal count:
the number of exceptional components through the singularity equals its
embedding dimension, i.e. multiplicity + 1 branches get contracted.

The construction: origin O, a free point u over it, and the chosen root
vertex as the satellite of the two, which makes the minimal contracted point
maximally proximate to two points.  Tree edges become free points under
their parent vertex; each vertex also receives enough extra free leaves
(weight - 1 - children many) to push its proximate count to weight - 1.
Multiplicities make every graph vertex excess-zero and every leaf, u and O
excess-one.  The skeleton is laid out in one pass, its tuples built
directly rather than point by point through `SkeletonBuilder`, and it is
still validated once.  Nothing is trusted: the result self-certifies
through the analyzer before it is returned.  The point of each vertex is
tagged with the vertex's name, so the certificate compares the analyzer's
resolution graph with the input graph name for name, which is stronger
than isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .analyzer import FreeOn, analyze
from .cluster import ClusterSkeleton, DualGraph, adjacency, bfs
from .dsl import INTEGER, is_name
from .errors import ClusterError, InternalCheckError, ParseError
from .weighted import WeightedCluster, multiplicities_from_excesses


@dataclass(frozen=True)
class MinimalGraphSpec(DualGraph):
    """Tree with vertex weights: omega(q) >= 2 and omega(q) >= deg(q).

    A `DualGraph` whose vertices are names; `require_valid` checks the
    conditions above.
    """

    @cached_property
    def _verdict(self) -> Optional[tuple[str, object]]:
        """The first (message, culprit) of `_problems`, or None for a valid
        spec.  The spec is immutable, so the conditions are checked at most
        once per object, however often it is validated."""
        return next(self._problems(), None)

    def require_valid(self) -> "MinimalGraphSpec":
        if self._verdict is not None:
            raise ClusterError(self._verdict[0])
        return self

    def _problems(self) -> Iterator[tuple[str, object]]:
        """(message, culprit) of the first condition broken; stop there, as later
        checks need the earlier.  The culprit: an edge's index, a vertex, or None."""
        if not self.vertices:
            yield "graph needs at least one vertex", None
        if len(set(self.vertices)) != len(self.vertices):
            yield "duplicate vertex names", None
        if len(self.weights) != len(self.vertices):
            yield "one weight per vertex required", None
        known = set(self.vertices)
        for i, (u, v) in enumerate(self.edges):
            if u not in known or v not in known:
                yield f"edge {u}-{v} uses an unknown vertex", i
            if u == v:
                yield f"loop edge at {u}", i
        if len(self.edges) != len(self.vertices) - 1:
            yield "not a tree: wrong edge count", None
        order, _ = bfs(self.adjacency, self.vertices[0])
        if len(order) != len(self.vertices):
            yield "not a tree: graph is disconnected", None
        for name, omega in zip(self.vertices, self.weights):
            if omega < 2:
                yield f"weight of {name} must be at least 2", name
            if omega < self.degree(name):
                reason = "fundamental cycle would not be reduced"
                yield f"weight of {name} is below its degree: {reason}", name


def count_contracted_branches(spec: MinimalGraphSpec) -> int:
    """Branches contracted by the synthesized projection: sum of
    (weight - degree) over the graph, plus one.  Each edge counts at both
    its ends, so the degrees sum to twice the edge count."""
    spec.require_valid()
    return sum(spec.weights) - 2 * len(spec.edges) + 1


def synthesize(spec: MinimalGraphSpec) -> tuple[WeightedCluster, FreeOn]:
    """Cluster and boundary point realizing the graph with the extremal
    contracted-branch count; analyzer-verified before returning.

    The skeleton's parents, proximities and tags are laid out in one pass
    over the tree in breadth-first order, a vertex's extra leaves right
    after it, and the skeleton is validated once, as `SkeletonBuilder`
    would validate it."""
    expected = count_contracted_branches(spec)  # validates the spec
    adjacency, weight_of = spec.adjacency, spec._weight_of
    root = next(v for v, omega in zip(spec.vertices, spec.weights) if omega > len(adjacency[v]))

    vertex_rank = {v: i for i, v in enumerate(spec.vertices)}
    order, parent_vertex = bfs(adjacency, root, vertex_rank.__getitem__)

    used = set(spec.vertices)
    # the origin O, the free point u over it, then each vertex's point and
    # its extra free leaves; the root, the first vertex, is the satellite
    # of O and u, and every other vertex is free on its parent's point
    tags = [_fresh("O", used), _fresh("u", used)]
    parents: list = [None, 0]
    rho = [1, 1]
    index: dict = {}
    for v in order:
        p = index[v] = len(parents)
        parents.append(1 if v == root else index[parent_vertex[v]])
        tags.append(v)
        rho.append(0)
        # extra free leaves push the proximate count of v, its children and
        # its leaves, to its weight - 1; its children are its neighbours
        # but its parent's vertex, and all of them for the root
        extras = weight_of[v] - len(adjacency[v]) - (v == root)
        if extras:
            parents += [p] * extras
            tags += [_fresh(f"{v}_e{i}", used) for i in range(extras)]
            rho += [1] * extras
    # a free point is proximate to its parent alone
    proximities = list(map(frozenset, zip(parents)))
    proximities[0] = frozenset()
    proximities[index[root]] = frozenset((0, 1))
    skeleton = ClusterSkeleton(tuple(parents), tuple(proximities), tuple(tags)).require_valid()

    cluster = multiplicities_from_excesses(skeleton, rho)
    boundary = FreeOn(index[root])

    report = analyze(cluster, boundary)
    _certify(spec, cluster, report, index, expected)
    return cluster, boundary


def _fresh(name: str, used: set) -> str:
    candidate = name
    while candidate in used:
        candidate += "_"
    used.add(candidate)
    return candidate


def _certify(spec, cluster, report, index, expected):
    """Raise InternalCheckError unless the report shows the extremal minimal
    singularity of `spec`: T_Q is `index`'s points and, by tag, `spec` its graph."""
    if report.smooth:  # a smooth report has none of the invariants read below
        raise InternalCheckError("synthesis self-check failed: synthesized point is smooth")
    checks = [
        (set(report.T_Q) == set(index.values()), "contracted set is not the graph"),
        (report.minimal is True, "synthesized singularity is not minimal"),
        (len(report.Kplus_Q) == report.mult + 1, "component count is not mult + 1"),
        (len(report.Kplus_Q) == report.emdim, "component count is not the embedding dimension"),
        (report.embed_equality == (True, True, True), "equality conditions not all met"),
        (expected == report.mult + 1, "branch-count formula disagrees with the report"),
    ]
    for ok, message in checks:
        if not ok:
            raise InternalCheckError(f"synthesis self-check failed: {message}")
    got = report.resolution_graph
    tags = cluster.skeleton.tags
    got_weights = dict(zip(map(tags.__getitem__, got.vertices), got.weights))
    # an edge is compared as the names of its ends, in sorted order
    named = [(tags[u], tags[v]) for u, v in got.edges]
    got_edges = {(a, b) if a < b else (b, a) for a, b in named}
    want_edges = {(a, b) if a < b else (b, a) for a, b in spec.edges}
    if got_weights != spec._weight_of or got_edges != want_edges:
        raise InternalCheckError(
            "synthesis self-check failed: resolution graph is not the input graph"
        )


# -- Weighted tree isomorphism ----------------------------------------------------


def weighted_trees_isomorphic(
    vertices_a, edges_a, weights_a, vertices_b, edges_b, weights_b
) -> bool:
    """Isomorphism of vertex-weighted trees via canonical centre rooting: the
    reference route beside `_certify`'s check by name, kept in this module
    because perfbench calls it as its oracle and the tests as a reference."""
    if len(vertices_a) != len(vertices_b) or len(edges_a) != len(edges_b):
        return False
    if sorted(weights_a.values()) != sorted(weights_b.values()):
        return False
    codes_a = _centre_codes(vertices_a, edges_a, weights_a)
    return bool(codes_a & _centre_codes(vertices_b, edges_b, weights_b))


def _centre_codes(vertices, edges, weights) -> set:
    """Canonical codes of the tree rooted at each of its one or two centres
    (the middle of a longest path); empty when the graph is not a tree."""
    if not vertices or len(edges) != len(vertices) - 1:
        return set()
    neighbours = adjacency(vertices, edges)
    order, _ = bfs(neighbours, vertices[0])
    if len(order) != len(vertices):
        return set()
    order, parent = bfs(neighbours, order[-1])
    path = [order[-1]]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    centres = path[(len(path) - 1) // 2 : len(path) // 2 + 1]
    return {_rooted_code(neighbours, c, weights) for c in centres}


def _rooted_code(neighbours, root, weights) -> str:
    """`weight(child codes, sorted)` for the tree rooted at `root`, built
    leaves first over the reversed breadth-first order (no recursion)."""
    order, parent = bfs(neighbours, root)
    codes: dict = {}
    for v in reversed(order):
        subcodes = sorted(codes.pop(c) for c in neighbours[v] if c != parent[v])
        codes[v] = f"{weights[v]}({''.join(subcodes)})"
    return codes[root]


# -- Graph file format -------------------------------------------------------------


def parse_graph_spec(text: str) -> MinimalGraphSpec:
    """Parse the edge-list format: `weight NAME=n` lines declare vertices,
    `A B` lines declare edges, `#` starts a comment.  Weights and vertex
    names follow the DSL's rules: `synthesize` makes each vertex a point.
    An error is reported on the line of the edge or weight at fault."""
    vertices: list[str] = []
    weights: dict = {}
    edges: list[tuple[str, str]] = []
    line_of: dict = {}  # vertex name or edge index -> line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split(None, 1)
        if words[0] == "weight":
            rest = words[1] if len(words) == 2 else ""
            if "=" not in rest:
                raise ParseError("expected `weight NAME=n`", lineno, 1)
            name, _, value = rest.partition("=")
            name = name.strip()
            value = value.strip()
            _check_names(lineno, name)
            if not INTEGER.fullmatch(value):
                raise ParseError(f"weight of {name!r} is not an integer", lineno, 1)
            try:
                omega = int(value)
            except ValueError:  # longer than the interpreter's integer-string limit
                raise ParseError(f"weight of {name!r} has too many digits", lineno, 1) from None
            if name in weights:
                raise ParseError(f"weight of {name!r} declared twice", lineno, 1)
            vertices.append(name)
            weights[name] = omega
            line_of[name] = lineno
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected an edge line `A B`", lineno, 1)
            _check_names(lineno, *parts)
            line_of[len(edges)] = lineno
            edges.append((parts[0], parts[1]))
    spec = MinimalGraphSpec(
        tuple(vertices), tuple(edges), tuple(weights[v] for v in vertices)
    )
    if spec._verdict is not None:  # a fault of the whole graph: the last line
        message, culprit = spec._verdict
        raise ParseError(message, line_of.get(culprit, len(text.splitlines()) or 1), 1)
    return spec


def _check_names(lineno: int, *names: str) -> None:
    for name in names:
        if not is_name(name):
            rule = "a letter or _, then letters, digits or _"
            raise ParseError(f"vertex name {name!r} is not a cluster DSL name ({rule})", lineno, 1)


def serialize_graph_spec(spec: MinimalGraphSpec) -> str:
    """Inverse of `parse_graph_spec`.  An edge line starting `weight` would read
    as a declaration, so an edge from a vertex named `weight` is written reversed."""
    lines = [f"weight {v}={w}" for v, w in zip(spec.vertices, spec.weights)]
    lines += [f"{v} {u}" if u == "weight" else f"{u} {v}" for u, v in spec.edges]
    return "\n".join(lines) + "\n"
