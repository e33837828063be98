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
excess-one.  Nothing is trusted: the result self-certifies through the
analyzer before it is returned.  The point of each vertex is tagged with the
vertex's name, so the certificate compares the analyzer's resolution graph
with the input graph name for name, which is stronger than isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .analyzer import FreeOn, analyze
from .cluster import DualGraph, SkeletonBuilder, adjacency, bfs
from .dsl import INTEGER, is_name
from .errors import ClusterError, InternalCheckError, ParseError
from .weighted import WeightedCluster, multiplicities_from_excesses


@dataclass(frozen=True)
class MinimalGraphSpec(DualGraph):
    """Tree with vertex weights: omega(q) >= 2 and omega(q) >= deg(q).

    A `DualGraph` whose vertices are names; `require_valid` checks the
    conditions above.
    """

    def require_valid(self) -> "MinimalGraphSpec":
        for message, _ in self._problems():
            raise ClusterError(message)
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
    (weight - degree) over the graph, plus one."""
    spec.require_valid()
    return sum(spec.weight(v) - spec.degree(v) for v in spec.vertices) + 1


def synthesize(spec: MinimalGraphSpec) -> tuple[WeightedCluster, FreeOn]:
    """Cluster and boundary point realizing the graph with the extremal
    contracted-branch count; analyzer-verified before returning."""
    expected = count_contracted_branches(spec)  # validates the spec
    root = next(v for v in spec.vertices if spec.weight(v) > spec.degree(v))

    vertex_rank = {v: i for i, v in enumerate(spec.vertices)}
    order, parent_vertex = bfs(spec.adjacency, root, vertex_rank.__getitem__)
    children: dict = {v: [] for v in spec.vertices}
    for v in order[1:]:
        children[parent_vertex[v]].append(v)

    builder = SkeletonBuilder()
    used = set(spec.vertices)
    origin = builder.origin(_fresh("O", used))
    helper = builder.free(origin, _fresh("u", used))
    index: dict = {}
    extras: dict = {v: [] for v in spec.vertices}
    for v in order:
        if v == root:
            index[v] = builder.satellite(helper, origin, v)
        else:
            index[v] = builder.free(index[parent_vertex[v]], v)
        for i in range(spec.weight(v) - 1 - len(children[v])):
            extras[v].append(builder.free(index[v], _fresh(f"{v}_e{i}", used)))
    skeleton = builder.build()

    rho = [0] * len(skeleton)
    rho[origin] = 1
    rho[helper] = 1
    for leaves in extras.values():
        for leaf in leaves:
            rho[leaf] = 1
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
    got_weights = {tags[v]: got.weight(v) for v in got.vertices}
    got_edges = {frozenset((tags[u], tags[v])) for u, v in got.edges}
    want_edges = set(map(frozenset, spec.edges))
    if got_weights != dict(zip(spec.vertices, spec.weights)) or got_edges != want_edges:
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
    for message, culprit in spec._problems():  # a fault of the whole graph: the last line
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
