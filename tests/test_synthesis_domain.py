"""The synthesis domain: every minimal tree of at most 6 vertices.

Every tree of at most 6 vertices up to isomorphism (1, 1, 1, 2, 3 and 6 of
them), found by decoding every Prüfer code, each vertex weighted
max(2, degree) plus 0, 1 or 2: 5,304 specs.

Core claims:
    - the trees are pairwise non-isomorphic and as many as
      `networkx.nonisomorphic_trees` lists, an independent route
    - every spec synthesizes, so its certificate passes, and
      `enumerate_singularities` on the result finds exactly one singular
      point, whose T_Q is the points of the graph's vertices
    - `parse_graph_spec(serialize_graph_spec(spec)) == spec`
    - the spec listed in reversed vertex order gives the same report up to
      tags: the same resolution graph and fundamental cycle by tag, and the
      same invariants and equality flags
    - the SHA-256 of (skeleton, nu, w) over the domain is pinned: a rewrite
      of the synthesizer must not alter what it builds

`benchmarks/exhaustive_domain.py --trees N` runs the domain to N vertices
on these generators.
"""

import hashlib
import itertools

import networkx as nx

from sandwiched import enumerate_singularities, synthesize
from sandwiched.synthesis import MinimalGraphSpec, parse_graph_spec, serialize_graph_spec

MAX_VERTICES = 6
# the digest of `_tree_specs(6)`, as `_spec_digest` reads it
DIGEST_6 = "0a946b4130abaa184371d19c7a8c447e397f6f095b01c2847407b614b3abc478"


def _prufer_tree(code: tuple, n: int) -> list:
    """The edges (u, v), u < v, of the labelled tree on 0, ..., n - 1 with
    Prüfer code `code`."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = degree.index(1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, v = (x for x in range(n) if degree[x] == 1)
    edges.append((u, v))
    return edges


def _shape(n: int, edges: list) -> str:
    """A canonical code of the unlabelled tree: the least of its codes
    rooted at a centre, each vertex `(` its children's codes, sorted, `)`."""
    neighbours = [[] for _ in range(n)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    leaves = [v for v in range(n) if len(neighbours[v]) <= 1]
    degree = [len(row) for row in neighbours]
    left = n
    while left > 2:  # peel the leaves until the one or two centres remain
        left -= len(leaves)
        peeled = []
        for leaf in leaves:
            for v in neighbours[leaf]:
                degree[v] -= 1
                if degree[v] == 1:
                    peeled.append(v)
        leaves = peeled

    def code(v, parent):
        return "(" + "".join(sorted(code(c, v) for c in neighbours[v] if c != parent)) + ")"

    return min(code(c, None) for c in leaves)


def _trees(n: int) -> list:
    """One edge list per unlabelled tree of n vertices, the tree of the
    first Prüfer code of each shape, codes in lexicographic order."""
    if n == 1:
        return [[]]
    shapes = {}
    for code in itertools.product(range(n), repeat=n - 2):
        edges = _prufer_tree(code, n)
        shapes.setdefault(_shape(n, edges), sorted(edges))
    return list(shapes.values())


def _tree_specs(max_vertices: int):
    """Every spec of the domain, by size, then tree, then weights: vertices
    v0, v1, ..., each weighted max(2, degree) plus 0, 1 or 2."""
    for n in range(1, max_vertices + 1):
        names = tuple(f"v{i}" for i in range(n))
        for tree in _trees(n):
            degree = [0] * n
            for u, v in tree:
                degree[u] += 1
                degree[v] += 1
            edges = tuple((names[u], names[v]) for u, v in tree)
            for extra in itertools.product(range(3), repeat=n):
                weights = tuple(max(2, d) + e for d, e in zip(degree, extra))
                yield MinimalGraphSpec(names, edges, weights)


def _spec_digest(digest, cluster, w) -> None:
    """Feed (skeleton, nu, w) of a synthesized spec to `digest`."""
    sk = cluster.skeleton
    proximities = tuple(tuple(sorted(targets)) for targets in sk.proximities)
    digest.update(repr((sk.parents, proximities, sk.tags, cluster.nu, w)).encode())


def _up_to_tags(cluster, report) -> tuple:
    """The report with its graph and cycle named by tag, and its invariants."""
    tags = cluster.skeleton.tags
    graph = report.resolution_graph
    return (
        {tags[p]: (weight, report.z[p]) for p, weight in zip(graph.vertices, graph.weights)},
        {frozenset((tags[u], tags[v])) for u, v in graph.edges},
        (report.mult, report.emdim, report.br, report.minimal, len(report.Kplus_Q)),
        (report.branches_equality, report.embed_equality),
    )


def _reversed(spec: MinimalGraphSpec) -> MinimalGraphSpec:
    return MinimalGraphSpec(spec.vertices[::-1], spec.edges[::-1], spec.weights[::-1])


def test_the_trees_are_every_unlabelled_tree_once():
    for n in range(1, MAX_VERTICES + 1):
        graphs = [nx.Graph(tree) if tree else nx.empty_graph(1) for tree in _trees(n)]
        expected = sum(1 for _ in nx.nonisomorphic_trees(n)) if n > 1 else 1
        assert len(graphs) == expected == (1, 1, 1, 2, 3, 6)[n - 1]
        for a, b in itertools.combinations(graphs, 2):
            assert not nx.is_isomorphic(a, b)


def test_every_small_minimal_tree_synthesizes_one_singular_point():
    digest = hashlib.sha256()
    specs = 0
    for spec in _tree_specs(MAX_VERTICES):
        specs += 1
        cluster, w = synthesize(spec)  # certifies, or raises
        _spec_digest(digest, cluster, w)
        (report,) = enumerate_singularities(cluster)
        sk = cluster.skeleton
        assert report.T_Q == tuple(sorted(sk.index_of(v) for v in spec.vertices))
        assert parse_graph_spec(serialize_graph_spec(spec)) == spec
        other, _ = synthesize(_reversed(spec))
        assert _up_to_tags(other, enumerate_singularities(other)[0]) == _up_to_tags(cluster, report)
    assert specs == 5_304
    assert digest.hexdigest() == DIGEST_6
