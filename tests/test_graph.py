"""The shared graph helper: one adjacency builder and one breadth-first search.

Core claims:
    - `adjacency` gives sorted neighbour tuples; `bfs` gives the
      breadth-first order and parent map, visiting neighbours by `key`
    - `DualGraph.chain` is the path `networkx.shortest_path` finds
    - the zero-excess components are the connected components of the
      zero-excess subgraph
    - `weighted_trees_isomorphic` agrees with `networkx.is_isomorphic` under a
      weight-matching node matcher on seeded tree pairs
    - a `MinimalGraphSpec` is a `DualGraph`: it has chains, induced
      subgraphs, weights and degrees
"""

import random

import networkx as nx

from sandwiched import DualGraph, dual_graph, excesses
from sandwiched.analyzer import zero_excess_components
from sandwiched.cluster import adjacency, bfs
from sandwiched.oracle import GeneratorConfig, _random_cluster, random_skeleton
from sandwiched.synthesis import MinimalGraphSpec, weighted_trees_isomorphic


def to_networkx(graph: DualGraph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(graph.edges)
    return g


def test_adjacency_and_bfs_on_a_star():
    neighbours = adjacency("abcd", [("c", "a"), ("a", "b"), ("d", "a")])
    assert neighbours == {"a": ("b", "c", "d"), "b": ("a",), "c": ("a",), "d": ("a",)}
    order, parent = bfs(neighbours, "b")
    assert order == ["b", "a", "c", "d"]
    assert parent == {"b": None, "a": "b", "c": "a", "d": "a"}
    order, _ = bfs(neighbours, "a", key=lambda v: -ord(v))
    assert order == ["a", "d", "c", "b"]


def test_chain_matches_networkx_shortest_path():
    rng = random.Random(71)
    for _ in range(200):
        graph = dual_graph(random_skeleton(rng, 12, 0.5))
        g = to_networkx(graph)
        for _ in range(5):
            a, b = rng.choice(graph.vertices), rng.choice(graph.vertices)
            assert graph.chain(a, b) == tuple(nx.shortest_path(g, a, b))


def test_zero_excess_components_match_networkx():
    rng = random.Random(72)
    config = GeneratorConfig(max_points=12, max_multiplicity=4, satellite_probability=0.4)
    seen = 0
    for _ in range(300):
        cluster = _random_cluster(rng, config)
        rho = excesses(cluster)
        g = to_networkx(dual_graph(cluster.skeleton))
        zero = g.subgraph(p for p, r in enumerate(rho) if r == 0)
        expected = sorted(tuple(sorted(c)) for c in nx.connected_components(zero))
        assert zero_excess_components(cluster) == expected
        seen += len(expected) > 1
    assert seen  # several components in one cluster are exercised


def random_weighted_tree(rng: random.Random, n: int):
    names = [f"v{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    weights = {name: rng.choice((2, 3)) for name in names}
    return names, edges, weights


def relabeled(rng: random.Random, names, edges, weights):
    new = dict(zip(names, rng.sample([f"u{i}" for i in range(len(names))], len(names))))
    moved = [(new[v], new[u]) if rng.random() < 0.5 else (new[u], new[v]) for u, v in edges]
    rng.shuffle(moved)
    return (
        sorted(new.values()),
        moved,
        {new[name]: weight for name, weight in weights.items()},
    )


def test_weighted_tree_isomorphism_matches_networkx():
    rng = random.Random(73)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        a = random_weighted_tree(rng, rng.randint(1, 9))
        if rng.random() < 0.5:
            b = relabeled(rng, *a)
            if rng.random() < 0.3:
                changed = rng.choice(b[0])
                b[2][changed] = 5 - b[2][changed]
        else:
            b = random_weighted_tree(rng, len(a[0]))
        graphs = []
        for names, edges, weights in (a, b):
            g = nx.Graph(edges)
            g.add_nodes_from(names)
            nx.set_node_attributes(g, weights, "w")
            graphs.append(g)
        expected = nx.is_isomorphic(*graphs, node_match=lambda x, y: x["w"] == y["w"])
        assert weighted_trees_isomorphic(*a, *b) == expected
        outcomes[expected] += 1
    assert min(outcomes.values()) > 100


def test_minimal_graph_spec_is_a_dual_graph():
    spec = MinimalGraphSpec(
        ("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("b", "d")), (2, 3, 2, 4)
    ).require_valid()
    assert isinstance(spec, DualGraph)
    assert spec.adjacency["b"] == ("a", "c", "d")
    assert (spec.weight("b"), spec.degree("b"), spec.degree("d")) == (3, 3, 1)
    assert spec.chain("a", "d") == ("a", "b", "d")
    sub = spec.induced(("b", "c", "d"))
    assert (sub.vertices, sub.edges, sub.weights) == (("b", "c", "d"), (("b", "c"), ("b", "d")), (3, 2, 4))
