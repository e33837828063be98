"""Building minimal singularities from resolution graphs.

Core claims:
    - the single-vertex weight-2 graph gives the known four-point cluster
      whose singularity has multiplicity 2 and three components through it
    - the contracted-branch count is (weight - degree summed) + 1
    - synthesized clusters self-certify: the analyzer reproduces the graph
      with weights, attains component count = embedding dimension, and
      reports a minimal singularity
    - the self-check compares the resolution graph with the input by name,
      so it rejects an isomorphic relabelling of the input, and it rejects
      a smooth report with InternalCheckError
    - graph specs reject non-trees, low weights, and weight < degree; a
      graph file's error names the line at fault, a vertex weighted twice
      or a disconnected graph among them
    - `synthesize` validates its spec once
    - the edge-list file format round-trips; a weight is ASCII digits, a
      vertex name is a DSL name, and only a first word `weight` declares one
    - a synthesized cluster is a fixed point of DSL serialize -> parse
    - tree isomorphism and synthesis handle paths far deeper than the
      interpreter's recursion limit
"""

import random

import pytest

from sandwiched import (
    ClusterError,
    InternalCheckError,
    ParseError,
    SingularityReport,
    analyze,
    count_contracted_branches,
    synthesize,
)
from sandwiched import dsl
from sandwiched.oracle import random_minimal_graph_spec
from sandwiched.synthesis import (
    MinimalGraphSpec,
    _certify,
    parse_graph_spec,
    serialize_graph_spec,
    weighted_trees_isomorphic,
)


def test_single_vertex_weight_two():
    spec = MinimalGraphSpec(("a",), (), (2,))
    cluster, w = synthesize(spec)
    assert cluster.by_tag() == {"O": 4, "u": 2, "a": 1, "a_e0": 1}
    report = analyze(cluster, w)
    assert report.mult == 2
    assert report.emdim == 3
    assert len(report.Kplus_Q) == 3
    assert report.minimal
    assert report.B_Q == (cluster.skeleton.index_of("a_e0"),)
    assert report.embed_equality == (True, True, True)
    # every component through the point loses one unit of excess
    from sandwiched import WeightedCluster, excesses
    from sandwiched.oracle import nu_prime, verify_difexcess

    assert verify_difexcess(cluster, report)
    rho = excesses(cluster)
    prime = excesses(WeightedCluster(cluster.skeleton, nu_prime(cluster, report)))
    for p in report.Kplus_Q:
        assert prime[p] == rho[p] - 1


def test_branch_counts():
    assert count_contracted_branches(MinimalGraphSpec(("a",), (), (2,))) == 3
    star = MinimalGraphSpec(
        ("c", "l1", "l2", "l3"),
        (("c", "l1"), ("c", "l2"), ("c", "l3")),
        (4, 2, 2, 2),
    )
    assert count_contracted_branches(star) == 5
    path = MinimalGraphSpec(("a", "b"), (("a", "b"),), (2, 2))
    assert count_contracted_branches(path) == 3


def test_path_of_two_attains_bound():
    cluster, w = synthesize(MinimalGraphSpec(("a", "b"), (("a", "b"),), (2, 2)))
    report = analyze(cluster, w)
    assert len(report.Kplus_Q) == report.mult + 1 == 3


def test_spec_validation():
    with pytest.raises(ClusterError):
        MinimalGraphSpec(("a",), (), (1,)).require_valid()
    with pytest.raises(ClusterError):
        MinimalGraphSpec(("a", "b"), (), (2, 2)).require_valid()  # disconnected
    # weight equal to degree is allowed
    MinimalGraphSpec(("a", "b", "c"), (("a", "b"), ("a", "c")), (2, 2, 2)).require_valid()
    with pytest.raises(ClusterError):
        MinimalGraphSpec(
            ("a", "b", "c", "d"),
            (("a", "b"), ("a", "c"), ("a", "d")),
            (2, 2, 2, 2),
        ).require_valid()  # center has degree 3 above its weight
    with pytest.raises(ClusterError):
        MinimalGraphSpec(("a", "b"), (("a", "b"), ("b", "a")), (2, 2)).require_valid()


def test_graph_file_round_trip():
    spec = MinimalGraphSpec(
        ("c", "l1", "l2"), (("c", "l1"), ("c", "l2")), (3, 2, 4)
    )
    text = serialize_graph_spec(spec)
    assert parse_graph_spec(text) == spec


def test_graph_file_round_trip_with_a_vertex_named_weight():
    spec = MinimalGraphSpec(("weight", "b"), (("weight", "b"),), (2, 2))
    back = parse_graph_spec(serialize_graph_spec(spec))
    assert back.vertices == spec.vertices
    assert back.weights == spec.weights
    assert set(map(frozenset, back.edges)) == set(map(frozenset, spec.edges))


def test_graph_file_errors_carry_position():
    with pytest.raises(ClusterError) as err:
        parse_graph_spec("weight a\n")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("weight a=2\na b\nweight c=2\n\n# end\n", 2, "edge a-b uses an unknown vertex"),
        ("weight a=2\nweight b=2\n\na a\n", 4, "loop edge at a"),
        ("weight a=1\nweight b=2\na b\n", 1, "weight of a must be at least 2"),
        ("weight c=2\nweight a=2\nweight b=2\nweight d=2\nc a\nc b\nc d\n", 1,
         "weight of c is below its degree"),
        ("weight a=2\nweight b=2\n# no edge\n", 3, "not a tree: wrong edge count"),
        ("weight a=2\nweight a=3\n", 2, "weight of 'a' declared twice"),
        ("weight a=2\nweight b=2\nweight c=2\nweight d=2\na b\nb a\nc d\n", 7,
         "not a tree: graph is disconnected"),
    ],
    ids=["unknown-vertex", "loop", "low-weight", "below-degree", "not-a-tree", "weight-twice",
         "disconnected"],
)
def test_graph_errors_name_the_line_at_fault(text, line, message):
    with pytest.raises(ParseError, match=f"^line {line}, column 1: {message}"):
        parse_graph_spec(text)


@pytest.mark.parametrize("digits", ["٣", "1_0"])  # int() reads them as 3 and 10
def test_graph_weights_take_ascii_digits_only(digits):
    with pytest.raises(ParseError, match="not an integer"):
        parse_graph_spec(f"weight a={digits}\n")


@pytest.mark.parametrize(
    "text, line, name",
    [
        ("weight v-1=2\n", 1, "v-1"),
        ("weight a=2\nweight b=2\n# edge\na 2b\n", 4, "2b"),
        ('weight a"b=2\n', 1, 'a"b'),
    ],
    ids=["hyphen", "leading-digit", "quote"],
)
def test_graph_vertex_names_are_dsl_names(text, line, name):
    with pytest.raises(ParseError, match=f"line {line}, column 1: vertex name {name!r}"):
        parse_graph_spec(text)


def test_synthesized_clusters_reparse():
    # vertex names drawn among DSL names, some taken by the helper points
    names = ["O", "u", "O_", "a_e0", "ß", "d٣", "_x", "cluster", "weights", "v"]
    rng = random.Random(41)
    for _ in range(120):
        spec = random_minimal_graph_spec(rng, max_vertices=len(names), max_weight=5)
        rename = dict(zip(spec.vertices, rng.sample(names, len(spec.vertices))))
        renamed = MinimalGraphSpec(
            tuple(rename[v] for v in spec.vertices),
            tuple((rename[u], rename[v]) for u, v in spec.edges),
            spec.weights,
        )
        cluster, _ = synthesize(parse_graph_spec(serialize_graph_spec(renamed)))
        assert dsl.parse(dsl.serialize("synthesized", cluster)) == {"synthesized": cluster}


def test_only_a_whole_first_word_declares_a_weight():
    spec = parse_graph_spec("weight weights=2\nweight a=2\nweights a\n")
    assert spec.edges == (("weights", "a"),)


def test_certify_rejects_an_isomorphic_relabelling():
    spec = MinimalGraphSpec(("a", "b", "c"), (("a", "b"), ("b", "c")), (2, 2, 3))
    cluster, w = synthesize(spec)
    report = analyze(cluster, w)
    index = {v: cluster.skeleton.index_of(v) for v in spec.vertices}
    _certify(spec, cluster, report, index, count_contracted_branches(spec))
    swapped = MinimalGraphSpec(("c", "b", "a"), (("c", "b"), ("b", "a")), (2, 2, 3))
    assert weighted_trees_isomorphic(
        spec.vertices, spec.edges, dict(zip(spec.vertices, spec.weights)),
        swapped.vertices, swapped.edges, dict(zip(swapped.vertices, swapped.weights)),
    )
    with pytest.raises(InternalCheckError, match="resolution graph is not the input graph"):
        _certify(swapped, cluster, report, index, count_contracted_branches(swapped))


def test_certify_rejects_a_smooth_report():
    spec = MinimalGraphSpec(("a",), (), (2,))
    cluster, w = synthesize(spec)
    index = {"a": cluster.skeleton.index_of("a")}
    with pytest.raises(InternalCheckError, match="synthesized point is smooth"):
        _certify(spec, cluster, SingularityReport(w=w, smooth=True), index, 3)


def test_tree_isomorphism_helper():
    a = (("x", "y", "z"), (("x", "y"), ("y", "z")), {"x": 2, "y": 3, "z": 2})
    b = (("p", "q", "r"), (("r", "q"), ("q", "p")), {"p": 2, "q": 3, "r": 2})
    c = (("p", "q", "r"), (("r", "q"), ("q", "p")), {"p": 3, "q": 2, "r": 2})
    assert weighted_trees_isomorphic(*a, *b)
    assert not weighted_trees_isomorphic(*a, *c)


def test_tree_isomorphism_on_a_long_path():
    n = 5000
    names = [f"v{i}" for i in range(n)]
    edges = tuple(zip(names, names[1:]))
    weights = dict.fromkeys(names, 2)
    weights["v0"] = 3
    flipped = tuple((v, u) for u, v in reversed(edges))
    assert weighted_trees_isomorphic(names, edges, weights, names[::-1], flipped, weights)
    moved = dict.fromkeys(names, 2)
    moved["v1"] = 3
    assert not weighted_trees_isomorphic(names, edges, weights, names, edges, moved)


def test_random_specs_round_trip():
    rng = random.Random(55)
    for _ in range(60):
        spec = random_minimal_graph_spec(rng, 7, 6)
        cluster, w = synthesize(spec)  # self-certifies via the analyzer
        report = analyze(cluster, w)
        assert len(report.Kplus_Q) == report.mult + 1
        got = report.resolution_graph
        tags = cluster.skeleton.tags
        weights = {tags[v]: got.weight(v) for v in got.vertices}
        edges = tuple((tags[u], tags[v]) for u, v in got.edges)
        assert weighted_trees_isomorphic(
            tuple(weights), edges, weights,
            spec.vertices, spec.edges, dict(zip(spec.vertices, spec.weights)),
        )


def test_synthesize_validates_the_spec_once(monkeypatch):
    rng = random.Random(56)
    specs = [random_minimal_graph_spec(rng, 7, 6) for _ in range(10)]
    calls = []
    real = MinimalGraphSpec.require_valid

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(MinimalGraphSpec, "require_valid", counting)
    for spec in specs:
        synthesize(spec)
    assert calls == specs


def test_parse_and_synthesize_check_the_spec_once(monkeypatch):
    # the verdict is kept on the spec: `parse_graph_spec` checks it, and
    # `synthesize` validates it again without checking the conditions again
    calls = []
    real = MinimalGraphSpec._problems

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(MinimalGraphSpec, "_problems", counting)
    spec = parse_graph_spec("weight a=3\nweight b=2\nweight c=2\na b\na c\n")
    synthesize(spec)
    assert calls == [spec]
