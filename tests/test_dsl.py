"""The cluster DSL, DOT export and JSON views.

Core claims:
    - the documented format parses, including comments and multi-line blocks
    - serialize/parse is a bit-exact round trip on arbitrary clusters
    - syntax and semantic errors carry line and column; every reader error
      has a pinned message and position
    - a point may name itself as a target: the parser resolves it and
      validate() reports it
    - DOT output is stable and distinguishes satellite children
    - JSON views carry multiplicities, values, excesses and dicritical points
      in point order
"""

import json
import random

import pytest

from sandwiched import ParseError, Satellite, analyze
from sandwiched.dsl import (
    cluster_json,
    dot_dual,
    dot_enriques,
    parse,
    report_json,
    serialize,
)
from sandwiched.oracle import GeneratorConfig, _random_cluster


def test_parse_single_line():
    text = "cluster d1 { O ; p1 -> O ; q1 -> p1 ; w -> q1, p1 }\nweights d1 { O=1 p1=1 q1=1 }\n"
    cluster = parse(text)["d1"]
    assert cluster.skeleton.tags == ("O", "p1", "q1", "w")
    assert cluster.skeleton.proximities[3] == {1, 2}
    assert cluster.nu == (1, 1, 1, 0)  # omitted points default to 0


def test_parse_multiline_and_comments():
    text = """
    # a three point chain
    cluster c {
      O ;            # the origin
      p1 -> O ;
      q1 -> p1
    }
    weights c { q1=2 }
    """
    cluster = parse(text)["c"]
    assert cluster.nu == (0, 0, 2)


def test_parse_multiple_clusters_ordered():
    text = "cluster a { O }\ncluster b { O ; p1 -> O }\nweights a { O=1 }\n"
    out = parse(text)
    assert list(out) == ["a", "b"]


def test_serializer_round_trips_exactly():
    rng = random.Random(19)
    config = GeneratorConfig(max_points=10, satellite_probability=0.5)
    for _ in range(60):
        cluster = _random_cluster(rng, config)
        text = serialize("k", cluster)
        assert parse(text)["k"] == cluster
        assert serialize("k", parse(text)["k"]) == text


def test_serializer_all_zero_weights_round_trip():
    cluster = parse("cluster k { O ; p1 -> O }")["k"]
    text = serialize("k", cluster)
    assert text == "cluster k { O ; p1 -> O }\nweights k { }\n"
    assert parse(text)["k"] == cluster


def test_serializer_emits_documented_shape(d1):
    assert serialize("d1", d1) == (
        "cluster d1 { O ; p1 -> O ; q1 -> p1 }\n"
        "weights d1 { O=1 p1=1 q1=1 }\n"
    )


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("cluster a { O ; p1 -> zz }")
    assert err.value.line == 1 and err.value.column == 23

    with pytest.raises(ParseError) as err:
        parse("cluster a { O }\nweights a { O=x }")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse("weights a { O=1 }")
    assert "unknown cluster" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse("cluster a { O ; p1 }")
    assert "needs proximity targets" in str(err.value)


def test_parse_rejects_repeated_target():
    with pytest.raises(ParseError) as err:
        parse("cluster a { O ; p1 -> O ; w -> p1, p1 }")
    assert "repeated" in str(err.value)


def test_parse_leaves_structure_to_validate():
    from sandwiched import validate

    cluster = parse("cluster a { O ; p1 -> O ; p2 -> p1 ; w -> p2, O }")["a"]
    assert any(d.rule == "satellite-inheritance" for d in validate(cluster.skeleton))


def test_dot_enriques_marks_satellites():
    text = "cluster s { O ; p1 -> O ; w -> p1, O }"
    skeleton = parse(text)["s"].skeleton
    dot = dot_enriques("s", skeleton)
    assert '"p1" -- "w" [style=dashed];' in dot
    assert '"O" -- "p1";' in dot
    assert dot == dot_enriques("s", skeleton)  # stable


def test_dot_dual_labels_weights(d1):
    dot = dot_dual("d1", d1.skeleton)
    assert '"O" [label="O (2)"];' in dot
    assert '"q1" [label="q1 (1)"];' in dot
    assert '"O" -- "p1";' in dot


def test_cluster_json_fields(d1):
    payload = cluster_json("d1", d1)
    assert payload["schema"] == 1
    assert payload["nu"] == {"O": 1, "p1": 1, "q1": 1}
    assert payload["v"] == {"O": 1, "p1": 2, "q1": 3}
    assert payload["rho"] == {"O": 0, "p1": 0, "q1": 1}
    assert payload["dicritical"] == ["q1"]
    assert list(payload["nu"]) == ["O", "p1", "q1"]  # stable key order
    json.dumps(payload)  # serializable


def test_report_json_singular(d1):
    report = analyze(d1, Satellite(0, 1))
    payload = report_json(d1, report)
    assert payload["smooth"] is False
    assert payload["w"] == {"kind": "satellite", "between": ["O", "p1"]}
    assert payload["T_Q"] == ["O", "p1"]
    assert payload["mult"] == 2 and payload["emdim"] == 3 and payload["br"] == 2
    assert payload["minimal"] is True
    assert payload["fundamental_cycle"] == {"O": 1, "p1": 1}
    assert payload["resolution_graph"]["weights"] == {"O": 2, "p1": 2}
    json.dumps(payload)


def test_report_json_smooth(d1):
    from sandwiched import FreeOn

    payload = report_json(d1, analyze(d1, FreeOn(2)))
    assert payload == {"schema": 1, "w": {"kind": "free", "on": "q1"}, "smooth": True}


# one document per reader error, with its exact message and position
PARSE_ERRORS = [
    ("cluster a { O ; p1 -> O $ }", 1, 25, "unexpected character '$'"),
    ("cluster a { O ;\n  p1 ->", 2, 6, "unexpected end of input"),
    ("cluster a { O }\nweights a { O 1 }", 2, 15, "expected '=', found '1'"),
    ("cluster a { O }\nweight a { O=1 }", 2, 1, "expected 'cluster' or 'weights', found 'weight'"),
    ("cluster a { O }\n# again\ncluster a { O }", 3, 9, "cluster 'a' defined twice"),
    ("weights a { O=1 }", 1, 9, "weights for unknown cluster 'a'"),
    ("cluster a { O }\nweights a { O=1 }\nweights a { O=2 }", 3, 9, "weights for 'a' defined twice"),
    ("cluster a { O ; 5 -> O }", 1, 17, "expected a point name, found '5'"),
    ("cluster a { O }\nweights a { O=1 ; }", 2, 17, "expected a point name, found ';'"),
    ("cluster a { O ; O -> O }", 1, 17, "point 'O' declared twice"),
    ("cluster a { O ; p1 -> zz }", 1, 23, "proximity target 'zz' is not a previously declared point"),
    ("cluster a { O ; p1 -> O ; w -> p1, p1 }", 1, 36, "proximity target 'p1' repeated"),
    ("cluster a { O ; p1 }", 1, 17, "point 'p1' needs proximity targets (only the origin has none)"),
    ("cluster a {\n  O ; p1 -> O q1 -> p1\n}", 2, 15, "expected ';' or '}', found 'q1'"),
    ("cluster a { }", 1, 11, "empty cluster"),
    ("cluster a { O }\nweights a { O=1 q=2 }", 2, 17, "unknown point 'q'"),
    ("cluster a { O ; p1 -> O }\nweights a {\n  O=1 p1=1 O=2 }", 3, 12, "weight of 'O' set twice"),
    ("cluster a { O }\nweights a { O=" + "1" * 5000 + " }", 2, 15, "weight of 'O' has too many digits"),
]


@pytest.mark.parametrize(
    "text, line, column, message",
    PARSE_ERRORS,
    ids=[
        "unexpected-character",
        "end-of-input",
        "expected-symbol",
        "expected-block",
        "cluster-twice",
        "weights-unknown-cluster",
        "weights-twice",
        "cluster-point-name",
        "weights-point-name",
        "point-twice",
        "target-undeclared",
        "target-repeated",
        "needs-targets",
        "expected-separator",
        "empty-cluster",
        "unknown-point",
        "weight-twice",
        "too-many-digits",
    ],
)
def test_parse_error_messages_and_positions(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_leaves_a_self_target_to_validate():
    # a point is declared before its targets are read, so it resolves itself
    from sandwiched import validate

    skeleton = parse("cluster a { O ; p1 -> p1 }")["a"].skeleton
    assert skeleton.parents == (None, 1)
    assert [d.rule for d in validate(skeleton)] == ["admissible-order"]
