"""Property tests for the two text formats: the cluster DSL and the graph file.

Core claims:
    - on arbitrary text, `dsl.parse` and `synthesis.parse_graph_spec` raise
      only ParseError or ClusterError
    - text that parses is a fixed point of serialize -> parse -> serialize,
      byte for byte, in both formats
    - a well-formed graph document parses, also when a vertex name begins
      with `weight`, and both formats read a weight by one integer rule and
      a name by one name rule

Documents are drawn well-formed and then edited by a few random insertions
and deletions, so that both the accepting and the rejecting paths are hit.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sandwiched import ClusterError, ParseError
from sandwiched.dsl import parse, serialize
from sandwiched.synthesis import parse_graph_spec, serialize_graph_spec

# integer tokens that `str.isdigit` accepts but `int` rejects, or that exceed
# the interpreter's integer-string limit
DSL_CRASHERS = (
    "cluster d1 { O }\nweights d1 { O=² }\n",
    "cluster d1 { O }\nweights d1 { O=" + "1" * 5000 + " }\n",
)
GRAPH_CRASHERS = ("weight a=²\n", "weight a=" + "1" * 5000 + "\n")
# weight spellings that `int` reads (as 3 and 10) but the DSL rejects
GRAPH_NON_ASCII_WEIGHTS = ("٣", "1_0")
# an edge whose first endpoint is named like a declaration
GRAPH_EDGE_FROM_WEIGHTS = "weight weights=2\nweight a=2\nweights a\n"

NAMES = st.sampled_from(
    ["O", "p1", "q", "_x", "w2", "cluster", "weights", "weight", "ß", "d٣"]
)
# a line whose first word is `weight` declares a vertex, so no vertex can be
# named `weight`
GRAPH_NAMES = st.sampled_from(["O", "p1", "q", "_x", "a_b", "cluster", "weights", "ß", "d٣"])
# vertex names that are not DSL names, which a synthesized cluster could not
# carry as tags
GRAPH_NON_DSL_NAMES = ("v-1", "2b", 'a"b')
SEPARATORS = st.sampled_from([" ", "  ", "\n", " # note\n", "\t"])


def edited(documents):
    """`documents`, each edited by up to three random insertions or deletions."""

    @st.composite
    def build(draw):
        text = draw(documents)
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(text)))
            if draw(st.booleans()):
                text = text[:at] + draw(st.text(max_size=3)) + text[at:]
            else:
                text = text[:at] + text[at + draw(st.integers(1, 3)) :]
        return text

    return build()


@st.composite
def dsl_documents(draw):
    """Cluster and weights blocks; structure is arbitrary, syntax is valid."""
    blocks = []
    for name in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)):
        tags = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
        parts = [tags[0]]
        for i in range(1, len(tags)):
            targets = draw(
                st.lists(st.sampled_from(tags[:i]), min_size=1, max_size=2, unique=True)
            )
            parts.append(f"{tags[i]} -> " + ", ".join(targets))
        sep = draw(SEPARATORS)
        blocks.append(f"cluster {name} {{{sep}" + f"{sep};{sep}".join(parts) + f"{sep}}}")
        if draw(st.booleans()):
            weights = draw(st.dictionaries(st.sampled_from(tags), st.integers(-10**6, 10**6)))
            entries = " ".join(f"{tag}={m}" for tag, m in weights.items())
            blocks.append(f"weights {name} {{ {entries} }}")
    return draw(SEPARATORS).join(blocks)


@st.composite
def graph_documents(draw, min_weight=2):
    """Weight lines and the edges of a random tree, in shuffled order; with
    `min_weight` 6 every weight is at least every degree, so it is valid."""
    names = draw(st.lists(GRAPH_NAMES, min_size=1, max_size=6, unique=True))
    lines = [f"weight {v}={draw(st.integers(min_weight, 6))}" for v in names]
    for i in range(1, len(names)):
        u, v = names[draw(st.integers(0, i - 1))], names[i]
        lines.append(f"{u} {v}" if draw(st.booleans()) else f"{v} {u}")
    return "\n".join(draw(st.permutations(lines)))


def parsed_or_none(parser, text):
    """`parser(text)`, or None when it rejects the text as bad input."""
    try:
        return parser(text)
    except (ParseError, ClusterError):
        return None


def serialize_all(clusters) -> str:
    return "".join(serialize(name, cluster) for name, cluster in clusters.items())


PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@PROPERTY
@given(st.one_of(st.text(), edited(dsl_documents())))
@example(DSL_CRASHERS[0])
@example(DSL_CRASHERS[1])
def test_dsl_parse_raises_only_input_errors(text):
    parsed_or_none(parse, text)


@PROPERTY
@given(st.one_of(st.text(), edited(graph_documents())))
@example(GRAPH_CRASHERS[0])
@example(GRAPH_CRASHERS[1])
def test_graph_parse_raises_only_input_errors(text):
    parsed_or_none(parse_graph_spec, text)


@PROPERTY
@given(edited(dsl_documents()))
@example(DSL_CRASHERS[0])
@example(DSL_CRASHERS[1])
def test_parsed_dsl_is_a_serialization_fixed_point(text):
    clusters = parsed_or_none(parse, text)
    if clusters is not None:
        first = serialize_all(clusters)
        assert parse(first) == clusters
        assert serialize_all(parse(first)) == first


@PROPERTY
@given(edited(graph_documents()))
@example(GRAPH_CRASHERS[0])
@example(GRAPH_CRASHERS[1])
def test_parsed_graph_is_a_serialization_fixed_point(text):
    spec = parsed_or_none(parse_graph_spec, text)
    if spec is not None:
        first = serialize_graph_spec(spec)
        assert parse_graph_spec(first) == spec
        assert serialize_graph_spec(parse_graph_spec(first)) == first


@PROPERTY
@given(graph_documents(min_weight=6))
@example(GRAPH_EDGE_FROM_WEIGHTS)
def test_valid_graph_documents_parse(text):
    assert parse_graph_spec(text).require_valid()


@PROPERTY
@given(st.text(alphabet="0123456789-+_ ²٣", max_size=6))
@example(GRAPH_NON_ASCII_WEIGHTS[0])
@example(GRAPH_NON_ASCII_WEIGHTS[1])
def test_graph_weights_read_like_dsl_weights(token):
    # one integer rule in both formats; a graph weight must also be >= 2
    graph = parsed_or_none(parse_graph_spec, f"weight a={token}\n")
    dsl = parsed_or_none(parse, f"cluster d {{ a }}\nweights d {{ a={token} }}\n")
    if dsl is None or dsl["d"].nu[0] < 2:
        assert graph is None
    else:
        assert graph.weights == dsl["d"].nu


@PROPERTY
@given(st.text(alphabet='ab_1²٣ß-" ', max_size=4))
@example(GRAPH_NON_DSL_NAMES[0])
@example(GRAPH_NON_DSL_NAMES[1])
@example(GRAPH_NON_DSL_NAMES[2])
def test_graph_names_read_like_dsl_names(token):
    # one name rule in both formats: a graph vertex becomes a cluster tag
    graph = parsed_or_none(parse_graph_spec, f"weight {token}=2\n")
    dsl = parsed_or_none(parse, f"cluster d {{ {token} }}\n")
    if dsl is None:
        assert graph is None
    else:
        assert graph.vertices == dsl["d"].skeleton.tags
