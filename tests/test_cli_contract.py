"""The CLI's exit contract on generated and edited input.

Core claim:
    - whatever the cluster file and the `--at`, `--alpha`, view and format
      arguments, `cli.main` returns an exit code in 0 to 3 and writes at most
      one line to stderr, never a traceback; this holds for generator
      clusters with one hostile weight (zero, negative, 10^6, 2^70) and for
      well-formed documents edited into malformed ones
"""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandwiched import WeightedCluster
from sandwiched.cli import main
from sandwiched.dsl import serialize
from sandwiched.oracle import GeneratorConfig, _random_cluster

from test_parser_properties import dsl_documents, edited

HOSTILE_WEIGHTS = (0, -1, -7, 10**6, 2**70)
COMMANDS = ("validate", "unload", "analyze", "singularities", "cartier", "export")
FORMATS = {
    "unload": ("dsl", "json"),
    "analyze": ("json", "dot"),
    "singularities": ("json", "dot"),
    "export": ("dot", "dsl", "json"),
}


@st.composite
def generator_documents(draw):
    """A seeded generator cluster of at most 10 points, one weight replaced."""
    cluster = _random_cluster(random.Random(draw(st.integers(0, 2**32))), GeneratorConfig())
    nu = list(cluster.nu)
    nu[draw(st.integers(0, len(nu) - 1))] = draw(st.sampled_from(HOSTILE_WEIGHTS))
    return serialize("k", WeightedCluster(cluster.skeleton, tuple(nu)))


# the generator tags its points O, p1, p2, ...; the dsl documents use O, p1, q
TAGS = st.sampled_from(["O", "p1", "p2", "p3", "p5", "q", "zz"])
AT = st.one_of(
    TAGS.map("free:{}".format),
    st.tuples(TAGS, TAGS).map(lambda pair: "sat:{},{}".format(*pair)),
    st.integers(0, 6).map("c{}".format),
    st.sampled_from(["", "c", "sat:O", "free:"]),
)
ALPHA = st.lists(st.tuples(TAGS, st.integers(-1, 5)), min_size=1, max_size=3).map(
    lambda entries: ",".join(f"{tag}={n}" for tag, n in entries)
)


@st.composite
def arguments(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command in ("analyze", "cartier"):
        argv += ["--at", draw(AT)]
    if command == "cartier":
        argv += ["--alpha", draw(ALPHA)]
    if command == "export":
        argv += ["--view", draw(st.sampled_from(["enriques", "dual"]))]
    if command in FORMATS:
        argv += ["--format", draw(st.sampled_from(FORMATS[command]))]
    return argv


@pytest.fixture(scope="module")
def cluster_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "input.cluster"


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.one_of(generator_documents(), edited(dsl_documents())), arguments())
def test_every_run_exits_0_to_3_with_at_most_one_stderr_line(cluster_file, text, argv):
    cluster_file.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(cluster_file), *argv[1:]])
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
