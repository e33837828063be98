"""The CLI's exit contract on generated and edited input.

Core claims:
    - whatever the cluster file and the `--at`, `--alpha`, view and format
      arguments, `cli.main` returns an exit code in 0 to 3 and writes at most
      one line to stderr, never a traceback; this holds for generator
      clusters with one hostile weight (zero, negative, 10^6, 2^70), for
      generator clusters scaled by c in {7, 1,000, 2^70, 10^40}, and for
      well-formed documents edited into malformed ones
    - a generator cluster K and c·K have the same blow-up (I and I^c have
      the same Rees algebra Proj), so `singularities` (JSON and DOT),
      `analyze --at c0` and `cartier --at c0` with alpha 2 on each K⁺_Q tag
      give the same exit code, stdout and stderr on both
    - a report belongs to the point Q of the blow-up, not to w: on a
      generator cluster, `analyze --at` at every boundary point over the
      singular point of component `c<i>` (`free:TAG` for each TAG in its
      T_Q, `sat:A,B` for each dual-graph edge that touches T_Q) gives the
      exit code, stderr and JSON of `analyze --at c<i>`, but for `w`
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandwiched import FreeOn, WeightedCluster, analyze
from sandwiched.analyzer import zero_excess_components
from sandwiched.cli import main
from sandwiched.dsl import serialize
from sandwiched.oracle import GeneratorConfig, _random_cluster

from test_parser_properties import dsl_documents, edited

HOSTILE_WEIGHTS = (0, -1, -7, 10**6, 2**70)
SCALES = (7, 1_000, 2**70, 10**40)
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


@st.composite
def scaled_clusters(draw):
    """A seeded generator cluster K of at most 10 points and c·K, for a c
    from SCALES."""
    cluster = _random_cluster(random.Random(draw(st.integers(0, 2**32))), GeneratorConfig())
    c = draw(st.sampled_from(SCALES))
    return cluster, WeightedCluster(cluster.skeleton, tuple(c * m for m in cluster.nu))


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


def _run(cluster_file, text: str, argv: list) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `cli.main` on `text` as the file."""
    cluster_file.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(cluster_file), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.one_of(
        generator_documents(),
        scaled_clusters().map(lambda pair: serialize("k", pair[1])),
        edited(dsl_documents()),
    ),
    arguments(),
)
def test_every_run_exits_0_to_3_with_at_most_one_stderr_line(cluster_file, text, argv):
    code, _, err = _run(cluster_file, text, argv)
    assert code in (0, 1, 2, 3)
    assert err.count("\n") <= 1


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(scaled_clusters())
def test_a_scaled_cluster_gives_the_same_runs(cluster_file, pair):
    cluster, scaled = pair
    components = zero_excess_components(cluster)
    kplus = analyze(cluster, FreeOn(components[0][0])).Kplus_Q if components else ()
    alpha = ",".join(f"{cluster.skeleton.tags[p]}=2" for p in kplus)
    runs = (
        ["singularities", "--format", "json"],
        ["singularities", "--format", "dot"],
        ["analyze", "--at", "c0"],
        ["cartier", "--at", "c0", "--alpha", alpha],
    )
    for argv in runs:
        want = _run(cluster_file, serialize("k", cluster), argv)
        assert _run(cluster_file, serialize("k", scaled), argv) == want, argv


def _but_w(run: tuple[int, str, str]) -> tuple:
    """An `analyze --format json` run with the report's `w` left out."""
    code, out, err = run
    return code, [(key, value) for key, value in json.loads(out).items() if key != "w"], err


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_every_boundary_point_over_a_component_gives_its_report(cluster_file, seed):
    cluster = _random_cluster(random.Random(seed), GeneratorConfig())
    sk, text = cluster.skeleton, serialize("k", cluster)
    for i, component in enumerate(zero_excess_components(cluster)):
        want = _but_w(_run(cluster_file, text, ["analyze", "--at", f"c{i}"]))
        t_set = set(component)
        specs = [f"free:{sk.tags[p]}" for p in component] + [
            f"sat:{sk.tags[p]},{sk.tags[q]}"
            for p in sk.points
            for q in sk.dual_rows[p]
            if q > p and (p in t_set or q in t_set)
        ]
        for spec in specs:
            assert _but_w(_run(cluster_file, text, ["analyze", "--at", spec])) == want, spec
