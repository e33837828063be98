"""Shared fixtures: hand-built clusters and the randomized instance corpus.

The corpus is built once per session: at least 10^4 singular (cluster,
boundary point, report) triples from the seeded generator, with a slice of
synthesized minimal singularities mixed in so the extremal equality cases are
exercised on both sides.
"""

import random
from dataclasses import dataclass
from typing import Optional

import pytest

from sandwiched import SkeletonBuilder, WeightedCluster, analyze, simple_cluster
from sandwiched.analyzer import SingularityReport
from sandwiched.oracle import (
    GeneratorConfig,
    _random_cluster,
    random_boundary_points,
    random_minimal_graph_spec,
)
from sandwiched.synthesis import synthesize

CORPUS_SEED = 20260810
CORPUS_TARGET = 10_000


@dataclass(frozen=True)
class Instance:
    cluster: WeightedCluster
    w: object
    report: SingularityReport


# O of weight 3 and two free chains over it; the singularity at a1 has
# components O and a2 through it, and no stage of a build there holds the b
# branch
FORK = "cluster k { O ; a1 -> O ; a2 -> a1 ; b1 -> O ; b2 -> b1 }\nweights k { O=3 a1=1 a2=1 b1=1 b2=1 }\n"


def make_d1() -> WeightedCluster:
    b = SkeletonBuilder()
    o = b.origin()
    p1 = b.free(o, "p1")
    b.free(p1, "q1")
    return WeightedCluster(b.build(), (1, 1, 1))


def make_dr(r: int, s: Optional[int] = None) -> WeightedCluster:
    """Origin, r points all proximate to it in a satellite chain, then a free
    chain of s points (r by default); weighted as the simple cluster of the
    last point."""
    b = SkeletonBuilder()
    o = b.origin()
    prev = b.free(o, "p1")
    for i in range(2, r + 1):
        prev = b.satellite(prev, o, f"p{i}")
    for i in range(1, (r if s is None else s) + 1):
        prev = b.free(prev, f"q{i}")
    skeleton = b.build()
    return simple_cluster(skeleton, len(skeleton) - 1)


@pytest.fixture
def d1() -> WeightedCluster:
    return make_d1()


@pytest.fixture(scope="session")
def corpus() -> list:
    rng = random.Random(CORPUS_SEED)
    config = GeneratorConfig(
        max_points=10, max_multiplicity=5, satellite_probability=0.4
    )
    instances = []
    for _ in range(150):
        cluster, w = synthesize(random_minimal_graph_spec(rng, 6, 5))
        instances.append(Instance(cluster, w, analyze(cluster, w)))
    while len(instances) < CORPUS_TARGET:
        cluster = _random_cluster(rng, config)
        for w in random_boundary_points(cluster, rng):
            report = analyze(cluster, w)
            if not report.smooth:
                instances.append(Instance(cluster, w, report))
    return instances
