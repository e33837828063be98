"""Generators and brute-force oracles.

Core claims:
    - generation is deterministic per seed and always yields valid,
      consistent, positive clusters
    - the depth-first value oracle and the exhaustive unloading oracle agree
      with the production paths, the value oracle also on a 3000-point chain
    - oversized exhaustive searches are refused, not attempted
    - Laufer's computation sequence gives the known fundamental cycles of
      the A, D and E graphs and of a single curve, and Artin's formula their
      multiplicities
    - the selftest aggregates the suites and passes quickly
"""

import random

import pytest

from sandwiched import (
    DualGraph,
    WeightedCluster,
    chain_skeleton,
    is_consistent,
    unload,
    validate,
    values,
)
from sandwiched.errors import OracleInstanceTooLarge
from sandwiched.oracle import (
    GeneratorConfig,
    _random_cluster,
    brute_unload,
    brute_values,
    graph_multiplicity,
    laufer_cycle,
    random_cluster,
    random_minimal_graph_spec,
    random_skeleton,
    selftest,
)


def _minus_two_tree(edges):
    vertices = tuple(sorted({v for edge in edges for v in edge}))
    return DualGraph(vertices, tuple(edges), (2,) * len(vertices))


@pytest.mark.parametrize(
    "graph, cycle, mult",
    [
        (DualGraph((0,), (), (5,)), {0: 1}, 5),
        (_minus_two_tree([(0, 1), (1, 2), (2, 3)]), {0: 1, 1: 1, 2: 1, 3: 1}, 2),
        (_minus_two_tree([(0, 1), (0, 2), (0, 3)]), {0: 2, 1: 1, 2: 1, 3: 1}, 2),
        # E8: arms of 2, 1 and 4 vertices at the centre 0
        (
            _minus_two_tree([(0, 1), (1, 2), (0, 3), (0, 4), (4, 5), (5, 6), (6, 7)]),
            {0: 6, 1: 4, 2: 2, 3: 3, 4: 5, 5: 4, 6: 3, 7: 2},
            2,
        ),
        # a (-3) centre with three (-2) arms is minimal: Z reduced, mult 3
        (DualGraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)), (3, 2, 2, 2)), {0: 1, 1: 1, 2: 1, 3: 1}, 3),
    ],
    ids=["single", "A4", "D4", "E8", "minimal-star"],
)
def test_laufer_cycle_and_artin_multiplicity(graph, cycle, mult):
    assert laufer_cycle(graph) == cycle
    assert graph_multiplicity(graph) == mult


def test_random_cluster_deterministic_per_seed():
    config = GeneratorConfig(seed=42)
    assert random_cluster(config) == random_cluster(config)
    assert random_cluster(config) != random_cluster(GeneratorConfig(seed=43))


def test_random_cluster_contract():
    rng = random.Random(1)
    config = GeneratorConfig()
    for _ in range(80):
        K = _random_cluster(rng, config)
        assert validate(K.skeleton) == []
        assert is_consistent(K)
        assert all(m > 0 for m in K.nu)


def test_single_point_config():
    K = random_cluster(GeneratorConfig(max_points=1, seed=7))
    assert len(K.skeleton) == 1
    assert K.nu[0] >= 1


def test_brute_values_matches():
    rng = random.Random(2)
    config = GeneratorConfig()
    for _ in range(40):
        K = _random_cluster(rng, config)
        assert brute_values(K) == values(K)


def test_brute_values_on_deep_chain():
    # a plain recursion dies at this depth
    K = WeightedCluster(chain_skeleton(3000), tuple(range(1, 3001)))
    assert brute_values(K) == values(K)


def test_brute_unload_matches_on_smalls():
    rng = random.Random(3)
    for _ in range(80):
        sk = random_skeleton(rng, 6, 0.4)
        K = WeightedCluster(sk, tuple(rng.randint(-4, 6) for _ in sk.points))
        assert brute_unload(K) == unload(K).cluster


def test_brute_unload_refuses_oversized():
    sk = random_skeleton(random.Random(4), 8, 0.3)
    K = WeightedCluster(sk, tuple(-30 for _ in sk.points))
    with pytest.raises(OracleInstanceTooLarge):
        brute_unload(K, max_states=50)


def test_random_minimal_graph_specs_are_valid():
    rng = random.Random(5)
    for _ in range(60):
        spec = random_minimal_graph_spec(rng)
        spec.require_valid()


def test_selftest_passes():
    report = selftest(seed=11, clusters=40)
    assert report.passed, report.failures
    assert report.analyzed > 0
    assert report.unload_oracle_checked > 0
    assert report.cartier_built > 0
    assert report.synthesized > 0
    assert report.elapsed < 10
