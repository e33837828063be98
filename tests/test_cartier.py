"""Prescribed-intersection cluster construction and its certificate.

Core claims:
    - the worked chain-of-three example reproduces the expected clusters for
      multiplicities 1 and 2
    - certificates verify independently of the builder and catch tampering
    - requests are validated (domain and positivity of the prescription)
    - the seed-point override changes the start but never the certificate
    - mixed prescriptions over several components build and certify
    - the builder's whole output (cluster, added points, trace, certificate)
      on the first 300 acceptance requests and the worked example matches a
      recorded digest byte for byte
"""

import hashlib
import json
import random

import pytest

from sandwiched import ClusterError, FreeOn, Satellite, WeightedCluster, analyze, values
from sandwiched.cartier import CartierRequest, build, verify
from sandwiched.oracle import GeneratorConfig, _random_cluster
from sandwiched.analyzer import enumerate_singularities
from sandwiched.synthesis import MinimalGraphSpec, synthesize


@pytest.fixture
def d1_report(d1):
    return analyze(d1, Satellite(0, 1))


def test_multiplicity_one_never_loops(d1, d1_report):
    result = build(CartierRequest(d1, d1_report, {2: 1}))
    assert result.cluster.by_tag() == {"O": 2, "p1": 1, "q1": 0}
    assert result.certificate.passed
    assert len(result.added) == 0  # the free seed point unloads away
    assert values(result.cluster)[2] == 3  # one copy of the branch value


def test_multiplicity_two_grows_one_satellite(d1, d1_report):
    result = build(CartierRequest(d1, d1_report, {2: 2}))
    tags = result.cluster.by_tag()
    added = result.added[0]
    assert tags == {"O": 3, "p1": 2, "q1": 1, added.tag: 1}
    assert added.targets == ("q1", "p1")
    assert result.certificate.passed
    assert result.certificate.readout == (("q1", 2),)
    assert values(result.cluster)[2] == 6  # twice the branch value


def test_certificate_catches_tampering(d1, d1_report):
    result = build(CartierRequest(d1, d1_report, {2: 2}))
    cluster = result.cluster
    q1 = cluster.skeleton.index_of("q1")
    tampered = WeightedCluster(
        cluster.skeleton,
        tuple(m + (1 if p == q1 else 0) for p, m in enumerate(cluster.nu)),
    )
    certificate = verify(d1, d1_report, {2: 2}, tampered)
    assert not certificate.passed
    assert not certificate.value_condition
    assert "value-condition" in certificate.failures


def test_request_validation(d1, d1_report):
    with pytest.raises(ClusterError):
        CartierRequest(d1, d1_report, {1: 1}).validated()  # not a component through Q
    with pytest.raises(ClusterError):
        CartierRequest(d1, d1_report, {2: 0}).validated()
    smooth = analyze(d1, FreeOn(2))
    with pytest.raises(ClusterError):
        build(CartierRequest(d1, smooth, {2: 1}))


def test_seed_point_override(d1, d1_report):
    result = build(CartierRequest(d1, d1_report, {2: 2}), seed_point=1)
    assert result.certificate.passed
    with pytest.raises(ClusterError):
        build(CartierRequest(d1, d1_report, {2: 2}), seed_point=2)  # not contracted


def test_mixed_prescription_on_three_components():
    spec = MinimalGraphSpec(("a",), (), (3,))
    cluster, w = synthesize(spec)
    report = analyze(cluster, w)
    assert len(report.Kplus_Q) == 4
    alpha = dict(zip(report.Kplus_Q, (1, 2, 2, 2)))
    result = build(CartierRequest(cluster, report, alpha))
    assert result.certificate.passed
    readout = dict(result.certificate.readout)
    for p, a in alpha.items():
        assert readout[cluster.skeleton.tags[p]] == a


def test_trace_starts_at_combination_and_ends_at_result(d1, d1_report):
    result = build(CartierRequest(d1, d1_report, {2: 2}))
    assert result.trace[0].nu == (2, 2, 2)  # twice the simple cluster
    assert result.trace[-1] == result.cluster


def test_random_requests_always_certify():
    rng = random.Random(41)
    config = GeneratorConfig(max_points=9, satellite_probability=0.4)
    built = 0
    while built < 60:
        K = _random_cluster(rng, config)
        for report in enumerate_singularities(K):
            alpha = {p: rng.randint(1, 4) for p in report.Kplus_Q}
            result = build(CartierRequest(K, report, alpha))
            assert result.certificate.passed, result.certificate.failures
            built += 1


def _encode_cluster(cluster):
    sk = cluster.skeleton
    return [
        list(sk.tags),
        list(sk.parents),
        [sorted(prox) for prox in sk.proximities],
        list(cluster.nu),
    ]


def _encode_result(result):
    c = result.certificate
    return [
        _encode_cluster(result.cluster),
        [[a.tag, list(a.targets)] for a in result.added],
        [_encode_cluster(t) for t in result.trace],
        [
            c.consistent,
            c.value_condition,
            c.localization,
            c.off_excess_zero,
            [list(r) for r in c.readout],
            c.readout_matches,
            list(c.failures),
        ],
    ]


# sha256 over the builder's outputs, recorded from the tag-keyed builder that
# preceded the cluster-state one; any change to a cluster, an added point's
# tag or targets, a trace entry or the certificate changes it
GOLDEN_DIGEST = "1de9c8714a8cd4b04c5b93f113a2ca99a7073ff0a003adfa9ace0078bf491ad1"


def test_golden_digest_of_builds(corpus, d1, d1_report):
    h = hashlib.sha256()

    def feed(result):
        h.update(json.dumps(_encode_result(result), separators=(",", ":")).encode())
        h.update(b"\n")

    for alpha in (1, 2, 3):
        feed(build(CartierRequest(d1, d1_report, {2: alpha})))
    feed(build(CartierRequest(d1, d1_report, {2: 2}), seed_point=1))
    rng = random.Random(616)  # the criterion-6 request sequence
    for instance in corpus[:300]:
        alpha = {p: rng.randint(1, 5) for p in instance.report.Kplus_Q}
        feed(build(CartierRequest(instance.cluster, instance.report, alpha)))
    assert h.hexdigest() == GOLDEN_DIGEST
