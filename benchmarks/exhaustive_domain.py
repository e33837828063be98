"""The full bounded-exhaustive domain: every cluster on every valid skeleton
of at most N points, with excesses in {0, 1, 2} and every multiplicity
positive.

On each cluster it analyzes every free point and every satellite on a
dual-graph edge, and checks each singular report's multiplicity and branch
count against the oracle's graph routes (`graph_multiplicity`,
`graph_branches`).  It then builds, untraced, at every alpha in
{1, 2}^K⁺_Q: once on the reports of `enumerate_singularities`, and once on
every singular analysis; every certificate must pass.  The clusters come
from the generators of `tests/test_exhaustive.py`, whose tier-1 slice is a
part of this domain.

From the root of a checkout:

    PYTHONPATH=src python benchmarks/exhaustive_domain.py [--points N]

prints the counts, the agreements, the certificates, a SHA-256 digest of
the `repr` of every report in domain order, and the time of each part.  It
exits 1 on any disagreement or failed certificate.  At 5 points (the
default) it reads 11,648 clusters, 103,352 analyses and 29,968 singular
reports; 36,316 builds on the 9,902 `enumerate_singularities` reports and
123,680 on every singular analysis.
"""

import argparse
import hashlib
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_exhaustive import _clusters, _skeletons  # noqa: E402

from sandwiched import FreeOn, Satellite, analyze, dual_graph, enumerate_singularities  # noqa: E402
from sandwiched.cartier import CartierRequest, build  # noqa: E402
from sandwiched.oracle import graph_branches, graph_multiplicity  # noqa: E402


def _builds(K, report) -> tuple[int, int]:
    """The untraced builds at every alpha in {1, 2}^K⁺_Q: (builds, certified)."""
    builds = certified = 0
    for alphas in itertools.product((1, 2), repeat=len(report.Kplus_Q)):
        result = build(CartierRequest(K, report, dict(zip(report.Kplus_Q, alphas))), trace=False)
        builds += 1
        certified += result.certificate.passed
    return builds, certified


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=5, help="largest skeleton size (default 5)")
    args = parser.parse_args(argv)
    if args.points < 1:
        parser.error("--points must be at least 1")

    skeletons = _skeletons(args.points)
    digest = hashlib.sha256()
    clusters = analyses = singular = agree = enumerated = 0
    enum_builds = enum_certified = all_builds = all_certified = 0
    # seconds spent analyzing, building on `enumerate_singularities`' reports
    # and building on every singular analysis; nothing is kept across clusters
    seconds = [0.0, 0.0, 0.0]
    clock = time.perf_counter
    for K in _clusters(range(3), range(3), skeletons):
        if min(K.nu) <= 0:
            continue
        clusters += 1
        graph = dual_graph(K.skeleton)
        for w in [FreeOn(p) for p in K.skeleton.points] + [Satellite(*e) for e in graph.edges]:
            start = clock()
            report = analyze(K, w)
            seconds[0] += clock() - start
            digest.update(repr(report).encode())
            analyses += 1
            if report.smooth:
                continue
            singular += 1
            resolution = report.resolution_graph
            multiplicity, branches = graph_multiplicity(resolution), graph_branches(resolution)
            agree += (multiplicity, branches) == (report.mult, report.br)
            start = clock()
            builds, certified = _builds(K, report)
            seconds[2] += clock() - start
            all_builds += builds
            all_certified += certified
        start = clock()
        for report in enumerate_singularities(K):
            enumerated += 1
            builds, certified = _builds(K, report)
            enum_builds += builds
            enum_certified += certified
        seconds[1] += clock() - start

    print(f"skeletons: {' / '.join(f'{len(size):,}' for size in skeletons)}")
    print(f"clusters: {clusters:,}")
    print(f"analyses: {analyses:,}, {singular:,} singular")
    print(f"graph_multiplicity and graph_branches agree: {agree:,} of {singular:,}")
    print(
        f"enumerate_singularities: {enumerated:,} reports, "
        f"{enum_certified:,} of {enum_builds:,} builds certified"
    )
    print(f"every singular analysis: {all_certified:,} of {all_builds:,} builds certified")
    print(f"report digest: {digest.hexdigest()}")
    print(
        f"time: analyses {seconds[0]:.1f} s, enumerate builds {seconds[1]:.1f} s, "
        f"analysis builds {seconds[2]:.1f} s"
    )
    ok = agree == singular and enum_certified == enum_builds and all_certified == all_builds
    if not ok:
        print("a report disagrees or a certificate failed", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
