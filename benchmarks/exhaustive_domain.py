"""The full bounded-exhaustive domain: every cluster on every valid skeleton
of at most N points, with excesses in {0, 1, 2} and every multiplicity
positive.

On each cluster it analyzes every free point and every satellite on a
dual-graph edge, and checks each singular report's multiplicity and branch
count against the oracle's graph routes (`graph_multiplicity`,
`graph_branches`).  A report belongs to the point Q of the blow-up, not to
w: at each boundary point with a target of excess 0, `analyze` must give,
in every field but w, the report `enumerate_singularities` gives for the
zero-excess component that holds that target.  It then builds, untraced, at every alpha in
{1, 2}^K⁺_Q: once on the reports of `enumerate_singularities`, and once on
every singular analysis; every certificate must pass.  The clusters come
from the generators of `tests/test_exhaustive.py`, whose tier-1 slice is a
part of this domain.

From the root of a checkout:

    PYTHONPATH=src python benchmarks/exhaustive_domain.py [--points N | --trees N]

prints the counts, the agreements, the certificates, a SHA-256 digest of
the `repr` of every analysis report in domain order, and the time of each
part.  It exits 1 on any disagreement or failed certificate, and when the
digest differs from the one recorded in DIGESTS for that size: a rewrite
of an engine must not alter a report.  At 5 points (the default) it reads
11,648 clusters, 103,352 analyses and 29,968 singular reports; 36,316
builds on the 9,902 `enumerate_singularities` reports and 123,680 on every
singular analysis.

`--trees N` runs the synthesis domain instead: every tree of at most N
vertices up to isomorphism, each vertex weighted max(2, degree) plus 0, 1
or 2, from the generator of `tests/test_synthesis_domain.py`.  Each spec
must synthesize, so its certificate passes, and `enumerate_singularities`
on the result must find one singular point whose T_Q is the graph's
points; the graph file format must give the spec back.  It prints the
counts, a SHA-256 digest of (skeleton, nu, w) of every synthesized cluster
in domain order, and the time, and it exits 1 on a failed check, and when
the digest differs from the one recorded in TREE_DIGESTS for that size.
At 7 vertices it reads 29,361 specs.
"""

import argparse
import dataclasses
import hashlib
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_exhaustive import _clusters, _skeletons  # noqa: E402
from test_synthesis_domain import _spec_digest, _tree_specs  # noqa: E402

from sandwiched import (  # noqa: E402
    FreeOn,
    Satellite,
    analyze,
    dual_graph,
    enumerate_singularities,
    excesses,
)
from sandwiched.cartier import CartierRequest, build  # noqa: E402
from sandwiched.oracle import graph_branches, graph_multiplicity  # noqa: E402
from sandwiched.synthesis import parse_graph_spec, serialize_graph_spec, synthesize  # noqa: E402

# the report digest at each number of points, as the analyzer gives it
DIGESTS = {
    4: "281a9dec12215cf5e23abdbaaa2ce205f13e59640157c6eb364203e0cf78230b",
    5: "8240c6ce67b431c1d3c7bcf6192dd1187d5e216962e36800fa48e96c58daa15e",
    6: "a3458416cd2b2fd86c4843da79e6cd49deaf1634837a44ffed88dfc4183b07fd",
}
# the synthesis digest at each number of vertices, as the synthesizer gives it
TREE_DIGESTS = {
    6: "0a946b4130abaa184371d19c7a8c447e397f6f095b01c2847407b614b3abc478",
    7: "957bff8f19d3ba3013fe1e0b00f669c867fcdce34ba0392728a0f6c54d85e96d",
}


def _builds(K, report) -> tuple[int, int]:
    """The untraced builds at every alpha in {1, 2}^K⁺_Q: (builds, certified)."""
    builds = certified = 0
    for alphas in itertools.product((1, 2), repeat=len(report.Kplus_Q)):
        result = build(CartierRequest(K, report, dict(zip(report.Kplus_Q, alphas))), trace=False)
        builds += 1
        certified += result.certificate.passed
    return builds, certified


def trees(vertices: int) -> int:
    """The synthesis domain to `vertices` vertices: 0 when every check
    passes and the digest is the recorded one, else 1."""
    digest = hashlib.sha256()
    specs = single = round_trips = 0
    start = time.perf_counter()
    for spec in _tree_specs(vertices):
        specs += 1
        cluster, w = synthesize(spec)  # certifies, or raises
        _spec_digest(digest, cluster, w)
        reports = enumerate_singularities(cluster)
        points = tuple(sorted(map(cluster.skeleton.index_of, spec.vertices)))
        single += len(reports) == 1 and reports[0].T_Q == points
        round_trips += parse_graph_spec(serialize_graph_spec(spec)) == spec
    print(f"specs: {specs:,}, every one certified")
    print(f"one singular point, with the graph's points as T_Q: {single:,} of {specs:,}")
    print(f"graph files that give the spec back: {round_trips:,} of {specs:,}")
    print(f"synthesis digest: {digest.hexdigest()}")
    print(f"time: {time.perf_counter() - start:.1f} s")
    ok = single == round_trips == specs
    if not ok:
        print("a synthesized cluster or a graph file disagrees", file=sys.stderr)
    recorded = TREE_DIGESTS.get(vertices)
    if recorded is not None and digest.hexdigest() != recorded:
        print(f"synthesis digest differs from the recorded {recorded}", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    domain = parser.add_mutually_exclusive_group()
    domain.add_argument("--points", type=int, default=5, help="largest skeleton size (default 5)")
    domain.add_argument("--trees", type=int, help="run the synthesis domain to this many vertices")
    args = parser.parse_args(argv)
    if args.trees is not None:
        if args.trees < 1:
            parser.error("--trees must be at least 1")
        return trees(args.trees)
    if args.points < 1:
        parser.error("--points must be at least 1")

    skeletons = _skeletons(args.points)
    digest = hashlib.sha256()
    clusters = analyses = singular = agree = over_singular = same_q = enumerated = 0
    enum_builds = enum_certified = all_builds = all_certified = 0
    # seconds spent analyzing, enumerating and building on the enumerated
    # reports, and building on every singular analysis; nothing is kept
    # across clusters
    seconds = [0.0, 0.0, 0.0]
    clock = time.perf_counter
    for K in _clusters(range(3), range(3), skeletons):
        if min(K.nu) <= 0:
            continue
        clusters += 1
        start = clock()
        reports = enumerate_singularities(K)
        seconds[1] += clock() - start
        # each zero-excess point's singular point, by its enumerated report
        over = {p: report for report in reports for p in report.T_Q}
        rho, graph = excesses(K), dual_graph(K.skeleton)
        for w in [FreeOn(p) for p in K.skeleton.points] + [Satellite(*e) for e in graph.edges]:
            start = clock()
            report = analyze(K, w)
            seconds[0] += clock() - start
            digest.update(repr(report).encode())
            analyses += 1
            # w lies over a singular point exactly when a target has excess 0
            targets = (w.point,) if isinstance(w, FreeOn) else (w.p, w.q)
            q = next((p for p in targets if rho[p] == 0), None)
            if q is not None:
                over_singular += 1
                same_q += q in over and dataclasses.replace(over[q], w=w) == report
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
        for report in reports:
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
        f"boundary points over a singular point that give its enumerate_singularities "
        f"report but for w: {same_q:,} of {over_singular:,}"
    )
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
    ok = agree == singular == over_singular == same_q
    ok = ok and enum_certified == enum_builds and all_certified == all_builds
    if not ok:
        print("a report disagrees or a certificate failed", file=sys.stderr)
    recorded = DIGESTS.get(args.points)
    if recorded is not None and digest.hexdigest() != recorded:
        print(f"report digest differs from the recorded {recorded}", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
