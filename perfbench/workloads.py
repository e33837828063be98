"""Seeded inputs, ops, output digests and oracle checks for each workload.

A workload is a fixed list of ops generated from the seed before timing
starts; one pass runs every op once, in order.  Every op returns
an output whose canonical encoding is hashed; the hash is compared with the
recorded reference for that seed and op index (see record.py).  Each op also
carries an oracle check that recomputes its result along an independent route
and runs outside the timed region.

Ops look functions up on the package modules at call time, so the tracer's
rebinding applies to them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("corpus", "cartier", "deep", "cli")
RUNGS = ("small", "mid", "large")


@dataclass
class Op:
    index: int  # position in the seed's full op list; references are keyed by it
    kind: str
    size: int  # the workload's size measure (points, tree vertices or total alpha)
    rung: str
    run: Callable[[], object]
    encode: Callable[[object], object]
    check: Optional[Callable[[object], Optional[str]]] = None  # failure text or None
    run_inprocess: Optional[Callable[[], object]] = None  # cli only


@dataclass
class Workload:
    name: str
    ops: list
    baseline_ops: dict = dataclasses.field(default_factory=dict)


def digest(encoded) -> str:
    return hashlib.blake2b(repr(encoded).encode("utf-8"), digest_size=4).hexdigest()


# -- canonical encodings ---------------------------------------------------------


def enc_cluster(cluster):
    sk = cluster.skeleton
    return (
        sk.tags,
        sk.parents,
        tuple(tuple(sorted(p)) for p in sk.proximities),
        cluster.nu,
    )


def enc_boundary(w):
    return ("free", w.point) if hasattr(w, "point") else ("sat", w.p, w.q)


def enc_report(r):
    graph = r.resolution_graph
    return (
        enc_boundary(r.w), r.smooth, r.T_Q, r.o_Q, r.epsilon, r.B_Q, r.B1_Q, r.B2_Q,
        r.Kplus_Q, r.z, r.mult, r.emdim, r.br, r.minimal, r.branches_equality,
        r.embed_equality,
        None if graph is None else (graph.vertices, graph.edges, graph.weights),
    )


def enc_reports(reports):
    return tuple(enc_report(r) for r in reports)


def enc_unload(result):
    return (
        enc_cluster(result.cluster),
        tuple((s.point, s.increment, s.tame) for s in result.steps),
    )


def enc_build(result):
    return (
        enc_cluster(result.cluster),
        tuple((a.tag, a.targets) for a in result.added),
        tuple(enc_cluster(c) for c in result.trace),
        dataclasses.astuple(result.certificate),
    )


def enc_synthesis(result):
    cluster, w = result
    return (enc_cluster(cluster), enc_boundary(w))


def enc_cli(result):
    return result  # (exit code, stdout bytes)


# -- oracle checks (independent routes, run outside the timed region) ------------


def _check_brute_unload(pkg, raw):
    def check(result):
        try:
            expected = pkg.oracle.brute_unload(raw, max_states=20_000)
        except pkg.errors.OracleInstanceTooLarge:
            return None
        if expected != result.cluster:
            return "unload disagrees with the exhaustive oracle"
        return None

    return check


def _check_certificate(result):
    return None if result.certificate.passed else f"certificate failed: {result.certificate.failures}"


def _check_primitive_family(r):
    def check(reports):
        facts = [(len(x.Kplus_Q), x.mult, x.emdim) for x in reports]
        if facts != [(1, r + 1, r + 2)]:
            return f"make_dr({r}) gave {facts}, expected [(1, {r + 1}, {r + 2})]"
        return None

    return check


def _check_chain_unload(pkg, raw):
    def check(result):
        sk, nu = result.cluster.skeleton, result.cluster.nu
        if any(nu[p] - sum(nu[q] for q in sk.proximate_to[p]) < 0 for p in sk.points):
            return "unloaded chain is not consistent"
        before = pkg.oracle.brute_values(raw)
        after = pkg.oracle.brute_values(result.cluster)
        if any(a < b for a, b in zip(after, before)):
            return "unloading lowered a value"
        return None

    return check


def _check_synthesis_round_trip(pkg, spec):
    def check(result):
        cluster, w = result
        graph = pkg.analyzer.analyze(cluster, w).resolution_graph
        tags = cluster.skeleton.tags
        weights = {tags[v]: graph.weight(v) for v in graph.vertices}
        edges = tuple((tags[u], tags[v]) for u, v in graph.edges)
        if not pkg.synthesis.weighted_trees_isomorphic(
            tuple(weights), edges, weights,
            spec.vertices, spec.edges, dict(zip(spec.vertices, spec.weights)),
        ):
            return "resolution graph is not the input tree"
        return None

    return check


# -- shared generators --------------------------------------------------------------


def _corpus_config(pkg):
    return pkg.oracle.GeneratorConfig(max_points=10, max_multiplicity=5, satellite_probability=0.4)


def _random_cluster_with_raw(pkg, rng, config):
    """oracle._random_cluster, also returning the raw weightings it unloads."""
    raw = []
    real = pkg.oracle.unload

    def capture(cluster, **kwargs):
        raw.append(cluster)
        return real(cluster, **kwargs)

    pkg.oracle.unload = capture
    try:
        cluster = pkg.oracle._random_cluster(rng, config)
    finally:
        pkg.oracle.unload = real
    return cluster, raw


def _points_rung(points: int) -> str:
    return "small" if points <= 3 else "mid" if points <= 6 else "large"


def make_dr(pkg, r: int):
    """Origin, a satellite chain of r points proximate to it, then a free
    chain of r points; weighted as the simple cluster of the last point."""
    b = pkg.cluster.SkeletonBuilder()
    o = b.origin()
    prev = b.free(o, "p1")
    for i in range(2, r + 1):
        prev = b.satellite(prev, o, f"p{i}")
    for i in range(1, r + 1):
        prev = b.free(prev, f"q{i}")
    skeleton = b.build()
    return pkg.weighted.simple_cluster(skeleton, len(skeleton) - 1)


def tree_spec(pkg, rng, n: int, shape: str, extra_weight: int = 0):
    """Path, star or random tree on n vertices, weights max(2, degree) plus
    up to `extra_weight`."""
    names = tuple(f"v{i}" for i in range(n))
    if shape == "path":
        edges = tuple((names[i - 1], names[i]) for i in range(1, n))
    elif shape == "star":
        edges = tuple((names[0], names[i]) for i in range(1, n))
    else:
        edges = tuple((names[rng.randrange(i)], names[i]) for i in range(1, n))
    degree = dict.fromkeys(names, 0)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    weights = tuple(max(2, degree[v]) + rng.randint(0, extra_weight) for v in names)
    return pkg.synthesis.MinimalGraphSpec(names, edges, weights).require_valid()


def sized_cluster(pkg, rng, n: int, satellite_probability: float = 0.4):
    """Consistent cluster on exactly n points: a random skeleton weighted by a
    positive combination of the simple clusters of its leaves, so every
    inner point has excess zero and the blow-up has singularities."""
    b = pkg.cluster.SkeletonBuilder()
    b.origin()
    prox = [frozenset()]
    occupied = set()
    for p in range(1, n):
        parent = rng.randrange(p)
        free = [q for q in prox[parent] if frozenset((parent, q)) not in occupied]
        if free and rng.random() < satellite_probability:
            other = rng.choice(free)
            occupied.add(frozenset((parent, other)))
            b.satellite(parent, other, f"p{p}")
            prox.append(frozenset((parent, other)))
        else:
            b.free(parent, f"p{p}")
            prox.append(frozenset((parent,)))
    sk = b.build()
    leaves = [p for p in sk.points if not sk.proximate_to[p]]
    terms = [(pkg.weighted.simple_cluster(sk, p), rng.randint(1, 2)) for p in leaves]
    return pkg.weighted.linear_combination(terms, ambient=sk)


# -- workloads ---------------------------------------------------------------------


def corpus(pkg, seed: int, tiny: bool, workdir: Path) -> Workload:
    """Acceptance-generator clusters (<= 10 points) plus one synthesized
    minimal singularity in ten: analyze at every boundary pick, enumerate
    once per cluster, and unload the raw weighting the generator unloads."""
    rng = random.Random(seed)
    config = _corpus_config(pkg)
    ops: list = []

    def add(kind, points, run, encode, check=None):
        ops.append(Op(len(ops), kind, points, _points_rung(points), run, encode, check))

    for i in range(16 if tiny else 600):
        if i % 10 == 0:
            spec = pkg.oracle.random_minimal_graph_spec(rng, 6, 5)
            cluster, w = pkg.synthesis.synthesize(spec)
            picks, raws = [w], []
        else:
            cluster, raws = _random_cluster_with_raw(pkg, rng, config)
            picks = pkg.oracle.random_boundary_points(cluster, rng)
        n = len(cluster.skeleton)
        for w in picks:
            add("analyze", n, lambda K=cluster, w=w: pkg.analyzer.analyze(K, w), enc_report)
        add("enumerate", n, lambda K=cluster: pkg.analyzer.enumerate_singularities(K), enc_reports)
        for raw in raws:
            add(
                "unload", len(raw.skeleton), lambda R=raw: pkg.weighted.unload(R),
                enc_unload, _check_brute_unload(pkg, raw),
            )
    return Workload("corpus", ops)


def _alpha_rung(total: int) -> str:
    return "small" if total <= 4 else "mid" if total <= 12 else "large"


def cartier(pkg, seed: int, tiny: bool, workdir: Path) -> Workload:
    """Cartier builds on singular corpus instances: alpha uniform in 1..5 for
    each component through Q; every fourth request draws one component's
    alpha from 1..20 instead, so that the growth loop runs long.  Build cost
    grows steeply with the total alpha; raising one component rather than
    all keeps the total cost of the op list from varying much by seed."""
    rng = random.Random(seed)
    config = _corpus_config(pkg)
    target = 20 if tiny else 600
    ops: list = []
    while len(ops) < target:
        cluster = pkg.oracle._random_cluster(rng, config)
        for w in pkg.oracle.random_boundary_points(cluster, rng):
            report = pkg.analyzer.analyze(cluster, w)
            if report.smooth or len(ops) >= target:
                continue
            alpha = {p: rng.randint(1, 5) for p in report.Kplus_Q}
            if len(ops) % 4 == 3:
                alpha[rng.choice(report.Kplus_Q)] = rng.randint(1, 20)
            total = sum(alpha.values())

            def run(K=cluster, r=report, a=alpha):
                return pkg.cartier.build(pkg.cartier.CartierRequest(K, r, a))

            ops.append(Op(len(ops), "build", total, _alpha_rung(total), run, enc_build, _check_certificate))
    return Workload("cartier", ops)


DEEP_RUNGS = (("small", 10), ("mid", 100), ("large", 200))
TREE_SHAPES = ("path", "star", "random")


def deep(pkg, seed: int, tiny: bool, workdir: Path) -> Workload:
    """Size ladder at about 10, 100 and 200 points: enumerate on make_dr(n/2),
    unload of the chain weighted (1, ..., 1, n), synthesize on trees of n
    vertices (path, star and random)."""
    rng = random.Random(seed)
    ops: list = []
    baseline = {}
    for rung, n in DEEP_RUNGS[:1] if tiny else DEEP_RUNGS:
        r = n // 2
        dr = make_dr(pkg, r)
        if n == 200:
            baseline = {"dr100": len(ops), "chain200": len(ops) + 1}
        ops.append(Op(
            len(ops), "enumerate_dr", n, rung,
            lambda K=dr: pkg.analyzer.enumerate_singularities(K), enc_reports,
            _check_primitive_family(r),
        ))
        chain = pkg.weighted.WeightedCluster(
            pkg.cluster.chain_skeleton(n), (1,) * (n - 1) + (n,)
        )
        ops.append(Op(
            len(ops), "unload_chain", n, rung, lambda K=chain: pkg.weighted.unload(K),
            enc_unload, _check_chain_unload(pkg, chain),
        ))
        for shape in TREE_SHAPES:
            spec = tree_spec(pkg, rng, n, shape)
            ops.append(Op(
                len(ops), f"synthesize_{shape}", n, rung,
                lambda s=spec: pkg.synthesis.synthesize(s), enc_synthesis,
                _check_synthesis_round_trip(pkg, spec),
            ))
    return Workload("deep", ops, baseline)


CLI_SIZES = (("small", 10), ("mid", 100), ("large", 200))


def cli(pkg, seed: int, tiny: bool, workdir: Path) -> Workload:
    """`python -m sandwiched.cli` on seeded files of 10, 100 and 200 points:
    every subcommand once per file, one child process at a time.  `cartier`
    (alpha 1 on every component) runs on the 10- and 100-point files only: on
    200 points one build takes seconds and its cost varies several-fold by
    seed, which would drown the layers this workload is for."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    root = workdir.parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    ops: list = []
    for rung, n in CLI_SIZES[:1] if tiny else CLI_SIZES:
        cluster = sized_cluster(pkg, rng, n)
        name = f"k{n}"
        cluster_path = workdir / f"{name}.cluster"
        cluster_path.write_text(pkg.dsl.serialize(name, cluster), encoding="utf-8")
        graph_path = workdir / f"g{n}.graph"
        spec = tree_spec(pkg, rng, n, "random", 2)
        graph_path.write_text(pkg.synthesis.serialize_graph_spec(spec), encoding="utf-8")
        first = pkg.analyzer.enumerate_singularities(cluster)[0]
        alpha = ",".join(f"{cluster.skeleton.tags[p]}=1" for p in first.Kplus_Q)
        cfile = str(cluster_path.relative_to(root))
        gfile = str(graph_path.relative_to(root))
        commands = (
            (["validate", cfile], 0),
            (["unload", cfile, "--format", "json"], 0),
            (["analyze", cfile, "--at", "c0"], 2),
            (["singularities", cfile], 2),
            (["cartier", cfile, "--at", "c0", "--alpha", alpha], 0),
            (["synthesize", gfile], 0),
            (["export", cfile, "--view", "dual", "--format", "dot"], 0),
            (["export", cfile, "--format", "json"], 0),
        )
        for argv, code in commands:
            if argv[0] == "cartier" and n > 100:
                continue
            kind = f"export_{argv[-1]}" if argv[0] == "export" else argv[0]
            def run(argv=argv):
                proc = subprocess.run(
                    [sys.executable, "-m", "sandwiched.cli", *argv],
                    cwd=root, env=env, capture_output=True, check=False,
                )
                return proc.returncode, proc.stdout

            def run_inprocess(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = pkg.cli.main(list(argv))
                return code, out.getvalue().encode("utf-8")

            def check(result, code=code):
                return None if result[0] == code else f"exit code {result[0]}, expected {code}"

            ops.append(Op(len(ops), kind, n, rung, run, enc_cli, check, run_inprocess))
    return Workload("cli", ops)


BUILDERS = {"corpus": corpus, "cartier": cartier, "deep": deep, "cli": cli}


def build(name: str, pkg, seed: int, tiny: bool, workdir: Path) -> Workload:
    return BUILDERS[name](pkg, seed, tiny, workdir)
