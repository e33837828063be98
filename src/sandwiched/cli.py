"""Command-line front end.

Subcommands: validate, unload, analyze, singularities, cartier, synthesize,
export, selftest.  Exit codes: 0 success (smooth / consistent / all passed),
1 input, validation or usage error (also an unreadable or non-UTF-8 file), 2 a
singularity was found (for scripting), 3 an internal cross-check failed, a
safety cap was exceeded, or the run ran out of memory or recursion depth (a
bug, please report the input).  Every error is one line on stderr.

Only `cartier` imports the Cartier builder, only `synthesize` the
synthesizer and only `selftest` the oracle, so the other subcommands do not
compile or run them at start-up.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import dsl
from .analyzer import (
    FreeOn,
    Satellite,
    analyze,
    enumerate_singularities,
    zero_excess_components,
)
from .cluster import validate
from .errors import CapExceededError, ClusterError, InternalCheckError
from .weighted import unload

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SINGULAR = 2
EXIT_INTERNAL = 3


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except ClusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CapExceededError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (MemoryError, RecursionError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"internal error: {type(exc).__name__}{detail}", file=sys.stderr)
        return EXIT_INTERNAL


class _Parser(argparse.ArgumentParser):
    """Usage errors take the input-error path of `main` (exit 1, one line),
    not argparse's exit 2, which here means that a singularity was found."""

    def error(self, message):
        raise ClusterError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sandwiched",
        description="Calculus of weighted clusters of infinitely near points and "
        "the singularities of blown-up complete ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a cluster file")
    p.add_argument("file")
    p.add_argument("--name", help="cluster to check (default: all in the file)")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("unload", help="unload a weighted cluster")
    p.add_argument("file")
    p.add_argument("--name")
    p.add_argument("--format", choices=("dsl", "json"), default="dsl")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_unload)

    p = sub.add_parser("analyze", help="report the point of the blow-up at a boundary point")
    p.add_argument("file")
    p.add_argument("--name")
    p.add_argument("--at", required=True, help="free:TAG, sat:TAG1,TAG2 or component id cN")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("singularities", help="report every singular point of the blow-up")
    p.add_argument("file")
    p.add_argument("--name")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_singularities)

    p = sub.add_parser("cartier", help="build a cluster with prescribed intersections at a singularity")
    p.add_argument("file")
    p.add_argument("--name")
    p.add_argument("--at", required=True, help="component id cN or a boundary point spec")
    p.add_argument("--alpha", required=True, help="comma list TAG=N over the components through Q")
    p.add_argument("--seed-point", help="contracted point to attach the first free point to")
    p.add_argument("--emit-cluster", help="write the resulting cluster DSL here")
    p.set_defaults(handler=_cmd_cartier)

    p = sub.add_parser("synthesize", help="build a minimal singularity from a resolution graph")
    p.add_argument("graphfile")
    p.add_argument("--emit-cluster", help="write the resulting cluster DSL here")
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("export", help="emit DSL, DOT or JSON views of a cluster")
    p.add_argument("file")
    p.add_argument("--name")
    p.add_argument("--view", choices=("enriques", "dual"), default="enriques")
    p.add_argument("--format", choices=("dot", "dsl", "json"), default="dot")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--seed", default="0")
    p.add_argument("--clusters", default="120")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ClusterError(
            f"{path}: not valid UTF-8 (byte {exc.start}: {exc.reason})"
        ) from None


def _clusters(path: str, name: Optional[str]) -> dict:
    """The clusters the file defines, or only the one called `name`."""
    clusters = dsl.parse(_read(path))
    if not clusters:
        raise ClusterError(f"{path}: no clusters defined")
    if name is None:
        return clusters
    if name not in clusters:
        raise ClusterError(f"{path}: no cluster named {name!r}")
    return {name: clusters[name]}


def _load(path: str, name: Optional[str]):
    clusters = _clusters(path, name)
    if len(clusters) > 1:
        raise ClusterError(f"{path} defines {len(clusters)} clusters; pick one with --name")
    ((name, cluster),) = clusters.items()
    cluster.skeleton.require_valid()
    return name, cluster


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _cmd_validate(args) -> int:
    status = EXIT_OK
    for name, cluster in _clusters(args.file, args.name).items():
        problems = validate(cluster.skeleton)
        if problems:
            status = EXIT_INPUT
            for diagnostic in problems:
                print(f"{name}: {diagnostic}")
        else:
            print(f"{name}: ok ({len(cluster.skeleton)} points)")
    return status


def _cmd_unload(args) -> int:
    name, cluster = _load(args.file, args.name)
    # only the JSON view prints the step trace
    result = unload(cluster, trace=args.format == "json")
    if args.format == "dsl":
        _emit(dsl.serialize(name, result.cluster), args.output)
    else:
        payload = dsl.cluster_json(name, result.cluster)
        payload["steps"] = [
            {"point": result.cluster.skeleton.tags[s.point], "increment": s.increment, "tame": s.tame}
            for s in result.steps
        ]
        _emit(_json(payload), args.output)
    return EXIT_OK


def _parse_at(spec: str, cluster):
    sk = cluster.skeleton
    if spec.startswith("free:"):
        return FreeOn(sk.index_of(spec[len("free:"):]))
    if spec.startswith("sat:"):
        parts = spec[len("sat:"):].split(",")
        if len(parts) != 2:
            raise ClusterError("satellite spec must be sat:TAG1,TAG2")
        return Satellite(sk.index_of(parts[0].strip()), sk.index_of(parts[1].strip()))
    if spec.startswith("c") and spec[1:].isascii() and spec[1:].isdigit():
        components = zero_excess_components(cluster)
        k = _integer(spec[1:], "component number")
        if k >= len(components):
            raise ClusterError(
                f"component {spec} does not exist ({len(components)} zero-excess components)"
            )
        return FreeOn(components[k][0])
    raise ClusterError(f"cannot parse boundary point {spec!r}")


def _cmd_analyze(args) -> int:
    name, cluster = _load(args.file, args.name)
    report = analyze(cluster, _parse_at(args.at, cluster))
    if args.format == "json":
        _emit(_json(dsl.report_json(cluster, report)), args.output)
    else:
        if report.smooth:
            raise ClusterError("smooth points have no resolution graph to export")
        _emit(
            dsl.dot_dual(f"{name}_resolution", cluster.skeleton, report.resolution_graph),
            args.output,
        )
    return EXIT_OK if report.smooth else EXIT_SINGULAR


def _cmd_singularities(args) -> int:
    name, cluster = _load(args.file, args.name)
    reports = enumerate_singularities(cluster)
    if args.format == "json":
        payload = {
            "schema": 1,
            "name": name,
            "singularities": [dsl.report_json(cluster, r) for r in reports],
        }
        _emit(_json(payload), args.output)
    else:
        parts = [
            dsl.dot_dual(f"{name}_c{i}", cluster.skeleton, r.resolution_graph)
            for i, r in enumerate(reports)
        ]
        _emit("".join(parts), args.output)
    return EXIT_SINGULAR if reports else EXIT_OK


def _parse_alpha(spec: str, cluster) -> dict:
    alpha = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        tag, _, value = part.partition("=")
        tag, value = tag.strip(), value.strip()
        if not value:
            raise ClusterError(f"bad multiplicity entry {part!r}; expected TAG=N")
        if not dsl.INTEGER.fullmatch(value):
            raise ClusterError(f"multiplicity {value!r} is not an integer")
        p = cluster.skeleton.index_of(tag)
        if p in alpha:
            raise ClusterError(f"multiplicity of {tag!r} given twice")
        alpha[p] = _integer(value, f"multiplicity of {tag!r}")
    return alpha


def _integer(digits: str, what: str) -> int:
    """`int(digits)` for a string of the DSL's integer rule."""
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's integer-string limit
        raise ClusterError(f"{what} has too many digits") from None


def _option_integer(value: str, what: str) -> int:
    """An integer option by the DSL's integer rule: ASCII digits, one optional
    leading minus sign."""
    if not dsl.INTEGER.fullmatch(value):
        raise ClusterError(f"{what} {value!r} is not an integer")
    return _integer(value, what)


def _cmd_cartier(args) -> int:
    from .cartier import CartierRequest, build  # only cartier loads the builder

    name, cluster = _load(args.file, args.name)
    report = analyze(cluster, _parse_at(args.at, cluster))
    request = CartierRequest(cluster, report, _parse_alpha(args.alpha, cluster))
    seed_point = (
        cluster.skeleton.index_of(args.seed_point) if args.seed_point else None
    )
    result = build(request, seed_point=seed_point, trace=False)  # the stages are not printed
    _emit(dsl.serialize(f"{name}_cartier", result.cluster), args.emit_cluster)
    sys.stdout.write(_json(dsl.certificate_json(result.certificate)))
    if result.certificate.passed:
        return EXIT_OK
    failed = ", ".join(result.certificate.failures)
    print(f"internal cross-check failure: certificate failed: {failed}", file=sys.stderr)
    return EXIT_INTERNAL


def _cmd_synthesize(args) -> int:
    from .synthesis import parse_graph_spec, synthesize  # only synthesize loads it

    spec = parse_graph_spec(_read(args.graphfile))
    cluster, boundary = synthesize(spec)
    report = analyze(cluster, boundary)
    _emit(dsl.serialize("synthesized", cluster), args.emit_cluster)
    payload = dsl.report_json(cluster, report)
    sys.stdout.write(_json(payload))
    return EXIT_OK


def _cmd_export(args) -> int:
    if args.view == "dual" and args.format != "dot":
        raise ClusterError("export --view dual has only a dot form")
    name, cluster = _load(args.file, args.name)
    if args.format == "dsl":
        _emit(dsl.serialize(name, cluster), args.output)
    elif args.format == "json":
        _emit(_json(dsl.cluster_json(name, cluster)), args.output)
    elif args.view == "enriques":
        _emit(dsl.dot_enriques(name, cluster.skeleton), args.output)
    else:
        _emit(dsl.dot_dual(name, cluster.skeleton), args.output)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .oracle import selftest  # only this subcommand pays for importing the oracle

    seed = _option_integer(args.seed, "seed")
    clusters = _option_integer(args.clusters, "cluster count")
    if clusters < 0:
        raise ClusterError(f"cluster count {clusters} is negative")
    report = selftest(seed=seed, clusters=clusters)
    print(
        f"selftest seed={report.seed}: {report.clusters} clusters, "
        f"{report.analyzed} boundary points analyzed, "
        f"{report.unload_oracle_checked} exhaustive unload checks, "
        f"{report.cartier_built} Cartier builds, {report.synthesized} syntheses, "
        f"{report.elapsed:.2f}s"
    )
    for failure in report.failures:
        print(f"FAIL {failure}")
    if report.passed:
        return EXIT_OK
    failed = len(report.failures)
    print(
        f"internal cross-check failure: selftest seed={report.seed}: {failed} failed (FAIL lines above)",
        file=sys.stderr,
    )
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
