"""Text formats: the cluster DSL, DOT export, and JSON views.

The DSL is line-oriented UTF-8; `#` starts a comment that runs to the end of
the line, and a block may span lines.  One token pattern reads each line: a
name is a letter or `_` then word characters, an integer is ASCII digits with
an optional `-`, and the symbols are `-> { } ; , =`.  A cluster block lists
points in admissible order, the first proximity target being the parent:

    cluster d1 { O ; p1 -> O ; q1 -> p1 ; w -> q1, p1 }
    weights d1 { O=1 p1=1 q1=1 }        # omitted points default to 0

The serializer emits exactly this shape, one block per line, so output
re-parses bit-identically.  DOT export offers the Enriques-diagram view
(parent edges, dashed when the child is a satellite, dotted link to the
second proximity target) and the dual-graph view (vertex weights as labels).
"""

from __future__ import annotations

import re
from typing import Optional

from .analyzer import FreeOn, Satellite, SingularityReport
from .cluster import ClusterSkeleton, dual_graph
from .errors import ClusterError, ParseError
from .weighted import WeightedCluster, excesses, values


# -- Reader ------------------------------------------------------------------

# ASCII digits only, with an optional minus sign: `int` also reads other
# scripts' digits and underscores, and str.isdigit() accepts superscripts
INTEGER = re.compile(r"-?[0-9]+")
_WORD = re.compile(r"\w+")  # what str.isalnum() accepts, and `_`
# tried at each column in this order; a word is a token only if it is a name
_TOKEN = re.compile(
    r"(?P<blank>\s+)|(?P<symbol>->|[{};,=])"
    f"|(?P<int>{INTEGER.pattern})|(?P<name>{_WORD.pattern})"
)


def is_name(text: str) -> bool:
    """A point or cluster name: a letter or `_`, then letters, digits and `_`."""
    return _WORD.fullmatch(text) is not None and (text[0].isalpha() or text[0] == "_")


def _tokens(text: str) -> list:
    """(kind, text, line, column) tuples in reverse order, so that the next
    token is at the end of the list, after an end token of kind None at the
    last token's position.  A symbol's kind is its text."""
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            match = _TOKEN.match(line, col)
            kind = match and match.lastgroup
            if kind is None or (kind == "name" and not is_name(match.group())):
                raise ParseError(f"unexpected character {line[col]!r}", lineno, col + 1)
            if kind != "blank":
                word = match.group()
                tokens.append((word if kind == "symbol" else kind, word, lineno, col + 1))
            col = match.end()
    end = (None, "", *tokens[-1][2:]) if tokens else (None, "", 1, 1)
    return [end] + tokens[::-1]


def _peek(tokens: list) -> Optional[str]:
    """The next token's kind; None at the end."""
    return tokens[-1][0]


def _take(tokens: list, kind: Optional[str] = None) -> tuple:
    """Consume the next token, which must exist and, if given, be of `kind`."""
    token = tokens[-1]
    if token[0] is None:
        raise ParseError("unexpected end of input", *token[2:])
    if kind is not None and token[0] != kind:
        raise ParseError(f"expected {kind!r}, found {token[1]!r}", *token[2:])
    return tokens.pop()


def parse(text: str) -> dict:
    """Parse a DSL document into named weighted clusters (insertion order).

    A cluster with no weights block has all multiplicities zero.
    """
    tokens = _tokens(text)
    skeletons: dict = {}
    weight_maps: dict = {}
    while _peek(tokens) is not None:
        _, head, *where = _take(tokens, "name")
        if head not in ("cluster", "weights"):
            raise ParseError(f"expected 'cluster' or 'weights', found {head!r}", *where)
        _, name, *where = _take(tokens, "name")
        if head == "cluster":
            if name in skeletons:
                raise ParseError(f"cluster {name!r} defined twice", *where)
            skeletons[name] = _cluster_block(tokens)
        elif name not in skeletons:
            raise ParseError(f"weights for unknown cluster {name!r}", *where)
        elif name in weight_maps:
            raise ParseError(f"weights for {name!r} defined twice", *where)
        else:
            weight_maps[name] = _weights_block(tokens, skeletons[name])
    out: dict = {}
    for name, skeleton in skeletons.items():
        nu = weight_maps.get(name, {})
        out[name] = WeightedCluster(
            skeleton, tuple(nu.get(p, 0) for p in skeleton.points)
        )
    return out


def _cluster_block(tokens: list) -> ClusterSkeleton:
    opener = _take(tokens, "{")
    parents: list[Optional[int]] = []
    prox: list[frozenset[int]] = []
    index: dict = {}  # tag -> point, in declaration order
    while (token := _take(tokens))[0] != "}":
        kind, tag, *where = token
        if kind != "name":
            raise ParseError(f"expected a point name, found {tag!r}", *where)
        if tag in index:
            raise ParseError(f"point {tag!r} declared twice", *where)
        # indexed before its targets are read: `p -> p` is left to validate()
        index[tag] = len(index)
        targets: list[int] = []
        separator = "->"
        while len(targets) < 2 and _peek(tokens) == separator:
            _take(tokens)
            _, target, *at = _take(tokens, "name")
            if target not in index:
                raise ParseError(
                    f"proximity target {target!r} is not a previously declared point", *at
                )
            if index[target] in targets:
                raise ParseError(f"proximity target {target!r} repeated", *at)
            targets.append(index[target])
            separator = ","
        if not targets and len(index) > 1:
            raise ParseError(
                f"point {tag!r} needs proximity targets (only the origin has none)", *where
            )
        parents.append(targets[0] if targets else None)
        prox.append(frozenset(targets))
        if _peek(tokens) == ";":
            _take(tokens)
        elif _peek(tokens) != "}":
            _, found, *at = tokens[-1] if _peek(tokens) is not None else token
            raise ParseError(f"expected ';' or '}}', found {found!r}", *at)
    if not index:
        raise ParseError("empty cluster", *opener[2:])
    # syntax only; structural rules are the job of validate()
    return ClusterSkeleton(tuple(parents), tuple(prox), tuple(index))


def _weights_block(tokens: list, skeleton: ClusterSkeleton) -> dict:
    _take(tokens, "{")
    weights: dict = {}
    while (token := _take(tokens))[0] != "}":
        kind, tag, *where = token
        if kind != "name":
            raise ParseError(f"expected a point name, found {tag!r}", *where)
        if tag not in skeleton.tag_index:
            raise ParseError(f"unknown point {tag!r}", *where)
        point = skeleton.tag_index[tag]
        if point in weights:
            raise ParseError(f"weight of {tag!r} set twice", *where)
        _take(tokens, "=")
        _, value, *at = _take(tokens, "int")
        try:
            weights[point] = int(value)
        except ValueError:  # longer than the interpreter's integer-string limit
            raise ParseError(f"weight of {tag!r} has too many digits", *at) from None
    return weights


# -- Serializer ----------------------------------------------------------------


def serialize(name: str, cluster: WeightedCluster) -> str:
    """Two lines: the cluster block and its weights block (nonzero entries)."""
    sk = cluster.skeleton
    parts = []
    for p in sk.points:
        if sk.parents[p] is None:
            parts.append(sk.tags[p])
            continue
        targets = [sk.parents[p]] + sorted(sk.proximities[p] - {sk.parents[p]})
        parts.append(f"{sk.tags[p]} -> " + ", ".join(sk.tags[t] for t in targets))
    cluster_line = f"cluster {name} {{ " + " ; ".join(parts) + " }"
    entries = [f"{sk.tags[p]}={cluster.nu[p]}" for p in sk.points if cluster.nu[p] != 0]
    weights_line = f"weights {name} {{ " + " ".join(entries) + (" }" if entries else "}")
    return cluster_line + "\n" + weights_line + "\n"


# -- DOT export ------------------------------------------------------------------


def dot_enriques(name: str, skeleton: ClusterSkeleton) -> str:
    """Enriques-diagram view: parent edges, dashed for satellite children,
    dotted link to the second proximity target."""
    lines = [f"graph \"enriques_{name}\" {{", "  node [shape=circle];"]
    for p in skeleton.points:
        lines.append(f"  \"{skeleton.tags[p]}\";")
    for p in skeleton.points:
        parent = skeleton.parents[p]
        if parent is None:
            continue
        style = " [style=dashed]" if skeleton.is_satellite(p) else ""
        lines.append(f"  \"{skeleton.tags[parent]}\" -- \"{skeleton.tags[p]}\"{style};")
        other = skeleton.second_target(p)
        if other is not None:
            lines.append(
                f"  \"{skeleton.tags[other]}\" -- \"{skeleton.tags[p]}\""
                " [style=dotted, constraint=false];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_dual(name: str, skeleton: ClusterSkeleton, graph=None) -> str:
    """Dual-graph view with weights as labels; also used for resolution graphs."""
    if graph is None:
        graph = dual_graph(skeleton)
    lines = [f"graph \"dual_{name}\" {{", "  node [shape=circle];"]
    for v in graph.vertices:
        lines.append(f"  \"{skeleton.tags[v]}\" [label=\"{skeleton.tags[v]} ({graph.weight(v)})\"];")
    for u, v in sorted(graph.edges):
        lines.append(f"  \"{skeleton.tags[u]}\" -- \"{skeleton.tags[v]}\";")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- JSON views -------------------------------------------------------------------


def cluster_json(name: str, cluster: WeightedCluster) -> dict:
    """Multiplicities, values, excesses and dicritical points, tag-keyed."""
    sk = cluster.skeleton
    v = values(cluster)
    rho = excesses(cluster)
    return {
        "schema": 1,
        "name": name,
        "points": [
            {
                "tag": sk.tags[p],
                "parent": None if sk.parents[p] is None else sk.tags[sk.parents[p]],
                "proximities": [sk.tags[q] for q in sorted(sk.proximities[p])],
            }
            for p in sk.points
        ],
        "nu": {sk.tags[p]: cluster.nu[p] for p in sk.points},
        "v": {sk.tags[p]: v[p] for p in sk.points},
        "rho": {sk.tags[p]: rho[p] for p in sk.points},
        "dicritical": [sk.tags[p] for p in sk.points if rho[p] > 0],
    }


def boundary_json(skeleton: ClusterSkeleton, w) -> dict:
    if isinstance(w, FreeOn):
        return {"kind": "free", "on": skeleton.tags[w.point]}
    if isinstance(w, Satellite):
        return {"kind": "satellite", "between": sorted((skeleton.tags[w.p], skeleton.tags[w.q]))}
    raise ClusterError(f"not a boundary point: {w!r}")


def report_json(cluster: WeightedCluster, report: SingularityReport) -> dict:
    sk = cluster.skeleton
    out = {
        "schema": 1,
        "w": boundary_json(sk, report.w),
        "smooth": report.smooth,
    }
    if report.smooth:
        return out
    tags = sk.tags
    graph = report.resolution_graph
    out.update(
        {
            "T_Q": [tags[p] for p in report.T_Q],
            "o_Q": tags[report.o_Q],
            "epsilon": {tags[p]: e for p, e in enumerate(report.epsilon) if e != 0},
            "B_Q": [tags[p] for p in report.B_Q],
            "B1_Q": [tags[p] for p in report.B1_Q],
            "B2_Q": [tags[p] for p in report.B2_Q],
            "Kplus_Q": [tags[p] for p in report.Kplus_Q],
            "fundamental_cycle": {tags[p]: z for p, z in enumerate(report.z) if z != 0},
            "mult": report.mult,
            "emdim": report.emdim,
            "br": report.br,
            "minimal": report.minimal,
            "branches_equality": list(report.branches_equality),
            "embed_equality": list(report.embed_equality),
            "resolution_graph": {
                "vertices": [tags[v] for v in graph.vertices],
                "edges": [[tags[u], tags[v]] for u, v in graph.edges],
                "weights": {tags[v]: graph.weight(v) for v in graph.vertices},
            },
        }
    )
    return out


def certificate_json(certificate) -> dict:
    return {
        "schema": 1,
        "passed": certificate.passed,
        "consistent": certificate.consistent,
        "value_condition": certificate.value_condition,
        "localization": certificate.localization,
        "off_excess_zero": certificate.off_excess_zero,
        "readout": {tag: m for tag, m in certificate.readout},
        "readout_matches": certificate.readout_matches,
        "failures": list(certificate.failures),
    }
