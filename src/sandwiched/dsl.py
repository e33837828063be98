"""Text formats: the cluster DSL, DOT export, and JSON views.

The DSL is line-oriented UTF-8; `#` starts a comment.  A cluster block lists
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
from dataclasses import dataclass
from typing import Optional

from .analyzer import FreeOn, Satellite, SingularityReport
from .cluster import ClusterSkeleton, dual_graph
from .errors import ClusterError, ParseError
from .weighted import WeightedCluster, dicritical_set, excesses, values


# -- Tokenizer ----------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'name', 'int', or a literal symbol
    text: str
    line: int
    column: int


# ASCII digits only, with an optional minus sign: `int` also reads other
# scripts' digits and underscores, and str.isdigit() accepts superscripts
INTEGER = re.compile(r"-?[0-9]+")
_WORD = re.compile(r"\w+")  # what str.isalnum() accepts, and `_`


def is_name(text: str) -> bool:
    """A point or cluster name: a letter or `_`, then letters, digits and `_`."""
    return _WORD.fullmatch(text) is not None and (text[0].isalpha() or text[0] == "_")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            if line.startswith("->", col):
                tokens.append(_Token("->", "->", lineno, col + 1))
                col += 2
                continue
            if ch in "{};,=":
                tokens.append(_Token(ch, ch, lineno, col + 1))
                col += 1
                continue
            if is_name(ch):
                end = _WORD.match(line, col).end()
                tokens.append(_Token("name", line[col:end], lineno, col + 1))
                col = end
                continue
            integer = INTEGER.match(line, col)
            if integer:
                tokens.append(_Token("int", integer.group(), lineno, col + 1))
                col = integer.end()
                continue
            raise ParseError(f"unexpected character {ch!r}", lineno, col + 1)
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.column)
        return tok


# -- Parser ------------------------------------------------------------------


def parse(text: str) -> dict:
    """Parse a DSL document into named weighted clusters (insertion order).

    A cluster with no weights block has all multiplicities zero.
    """
    cursor = _Cursor(_tokenize(text))
    skeletons: dict = {}
    weight_maps: dict = {}
    while cursor.peek() is not None:
        head = cursor.expect("name")
        if head.text == "cluster":
            name_tok = cursor.expect("name")
            if name_tok.text in skeletons:
                raise ParseError(
                    f"cluster {name_tok.text!r} defined twice", name_tok.line, name_tok.column
                )
            skeletons[name_tok.text] = _parse_cluster_block(cursor)
        elif head.text == "weights":
            name_tok = cursor.expect("name")
            if name_tok.text not in skeletons:
                raise ParseError(
                    f"weights for unknown cluster {name_tok.text!r}",
                    name_tok.line,
                    name_tok.column,
                )
            if name_tok.text in weight_maps:
                raise ParseError(
                    f"weights for {name_tok.text!r} defined twice",
                    name_tok.line,
                    name_tok.column,
                )
            weight_maps[name_tok.text] = _parse_weights_block(cursor, skeletons[name_tok.text])
        else:
            raise ParseError(
                f"expected 'cluster' or 'weights', found {head.text!r}", head.line, head.column
            )
    out: dict = {}
    for name, skeleton in skeletons.items():
        nu = weight_maps.get(name, {})
        out[name] = WeightedCluster(
            skeleton, tuple(nu.get(p, 0) for p in skeleton.points)
        )
    return out


def _parse_cluster_block(cursor: _Cursor) -> ClusterSkeleton:
    opener = cursor.expect("{")
    parents: list[Optional[int]] = []
    prox: list[frozenset[int]] = []
    tags: list[str] = []
    index: dict = {}
    while True:
        tok = cursor.next()
        if tok.kind == "}":
            break
        if tok.kind != "name":
            raise ParseError(f"expected a point name, found {tok.text!r}", tok.line, tok.column)
        if tok.text in index:
            raise ParseError(f"point {tok.text!r} declared twice", tok.line, tok.column)
        point = len(tags)
        index[tok.text] = point
        tags.append(tok.text)
        nxt = cursor.peek()
        if nxt is not None and nxt.kind == "->":
            cursor.next()
            targets = [_resolve(cursor.expect("name"), index)]
            if cursor.peek() is not None and cursor.peek().kind == ",":
                cursor.next()
                second = cursor.expect("name")
                if _resolve(second, index) == targets[0]:
                    raise ParseError(
                        f"proximity target {second.text!r} repeated", second.line, second.column
                    )
                targets.append(_resolve(second, index))
            parents.append(targets[0])
            prox.append(frozenset(targets))
            nxt = cursor.peek()
        else:
            if point != 0:
                raise ParseError(
                    f"point {tok.text!r} needs proximity targets (only the origin has none)",
                    tok.line,
                    tok.column,
                )
            parents.append(None)
            prox.append(frozenset())
        if nxt is not None and nxt.kind == ";":
            cursor.next()
            continue
        if nxt is not None and nxt.kind == "}":
            continue
        where = nxt if nxt is not None else tok
        raise ParseError(
            f"expected ';' or '}}', found {where.text!r}", where.line, where.column
        )
    if not tags:
        raise ParseError("empty cluster", opener.line, opener.column)
    # syntax only; structural rules are the job of validate()
    return ClusterSkeleton(tuple(parents), tuple(prox), tuple(tags))


def _resolve(tok: _Token, index: dict) -> int:
    if tok.text not in index:
        raise ParseError(
            f"proximity target {tok.text!r} is not a previously declared point",
            tok.line,
            tok.column,
        )
    return index[tok.text]


def _parse_weights_block(cursor: _Cursor, skeleton: ClusterSkeleton) -> dict:
    cursor.expect("{")
    weights: dict = {}
    while True:
        tok = cursor.next()
        if tok.kind == "}":
            break
        if tok.kind != "name":
            raise ParseError(f"expected a point name, found {tok.text!r}", tok.line, tok.column)
        if tok.text not in skeleton.tag_index:
            raise ParseError(f"unknown point {tok.text!r}", tok.line, tok.column)
        point = skeleton.tag_index[tok.text]
        if point in weights:
            raise ParseError(f"weight of {tok.text!r} set twice", tok.line, tok.column)
        cursor.expect("=")
        value = cursor.expect("int")
        try:
            weights[point] = int(value.text)
        except ValueError:  # longer than the interpreter's integer-string limit
            raise ParseError(
                f"weight of {tok.text!r} has too many digits", value.line, value.column
            ) from None
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
        "dicritical": [sk.tags[p] for p in sorted(dicritical_set(cluster))],
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
