"""Reading and writing usage graphs as DOT text.

Supported schema: a ``digraph`` whose node statements carry ``label``,
``type`` and optional ``api`` attributes, and whose edge statements carry a
``label`` attribute. Correction rules additionally tag every node with
``part`` (``misuse`` or ``fix``) and encode the node mapping as inter-part
edges labeled ``transform``; empty nodes have ``type="empty"``. Unknown
attributes are ignored. Subgraphs and ports are outside the schema.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DotSyntaxError, SchemaError
from .graphs import AUG, EMPTY_TYPE, CorrectionRule, Edge, Node

_PART_MISUSE = "misuse"
_PART_FIX = "fix"
_TRANSFORM = "transform"

_ID_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.")
# A negative DOT numeral; unsigned ones are already runs of id characters.
_NEGATIVE_NUMERAL = re.compile(r"-(\.[0-9]+|[0-9]+(\.[0-9]*)?)")


@dataclass
class _Token:
    kind: str  # "id", "string", or a punctuation literal
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#" or text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise DotSyntaxError(f"unterminated comment at offset {i}")
            i = end + 2
            continue
        if ch == '"':
            start = i
            i += 1
            parts: list[str] = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    nxt = text[i + 1]
                    if nxt in ('"', "\\"):
                        parts.append(nxt)
                    else:
                        parts.append(text[i : i + 2])
                    i += 2
                else:
                    parts.append(text[i])
                    i += 1
            if i >= n:
                raise DotSyntaxError(f"unterminated string at offset {start}")
            i += 1
            tokens.append(_Token("string", "".join(parts), start))
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", i))
            i += 2
            continue
        numeral = _NEGATIVE_NUMERAL.match(text, i) if ch == "-" else None
        if numeral:
            tokens.append(_Token("id", numeral.group(), i))
            i = numeral.end()
            continue
        if ch in "{}[]=,;":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch in _ID_CHARS:
            start = i
            while i < n and text[i] in _ID_CHARS:
                i += 1
            tokens.append(_Token("id", text[start:i], start))
            continue
        raise DotSyntaxError(f"unexpected character {ch!r} at offset {i}")
    return tokens


@dataclass
class _Digraph:
    name: str = ""
    # declared node id -> merged attributes, in declaration order
    nodes: dict[str, dict[str, str]] = field(default_factory=dict)
    edges: list[tuple[str, str, dict[str, str]]] = field(default_factory=list)


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise DotSyntaxError("unexpected end of input")
        self.pos += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise DotSyntaxError(
                f"expected {kind!r} but found {token.value!r} at offset {token.pos}"
            )
        return token

    def _name_token(self) -> str:
        token = self._next()
        if token.kind not in ("id", "string"):
            raise DotSyntaxError(
                f"expected identifier but found {token.value!r} at offset {token.pos}"
            )
        return token.value

    def parse(self) -> _Digraph:
        graph = _Digraph()
        head = self._next()
        if head.kind != "id" or head.value.lower() != "digraph":
            raise DotSyntaxError("input does not start with a digraph")
        token = self._peek()
        if token is not None and token.kind in ("id", "string"):
            graph.name = self._next().value
        self._expect("{")
        while True:
            token = self._peek()
            if token is None:
                raise DotSyntaxError("missing closing brace")
            if token.kind == "}":
                self._next()
                break
            self._statement(graph)
        if self._peek() is not None:
            trailing = self._peek()
            assert trailing is not None
            raise DotSyntaxError(
                f"trailing input after closing brace at offset {trailing.pos}"
            )
        return graph

    def _statement(self, graph: _Digraph) -> None:
        token = self._next()
        if token.kind not in ("id", "string"):
            raise DotSyntaxError(
                f"expected a statement but found {token.value!r} at offset {token.pos}"
            )
        if token.kind == "id" and token.value.lower() == "subgraph":
            raise DotSyntaxError("subgraphs are not part of the schema")
        if token.kind == "id" and token.value.lower() in ("graph", "node", "edge"):
            nxt = self._peek()
            if nxt is not None and nxt.kind == "[":
                self._attr_list()  # default-attribute statement: parse and ignore
                self._skip_separator()
                return
        first = token.value
        nxt = self._peek()
        if nxt is not None and nxt.kind == "->":
            chain = [first]
            while (arrow := self._peek()) is not None and arrow.kind == "->":
                self._next()
                chain.append(self._name_token())
            attrs = {}
            if (bracket := self._peek()) is not None and bracket.kind == "[":
                attrs = self._attr_list()
            for source, target in zip(chain, chain[1:]):
                graph.edges.append((source, target, dict(attrs)))
        else:
            attrs = {}
            if nxt is not None and nxt.kind == "[":
                attrs = self._attr_list()
            graph.nodes.setdefault(first, {}).update(attrs)
        self._skip_separator()

    def _skip_separator(self) -> None:
        token = self._peek()
        if token is not None and token.kind == ";":
            self._next()

    def _attr_list(self) -> dict[str, str]:
        self._expect("[")
        attrs: dict[str, str] = {}
        while True:
            token = self._peek()
            if token is None:
                raise DotSyntaxError("unterminated attribute list")
            if token.kind == "]":
                self._next()
                return attrs
            if token.kind in (",", ";"):
                self._next()
                continue
            key = self._name_token()
            self._expect("=")
            value = self._name_token()
            attrs[key] = value


def _node_from_attrs(node_id: str, attrs: dict[str, str]) -> Node:
    if "label" not in attrs:
        raise SchemaError(f"node {node_id!r} is missing the 'label' attribute")
    if "type" not in attrs:
        raise SchemaError(f"node {node_id!r} is missing the 'type' attribute")
    return Node(
        id=node_id,
        label=attrs["label"],
        node_type=attrs["type"],
        api=attrs.get("api", ""),
    )


def _check_declared(graph: _Digraph) -> None:
    for source, target, _ in graph.edges:
        for endpoint in (source, target):
            if endpoint not in graph.nodes:
                raise SchemaError(
                    f"edge references undeclared node {endpoint!r}; implicitly "
                    f"created nodes lack the required attributes"
                )


def _edge_label(source: str, target: str, attrs: dict[str, str]) -> str:
    if "label" not in attrs:
        raise SchemaError(f"edge {source!r} -> {target!r} is missing the 'label' attribute")
    return attrs["label"]


def parse_aug(dot_text: str) -> AUG:
    """Parse DOT text describing a single usage graph."""
    graph = _Parser(dot_text).parse()
    _check_declared(graph)
    nodes = []
    for node_id, attrs in graph.nodes.items():
        node = _node_from_attrs(node_id, attrs)
        if node.node_type == EMPTY_TYPE:
            raise SchemaError(
                f"node {node_id!r} has type 'empty'; empty nodes are only valid "
                f"inside correction rules"
            )
        nodes.append(node)
    edges = tuple(
        Edge(source, target, _edge_label(source, target, attrs))
        for source, target, attrs in graph.edges
    )
    return AUG(graph.name, tuple(nodes), edges)


def parse_rule(dot_text: str) -> CorrectionRule:
    """Parse DOT text describing a correction rule.

    The misuse and fix member graphs are rebuilt without empty nodes and
    without the ``transform`` edges, which become the rule's node mapping.
    """
    graph = _Parser(dot_text).parse()
    _check_declared(graph)

    parts: dict[str, str] = {}
    empties: set[str] = set()
    members: dict[str, list[Node]] = {_PART_MISUSE: [], _PART_FIX: []}
    for node_id, attrs in graph.nodes.items():
        part = attrs.get("part")
        if part not in (_PART_MISUSE, _PART_FIX):
            raise SchemaError(
                f"node {node_id!r} needs a 'part' attribute of 'misuse' or 'fix'"
            )
        parts[node_id] = part
        if attrs.get("type") == EMPTY_TYPE:
            empties.add(node_id)
            continue
        members[part].append(_node_from_attrs(node_id, attrs))

    member_edges: dict[str, list[Edge]] = {_PART_MISUSE: [], _PART_FIX: []}
    mapping: list[tuple[str | None, str | None]] = []
    mapped: dict[str, set[str]] = {_PART_MISUSE: set(), _PART_FIX: set()}
    for source, target, attrs in graph.edges:
        label = _edge_label(source, target, attrs)
        if label == _TRANSFORM:
            if parts[source] == parts[target]:
                raise SchemaError(
                    f"transform edge {source!r} -> {target!r} stays within one part"
                )
            by_part = {parts[source]: source, parts[target]: target}
            misuse_id = by_part[_PART_MISUSE]
            fix_id = by_part[_PART_FIX]
            if misuse_id in empties and fix_id in empties:
                raise SchemaError(
                    f"transform edge {source!r} -> {target!r} joins two empty nodes"
                )
            for part, node_id in ((_PART_MISUSE, misuse_id), (_PART_FIX, fix_id)):
                if node_id in empties:
                    continue
                if node_id in mapped[part]:
                    raise SchemaError(f"node {node_id!r} is mapped twice")
                mapped[part].add(node_id)
            mapping.append(
                (
                    None if misuse_id in empties else misuse_id,
                    None if fix_id in empties else fix_id,
                )
            )
            continue
        if parts[source] != parts[target]:
            raise SchemaError(
                f"edge {source!r} -> {target!r} crosses parts without a "
                f"transform label"
            )
        if source in empties or target in empties:
            raise SchemaError(
                f"edge {source!r} -> {target!r} touches an empty node but is "
                f"not a transform edge"
            )
        member_edges[parts[source]].append(Edge(source, target, label))

    name = graph.name
    misuse = AUG(f"{name}/misuse", tuple(members[_PART_MISUSE]), tuple(member_edges[_PART_MISUSE]))
    fix = AUG(f"{name}/fix", tuple(members[_PART_FIX]), tuple(member_edges[_PART_FIX]))
    return CorrectionRule(name, misuse, fix, tuple(mapping))


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_aug(graph: AUG) -> str:
    """Render a usage graph as DOT text.

    Output is deterministic: nodes sorted by id, edges by (source, target,
    label), attributes always in the order label, type, api. Parsing the
    result reproduces the graph including edge multiplicities.
    """
    head = f"digraph {_quote(graph.name)} {{" if graph.name else "digraph {"
    lines = [head]
    for node in sorted(graph.nodes, key=lambda n: n.id):
        lines.append(
            f"  {_quote(node.id)} [label={_quote(node.label)}, "
            f"type={_quote(node.node_type)}, api={_quote(node.api)}];"
        )
    for edge in sorted(graph.edges, key=lambda e: (e.source, e.target, e.label)):
        lines.append(
            f"  {_quote(edge.source)} -> {_quote(edge.target)} "
            f"[label={_quote(edge.label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
