"""Reading and writing usage graphs as DOT text.

Supported schema: a ``digraph`` whose node statements carry ``label``,
``type`` and optional ``api`` attributes, and whose edge statements carry a
``label`` attribute. Correction rules additionally tag every node with
``part`` (``misuse`` or ``fix``) and encode the node mapping as inter-part
edges labeled ``transform``; empty nodes have ``type="empty"``. Unknown
attributes are ignored. Subgraphs and ports are outside the schema.

Lexical subset: quoted strings, in which ``\\"`` and ``\\\\`` stand for
``"`` and ``\\`` while every other backslash escape is kept verbatim; ids
made of ``[A-Za-z0-9_.]`` and negative numerals (``-1``, ``-.5``,
``-2.5``); the punctuation ``{ } [ ] = , ; ->``; ``#`` and ``//`` line
comments and ``/* */`` block comments. The keywords ``digraph``,
``subgraph``, ``graph``, ``node`` and ``edge`` are case-insensitive. Parsing
fails only with ``DotSyntaxError`` or ``SchemaError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DotSyntaxError, SchemaError
from .graphs import AUG, EMPTY_TYPE, CorrectionRule, Edge, Node

_PART_MISUSE = "misuse"
_PART_FIX = "fix"
_TRANSFORM = "transform"

# One match per token: a prefix of whitespace and comments, then the token.
# Groups: 1 string (quotes included), 2 id or negative numeral,
# 3 punctuation, 4 any other character, which is a syntax error. After the
# prefix, end of input or some character always matches, so the prefix never
# gives characters back (an input ending in "// c" stays a comment).
_SCANNER = re.compile(
    r"""(?:\s+|\#[^\n]*|//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*
    (?:("[^"\\]*(?:\\.[^"\\]*)*")
      |([A-Za-z0-9_.]+|-(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?))
      |(->|[{}\[\]=,;])
      |\Z
      |(.))""",
    re.VERBOSE | re.DOTALL,
)


def _offset(text: str, index: int) -> int:
    """Offset of the index-th token, recomputed only to report an error."""
    return [m.start(m.lastindex) for m in _SCANNER.finditer(text) if m.lastindex][index]


def _scan(text: str) -> tuple[list[str], list[str]]:
    """Token kinds ("id", "string" or the punctuation) and values, in order."""
    kinds: list[str] = []
    values: list[str] = []
    for string, name, punct, other in _SCANNER.findall(text):
        if string:
            kinds.append("string")
            body = string[1:-1]
            values.append(re.sub(r'\\(["\\])', r"\1", body) if "\\" in body else body)
        elif name:
            kinds.append("id")
            values.append(name)
        elif punct:
            kinds.append(punct)
            values.append(punct)
        elif other:
            at = _offset(text, len(kinds))
            if other == '"':
                raise DotSyntaxError(f"unterminated string at offset {at}")
            if text.startswith("/*", at):
                raise DotSyntaxError(f"unterminated comment at offset {at}")
            raise DotSyntaxError(f"unexpected character {other!r} at offset {at}")
    return kinds, values


@dataclass
class _Digraph:
    name: str = ""
    # declared node id -> merged attributes, in declaration order
    nodes: dict[str, dict[str, str]] = field(default_factory=dict)
    edges: list[tuple[str, str, dict[str, str]]] = field(default_factory=list)


_NAMES = ("id", "string")
_END = ""  # kind of the sentinel after the last token


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.kinds, self.values = _scan(text)
        self.kinds.append(_END)
        self.pos = 0

    def _next(self) -> int:
        """Consume the next token and return its index."""
        index = self.pos
        if self.kinds[index] == _END:
            raise DotSyntaxError("unexpected end of input")
        self.pos = index + 1
        return index

    def _found(self, expected: str, index: int) -> DotSyntaxError:
        return DotSyntaxError(
            f"expected {expected} but found {self.values[index]!r} "
            f"at offset {_offset(self.text, index)}"
        )

    def _expect(self, kind: str) -> None:
        index = self._next()
        if self.kinds[index] != kind:
            raise self._found(repr(kind), index)

    def _name(self) -> str:
        index = self._next()
        if self.kinds[index] not in _NAMES:
            raise self._found("identifier", index)
        return self.values[index]

    def parse(self) -> _Digraph:
        graph = _Digraph()
        kinds = self.kinds
        head = self._next()
        if kinds[head] != "id" or self.values[head].lower() != "digraph":
            raise DotSyntaxError("input does not start with a digraph")
        if kinds[self.pos] in _NAMES:
            graph.name = self._name()
        self._expect("{")
        while kinds[self.pos] != "}":
            if kinds[self.pos] == _END:
                raise DotSyntaxError("missing closing brace")
            self._statement(graph)
        self.pos += 1
        if kinds[self.pos] != _END:
            raise DotSyntaxError(
                f"trailing input after closing brace at offset {_offset(self.text, self.pos)}"
            )
        return graph

    def _statement(self, graph: _Digraph) -> None:
        kinds = self.kinds
        index = self._next()
        kind, first = kinds[index], self.values[index]
        if kind not in _NAMES:
            raise self._found("a statement", index)
        keyword = first.lower() if kind == "id" else ""
        if keyword == "subgraph":
            raise DotSyntaxError("subgraphs are not part of the schema")
        if keyword in ("graph", "node", "edge") and kinds[self.pos] == "[":
            self._attr_list()  # default-attribute statement: parse and ignore
        elif kinds[self.pos] == "->":
            chain = [first]
            while kinds[self.pos] == "->":
                self.pos += 1
                chain.append(self._name())
            attrs = self._attr_list() if kinds[self.pos] == "[" else {}
            for source, target in zip(chain, chain[1:]):
                graph.edges.append((source, target, dict(attrs)))
        else:
            attrs = self._attr_list() if kinds[self.pos] == "[" else {}
            graph.nodes.setdefault(first, {}).update(attrs)
        if kinds[self.pos] == ";":
            self.pos += 1

    def _attr_list(self) -> dict[str, str]:
        kinds = self.kinds
        self.pos += 1  # the opening "["
        attrs: dict[str, str] = {}
        while True:
            kind = kinds[self.pos]
            if kind == _END:
                raise DotSyntaxError("unterminated attribute list")
            if kind == "]":
                self.pos += 1
                return attrs
            if kind in (",", ";"):
                self.pos += 1
                continue
            key = self._name()
            self._expect("=")
            attrs[key] = self._name()


def _node_from_attrs(node_id: str, attrs: dict[str, str]) -> Node:
    if "label" not in attrs:
        raise SchemaError(f"node {node_id!r} is missing the 'label' attribute")
    if "type" not in attrs:
        raise SchemaError(f"node {node_id!r} is missing the 'type' attribute")
    if not attrs["label"] and attrs["type"] != EMPTY_TYPE:
        raise SchemaError(f"node {node_id!r} has an empty 'label'")
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
