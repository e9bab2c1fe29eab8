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
fails only with ``DotSyntaxError`` or ``SchemaError``; a graph with no nodes
is refused by ``AUG`` itself with ``EmptyGraphError``, a ``SchemaError``.

Text is read statement by statement, one pattern match each, with only
whitespace between tokens. The pattern finds an attribute list by a bracket
scan that skips quoted values; its grammar is checked once per distinct
list text, when the list's dict is first read. A text the statement
pattern cannot read (comments, touching tokens such as ``-1.2.3``,
subgraphs, a quoted value holding a ``]`` that whitespace, ``;`` or ``}``
follows, and every error) goes to a token walk, which reads it from the
start and is the only place errors are worded. Both build the same graph.

Equal pieces of text are read once per process and the immutable result is
shared, through bounded caches: an attribute list's dict, and each ``Node``
and ``Edge``. Corpora that reuse API labels and edge kinds gain the most.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field

from .errors import DotSyntaxError, SchemaError
from .graphs import AUG, EMPTY_TYPE, CorrectionRule, Edge, Node

_PART_MISUSE = "misuse"
_PART_FIX = "fix"
_TRANSFORM = "transform"

# Token patterns both readers share: a string's body, an id word, a negative numeral.
_STRING_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'
_WORD_CHAR = r"[A-Za-z0-9_.]"
_WORD = rf"{_WORD_CHAR}+"
_NUMERAL = r"-(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)"

# One match per token: a prefix of whitespace and comments, then the token.
# Groups: 1 string (quotes included), 2 id or negative numeral,
# 3 punctuation, 4 any other character, which is a syntax error. After the
# prefix, end of input or some character always matches, so the prefix never
# gives characters back (an input ending in "// c" stays a comment).
_SCANNER = re.compile(
    rf"""(?:\s+|\#[^\n]*|//[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)*
    (?:("{_STRING_BODY}")
      |({_WORD}|{_NUMERAL})
      |(->|[{{}}\[\]=,;])
      |\Z
      |(.))""",
    re.VERBOSE | re.DOTALL,
)

_ESCAPE = re.compile(r'\\(["\\])')


def _unescape(body: str) -> str:
    """A string token's value: ``\\"`` and ``\\\\`` stand for ``"`` and ``\\``."""
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


# The statement reader's tokens. Each id or negative numeral is followed by
# a look-ahead for a character that would extend it, so that backtracking
# never splits a token the scanner reads whole. Keywords ignore ASCII case
# only ((?ai:...)): plain (?i) lets "İ" or "ı" stand for the "i" of
# "digraph" and "ſ" for the "s" of "subgraph", which the scanner rejects.
# Possessive quantifiers and atomic groups would do the look-aheads' job but
# need Python 3.11.
_WORD_END = rf"(?!{_WORD_CHAR})"
_ID = rf"(?:{_WORD}{_WORD_END}|{_NUMERAL}(?![0-9.]))"
_NAME = rf'(?:"{_STRING_BODY}"|{_ID})'
_NAME_GROUPS = rf'(?:"({_STRING_BODY})"|({_ID}))'  # a string's body, or an id

_HEAD = re.compile(rf"\s*(?ai:digraph){_WORD_END}\s*(?:{_NAME_GROUPS}\s*)?\{{", re.DOTALL)
# One match per statement, separated by whitespace only. Comments are left
# to the token walk: a gap that also skips them made the reader much slower,
# and without possessive quantifiers a "#" comment could end before its line
# does. An attribute list is only found here, by a bracket scan: to the
# first "]" if whitespace, ";" or "}" follows it, else to the first "]"
# outside quoted values, as Java array types put "]" in labels (the second
# scan alone made wide-corpus evaluates about 6% slower). Its grammar is
# checked by _attributes, once per distinct text; a text that is no
# attribute list, such as one cut at a "]" inside a value, goes to the
# token walk. Groups: 1 the keyword of a default-attribute statement; 2-3
# the first name; 4 the arrow, 5-6 the second name and 7 the rest of an
# edge chain; 8 the attribute list; 9 the closing brace at the end of the
# text; 10 the rest of a text the reader hands to the token walk. Group 9
# or 10 is in the last match only.
_STATEMENT = re.compile(
    rf"""\s*(?:
      (?:((?ai:graph|node|edge)){_WORD_END}(?=\s*\[)
      | (?!(?ai:subgraph){_WORD_END})
        {_NAME_GROUPS}
        (?:\s*(->)\s*{_NAME_GROUPS}((?:\s*->\s*{_NAME})*))?
      )
      (?:\s*\[([^\]]*(?=\][\s;}}])|[^\]"]*(?:"{_STRING_BODY}"[^\]"]*)*)\])?
    | (\}}\s*\Z)
    | (.+)
    )\s*;?""",
    re.VERBOSE | re.DOTALL,
)
# These read what _STATEMENT has found: an attribute list, one pair per
# match after any separators, and the rest of an edge chain, split into
# names. _PAIR's group 5 is a character that starts neither a pair nor a
# separator, so a text is an attribute list just when no match has it.
_PAIR = re.compile(rf"[\s,;]*(?:{_NAME_GROUPS}\s*=\s*{_NAME_GROUPS}|([^\s,;]))", re.DOTALL)
_OTHER = operator.itemgetter(4)  # a _PAIR match's group 5
_CHAIN = re.compile(_NAME_GROUPS, re.DOTALL)


# Entries in each cache below. Their results are shared, so nothing may mutate them.
_CACHE_SIZE = 1 << 14


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _attributes(attr_list: str) -> dict[str, str] | None:
    """The dict of an attribute list's raw text, shared and read-only, or
    None where the text is not an attribute list."""
    pairs = _PAIR.findall(attr_list)
    if any(map(_OTHER, pairs)):
        return None
    unescape = _unescape if "\\" in attr_list else str
    return {
        unescape(key_str or key_id): unescape(value_str or value_id)
        for key_str, key_id, value_str, value_id, _ in pairs
    }


_node = functools.lru_cache(maxsize=_CACHE_SIZE)(Node)
_edge = functools.lru_cache(maxsize=_CACHE_SIZE)(Edge)


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
            values.append(_unescape(string[1:-1]))
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
    # declared node id -> merged attributes, in declaration order; the
    # attribute dicts here and in edges may be shared, so they are read-only
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


def _read_statements(text: str) -> _Digraph | None:
    """The graph ``_Parser`` builds from text, read one statement per match,
    or None where the text needs the token walk: comments, other forms and
    every error."""
    head = _HEAD.match(text)
    if head is None:
        return None
    statements = _STATEMENT.findall(text, head.end())
    if not statements or not statements[-1][8]:  # no closing brace (group 9)
        return None
    # Only a text with a backslash has anything to unescape.
    unescape = _unescape if "\\" in text else str
    name_str, name_id = head.groups("")
    graph = _Digraph(unescape(name_str or name_id))
    nodes, edges = graph.nodes, graph.edges
    for default, a_str, a_id, arrow, b_str, b_id, rest, attr_list, _, _ in statements[:-1]:
        attrs = _attributes(attr_list)
        if attrs is None:
            return None
        if default:
            continue
        first = unescape(a_str or a_id)
        if not arrow:
            nodes[first] = {**nodes[first], **attrs} if first in nodes else attrs
            continue
        second = unescape(b_str or b_id)
        if not rest:
            edges.append((first, second, attrs))
            continue
        chain = [first, second] + [unescape(s or i) for s, i in _CHAIN.findall(rest)]
        edges.extend((source, target, attrs) for source, target in zip(chain, chain[1:]))
    return graph


def _digraph(text: str) -> _Digraph:
    """The text's graph, by statement pattern where it reads the text."""
    graph = _read_statements(text)
    return graph if graph is not None else _Parser(text).parse()


def _node_from_attrs(node_id: str, attrs: dict[str, str]) -> Node:
    if "label" not in attrs:
        raise SchemaError(f"node {node_id!r} is missing the 'label' attribute")
    if "type" not in attrs:
        raise SchemaError(f"node {node_id!r} is missing the 'type' attribute")
    if not attrs["label"] and attrs["type"] != EMPTY_TYPE:
        raise SchemaError(f"node {node_id!r} has an empty 'label'")
    return _node(node_id, attrs["label"], attrs["type"], attrs.get("api", ""))


def _check_declared(graph: _Digraph) -> None:
    nodes = graph.nodes
    for source, target, _ in graph.edges:
        if source not in nodes or target not in nodes:
            endpoint = target if source in nodes else source
            raise SchemaError(
                f"edge references undeclared node {endpoint!r}; implicitly "
                f"created nodes lack the required attributes"
            )


def _unlabeled(source: str, target: str) -> SchemaError:
    return SchemaError(f"edge {source!r} -> {target!r} is missing the 'label' attribute")


def parse_aug(dot_text: str) -> AUG:
    """Parse DOT text describing a single usage graph, which needs a node."""
    graph = _digraph(dot_text)
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
    edges = []
    for source, target, attrs in graph.edges:
        label = attrs.get("label")
        if label is None:
            raise _unlabeled(source, target)
        edges.append(_edge(source, target, label))
    return AUG(graph.name, tuple(nodes), tuple(edges))


def parse_rule(dot_text: str) -> CorrectionRule:
    """Parse DOT text describing a correction rule.

    The misuse and fix member graphs are rebuilt without empty nodes and
    without the ``transform`` edges, which become the rule's node mapping.
    Each side needs a node besides its empty ones.
    """
    graph = _digraph(dot_text)
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
        label = attrs.get("label")
        if label is None:
            raise _unlabeled(source, target)
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
        member_edges[parts[source]].append(_edge(source, target, label))

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
