import string
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from augdist import (
    AUG,
    DotSyntaxError,
    Edge,
    EmptyGraphError,
    Node,
    SchemaError,
    parse_aug,
    parse_rule,
    serialize_aug,
)
from augdist import dot
from augdist.dot import _digraph, _Parser, _scan
from gen import random_aug_pairs
from helpers import aug
from oracles import reference_tokenize

DATA = Path(__file__).parent / "data"

FIG_STYLE_GRAPH = """digraph "compute" {
  bar  [label="Bar", type="data", api="p.Bar"];
  baz  [label="Baz", type="data", api="p.Baz"];
  init [label="Object.<init>", type="init", api="java.lang.Object"];
  has  [label="Baz.hasCharacteristic()", type="action", api="p.Baz"];
  dos  [label="Baz.doSomething()", type="action", api="p.Baz"];
  getr [label="Baz.getResult()", type="action", api="p.Baz"];
  unk  [label="UNKNOWN", type="data", api="UNKNOWN"];
  ret  [label="<return>", type="return", api=""];
  foo  [label="Foo", type="data", api="p.Foo"];
  init -> baz [label="def"];
  baz -> has [label="recv"];
  baz -> dos [label="recv"];
  baz -> getr [label="recv"];
  foo -> dos [label="para"];
  bar -> dos [label="para"];
  has -> dos [label="sel"];
  dos -> getr [label="order"];
  getr -> unk [label="def"];
  unk -> ret [label="para"];
}
"""

RULE_TEXT = """digraph "add_condition" {
  eps  [label="", type="empty", part="misuse"];
  bazm [label="Baz", type="data", api="p.Baz", part="misuse"];
  dosm [label="Baz.doSomething()", type="action", api="p.Baz", part="misuse"];
  bazf [label="Baz", type="data", api="p.Baz", part="fix"];
  dosf [label="Baz.doSomething()", type="action", api="p.Baz", part="fix"];
  hasf [label="Baz.hasCharacteristic()", type="action", api="p.Baz", part="fix"];
  bazm -> dosm [label="recv"];
  bazf -> dosf [label="recv"];
  bazf -> hasf [label="recv"];
  hasf -> dosf [label="sel"];
  eps -> hasf [label="transform"];
  bazm -> bazf [label="transform"];
  dosm -> dosf [label="transform"];
}
"""


class TestParseAug:
    def test_minimal_single_node(self):
        g = parse_aug('digraph { n [label="A.m()", type="action", api="p.A"]; }')
        assert g.node_count == 1
        assert g.edge_count == 0
        node = g.nodes[0]
        assert (node.label, node.node_type, node.api) == ("A.m()", "action", "p.A")

    def test_missing_api_defaults_to_empty(self):
        g = parse_aug('digraph { n [label="A", type="data"]; }')
        assert g.nodes[0].api == ""

    def test_unknown_attributes_ignored(self):
        g = parse_aug(
            'digraph { n [label="A", type="data", color="red", shape="box"]; }'
        )
        assert g.node_count == 1

    def test_fig_style_graph(self):
        g = parse_aug(FIG_STYLE_GRAPH)
        assert g.node_count == 9
        assert g.edge_count == 10
        assert g.nodes_by_id["unk"].api == "UNKNOWN"

    def test_parallel_edges_preserved(self):
        g = parse_aug(
            'digraph { a [label="A", type="data"]; b [label="B", type="data"];'
            ' a -> b [label="order"]; a -> b [label="order"]; }'
        )
        assert g.edge_count == 2

    def test_chained_edge_statement(self):
        g = parse_aug(
            'digraph { a [label="A", type="data"]; b [label="B", type="data"];'
            ' c [label="C", type="data"]; a -> b -> c [label="order"]; }'
        )
        assert g.edge_count == 2

    def test_implicit_node_raises_schema_error(self):
        with pytest.raises(SchemaError, match="undeclared node"):
            parse_aug('digraph { a [label="A", type="data"]; a -> b [label="x"]; }')

    def test_missing_label_raises_schema_error(self):
        with pytest.raises(SchemaError, match="'label'"):
            parse_aug('digraph { a [type="data"]; }')

    def test_missing_type_raises_schema_error(self):
        with pytest.raises(SchemaError, match="'type'"):
            parse_aug('digraph { a [label="A"]; }')

    def test_missing_edge_label_raises_schema_error(self):
        with pytest.raises(SchemaError, match="edge"):
            parse_aug(
                'digraph { a [label="A", type="data"]; b [label="B", type="data"];'
                " a -> b; }"
            )

    def test_graph_without_nodes_raises_schema_error(self):
        with pytest.raises(EmptyGraphError, match="graph 'g' has no nodes") as caught:
            parse_aug("digraph g { }")
        assert isinstance(caught.value, SchemaError)

    def test_empty_type_node_rejected_outside_rules(self):
        with pytest.raises(SchemaError, match="empty"):
            parse_aug('digraph { a [label="", type="empty"]; }')

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "graph { }",
            "digraph {",
            "digraph { a [label=; }",
            "digraph { a -> ; }",
            "digraph { } trailing",
            "digraph { subgraph cluster { } }",
            'digraph { a [label="unterminated]; }',
            "digraph { n [label=-, type=data]; }",
            "digraph { a - b; }",
        ],
    )
    def test_malformed_input_raises_syntax_error(self, text):
        with pytest.raises(DotSyntaxError):
            parse_aug(text)

    @pytest.mark.parametrize("numeral", ["-1", "-.5", "-2.5"])
    def test_negative_numeral_is_a_label(self, numeral):
        g = parse_aug(f"digraph g {{ n [label={numeral}, type=data]; }}")
        assert g.nodes[0].label == numeral
        assert parse_aug(serialize_aug(g)) == g

    def test_empty_label_raises_schema_error(self):
        with pytest.raises(SchemaError, match="'a' has an empty 'label'"):
            parse_aug('digraph { a [label="", type="data"]; }')

    def test_comments_skipped(self):
        g = parse_aug(
            "digraph { // line comment\n"
            "/* block\ncomment */ "
            'a [label="A", type="data"];\n'
            "# hash comment\n}"
        )
        assert g.node_count == 1


class TestSerializeAug:
    def test_empty_graph_has_empty_body(self):
        # AUG refuses a graph with no nodes, so the body it would serialize
        # to does not parse back into one
        with pytest.raises(EmptyGraphError, match="graph 'g' has no nodes"):
            parse_aug('digraph "g" {\n}\n')

    def test_single_node_statement_carries_all_attributes(self):
        g = aug("g", [("n", "A.m()", "action", "p.A")])
        text = serialize_aug(g)
        assert 'label="A.m()"' in text
        assert 'type="action"' in text
        assert 'api="p.A"' in text

    def test_parallel_edges_serialized_individually(self):
        g = aug(
            "g",
            [("a", "A", "data", ""), ("b", "B", "data", "")],
            [("a", "b", "order"), ("a", "b", "order")],
        )
        assert serialize_aug(g).count('"a" -> "b"') == 2

    def test_fig_style_round_trip_byte_stable(self):
        first = serialize_aug(parse_aug(FIG_STYLE_GRAPH))
        second = serialize_aug(parse_aug(first))
        assert first == second


def _same_graph(g1: AUG, g2: AUG) -> bool:
    nodes1 = sorted((n.id, n.label, n.node_type, n.api) for n in g1.nodes)
    nodes2 = sorted((n.id, n.label, n.node_type, n.api) for n in g2.nodes)
    edges1 = sorted((e.source, e.target, e.label) for e in g1.edges)
    edges2 = sorted((e.source, e.target, e.label) for e in g2.edges)
    return nodes1 == nodes2 and edges1 == edges2


_text = st.text(
    alphabet=string.ascii_letters + string.digits + '._<>()"\\ $#{}',
    min_size=1,
    max_size=12,
)
# "empty" is reserved for the placeholder nodes of correction rules
_node_types = _text.filter(lambda value: value != "empty")
_ids = st.text(alphabet=string.ascii_lowercase + string.digits + "_", min_size=1, max_size=6)


@st.composite
def _graphs(draw):
    # a graph has a node; the empty body is test_empty_graph_has_empty_body's
    ids = draw(st.lists(_ids, min_size=1, max_size=6, unique=True))
    nodes = tuple(
        Node(node_id, draw(_text), draw(_node_types), draw(st.one_of(st.just(""), _text)))
        for node_id in ids
    )
    edges = tuple(
        Edge(draw(st.sampled_from(ids)), draw(st.sampled_from(ids)), draw(_text))
        for _ in range(draw(st.integers(min_value=0, max_value=8)))
    )
    name = draw(st.one_of(st.just(""), _text))
    return AUG(name, nodes, edges)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(_graphs())
    def test_parse_inverts_serialize(self, graph):
        parsed = parse_aug(serialize_aug(graph))
        assert _same_graph(graph, parsed)
        assert parsed.name == graph.name

    @settings(max_examples=50, deadline=None)
    @given(_graphs())
    def test_second_round_trip_is_byte_stable(self, graph):
        text = serialize_aug(graph)
        assert serialize_aug(parse_aug(text)) == text


class TestParseRule:
    def test_addition_rule(self):
        r = parse_rule(RULE_TEXT)
        assert r.name == "add_condition"
        assert {n.id for n in r.misuse.nodes} == {"bazm", "dosm"}
        assert {n.id for n in r.fix.nodes} == {"bazf", "dosf", "hasf"}
        assert (None, "hasf") in r.mapping
        assert ("bazm", "bazf") in r.mapping
        # member graphs never contain empty nodes
        assert all(n.node_type != "empty" for n in r.misuse.nodes + r.fix.nodes)

    def test_rule_without_transform_edges(self):
        r = parse_rule(
            'digraph "r" { a [label="A", type="data", part="misuse"];'
            ' b [label="A", type="data", part="fix"]; }'
        )
        assert r.mapping == ()
        assert r.misuse.node_count == 1
        assert r.fix.node_count == 1

    def test_deletion_maps_misuse_node_to_empty(self):
        r = parse_rule(
            'digraph "r" { a [label="A", type="data", part="misuse"];'
            ' e [label="", type="empty", part="fix"];'
            ' b [label="B", type="data", part="fix"];'
            ' a -> e [label="transform"]; }'
        )
        assert r.mapping == (("a", None),)

    @pytest.mark.parametrize("empty_side", ["misuse", "fix"])
    def test_side_with_only_empty_nodes_rejected(self, empty_side):
        kept = "fix" if empty_side == "misuse" else "misuse"
        with pytest.raises(EmptyGraphError, match=f"graph 'r/{empty_side}' has no nodes"):
            parse_rule(
                f'digraph "r" {{ e [label="", type="empty", part="{empty_side}"];'
                f' a [label="A", type="data", part="{kept}"];'
                ' a -> e [label="transform"]; }'
            )

    def test_empty_label_on_member_node_rejected(self):
        with pytest.raises(SchemaError, match="'a' has an empty 'label'"):
            parse_rule('digraph { a [label="", type="data", part="misuse"]; }')

    def test_node_without_part_rejected(self):
        with pytest.raises(SchemaError, match="'part'"):
            parse_rule('digraph { a [label="A", type="data"]; }')

    def test_transform_within_one_part_rejected(self):
        with pytest.raises(SchemaError, match="within one part"):
            parse_rule(
                'digraph { a [label="A", type="data", part="misuse"];'
                ' b [label="B", type="data", part="misuse"];'
                ' a -> b [label="transform"]; }'
            )

    def test_node_mapped_twice_rejected(self):
        with pytest.raises(SchemaError, match="mapped twice"):
            parse_rule(
                'digraph { a [label="A", type="data", part="misuse"];'
                ' b [label="B", type="data", part="fix"];'
                ' c [label="C", type="data", part="fix"];'
                ' a -> b [label="transform"]; a -> c [label="transform"]; }'
            )

    def test_cross_part_regular_edge_rejected(self):
        with pytest.raises(SchemaError, match="crosses parts"):
            parse_rule(
                'digraph { a [label="A", type="data", part="misuse"];'
                ' b [label="B", type="data", part="fix"];'
                ' a -> b [label="recv"]; }'
            )

    def test_regular_edge_touching_empty_node_rejected(self):
        with pytest.raises(SchemaError, match="empty node"):
            parse_rule(
                'digraph { e [label="", type="empty", part="misuse"];'
                ' a [label="A", type="data", part="misuse"];'
                ' e -> a [label="recv"]; }'
            )


# Fragments that exercise every branch of the lexer, including the ones
# where a prefix of a comment, string, numeral or arrow must not be taken.
_PIECES = [
    "digraph", "DiGraph", "node", "subgraph", "a", "n1", "label", "type", "part",
    '"x"', '"a\\"b"', '"\\\\"', '"\\q"', '"', '""',
    "-1", "-.5", "-", "->", "1", ".", "/*", "*/", "*", "/", "//c", "#c",
    "\\", "\x1c", "é", " ", "\n", "\t",
    "{", "}", "[", "]", "=", ",", ";",
]
# Statement-shaped fragments, so that some texts are whole graphs the
# statement reader reads and others break it just after a statement.
_STATEMENTS = [
    ' n [label="A", type=data, api=p.A]; ', " a -> b ", ' a -> b -> "c" ', " -> ",
    "[label=-1, type=t]", "[,; k=v;]", "[]", "[k=ab=c]", " node [k=v] ", " EDGE ",
    '"node"', "Graph", '"a\\"b\\\\"', "-1.2.3",
    '"byte[]"', '"a] b"', '"x]"', ' a -> b [label="]"] ',
]
_dot_like = st.lists(st.sampled_from(_PIECES + _STATEMENTS), max_size=40).map("".join)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except DotSyntaxError as error:
        return str(error)


class TestScannerMatchesReference:
    """The compiled scanner yields the reference tokenizer's tokens, or
    raises the same message, offsets included."""

    @settings(max_examples=400, deadline=None)
    @given(_dot_like)
    @example("a // c")
    @example("a /* a */ b */")
    @example("/**/ a /***/")
    @example('a "unterminated')
    @example("a /* unterminated")
    @example("-1.2.3")
    def test_same_tokens_or_message(self, text):
        def reference(text):
            return [(token.kind, token.value) for token in reference_tokenize(text)]

        def scanned(text):
            return list(zip(*_scan(text)))

        assert _tokens_or_error(scanned, text) == _tokens_or_error(reference, text)


class TestParserErrorContract:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), _dot_like, _dot_like.map(lambda body: f"digraph {{ {body} }}")))
    @example('digraph { a [label="", type="data"]; }')
    @example('digraph { a [label="", type="data", part="fix"]; }')
    def test_only_documented_errors(self, text):
        for parse in (parse_aug, parse_rule):
            try:
                parse(text)
            except (DotSyntaxError, SchemaError):
                pass


def _graph_or_message(read, text):
    try:
        graph = read(text)
    except DotSyntaxError as error:
        return str(error)
    return graph.name, list(graph.nodes.items()), graph.edges


def _walk(text):
    return _Parser(text).parse()


class TestStatementReaderMatchesWalk:
    """Parsing by statement pattern, with the token walk for what the
    pattern cannot read, builds the walk's graph in the same order, or
    raises the walk's message, offsets included."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_dot_like, _dot_like.map(lambda body: f"digraph {{ {body} }}")))
    @example("digraph { subgraph -> x }")
    @example("digraph { a [k=ab=c] }")
    @example("digraph { a [k=-1.2=v] }")
    @example("digraph { a -> b #c }")
    @example('digraph { node [label=x]; NODE; "node" [label=y, type=t] }')
    @example("digraph { -1.2.3 }")
    @example("digraph { a -> b -> c [label=l] }")
    @example('digraph { a [label="say \\"hi\\" \\\\ bye"] }')
    @example('digraph { "a" [label=x, type=t]; a -> "b" [label="r\\\\e"]; b [type=t] }')
    @example("d\u0131graph { }")
    @example('digraph { a -> "" }')
    @example("digraph { node [k=] }")
    @example("digraph { edge [a] }")
    @example('digraph { a [label="x] y", type=t] }')
    @example('digraph { a [label="x]; y", type=t]; b [label="]}"] }')
    @example("digraph { a [label=x, type=t }")
    @example('digraph { a [label="x"] b [k=v')
    @example("digraph { a [k=]; b [label=x, type=t] }")  # "k=" of the node example, cached
    def test_same_graph_or_message(self, text):
        assert _graph_or_message(_digraph, text) == _graph_or_message(_walk, text)


_READ_FORMS = [
    "digraph { a -> b -> c [label=l] }",
    'digraph g { node [label=x]; NODE; "node" [label=y, type=t] }',
    'digraph { a [label="say \\"hi\\" \\\\ bye"]; a [type=t, label=-1.5] }',
    'digraph -1 { a [,;]; "" -> a [label=l;] }',
    'digraph { a [label="byte[]", type=data]; b [label="Arrays.sort(int[])", type=action];'
    ' a -> b [label="]"] }',
]


class TestStatementReaderCoverage:
    """The forms the package writes and bundles never reach the token walk,
    so a reader that quietly hands every text to the walk fails here."""

    @pytest.fixture(autouse=True)
    def _no_walk(self, monkeypatch):
        def walk(text):
            raise AssertionError(f"the token walk was asked to read {text!r}")

        monkeypatch.setattr(dot, "_Parser", walk)

    @pytest.mark.parametrize(
        "path", sorted(DATA.rglob("*.dot")), ids=lambda path: path.name
    )
    def test_bundled_files(self, path):
        parse = parse_rule if path.parent.name == "rules" else parse_aug
        parse(path.read_text(encoding="utf-8"))

    def test_serialized_graphs(self):
        for pair in random_aug_pairs(seed=17, count=40, max_nodes=8, max_edges=12):
            for graph in pair:
                assert _same_graph(parse_aug(serialize_aug(graph)), graph)

    @pytest.mark.parametrize("text", _READ_FORMS)
    def test_statement_forms(self, text):
        # _walk calls this module's _Parser, which the fixture leaves alone
        assert _graph_or_message(_digraph, text) == _graph_or_message(_walk, text)


class TestSharedReads:
    """Equal attribute lists, nodes and edges are read once per process and
    shared, so no parse may change what another parse was given."""

    def test_redeclared_node_leaves_the_shared_attributes_alone(self):
        first = parse_aug('digraph { a [label="x", type="data"]; a [api="p.Q"]; }')
        second = parse_aug('digraph { b [label="x", type="data"]; }')
        assert first.nodes == (Node("a", "x", "data", "p.Q"),)
        assert second.nodes == (Node("b", "x", "data", ""),)

    def test_equal_texts_share_nodes_and_edges(self):
        first, second = parse_aug(FIG_STYLE_GRAPH), parse_aug(FIG_STYLE_GRAPH)
        assert first == second
        assert all(x is y for x, y in zip(first.nodes, second.nodes, strict=True))
        assert all(x is y for x, y in zip(first.edges, second.edges, strict=True))

    def test_every_cache_is_bounded(self):
        caches = {name: f for name, f in vars(dot).items() if hasattr(f, "cache_info")}
        assert {"_attributes", "_node", "_edge"} <= caches.keys()
        for name, cached in caches.items():
            assert cached.cache_info().maxsize is not None, name
