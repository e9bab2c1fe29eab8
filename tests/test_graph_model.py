from collections import Counter

import pytest

from augdist import AUG, Edge, EmptyGraphError, Node, SchemaError, package_of, split_by_api
from helpers import aug, rule


class TestModelInvariants:
    def test_duplicate_node_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate node id"):
            aug("g", [("n1", "A", "data", ""), ("n1", "B", "data", "")])

    def test_edge_endpoint_must_exist(self):
        with pytest.raises(ValueError, match="missing node"):
            aug("g", [("n1", "A", "data", "")], [("n1", "n2", "recv")])

    def test_empty_label_rejected_for_regular_node(self):
        with pytest.raises(ValueError, match="empty label"):
            Node("n1", "", "data")

    def test_empty_type_node_rejected_in_standalone_graph(self):
        with pytest.raises(ValueError, match="empty nodes"):
            aug("g", [("n1", "x", "empty", "")])

    def test_parallel_edges_kept_with_multiplicity(self):
        g = aug(
            "g",
            [("n1", "A", "data", ""), ("n2", "B", "data", "")],
            [("n1", "n2", "order"), ("n1", "n2", "order")],
        )
        assert g.edge_count == 2
        assert g.edges.count(Edge("n1", "n2", "order")) == 2

    UNKNOWN_MISUSE = "mapping references unknown misuse node 'q'"
    UNKNOWN_FIX = "mapping references unknown fix node 'q'"
    MISUSE_TWICE = "misuse node 'a' mapped twice"

    @pytest.mark.parametrize(
        ("mapping", "message"),
        [
            pytest.param([(None, None)], "mapping pair with two empty sides", id="two-empty-sides"),
            pytest.param([("q", "x")], UNKNOWN_MISUSE, id="unknown-misuse"),
            pytest.param([("a", "q")], UNKNOWN_FIX, id="unknown-fix"),
            pytest.param([("a", "x"), ("a", "y")], MISUSE_TWICE, id="misuse-twice"),
            pytest.param([("a", "x"), (None, "x")], "fix node 'x' mapped twice", id="fix-twice"),
            pytest.param([("a", None), ["b", "q"]], UNKNOWN_FIX, id="list-pair"),
            # the misuse side of a pair is checked before its fix side
            pytest.param([("q", "q")], UNKNOWN_MISUSE, id="misuse-first"),
            pytest.param([("a", "x"), ("a", "q")], MISUSE_TWICE, id="twice-first"),
        ],
    )
    def test_rule_mapping_rejected(self, mapping, message):
        misuse = aug("m", [("a", "A", "data", ""), ("b", "B", "data", "")])
        fix = aug("f", [("x", "A", "data", ""), ("y", "B", "data", "")])
        with pytest.raises(SchemaError) as excinfo:
            rule("r", misuse, fix, mapping)
        assert str(excinfo.value) == f"rule 'r': {message}"


class TestPackageOf:
    def test_dotted_api_yields_prefix(self):
        assert package_of(Node("n", "x", "data", "java.lang.Object")) == "java.lang"

    def test_unknown_api_is_misc(self):
        assert package_of(Node("n", "x", "data", "UNKNOWN")) == "misc"

    def test_empty_api_is_misc(self):
        assert package_of(Node("n", "x", "data", "")) == "misc"

    def test_dotless_api_is_misc(self):
        assert package_of(Node("n", "x", "data", "Baz")) == "misc"


class TestSplitByApi:
    def test_single_package_returns_whole_graph(self):
        g = aug(
            "g",
            [("n1", "A", "data", "p.A"), ("n2", "A.m()", "action", "p.A")],
            [("n1", "n2", "recv")],
        )
        parts = split_by_api(g)
        assert set(parts) == {"p"}
        assert parts["p"].node_count == 2
        assert parts["p"].edge_count == 1

    def test_unresolved_node_lands_in_misc(self):
        g = aug(
            "g",
            [("n1", "A.m()", "action", "p.A"), ("unk", "UNKNOWN", "data", "UNKNOWN")],
            [("n1", "unk", "def")],
        )
        parts = split_by_api(g)
        assert set(parts) == {"p", "misc"}
        assert [n.label for n in parts["misc"].nodes] == ["UNKNOWN"]

    def test_cross_package_edge_dropped(self):
        # every 2-node/1-edge configuration across two packages loses the edge
        for direction in [("n1", "n2"), ("n2", "n1")]:
            g = aug(
                "g",
                [("n1", "A", "data", "p.A"), ("n2", "C", "data", "q.C")],
                [(*direction, "order")],
            )
            parts = split_by_api(g)
            assert set(parts) == {"p", "q"}
            assert parts["p"].edge_count == 0
            assert parts["q"].edge_count == 0

    def test_partition_covers_nodes_exactly_once(self):
        g = aug(
            "g",
            [
                ("n1", "A", "data", "p.A"),
                ("n2", "B", "data", "p.B"),
                ("n3", "C", "data", "q.C"),
                ("n4", "UNKNOWN", "data", "UNKNOWN"),
            ],
            [("n1", "n2", "order"), ("n2", "n3", "order"), ("n3", "n3", "order")],
        )
        parts = split_by_api(g)
        collected = sorted(node.id for part in parts.values() for node in part.nodes)
        assert collected == ["n1", "n2", "n3", "n4"]
        for part in parts.values():
            member_ids = {node.id for node in part.nodes}
            assert not Counter(part.edges) - Counter(g.edges)
            for edge in part.edges:
                assert edge.source in member_ids and edge.target in member_ids

    def test_empty_graph_rejected(self):
        # so no split, feature count or distance ever meets one
        with pytest.raises(EmptyGraphError, match="graph 'g' has no nodes") as caught:
            AUG("g", (), ())
        assert isinstance(caught.value, SchemaError)
