import math
import pickle
import random
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from augdist import (
    AUG,
    CostModel,
    EmptyGraphError,
    GedTimeoutError,
    Node,
    default_cost_model,
    dist_ged_astar,
    dist_ged_hungarian,
    edit_path,
    ged_astar,
    ged_hungarian,
    hungarian_assignment,
)
from augdist.ged import _MappingSearch, normalization_denominator
from augdist.mcs import dist_mcs_hungarian, mcs_cost_model
from augdist.node_similarity import dist_node_sim
from gen import random_aug, random_aug_pairs
from helpers import aug
from oracles import (
    ReferenceMappingSearch,
    brute_force_ged,
    brute_force_node_ged,
    max_identical_matching,
    reference_hungarian_assignment,
)

ONE_ACTION = aug("one", [("n1", "A.m()", "action", "p.A")])
RELABELED = aug("two", [("n1", "A.n()", "action", "p.A")])
GROWN = aug(
    "grown",
    [("d1", "A", "data", "p.A"), ("n2", "A.m()", "action", "p.A")],
    [("d1", "n2", "recv")],
)


class TestAstarExamples:
    def test_identical_graphs_cost_zero(self):
        for g in (ONE_ACTION, GROWN):
            result = ged_astar(g, g)
            assert result.cost == 0.0
            assert result.complete

    def test_relabel_same_type_costs_one(self):
        result = ged_astar(ONE_ACTION, RELABELED)
        assert result.cost == 1.0
        assert result.complete

    def test_node_and_edge_insertion_costs_four(self):
        result = ged_astar(ONE_ACTION, GROWN)
        assert result.cost == 4.0
        assert result.complete

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            ged_astar(AUG("e", (), ()), ONE_ACTION)

    def test_timeout_with_no_complete_path_raises(self):
        g1 = random_aug(random.Random(7), "g1", max_nodes=30, min_nodes=30, max_edges=60)
        g2 = random_aug(random.Random(8), "g2", max_nodes=30, min_nodes=30, max_edges=60)
        with pytest.raises(GedTimeoutError):
            ged_astar(g1, g2, timeout=0.0)

    def test_nan_timeout_rejected(self):
        # with a NaN deadline the search would never stop on this pair
        g1 = random_aug(random.Random(7), "g1", max_nodes=30, min_nodes=30, max_edges=60)
        g2 = random_aug(random.Random(8), "g2", max_nodes=30, min_nodes=30, max_edges=60)
        with pytest.raises(ValueError, match="NaN"):
            ged_astar(g1, g2, timeout=math.nan)
        with pytest.raises(ValueError, match="NaN"):
            dist_ged_astar(g1, g2, timeout=math.nan)


class TestAstarDistance:
    def test_identity(self):
        assert dist_ged_astar(GROWN, GROWN) == 0.0

    def test_relabel_normalized(self):
        assert dist_ged_astar(ONE_ACTION, RELABELED) == 0.5

    def test_growth_normalized(self):
        assert dist_ged_astar(ONE_ACTION, GROWN) == pytest.approx(4 / 6)

    def test_timeout_without_path_falls_back_to_one(self):
        g1 = random_aug(random.Random(7), "g1", max_nodes=30, min_nodes=30, max_edges=60)
        g2 = random_aug(random.Random(8), "g2", max_nodes=30, min_nodes=30, max_edges=60)
        assert dist_ged_astar(g1, g2, timeout=0.0) == 1.0


class TestAstarAgainstOracle:
    def test_small_random_pairs_match_brute_force(self):
        cm = default_cost_model()
        for a, b in random_aug_pairs(seed=11, count=60, max_nodes=3, max_edges=3):
            expected = brute_force_ged(a, b, cm)
            result = ged_astar(a, b, cm, timeout=60.0)
            assert result.complete
            assert result.cost == expected, f"{a} vs {b}"

    def test_symmetry(self):
        for a, b in random_aug_pairs(seed=13, count=40, max_nodes=4, max_edges=4):
            d_ab = dist_ged_astar(a, b, timeout=60.0)
            d_ba = dist_ged_astar(b, a, timeout=60.0)
            assert abs(d_ab - d_ba) < 1e-9

    def test_monotone_under_timeout(self):
        rng = random.Random(17)
        a = random_aug(rng, "a", max_nodes=12, min_nodes=12, max_edges=20)
        b = random_aug(rng, "b", max_nodes=12, min_nodes=12, max_edges=20)
        short = ged_astar(a, b, timeout=0.02)
        long = ged_astar(a, b, timeout=1.0)
        assert short.cost >= long.cost


def _counted_search(search_class, a, b, cm):
    """Run one search with a 60 s deadline; return its result and expansions."""

    class Counted(search_class):
        expansions = 0

        def _dfs(self, depth, cost):
            self.expansions += 1
            super()._dfs(depth, cost)

    search = Counted(a, b, cm, time.monotonic() + 60.0)
    return search.run(), search.expansions


class TestSearchMatchesReference:
    """The integer-coded search walks the same tree as the Counter-based one."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_same_result_and_expansions(self, seed):
        rng = random.Random(seed)
        a = random_aug(rng, "a", max_nodes=6, max_edges=8)
        b = random_aug(rng, "b", max_nodes=6, max_edges=8)
        for cm in (default_cost_model(), mcs_cost_model(a, b)):
            expected, expected_expansions = _counted_search(ReferenceMappingSearch, a, b, cm)
            result, expansions = _counted_search(_MappingSearch, a, b, cm)
            assert result == expected
            assert expansions == expected_expansions


class TestHungarian:
    def test_identical_graphs_cost_zero(self):
        assert ged_hungarian(GROWN, GROWN) == 0.0

    def test_one_vs_two_nodes(self):
        assert ged_hungarian(ONE_ACTION, GROWN) == 2.0
        assert dist_ged_hungarian(ONE_ACTION, GROWN) == 0.5

    def test_different_type_substitution(self):
        other = aug("o", [("n1", "B.x()", "data", "q.B")])
        assert ged_hungarian(ONE_ACTION, other) == 2.0
        assert dist_ged_hungarian(ONE_ACTION, other) == 1.0

    def test_relabel_same_type(self):
        assert ged_hungarian(ONE_ACTION, RELABELED) == 1.0
        assert dist_ged_hungarian(ONE_ACTION, RELABELED) == 0.5

    def test_matches_node_only_oracle(self):
        cm = default_cost_model()
        for a, b in random_aug_pairs(seed=19, count=60, max_nodes=5, max_edges=5):
            assert ged_hungarian(a, b, cm) == brute_force_node_ged(a, b, cm)

    def test_symmetry(self):
        for a, b in random_aug_pairs(seed=23, count=40, max_nodes=5, max_edges=5):
            assert abs(dist_ged_hungarian(a, b) - dist_ged_hungarian(b, a)) < 1e-9

    def test_assignment_pairs_are_valid_ids(self):
        _, pairs = hungarian_assignment(ONE_ACTION, GROWN)
        assert pairs == [("n1", "n2")]


def _fractional_substitute(u: Node, v: Node) -> float:
    if u.node_type == v.node_type:
        return 0.0 if u.label == v.label else 0.3
    if "return" in (u.node_type, v.node_type):
        return math.inf
    return 2.0  # exactly delete plus insert


# Fractional substitutions, forbidden ones, and a substitution that ties with a
# deletion plus an insertion.
FRACTIONAL = CostModel(
    node_substitute=_fractional_substitute,
    node_delete=0.75,
    node_insert=1.25,
    edge_substitute=lambda x, y: 0.0 if x == y else 2.0,
    edge_delete=1.0,
    edge_insert=1.0,
    mcost_n=2.0,
    mcost_e=1.0,
)


@st.composite
def _small_alphabet_graph(draw, name: str) -> AUG:
    """Up to 7 nodes over two labels and three types, ids out of id order."""
    count = draw(st.integers(min_value=1, max_value=7))
    ids = draw(st.permutations([f"n{i}" for i in range(12)]))[:count]
    nodes = tuple(
        Node(
            node_id,
            draw(st.sampled_from(("A.m()", "A"))),
            draw(st.sampled_from(("action", "data", "return"))),
        )
        for node_id in ids
    )
    return AUG(name, nodes, ())


class TestAssignmentMatchesPaddedReference:
    """The n×m gain matrix gives the padded matrix's optimum, with valid pairs."""

    @settings(max_examples=300, deadline=None)
    @given(a=_small_alphabet_graph("a"), b=_small_alphabet_graph("b"))
    def test_same_cost_and_a_valid_matching(self, a, b):
        models = (
            ("default", default_cost_model()),
            ("mcs", mcs_cost_model(a, b)),
            ("fractional", FRACTIONAL),
        )
        for name, cm in models:
            exact = name != "fractional"
            expected, _ = reference_hungarian_assignment(a, b, cm)
            cost, pairs = hungarian_assignment(a, b, cm)
            assert cost == (expected if exact else pytest.approx(expected, abs=1e-9))
            assert ged_hungarian(a, b, cm) == cost

            sources = [a_id for a_id, _ in pairs]
            targets = [b_id for _, b_id in pairs]
            assert len(set(sources)) == len(sources) and set(sources) <= a.nodes_by_id.keys()
            assert len(set(targets)) == len(targets) and set(targets) <= b.nodes_by_id.keys()
            substitutions = [
                cm.node_substitute(a.nodes_by_id[a_id], b.nodes_by_id[b_id])
                for a_id, b_id in pairs
            ]
            assert all(x < cm.node_delete + cm.node_insert for x in substitutions)
            recomputed = (
                sum(substitutions)
                + (a.node_count - len(pairs)) * cm.node_delete
                + (b.node_count - len(pairs)) * cm.node_insert
            )
            assert recomputed == (cost if exact else pytest.approx(cost, abs=1e-9))
            if name == "mcs":
                assert len(pairs) == max_identical_matching(a, b)
                assert dist_mcs_hungarian(a, b) == min(1.0, cost / max(a.node_count, b.node_count))


class TestPreparedNodeOrder:
    def test_node_order_is_the_id_order(self):
        graph = aug("g", [("n2", "A", "data"), ("n10", "A.m()", "action"), ("n1", "A", "data")])
        assert [node.id for node in graph.nodes_in_id_order] == ["n1", "n10", "n2"]
        assert type(graph.nodes_in_id_order) is tuple

    def test_built_once_per_graph(self, monkeypatch):
        calls = Counter()
        build = AUG.nodes_in_id_order.func

        def counted(graph):
            calls[graph.name] += 1
            return build(graph)

        monkeypatch.setattr(AUG.nodes_in_id_order, "func", counted)
        pairs = random_aug_pairs(seed=107, count=4, max_nodes=4, max_edges=5, min_edges=1)
        pool = [graph for pair in pairs for graph in pair]
        for a in pool:
            for b in pool:
                hungarian_assignment(a, b)
                dist_ged_hungarian(a, b)
                dist_mcs_hungarian(a, b)
                ged_astar(a, b, timeout=60.0)
                dist_node_sim(a, b)
        assert calls == Counter({graph.name: 1 for graph in pool})

    def test_survives_pickle(self):
        for a, b in random_aug_pairs(seed=109, count=20, max_nodes=6, max_edges=6):
            a.nodes_in_id_order
            restored = pickle.loads(pickle.dumps(a))
            assert "nodes_in_id_order" in vars(restored)
            assert restored.nodes_in_id_order == a.nodes_in_id_order
            fresh = AUG(a.name, a.nodes, a.edges)
            for cm in (default_cost_model(), mcs_cost_model(a, b)):
                assert hungarian_assignment(restored, b, cm) == hungarian_assignment(fresh, b, cm)
                assert hungarian_assignment(b, restored, cm) == hungarian_assignment(b, fresh, cm)


class TestRangeInvariants:
    def test_all_distances_within_unit_interval(self):
        for a, b in random_aug_pairs(seed=29, count=40, max_nodes=5, max_edges=6):
            assert 0.0 <= dist_ged_astar(a, b, timeout=60.0) <= 1.0
            assert 0.0 <= dist_ged_hungarian(a, b) <= 1.0


def _apply_edit_path(a: AUG, path) -> tuple[set, Counter]:
    """Replay edit operations; returns the produced node set and edge multiset."""
    produced_nodes = set()
    produced_edges: Counter = Counter()
    consumed_nodes = set()
    consumed_edges: Counter = Counter()
    for op in path.ops:
        if op.op == "node-sub":
            consumed_nodes.add(op.source[0])
            produced_nodes.add(op.target[0])
        elif op.op == "node-del":
            consumed_nodes.add(op.source[0])
        elif op.op == "node-ins":
            produced_nodes.add(op.target[0])
        elif op.op == "edge-sub":
            consumed_edges[op.source] += 1
            produced_edges[op.target] += 1
        elif op.op == "edge-del":
            consumed_edges[op.source] += 1
        elif op.op == "edge-ins":
            produced_edges[op.target] += 1
    # the path must consume exactly the source graph
    assert consumed_nodes == {n.id for n in a.nodes}
    assert consumed_edges == Counter((e.source, e.target, e.label) for e in a.edges)
    return produced_nodes, produced_edges


class TestEditPath:
    def test_total_cost_matches_search_cost(self):
        cm = default_cost_model()
        for a, b in random_aug_pairs(seed=31, count=40, max_nodes=4, max_edges=4):
            result = ged_astar(a, b, cm, timeout=60.0)
            path = edit_path(a, b, result, cm)
            assert path.total_cost == pytest.approx(result.cost)

    def test_applying_operations_yields_target_graph(self):
        for a, b in random_aug_pairs(seed=37, count=30, max_nodes=4, max_edges=4):
            result = ged_astar(a, b, timeout=60.0)
            path = edit_path(a, b, result)
            nodes, edges = _apply_edit_path(a, path)
            assert nodes == {n.id for n in b.nodes}
            assert edges == Counter((e.source, e.target, e.label) for e in b.edges)


class TestNormalization:
    def test_denominator_uses_larger_counts(self):
        cm = default_cost_model()
        assert normalization_denominator(ONE_ACTION, GROWN, cm) == 2 * 2 + 1 * 2

    def test_triangle_inequality_of_default_model(self):
        cm = default_cost_model()
        nodes = [
            Node("x", "A.m()", "action", ""),
            Node("y", "A.n()", "action", ""),
            Node("z", "A", "data", ""),
        ]
        for u in nodes:
            for v in nodes:
                assert cm.node_delete + cm.node_insert >= cm.node_substitute(u, v)
        for la in ("recv", "order"):
            for lb in ("recv", "order"):
                assert cm.edge_delete + cm.edge_insert >= cm.edge_substitute(la, lb)
