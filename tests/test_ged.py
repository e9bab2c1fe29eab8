import random
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from augdist import (
    AUG,
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
from augdist.mcs import mcs_cost_model
from gen import random_aug, random_aug_pairs
from helpers import aug
from oracles import ReferenceMappingSearch, brute_force_ged, brute_force_node_ged

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
