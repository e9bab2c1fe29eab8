from augdist import dist_mcs_hungarian, ged_hungarian, mcs_assignment, mcs_cost_model
from gen import random_aug_pairs
from helpers import aug
from oracles import max_identical_matching

ONE_ACTION = aug("one", [("n1", "A.m()", "action", "p.A")])
RELABELED = aug("two", [("n1", "A.n()", "action", "p.A")])
GROWN = aug(
    "grown",
    [("d1", "A", "data", "p.A"), ("n2", "A.m()", "action", "p.A")],
    [("d1", "n2", "recv")],
)


class TestExamples:
    def test_identical_graphs(self):
        assert dist_mcs_hungarian(GROWN, GROWN) == 0.0

    def test_relabel_forces_delete_plus_insert_and_clamp(self):
        # assignment cost is 2 (delete + insert) over denominator 1
        cost, pairs = mcs_assignment(ONE_ACTION, RELABELED)
        assert cost == 2.0
        assert pairs == []
        assert dist_mcs_hungarian(ONE_ACTION, RELABELED) == 1.0

    def test_partial_overlap(self):
        cost, pairs = mcs_assignment(ONE_ACTION, GROWN)
        assert cost == 1.0
        assert pairs == [("n1", "n2")]
        assert dist_mcs_hungarian(ONE_ACTION, GROWN) == 0.5


class TestOracleEquivalence:
    def test_matched_pair_cardinality_equals_brute_force(self):
        for a, b in random_aug_pairs(seed=41, count=80, max_nodes=5, max_edges=4):
            _, pairs = mcs_assignment(a, b)
            assert len(pairs) == max_identical_matching(a, b)

    def test_assignment_cost_reflects_matching_size(self):
        # keeping one identical pair saves one deletion and one insertion
        for a, b in random_aug_pairs(seed=43, count=60, max_nodes=5, max_edges=4):
            cost, pairs = mcs_assignment(a, b)
            assert cost == a.node_count + b.node_count - 2 * len(pairs)

    def test_closed_form_cost_reflects_matching_size(self):
        # the cost path of dist_mcs_hungarian, which builds no pairs
        for a, b in random_aug_pairs(seed=61, count=80, max_nodes=5, max_edges=4):
            expected = a.node_count + b.node_count - 2 * max_identical_matching(a, b)
            assert ged_hungarian(a, b, mcs_cost_model()) == expected

    def test_no_forbidden_substitution_ever_selected(self):
        for a, b in random_aug_pairs(seed=47, count=60, max_nodes=5, max_edges=4):
            _, pairs = mcs_assignment(a, b)
            for a_id, b_id in pairs:
                u = a.nodes_by_id[a_id]
                v = b.nodes_by_id[b_id]
                assert u.label == v.label and u.node_type == v.node_type


class TestInvariants:
    def test_range_and_identity(self):
        for a, b in random_aug_pairs(seed=53, count=40, max_nodes=5, max_edges=4):
            value = dist_mcs_hungarian(a, b)
            assert 0.0 <= value <= 1.0
            assert dist_mcs_hungarian(a, a) == 0.0

    def test_symmetry(self):
        for a, b in random_aug_pairs(seed=59, count=40, max_nodes=5, max_edges=4):
            assert abs(dist_mcs_hungarian(a, b) - dist_mcs_hungarian(b, a)) < 1e-9

