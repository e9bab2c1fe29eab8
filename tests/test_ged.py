import dataclasses
import math
import pickle
import random
import time
from collections import Counter, defaultdict
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from augdist import (
    AUG,
    CostModel,
    Node,
    default_cost_model,
    dist_ged_astar,
    dist_ged_hungarian,
    ged_astar,
    ged_hungarian,
    hungarian_assignment,
)
from augdist import fallbacks, ged, load_corpus, load_rules
from augdist.ged import (
    _assign,
    _MappingSearch,
    _pair_edge_cost,
    dist_ged_astar_many,
    normalization_denominator,
)
from augdist.mcs import dist_mcs_hungarian, mcs_cost_model
from augdist.node_similarity import dist_node_sim
from corpus_digests import write_seed_corpus
from gen import random_aug, random_aug_pairs
from helpers import aug
from oracles import (
    ReferenceMappingSearch,
    brute_force_ged,
    brute_force_node_ged,
    mapping_cost,
    max_identical_matching,
    milp_ged,
    reference_hungarian_assignment,
    reference_match_with_ops,
)

ONE_ACTION = aug("one", [("n1", "A.m()", "action", "p.A")])
RELABELED = aug("two", [("n1", "A.n()", "action", "p.A")])
GROWN = aug(
    "grown",
    [("d1", "A", "data", "p.A"), ("n2", "A.m()", "action", "p.A")],
    [("d1", "n2", "recv")],
)


def _parallel_edges(name: str, labels) -> AUG:
    """Two nodes joined by one edge per label."""
    return aug(
        name,
        [("u", "A.m()", "action"), ("v", "A", "data")],
        [("u", "v", label) for label in labels],
    )


def _node_pairing_as_mapping(a, b, cm):
    """The node-only assignment's pairs, the other nodes deleted or inserted."""
    pairs = hungarian_assignment(a, b, cm)[1]
    image = dict(pairs)
    paired_b = set(image.values())
    return (
        *((u.id, image.get(u.id)) for u in a.nodes_in_id_order),
        *((None, v.id) for v in b.nodes_in_id_order if v.id not in paired_b),
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

    def test_one_node_graphs_match_brute_force(self):
        # the smallest graphs there are, with no, one or two loops
        shapes = [
            (label, kind, loops)
            for label in ("A", "B") for kind in ("action", "data") for loops in (0, 1, 2)
        ]
        graphs = [
            aug(f"g{i}", [("n", label, kind)], [("n", "n", "order")] * loops)
            for i, (label, kind, loops) in enumerate(shapes)
        ]
        for cm in (default_cost_model(), mcs_cost_model()):
            for a in graphs:
                for b in graphs:
                    result = ged_astar(a, b, cm)
                    assert result.complete
                    assert result.cost == brute_force_ged(a, b, cm), f"{a} vs {b}"

    def test_passed_deadline_returns_the_seed(self):
        g1 = random_aug(random.Random(7), "g1", max_nodes=30, min_nodes=30, max_edges=60)
        g2 = random_aug(random.Random(8), "g2", max_nodes=30, min_nodes=30, max_edges=60)
        cm = default_cost_model()
        result = ged_astar(g1, g2, cm, timeout=0.0)
        assert not result.complete
        assert result.mapping == _node_pairing_as_mapping(g1, g2, cm)
        assert result.cost == mapping_cost(g1, g2, cm, _source_images(result.mapping))

    def test_deadline_mid_search_keeps_the_best_path_found(self):
        g1 = random_aug(random.Random(7), "g1", max_nodes=30, min_nodes=30, max_edges=60)
        g2 = random_aug(random.Random(8), "g2", max_nodes=30, min_nodes=30, max_edges=60)
        cm = default_cost_model()
        seed_mapping = _node_pairing_as_mapping(g1, g2, cm)
        seed_cost = mapping_cost(g1, g2, cm, _source_images(seed_mapping))
        result = ged_astar(g1, g2, cm, timeout=0.5)
        assert not result.complete
        assert result.cost <= seed_cost
        _assert_valid_mapping(g1, g2, result, cm)

    def test_parallel_edges_respect_the_deadline(self):
        # matching 8 distinct labels against 8 others must not outlast the deadline
        a = _parallel_edges("a", [f"a{i}" for i in range(8)])
        b = _parallel_edges("b", [f"b{i}" for i in range(8)])
        result = ged_astar(a, b, timeout=0.5)
        assert result.complete
        assert result.cost == 16.0

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
        # the seed's cost, 169, exceeds the denominator, 156, so the value clamps
        g1 = random_aug(random.Random(7), "g1", max_nodes=30, min_nodes=30, max_edges=60)
        g2 = random_aug(random.Random(8), "g2", max_nodes=30, min_nodes=30, max_edges=60)
        fallbacks.take()
        assert dist_ged_astar(g1, g2, timeout=0.0) == 1.0
        counts = fallbacks.take()
        assert counts[fallbacks.STOPPED] == counts[fallbacks.CLAMPED] == 1


def _content(graph: AUG) -> tuple:
    """What the search reads of a target graph, spelled out without its tables."""
    return (
        tuple(sorted((node.id, node.node_type, node.label) for node in graph.nodes)),
        tuple(sorted((edge.source, edge.target, edge.label) for edge in graph.edges)),
    )


def _with_copies(graphs, copies: int) -> list[AUG]:
    """The graphs, then ``copies`` rounds of them again under other names."""
    return [
        graph if round == 0 else AUG(f"{graph.name}-copy{round}", graph.nodes, graph.edges)
        for round in range(copies + 1)
        for graph in graphs
    ]


class TestAstarTableForm:
    """``dist_ged_astar_many`` fills a table from one search per reference
    and distinct entry content, yet each cell is what the per-pair distance
    gives, fallbacks included."""

    @pytest.mark.parametrize("seed, timeout", [(163, 60.0), (167, 60.0), (173, 0.0)])
    def test_duplicated_entries_match_the_per_pair_distance(self, seed, timeout):
        pairs = random_aug_pairs(seed=seed, count=8, max_nodes=5, max_edges=7)
        references = [a for a, _ in pairs[:3]]
        entries = _with_copies([b for _, b in pairs], copies=2)
        fallbacks.take()
        expected = [[dist_ged_astar(a, b, timeout=timeout) for b in entries] for a in references]
        expected_counts = fallbacks.take()
        assert dist_ged_astar_many(references, entries, timeout=timeout) == expected
        assert fallbacks.take() == expected_counts
        if timeout == 0.0:
            assert expected_counts[fallbacks.STOPPED] == len(references) * len(entries)

    def test_one_search_per_reference_and_distinct_entry_content(self):
        pairs = random_aug_pairs(seed=179, count=8, max_nodes=5, max_edges=7)
        references = [a for a, _ in pairs[:3]]
        entries = _with_copies([b for _, b in pairs], copies=2)
        distinct = len({_content(entry) for entry in entries})
        assert distinct < len(entries)
        with mock.patch.object(ged, "ged_astar", wraps=ged.ged_astar) as search:
            dist_ged_astar_many(references, entries, timeout=60.0)
        searched = Counter((call.args[0].name, _content(call.args[1])) for call in search.call_args_list)
        assert len(searched) == len(references) * distinct
        assert set(searched.values()) == {1}

    def test_stopped_copies_each_count_as_stopped(self):
        g1 = random_aug(random.Random(7), "g1", max_nodes=30, min_nodes=30, max_edges=60)
        g2 = random_aug(random.Random(8), "g2", max_nodes=30, min_nodes=30, max_edges=60)
        fallbacks.take()
        (row,) = dist_ged_astar_many([g1], _with_copies([g2], copies=2), timeout=0.0)
        counts = fallbacks.take()
        assert row == [row[0]] * 3
        assert counts[fallbacks.STOPPED] == 3


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


def _source_images(mapping):
    """Each source node's image, ``None`` for a deleted node."""
    return {source: target for source, target in mapping if source is not None}


def _assert_valid_mapping(a, b, result, cm):
    """Each node of either graph appears once, and the mapping costs what the
    result says, priced by ``oracles.mapping_cost``, which matches edge labels
    exhaustively and shares no code with the search. Callers pass
    integer-valued models, so the sums compare exactly."""
    sources = sorted(source for source, _ in result.mapping if source is not None)
    targets = sorted(target for _, target in result.mapping if target is not None)
    assert sources == sorted(node.id for node in a.nodes)
    assert targets == sorted(node.id for node in b.nodes)
    assert mapping_cost(a, b, cm, _source_images(result.mapping)) == result.cost


class TestSearchMatchesReference:
    """The search finds the Counter-based search's cost through no more expansions.

    Its node bound is never below the reference's, and it starts from a
    complete mapping's cost instead of infinity, so it prunes wherever the
    reference does. Both models are integer-valued, so the sums compare
    exactly. On a tie the search may keep a different optimal mapping.
    """

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_same_cost_in_at_most_the_expansions(self, seed):
        rng = random.Random(seed)
        a = random_aug(rng, "a", max_nodes=6, max_edges=8)
        b = random_aug(rng, "b", max_nodes=6, max_edges=8)
        for cm in (default_cost_model(), mcs_cost_model()):
            expected, expected_expansions = _counted_search(ReferenceMappingSearch, a, b, cm)
            result, expansions = _counted_search(_MappingSearch, a, b, cm)
            assert (result.cost, result.complete) == (expected.cost, expected.complete)
            _assert_valid_mapping(a, b, result, cm)
            assert expansions <= expected_expansions


class TestLargerSearches:
    """Past the sizes the property tests draw: exact against the reference
    at 7 nodes, and quick at 8."""

    def test_seven_node_pairs_match_the_reference(self):
        pairs = random_aug_pairs(seed=137, count=4, min_nodes=7, max_nodes=7, min_edges=4, max_edges=10)
        for a, b in pairs:
            for cm in (default_cost_model(), mcs_cost_model()):
                expected, expected_expansions = _counted_search(ReferenceMappingSearch, a, b, cm)
                result, expansions = _counted_search(_MappingSearch, a, b, cm)
                assert (result.cost, result.complete) == (expected.cost, True)
                _assert_valid_mapping(a, b, result, cm)
                assert expansions <= expected_expansions

    def test_eight_node_pairs_finish_within_two_seconds(self):
        # One budget for all twelve searches. On a 2-vCPU host they take
        # about 0.3 s, and about 2.8 s if the bound pools all uncharged
        # edges in one block, so the budget catches a weaker edge bound.
        pairs = random_aug_pairs(seed=47, count=12, min_nodes=8, max_nodes=8, max_edges=12)
        deadline = time.monotonic() + 2.0
        for a, b in pairs:
            assert ged_astar(a, b, timeout=deadline - time.monotonic()).complete


class TestSearchMatchesMilpOracle:
    """Past the reference search's reach, complete searches cost what the
    exact binary program gives, which is itself checked against enumeration
    on small pairs. Both models are integer-valued, so the sums compare
    exactly."""

    def test_oracle_matches_brute_force(self):
        for a, b in random_aug_pairs(seed=11, count=30, max_nodes=3, max_edges=4):
            for cm in (default_cost_model(), mcs_cost_model()):
                assert milp_ged(a, b, cm) == brute_force_ged(a, b, cm)

    @pytest.mark.parametrize(
        "cm, count, sizes",
        [
            (default_cost_model(), 4, {"min_nodes": 8, "max_nodes": 9, "min_edges": 6, "max_edges": 14}),
            (default_cost_model(), 2, {"min_nodes": 10, "max_nodes": 10, "min_edges": 8, "max_edges": 16}),
            (mcs_cost_model(), 4, {"min_nodes": 12, "max_nodes": 12, "min_edges": 10, "max_edges": 20}),
        ],
        ids=["default-8-9-nodes", "default-10-nodes", "mcs-12-nodes"],
    )
    def test_complete_searches_cost_the_optimum(self, cm, count, sizes):
        for a, b in random_aug_pairs(seed=5, count=count, **sizes):
            result = ged_astar(a, b, cm, timeout=30.0)
            assert result.complete
            assert result.cost == milp_ged(a, b, cm)

    def test_corpus_shape_searches_cost_the_optimum(self, tmp_path):
        # The harness's shape: the four 8-node rule sides of the seed-5 wide
        # corpus in turn, each searched against a 20-25-node entry.
        corpus = write_seed_corpus("wide-corpus", tmp_path)
        sides = [side for rule in load_rules(corpus / "rules") for side in (rule.misuse, rule.fix)]
        entries = [entry for entry in load_corpus(corpus).correct if entry.node_count >= 20][:10]
        assert len(entries) == 10
        cm = default_cost_model()
        for index, entry in enumerate(entries):
            side = sides[index % len(sides)]
            result = ged_astar(side, entry, cm, timeout=30.0)
            assert result.complete
            assert result.cost == milp_ged(side, entry, cm)
            _assert_valid_mapping(side, entry, result, cm)

    def test_corpus_shape_searches_stay_within_an_expansion_budget(self, tmp_path):
        # The same ten pairs. Children tried by cost plus bound make the
        # first descent reach a cheap leaf and prune the rest near where it
        # branches. Tried in id order, these searches take 430 to 49,975
        # expansions each, so the budget catches an order that is lost.
        corpus = write_seed_corpus("wide-corpus", tmp_path)
        sides = [side for rule in load_rules(corpus / "rules") for side in (rule.misuse, rule.fix)]
        entries = [entry for entry in load_corpus(corpus).correct if entry.node_count >= 20][:10]
        cm = default_cost_model()
        for index, entry in enumerate(entries):
            side = sides[index % len(sides)]
            result, expansions = _counted_search(_MappingSearch, side, entry, cm)
            assert result.complete
            assert expansions <= 10 * (side.node_count + 1), (side.name, entry.name, expansions)


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


# Fractional costs, and a retype that ties with a deletion plus an insertion.
FRACTIONAL = CostModel(
    node_relabel=0.3,
    node_retype=2.0,
    node_delete=0.75,
    node_insert=1.25,
    edge_relabel=0.8,
    edge_delete=0.75,
    edge_insert=1.25,
    mcost_n=2.0,
    mcost_e=1.0,
)

_QUARTERS = st.integers(min_value=1, max_value=12).map(lambda k: k / 4)
# Most tenths have no exact binary form, so sums of them round.
_TENTHS = st.integers(min_value=1, max_value=30).map(lambda k: k / 10)


@st.composite
def _class_cost_models(draw, costs=_QUARTERS) -> CostModel:
    """Fractional class costs, nondecreasing as classes widen; a substitution
    may tie with a deletion plus an insertion or be forbidden."""
    node_delete, node_insert, edge_delete, edge_insert = (draw(costs) for _ in range(4))

    def substitution(tie: float) -> float:
        return draw(st.one_of(costs, st.just(tie), st.just(math.inf)))

    relabel, retype = sorted(substitution(node_delete + node_insert) for _ in range(2))
    return CostModel(
        node_relabel=relabel,
        node_retype=retype,
        node_delete=node_delete,
        node_insert=node_insert,
        edge_relabel=substitution(edge_delete + edge_insert),
        edge_delete=edge_delete,
        edge_insert=edge_insert,
        mcost_n=1.0,
        mcost_e=1.0,
    )


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"node_relabel": math.nan}, "node_relabel must be a non-negative number"),
        ({"edge_insert": -0.5}, "edge_insert must be a non-negative number"),
        ({"node_delete": math.inf}, "node_delete must be finite"),
        ({"node_relabel": 2.5}, "node_relabel must not exceed node_retype"),
        ({"edge_relabel": -1.0}, "edge_relabel must be a non-negative number"),
        ({"mcost_n": 0.0}, "mcost_n must be positive"),
        ({"mcost_e": 0.0}, "mcost_e must be positive"),
        ({"mcost_n": -0.0}, "mcost_n must be positive"),
    ],
)
def test_models_without_an_exact_solution_rejected(changes, message):
    # the greedy assignment needs finite deletions and insertions and costs
    # that grow as classes widen; the normalized distances divide by mcost_n
    # and mcost_e
    with pytest.raises(ValueError, match=message):
        ged_astar(ONE_ACTION, GROWN, dataclasses.replace(default_cost_model(), **changes))


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
    """The class-by-class assignment gives the padded matrix's optimum, with valid pairs."""

    @settings(max_examples=300, deadline=None)
    @given(a=_small_alphabet_graph("a"), b=_small_alphabet_graph("b"), drawn=_class_cost_models())
    def test_same_cost_and_a_valid_matching(self, a, b, drawn):
        models = (
            ("default", default_cost_model()),
            ("mcs", mcs_cost_model()),
            ("fractional", FRACTIONAL),
            ("drawn", drawn),
        )
        for name, cm in models:
            exact = name in ("default", "mcs")
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


@st.composite
def _crowded_graph(draw, name: str) -> AUG:
    """Up to 40 nodes over two labels and two types, so classes hold many."""
    classes = draw(st.lists(
        st.tuples(st.sampled_from(("A.m()", "A")), st.sampled_from(("action", "data"))),
        min_size=1,
        max_size=40,
    ))
    return AUG(name, tuple(Node(f"n{i}", *key) for i, key in enumerate(classes)), ())


class TestClosedFormIsTheAssignment:
    """``ged_hungarian``'s closed form is the float ``_assign`` sums, bit
    for bit, however many nodes each class holds."""

    def test_gains_are_added_once_per_pair(self):
        # Two relabels: 0.75·2 + 1.25·2 + 2·(0.3 − 2.0) would give
        # 0.6000000000000001.
        a = aug("a", [("n1", "A.m()", "action"), ("n2", "A.m()", "action")])
        b = aug("b", [("n1", "A.n()", "action"), ("n2", "A.n()", "action")])
        assert hungarian_assignment(a, b, FRACTIONAL)[0] == 0.5999999999999999
        assert ged_hungarian(a, b, FRACTIONAL) == 0.5999999999999999

    @settings(max_examples=200, deadline=None)
    @given(a=_crowded_graph("a"), b=_crowded_graph("b"), drawn=_class_cost_models(_TENTHS))
    def test_crowded_classes_under_tenths(self, a, b, drawn):
        cost = ged_hungarian(a, b, drawn)
        assert cost == hungarian_assignment(a, b, drawn)[0]
        assert cost == pytest.approx(reference_hungarian_assignment(a, b, drawn)[0], abs=1e-9)


_EDGE_LABELS = st.lists(st.sampled_from(("recv", "para", "order", "sel")), max_size=5)


class TestEdgeMatchingMatchesReference:
    """The class-by-class edge matching costs what the exhaustive recursion does."""

    @settings(max_examples=300, deadline=None)
    @given(labels_a=_EDGE_LABELS, labels_b=_EDGE_LABELS, drawn=_class_cost_models())
    def test_same_cost_and_a_valid_matching(self, labels_a, labels_b, drawn):
        labels_a, labels_b = sorted(labels_a), sorted(labels_b)
        a, b = _parallel_edges("a", labels_a), _parallel_edges("b", labels_b)
        models = (
            ("default", default_cost_model()),
            ("mcs", mcs_cost_model()),
            ("fractional", FRACTIONAL),
            ("drawn", drawn),
        )
        for name, cm in models:
            exact = name in ("default", "mcs")
            expected, _ = reference_match_with_ops(cm, tuple(labels_a), tuple(labels_b))
            cost = _pair_edge_cost(cm, tuple(labels_a), tuple(labels_b))
            assert cost == (expected if exact else pytest.approx(expected, abs=1e-9))
            keys_a, keys_b = [(x,) for x in labels_a], [(y,) for y in labels_b]
            costs = (cm.edge_relabel, 0.0)
            pairs = _assign(keys_a, keys_b, costs, cm.edge_delete, cm.edge_insert)[1]

            sources = [i for i, _ in pairs]
            targets = [k for _, k in pairs]
            assert len(set(sources)) == len(sources) and set(sources) <= set(range(len(labels_a)))
            assert len(set(targets)) == len(targets) and set(targets) <= set(range(len(labels_b)))
            substitutions = [cm.edge_substitute(labels_a[i], labels_b[k]) for i, k in pairs]
            assert all(x < cm.edge_delete + cm.edge_insert for x in substitutions)
            recomputed = (
                sum(substitutions)
                + (len(labels_a) - len(pairs)) * cm.edge_delete
                + (len(labels_b) - len(pairs)) * cm.edge_insert
            )
            assert recomputed == (cost if exact else pytest.approx(cost, abs=1e-9))


class _BoundChecked(_MappingSearch):
    """A search that checks its node bound against ``_assign`` at every call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.checked = []

    def _node_bound(self, depth):
        bound = super()._node_bound(depth)
        keys_a = [(u.node_type, u.label) for u in self.a_nodes[depth:]]
        keys_b = [(v.node_type, v.label) for k, v in enumerate(self.b_nodes) if not self.used[k]]
        costs = (self.cm.node_retype, self.cm.node_relabel, 0.0)
        expected = _assign(keys_a, keys_b, costs, self.cm.node_delete, self.cm.node_insert)[0]
        self.checked.append((bound, expected))
        return bound


class TestNodeBoundIsTheAssignment:
    """The node part of the search's bound is the exact class assignment of
    the undecided source nodes against the unused target nodes."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), drawn=_class_cost_models())
    def test_equals_assign_at_every_call(self, seed, drawn):
        rng = random.Random(seed)
        a = random_aug(rng, "a", max_nodes=6, max_edges=8)
        b = random_aug(rng, "b", max_nodes=6, max_edges=8)
        for cm, tolerance in ((default_cost_model(), 0.0), (mcs_cost_model(), 0.0), (drawn, 1e-9)):
            search = _BoundChecked(a, b, cm, time.monotonic() + 60.0)
            search.run()
            assert search.checked
            for bound, expected in search.checked:
                assert abs(bound - expected) <= tolerance


class TestSearchNodePriceIsTheModels:
    """The price the search charges for substituting one node for another
    is ``CostModel.node_substitute``'s."""

    NODES = [
        (label, node_type) for node_type in ("action", "data") for label in ("A", "B")
    ]

    @settings(max_examples=50, deadline=None)
    @given(drawn=_class_cost_models(costs=_TENTHS))
    def test_one_node_pairs(self, drawn):
        for cm in (default_cost_model(), mcs_cost_model(), drawn):
            for label_a, type_a in self.NODES:
                for label_b, type_b in self.NODES:
                    a = aug("a", [("n", label_a, type_a)])
                    b = aug("b", [("n", label_b, type_b)])
                    search = _MappingSearch(a, b, cm, time.monotonic() + 60.0)
                    expected = cm.node_substitute(a.nodes[0], b.nodes[0])
                    assert search._substitute_delta(0, 0) == expected


class _StateChecked(_MappingSearch):
    """A search that checks its running counts against a from-scratch count
    of the undecided and unused nodes and the uncharged target edges at
    every ``_bound`` call, and its edge bound against ``_pair_edge_cost`` per
    block of the uncharged edges."""

    def __init__(self, a, b, cm, deadline):
        super().__init__(a, b, cm, deadline)
        self.graphs = a, b
        self.calls = 0

    def _blocks(self, depth):
        """The uncharged edges' labels of each graph, keyed by the block
        that may pair them: ``None`` for edges among the undecided (unused)
        nodes, else the direction and the target node at the decided end,
        ``_DELETED`` for a deleted source node."""
        a, b = self.graphs
        index_a = {node.id: i for i, node in enumerate(self.a_nodes)}
        index_b = {node.id: k for k, node in enumerate(self.b_nodes)}
        blocks_a, blocks_b = defaultdict(list), defaultdict(list)
        for edge in a.edges:
            i, j = index_a[edge.source], index_a[edge.target]
            if min(i, j) >= depth:
                blocks_a[None].append(edge.label)
            elif j >= depth:
                blocks_a["out", self.assign[i]].append(edge.label)
            elif i >= depth:
                blocks_a["in", self.assign[j]].append(edge.label)
        for edge in b.edges:
            k, l = index_b[edge.source], index_b[edge.target]
            if not (self.used[k] or self.used[l]):
                blocks_b[None].append(edge.label)
            elif not self.used[l]:
                blocks_b["out", k].append(edge.label)
            elif not self.used[k]:
                blocks_b["in", l].append(edge.label)
        return blocks_a, blocks_b

    def _bound(self, depth):
        left = [(u.node_type, u.label) for u in self.a_nodes[depth:]]
        free = [(v.node_type, v.label) for k, v in enumerate(self.b_nodes) if not self.used[k]]
        full = sum((Counter(left) & Counter(free)).values())
        typed = sum((Counter(t for t, _ in left) & Counter(t for t, _ in free)).values())
        assert (self.full, self.typed) == (full, typed)
        blocks_a, blocks_b = self._blocks(depth)
        assert self.rest_b_total == sum(map(len, blocks_b.values()))

        bound = super()._bound(depth)
        per_block = sum(
            _pair_edge_cost(self.cm, tuple(sorted(blocks_a[key])), tuple(sorted(blocks_b[key])))
            for key in blocks_a.keys() | blocks_b.keys()
        )
        pooled = _pair_edge_cost(
            self.cm,
            tuple(sorted(x for labels in blocks_a.values() for x in labels)),
            tuple(sorted(x for labels in blocks_b.values() for x in labels)),
        )
        assert bound - self._node_bound(depth) == per_block >= pooled
        self.calls += 1
        return bound

    def state(self):
        return (
            self.full, self.typed, self.rest_b_total,
            dict(self.class_surplus), dict(self.type_surplus),
            self.matched, list(self.used), list(self.assign),
        )


class TestIncrementalBoundState:
    """The bound's running counts equal a from-scratch count at every call,
    its edge part is the per-block assignment, never below the pooled one,
    and a finished search leaves the counts where they started."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_counts_match_and_are_restored(self, seed):
        rng = random.Random(seed)
        a = random_aug(rng, "a", max_nodes=6, max_edges=8)
        b = random_aug(rng, "b", max_nodes=6, max_edges=8)
        for cm in (default_cost_model(), mcs_cost_model()):
            search = _StateChecked(a, b, cm, time.monotonic() + 60.0)
            start = search.state()
            assert search.run().complete
            assert search.calls
            assert search.state() == start


# Edge relabels cheaper than an edge deletion or insertion, or free.
CHEAP_EDGE_RELABEL = (
    dataclasses.replace(default_cost_model(), edge_relabel=0.5),
    dataclasses.replace(default_cost_model(), edge_relabel=0.0),
    dataclasses.replace(FRACTIONAL, edge_relabel=0.25, edge_delete=1.5, edge_insert=0.5),
)


class TestAnyEdgeRelabelIsExact:
    """The search stays exact however cheap an edge relabel is."""

    @staticmethod
    def _check(a, b, cm):
        result = ged_astar(a, b, cm, timeout=60.0)
        assert result.complete
        assert result.cost == pytest.approx(brute_force_ged(a, b, cm), abs=1e-9), f"{a} vs {b}"
        witness = mapping_cost(a, b, cm, _source_images(result.mapping))
        assert witness == pytest.approx(result.cost, abs=1e-9)

    def test_fixed_models_match_brute_force(self):
        for a, b in random_aug_pairs(seed=131, count=150, max_nodes=4, max_edges=8):
            for cm in CHEAP_EDGE_RELABEL:
                self._check(a, b, cm)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), drawn=_class_cost_models())
    def test_drawn_models_match_brute_force(self, seed, drawn):
        rng = random.Random(seed)
        a = random_aug(rng, "a", max_nodes=4, max_edges=8)
        b = random_aug(rng, "b", max_nodes=4, max_edges=8)
        self._check(a, b, drawn)


class TestPreparedSearchTables:
    def test_built_once_per_graph(self, monkeypatch):
        calls = Counter()
        build = AUG.search_tables.func

        def counted(graph):
            calls[graph.name] += 1
            return build(graph)

        monkeypatch.setattr(AUG.search_tables, "func", counted)
        pairs = random_aug_pairs(seed=113, count=4, max_nodes=4, max_edges=5, min_edges=1)
        pool = [graph for pair in pairs for graph in pair]
        for a in pool:
            for b in pool:
                ged_astar(a, b, timeout=60.0)
                dist_ged_astar(a, b, timeout=60.0)
        assert calls == Counter({graph.name: 1 for graph in pool})

    def test_survives_pickle(self):
        for a, b in random_aug_pairs(seed=127, count=20, max_nodes=6, max_edges=6):
            a.search_tables
            restored = pickle.loads(pickle.dumps(a))
            assert "search_tables" in vars(restored)
            assert restored.search_tables == a.search_tables
            fresh = AUG(a.name, a.nodes, a.edges)
            for cm in (default_cost_model(), mcs_cost_model()):
                assert ged_astar(restored, b, cm, 60.0) == ged_astar(fresh, b, cm, 60.0)
                assert ged_astar(b, restored, cm, 60.0) == ged_astar(b, fresh, cm, 60.0)


class TestPreparedSourceTables:
    def test_built_once_per_source_graph_only(self, monkeypatch):
        calls = Counter()
        build = AUG.source_tables.func

        def counted(graph):
            calls[graph.name] += 1
            return build(graph)

        monkeypatch.setattr(AUG.source_tables, "func", counted)
        pairs = random_aug_pairs(seed=181, count=4, max_nodes=4, max_edges=5, min_edges=1)
        sources, targets = [a for a, _ in pairs], [b for _, b in pairs]
        for _ in range(2):
            dist_ged_astar_many(sources, targets, timeout=60.0)
            for a in sources:
                for b in targets:
                    ged_astar(a, b, timeout=60.0)
                    dist_ged_astar(a, b, timeout=60.0)
        assert calls == Counter({graph.name: 1 for graph in sources})
        assert not any("source_tables" in vars(graph) for graph in targets)

    def test_survives_pickle(self):
        for a, b in random_aug_pairs(seed=191, count=20, max_nodes=6, max_edges=6):
            a.source_tables
            restored = pickle.loads(pickle.dumps(a))
            assert "source_tables" in vars(restored)
            assert restored.source_tables == a.source_tables
            fresh = AUG(a.name, a.nodes, a.edges)
            for cm in (default_cost_model(), mcs_cost_model()):
                assert ged_astar(restored, b, cm, 60.0) == ged_astar(fresh, b, cm, 60.0)


class TestPreparedNodeClassCounts:
    def test_counts(self):
        graph = aug("g", [("n1", "A", "data"), ("n2", "A.m()", "action"), ("n3", "A", "data")])
        assert graph.node_class_counts == (
            {("data", "A"): 2, ("action", "A.m()"): 1},
            {"data": 2, "action": 1},
        )

    def test_built_once_per_graph(self, monkeypatch):
        calls = Counter()
        build = AUG.node_class_counts.func

        def counted(graph):
            calls[graph.name] += 1
            return build(graph)

        monkeypatch.setattr(AUG.node_class_counts, "func", counted)
        pairs = random_aug_pairs(seed=139, count=4, max_nodes=4, max_edges=5, min_edges=1)
        pool = [graph for pair in pairs for graph in pair]
        for a in pool:
            for b in pool:
                dist_ged_hungarian(a, b)
                dist_mcs_hungarian(a, b)
                ged_hungarian(a, b, FRACTIONAL)
                ged_astar(a, b, timeout=60.0)
        assert calls == Counter({graph.name: 1 for graph in pool})

    def test_survives_pickle(self):
        for a, b in random_aug_pairs(seed=149, count=20, max_nodes=6, max_edges=6):
            a.node_class_counts
            restored = pickle.loads(pickle.dumps(a))
            assert "node_class_counts" in vars(restored)
            assert restored.node_class_counts == a.node_class_counts
            fresh = AUG(a.name, a.nodes, a.edges)
            for cm in (default_cost_model(), mcs_cost_model(), FRACTIONAL):
                assert ged_hungarian(restored, b, cm) == ged_hungarian(fresh, b, cm)
                assert ged_hungarian(b, restored, cm) == ged_hungarian(b, fresh, cm)
                assert ged_astar(restored, b, cm, 60.0) == ged_astar(fresh, b, cm, 60.0)

    def test_hungarian_builds_no_search_tables(self, monkeypatch):
        def refuse(graph):
            raise AssertionError(f"search tables built for {graph.name!r}")

        monkeypatch.setattr(AUG.search_tables, "func", refuse)
        for a, b in random_aug_pairs(seed=151, count=20, max_nodes=6, max_edges=6):
            dist_ged_hungarian(a, b)
            dist_mcs_hungarian(a, b)
            assert "search_tables" not in vars(a) and "search_tables" not in vars(b)


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
            for cm in (default_cost_model(), mcs_cost_model()):
                assert hungarian_assignment(restored, b, cm) == hungarian_assignment(fresh, b, cm)
                assert hungarian_assignment(b, restored, cm) == hungarian_assignment(b, fresh, cm)


class TestRangeInvariants:
    def test_all_distances_within_unit_interval(self):
        for a, b in random_aug_pairs(seed=29, count=40, max_nodes=5, max_edges=6):
            assert 0.0 <= dist_ged_astar(a, b, timeout=60.0) <= 1.0
            assert 0.0 <= dist_ged_hungarian(a, b) <= 1.0


def _witness_pairs(seed: int, count: int) -> list[tuple[AUG, AUG]]:
    """Sparse pairs of up to 4 nodes, then pairs of up to 2 with parallel edges."""
    return random_aug_pairs(seed, count, max_nodes=4, max_edges=4) + random_aug_pairs(
        seed + 1000, count, max_nodes=2, max_edges=8
    )


class TestEditPath:
    """The edit path a complete search's mapping induces (each node
    substituted, deleted or inserted once, the edges of each node pair
    matched) turns the source into the target and costs the search's
    result, sparse and parallel edges alike, under both integer-valued
    models."""

    def _check(self, seed: int, count: int) -> None:
        for a, b in _witness_pairs(seed, count):
            for cm in (default_cost_model(), mcs_cost_model()):
                result = ged_astar(a, b, cm, timeout=60.0)
                assert result.complete
                _assert_valid_mapping(a, b, result, cm)

    def test_total_cost_matches_search_cost(self):
        self._check(seed=31, count=40)

    def test_applying_operations_yields_target_graph(self):
        self._check(seed=37, count=30)


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
