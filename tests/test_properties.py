"""Hypothesis property tests for the distance invariants."""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from augdist import (
    AUG,
    Edge,
    Node,
    default_cost_model,
    dist_exas_l1,
    dist_ged_astar,
    dist_ged_hungarian,
    dist_mcs_hungarian,
    ged_astar,
    ged_hungarian,
    mcs_assignment,
    parse_aug,
    serialize_aug,
)
from augdist import fallbacks
from augdist.cli import ALGORITHMS, RunConfig, build_distance
from gen import random_aug
from oracles import brute_force_ged, brute_force_node_ged, max_identical_matching

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_LABELS = ("A.m()", "A.n()", "B.x()", "A", "B")
_TYPES = ("action", "data")
_EDGE_LABELS = ("recv", "para", "sel", "order")


@st.composite
def small_augs(draw, max_nodes=4, max_edges=4):
    count = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = tuple(
        Node(
            f"n{i}",
            draw(st.sampled_from(_LABELS)),
            draw(st.sampled_from(_TYPES)),
            draw(st.sampled_from(("p.A", "q.B", ""))),
        )
        for i in range(count)
    )
    ids = [node.id for node in nodes]
    edges = tuple(
        Edge(
            draw(st.sampled_from(ids)),
            draw(st.sampled_from(ids)),
            draw(st.sampled_from(_EDGE_LABELS)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=max_edges)))
    )
    return AUG(draw(st.sampled_from(("a", "b", "g"))), nodes, edges)


class TestSearchDistance:
    @PROPERTY_SETTINGS
    @given(a=small_augs(), b=small_augs())
    def test_cost_equals_exhaustive_minimum(self, a: AUG, b: AUG):
        cm = default_cost_model()
        result = ged_astar(a, b, cm, timeout=60.0)
        assert result.complete
        assert result.cost == brute_force_ged(a, b, cm)

    @PROPERTY_SETTINGS
    @given(a=small_augs(), b=small_augs())
    def test_range_identity_symmetry(self, a: AUG, b: AUG):
        forward = dist_ged_astar(a, b, timeout=60.0)
        assert 0.0 <= forward <= 1.0
        assert dist_ged_astar(a, a, timeout=60.0) == 0.0
        assert abs(forward - dist_ged_astar(b, a, timeout=60.0)) < 1e-9


class TestAssignmentDistance:
    @PROPERTY_SETTINGS
    @given(a=small_augs(max_nodes=5), b=small_augs(max_nodes=5))
    def test_equals_node_mapping_minimum(self, a: AUG, b: AUG):
        cm = default_cost_model()
        assert ged_hungarian(a, b, cm) == brute_force_node_ged(a, b, cm)

    @PROPERTY_SETTINGS
    @given(a=small_augs(max_nodes=5), b=small_augs(max_nodes=5))
    def test_range_identity_symmetry(self, a: AUG, b: AUG):
        assert 0.0 <= dist_ged_hungarian(a, b) <= 1.0
        assert dist_ged_hungarian(a, a) == 0.0
        assert abs(dist_ged_hungarian(a, b) - dist_ged_hungarian(b, a)) < 1e-9


class TestCommonSubgraphDistance:
    @PROPERTY_SETTINGS
    @given(a=small_augs(max_nodes=5), b=small_augs(max_nodes=5))
    def test_matching_cardinality_and_range(self, a: AUG, b: AUG):
        _, pairs = mcs_assignment(a, b)
        assert len(pairs) == max_identical_matching(a, b)
        assert 0.0 <= dist_mcs_hungarian(a, b) <= 1.0
        assert dist_mcs_hungarian(a, a) == 0.0


class TestVectorDistance:
    @PROPERTY_SETTINGS
    @given(a=small_augs(max_nodes=5, max_edges=6), b=small_augs(max_nodes=5, max_edges=6))
    def test_l1_range_identity_exact_symmetry(self, a: AUG, b: AUG):
        assert 0.0 <= dist_exas_l1(a, b) <= 1.0
        assert dist_exas_l1(a, a) == 0.0
        assert dist_exas_l1(a, b) == dist_exas_l1(b, a)


# The id, or the source and target ids, that open a ``serialize_aug`` statement.
_STATEMENT_IDS = re.compile(r'  "([^"]*)"(?: -> "([^"]*)")?')


def _renamed_and_reordered(graph: AUG, rng) -> AUG:
    """``graph`` through ``serialize_aug``, with its node ids permuted and its
    node and edge statements each in reverse, read back by ``parse_aug``."""
    head, *statements, tail = serialize_aug(graph).splitlines()
    ids = sorted(node.id for node in graph.nodes)
    renamed = dict(zip(ids, rng.sample(ids, len(ids))))
    nodes, edges = [], []
    for line in statements:
        match = _STATEMENT_IDS.match(line)
        source, target = match.groups()
        if target is None:
            nodes.append(f'  "{renamed[source]}"{line[match.end():]}')
        else:
            edges.append(f'  "{renamed[source]}" -> "{renamed[target]}"{line[match.end():]}')
    return parse_aug("\n".join([head, *reversed(nodes), *reversed(edges), tail]))


class TestNodeIdInvariance:
    """A distance does not change when a DOT file names or orders its nodes
    differently, although every kernel numbers nodes in id order.

    node-sim is left out. Its iteration sums each entry's terms and each
    norm's squares in id order, so a renaming can move its value in the
    last bit (up to 2.2e-16 seen); whether to mend that with a tie
    tolerance or with a canonical node numbering is a decision of its own.
    Its memo of solved pairs keys on the id-ordered adjacency, so a renamed
    graph shares no entry with the original and the memo cannot widen the
    drift.
    """

    @PROPERTY_SETTINGS
    @given(rng=st.randoms(use_true_random=False))
    def test_renaming_and_reordering_keep_every_value(self, rng):
        a = random_aug(rng, "a", max_nodes=6, max_edges=8)
        b = random_aug(rng, "b", max_nodes=6, max_edges=8)
        a_renamed, b_renamed = _renamed_and_reordered(a, rng), _renamed_and_reordered(b, rng)
        for algorithm in ALGORITHMS:
            if algorithm == "node-sim":
                continue
            dist = build_distance(RunConfig(algorithm=algorithm))
            fallbacks.take()
            values = dist(a, b), dist(a_renamed, b_renamed)
            stopped = fallbacks.take()[fallbacks.STOPPED]
            if algorithm == "astar-ged" and stopped:
                continue  # a stopped search's path depends on the node order
            assert values[0] == values[1], algorithm
