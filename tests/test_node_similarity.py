import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from augdist import (
    DegenerateStructureError,
    dist_node_sim,
    similarity_matrix,
)
from augdist import fallbacks, node_similarity
from augdist.graphs import AUG, Edge, Node
from augdist.node_similarity import dist_node_sim_many, similarity_matrices
from gen import random_aug
from helpers import aug
from oracles import best_assignment_mean, dense_node_similarity, reference_similarity_matrix

SINGLE_EDGE_A = aug(
    "a", [("u", "P", "action", ""), ("v", "Q", "action", "")], [("u", "v", "order")]
)
SINGLE_EDGE_B = aug(
    "b", [("x", "P", "action", ""), ("y", "Q", "action", "")], [("x", "y", "order")]
)


def _random_connected(seed: int, name: str, size: int = 4):
    rng = random.Random(seed)
    return random_aug(
        rng,
        name,
        max_nodes=size,
        min_nodes=size,
        max_edges=size + 2,
        min_edges=1,
        self_loops=False,
    )


class TestSimilarityMatrix:
    def test_single_edge_pair_converges_to_scaled_identity(self):
        result = similarity_matrix(SINGLE_EDGE_A, SINGLE_EDGE_B)
        assert result.converged
        assert result.iterations_run % 2 == 0
        expected = np.diag([1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert np.allclose(result.entries, expected, atol=1e-9)

    def test_unit_frobenius_norm(self):
        result = similarity_matrix(SINGLE_EDGE_A, SINGLE_EDGE_B)
        assert np.linalg.norm(result.entries) == pytest.approx(1.0)

    def test_edgeless_graph_is_degenerate(self):
        lonely = aug("l", [("n", "A", "data", "")])
        with pytest.raises(DegenerateStructureError):
            similarity_matrix(lonely, SINGLE_EDGE_B)
        with pytest.raises(DegenerateStructureError):
            similarity_matrix(SINGLE_EDGE_A, lonely)

    def test_same_graph_gives_symmetric_matrix(self):
        g = _random_connected(3, "g")
        result = similarity_matrix(g, g)
        assert np.allclose(result.entries, result.entries.T, atol=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            similarity_matrix(SINGLE_EDGE_A, SINGLE_EDGE_B, tol=0.0)
        with pytest.raises(ValueError):
            similarity_matrix(SINGLE_EDGE_A, SINGLE_EDGE_B, tol=math.nan)
        with pytest.raises(ValueError):
            similarity_matrix(SINGLE_EDGE_A, SINGLE_EDGE_B, max_iter=3)
        with pytest.raises(ValueError):
            similarity_matrix(SINGLE_EDGE_A, SINGLE_EDGE_B, max_iter=0)
        with pytest.raises(ValueError):
            similarity_matrix(SINGLE_EDGE_A, SINGLE_EDGE_B, max_iter=4.0)


class TestDistance:
    def test_single_edge_fixture_value(self):
        expected = 1 - 1 / math.sqrt(2)
        assert dist_node_sim(SINGLE_EDGE_A, SINGLE_EDGE_B) == pytest.approx(
            expected, abs=1e-9
        )

    def test_permutation_invariance_on_cycles(self):
        def cycle(name, ids):
            nodes = [(node_id, f"L{i}", "action", "") for i, node_id in enumerate(ids)]
            edges = [
                (ids[i], ids[(i + 1) % len(ids)], "order") for i in range(len(ids))
            ]
            return aug(name, nodes, edges)

        first = cycle("c1", ["a", "b", "c"])
        second = cycle("c2", ["z", "m", "k"])
        value = dist_node_sim(first, second)
        assert 0.0 <= value <= 1.0
        assert abs(value - dist_node_sim(second, first)) < 1e-9

    def test_label_blindness(self):
        relabeled = aug(
            "r",
            [("u", "Totally", "data", "x.Y"), ("v", "Different", "data", "z.W")],
            [("u", "v", "recv")],
        )
        assert dist_node_sim(SINGLE_EDGE_A, relabeled) == dist_node_sim(
            SINGLE_EDGE_A, SINGLE_EDGE_B
        )

    def test_path_vs_cycle_matches_dense_oracle(self):
        path = aug(
            "p",
            [("a", "A", "action", ""), ("b", "B", "action", ""), ("c", "C", "action", "")],
            [("a", "b", "order"), ("b", "c", "order")],
        )
        cycle = aug(
            "c",
            [("x", "X", "action", ""), ("y", "Y", "action", "")],
            [("x", "y", "order"), ("y", "x", "order")],
        )
        matrix = dense_node_similarity(path, cycle, tol=1e-4, max_iter=100)
        expected = 1 - best_assignment_mean(matrix)
        assert dist_node_sim(path, cycle) == pytest.approx(expected, abs=1e-6)

    def test_random_pairs_match_dense_oracle(self):
        for seed in range(5):
            a = _random_connected(seed * 2 + 100, "a")
            b = _random_connected(seed * 2 + 101, "b", size=3)
            matrix = dense_node_similarity(a, b, tol=1e-4, max_iter=100)
            expected = 1 - best_assignment_mean(matrix)
            assert dist_node_sim(a, b) == pytest.approx(expected, abs=1e-6)

    def test_range(self):
        for seed in range(8):
            a = _random_connected(seed + 200, "a")
            b = _random_connected(seed + 300, "b")
            assert 0.0 <= dist_node_sim(a, b) <= 1.0

    def test_even_iterate_differences_eventually_shrink(self):
        a = _random_connected(401, "a", size=5)
        b = _random_connected(402, "b", size=5)
        coarse = similarity_matrix(a, b, tol=1e-12, max_iter=10)
        fine = similarity_matrix(a, b, tol=1e-12, max_iter=50)
        # not a strict-monotonicity claim; later even iterates stay close
        assert np.linalg.norm(fine.entries) == pytest.approx(1.0)
        assert coarse.entries.shape == fine.entries.shape


@st.composite
def _graphs(draw, name):
    """Up to 8 nodes whose id order differs from their listing order, and up
    to 14 edges: self-loops, parallel edges and edgeless graphs included."""
    ids = draw(st.lists(st.integers(0, 20), min_size=1, max_size=8, unique=True))
    nodes = tuple(Node(f"n{i}", "L", "action") for i in ids)
    edges = tuple(
        Edge(draw(st.sampled_from(nodes)).id, draw(st.sampled_from(nodes)).id, "order")
        for _ in range(draw(st.integers(0, 14)))
    )
    return AUG(name, nodes, edges)


def _numbered(name, node_count, edges):
    """Nodes ``n0``, ``n1``, ... and an ``order`` edge per (source, target)."""
    return aug(
        name,
        [(f"n{i}", "L", "action") for i in range(node_count)],
        [(source, target, "order") for source, target in edges],
    )


# Against MIXED_SIDE, SETTLES_AT_2 converges at step 2 and CAPPED_AT_100 is
# still moving at step 100: one batch whose blocks settle far apart, a mix
# that random batches rarely draw.
MIXED_SIDE = _numbered("a", 3, [("n0", "n1"), ("n2", "n0")])
SETTLES_AT_2 = _numbered("b", 1, [("n0", "n0")] * 4)
CAPPED_AT_100 = _numbered("b", 3, [("n1", "n2"), ("n0", "n2"), ("n2", "n0")])
MIXED_BATCH = [SETTLES_AT_2, CAPPED_AT_100]


def _empty_memo():
    """The process-wide memo of solved pairs, emptied for the block and
    restored after it, so that the block iterates every pair it meets."""
    return mock.patch.dict(node_similarity._solved, clear=True)


def _outcome(kernel, a, b, max_iter):
    try:
        return kernel(a, b, max_iter=max_iter)
    except DegenerateStructureError:
        return None


class TestMatchesDenseReference:
    """The edge-pair step gives the dense products' iterates, up to the order
    in which each entry's terms are summed."""

    @settings(max_examples=300, deadline=None)
    @given(_graphs("a"), _graphs("b"), st.sampled_from([2, 6, 100]))
    @example(SINGLE_EDGE_A, SINGLE_EDGE_B, 100)
    @example(aug("l", [("n", "A", "data", "")]), SINGLE_EDGE_B, 100)
    def test_same_iterates(self, a, b, max_iter):
        expected = _outcome(reference_similarity_matrix, a, b, max_iter)
        result = _outcome(similarity_matrix, a, b, max_iter)
        if expected is None:
            assert result is None
            with pytest.raises(DegenerateStructureError):
                dist_node_sim(a, b, max_iter=max_iter)
            return
        assert result is not None
        assert (result.iterations_run, result.converged) == (
            expected.iterations_run,
            expected.converged,
        )
        assert result.entries.shape == expected.entries.shape
        assert np.abs(result.entries - expected.entries).max() <= 1e-12
        rows, cols = linear_sum_assignment(expected.entries, maximize=True)
        expected_distance = min(1.0, max(0.0, 1.0 - expected.entries[rows, cols].mean()))
        assert abs(dist_node_sim(a, b, max_iter=max_iter) - expected_distance) <= 1e-12


class TestManyToManyMatchesPerPair:
    """A pair's iterates do not depend on the batch it runs in, so the
    table form gives the per-pair values bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        _graphs("a"),
        st.lists(_graphs("b"), max_size=6),
        st.sampled_from([2, 6, 100]),
        st.sampled_from([1, 200, node_similarity._MAX_STACKED_EDGE_PAIRS]),
    )
    @example(aug("l", [("n", "A", "data", "")]), [SINGLE_EDGE_B, SINGLE_EDGE_A], 100, 1)
    @example(MIXED_SIDE, MIXED_BATCH, 100, 1)
    @example(MIXED_SIDE, MIXED_BATCH, 100, 200)
    @example(MIXED_SIDE, MIXED_BATCH, 100, node_similarity._MAX_STACKED_EDGE_PAIRS)
    def test_same_values_nones_and_caps(self, side, others, max_iter, cap):
        fallbacks.take()
        with _empty_memo(), mock.patch.object(node_similarity, "_MAX_STACKED_EDGE_PAIRS", cap):
            (values,) = dist_node_sim_many([side], others, max_iter=max_iter)
            matrices = similarity_matrices(side, others, max_iter=max_iter)
        batched_counts = fallbacks.take()

        expected = [_outcome(dist_node_sim, side, b, max_iter) for b in others]
        assert fallbacks.take() == batched_counts
        assert values == expected  # None at the same places, equal floats elsewhere
        for b, matrix in zip(others, matrices):
            single = _outcome(similarity_matrix, side, b, max_iter)
            if single is None:
                assert matrix is None
                continue
            assert (matrix.iterations_run, matrix.converged) == (
                single.iterations_run,
                single.converged,
            )
            assert np.array_equal(matrix.entries, single.entries)
            # the memo keeps no iteration count: a capped matrix ran them all
            assert matrix.converged or matrix.iterations_run == max_iter

    def test_no_entries(self):
        assert dist_node_sim_many([SINGLE_EDGE_A], []) == [[]]
        assert dist_node_sim_many([], [SINGLE_EDGE_A]) == []
        assert dist_node_sim_many([], []) == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            dist_node_sim_many([SINGLE_EDGE_A], [SINGLE_EDGE_B], tol=math.nan)
        with pytest.raises(ValueError):
            dist_node_sim_many([SINGLE_EDGE_A], [SINGLE_EDGE_B], max_iter=3)
        with pytest.raises(ValueError):
            dist_node_sim_many([], [], max_iter=3)
        with pytest.raises(ValueError):
            dist_node_sim_many([SINGLE_EDGE_A], [SINGLE_EDGE_B], max_iter=4.0)


def _adjacency(graph: AUG):
    sources, targets = graph.edge_positions
    return graph.node_count, tuple(sources), tuple(targets)


@st.composite
def _look_alikes(draw, bases, name):
    """A copy of one of ``bases`` with the same node ids and edges but its
    own name, node labels, node types and edge labels."""
    base = draw(st.sampled_from(bases))
    words = st.sampled_from(["A", "B", "Q"])
    types = st.sampled_from(["action", "data"])
    nodes = tuple(Node(node.id, draw(words), draw(types)) for node in base.nodes)
    edges = tuple(Edge(edge.source, edge.target, draw(words)) for edge in base.edges)
    return AUG(name, nodes, edges)


@st.composite
def _shared_adjacency_tables(draw):
    """References and entries that repeat a few adjacencies under other labels."""
    bases = draw(st.lists(_graphs("base"), min_size=1, max_size=3))
    references = draw(st.lists(_look_alikes(bases, "r"), max_size=4))
    entries = draw(st.lists(_look_alikes(bases, "e"), max_size=6))
    return references, entries


# Adjacencies that differ only in edge targets, edge sources or node count.
_NEAR_MISSES = [
    aug(name, [(node, "L", "action") for node in nodes], [(source, target, "order")])
    for name, nodes, source, target in (
        ("to_b", "abc", "a", "b"),
        ("to_c", "abc", "a", "c"),
        ("from_b", "abc", "b", "c"),
        ("padded", "abcd", "a", "b"),
    )
]
_NEAR_MISS_COPIES = [AUG(f"{g.name}2", g.nodes, g.edges) for g in _NEAR_MISSES]


def _per_pair(references, entries, max_iter):
    return [[_outcome(dist_node_sim, a, b, max_iter) for b in entries] for a in references]


class _CountingIterations:
    """Records each ``similarity_matrices`` call as (reference adjacency,
    entry adjacencies) while patched in."""

    def __init__(self):
        self.calls = []
        self._iterate = node_similarity.similarity_matrices

    def __call__(self, a, others, *args):
        self.calls.append((_adjacency(a), [_adjacency(b) for b in others]))
        return self._iterate(a, others, *args)

    def patched(self):
        return mock.patch.object(node_similarity, "similarity_matrices", self)

    @property
    def pairs(self):
        return [(a, b) for a, others in self.calls for b in others]


class TestTableFormSharesAdjacencies:
    """Graphs that differ only in labels share one iteration and one
    assignment per process, and every cell still holds its per-pair value."""

    @settings(max_examples=150, deadline=None)
    @given(_shared_adjacency_tables(), st.sampled_from([2, 6, 100]))
    @example((_NEAR_MISSES + _NEAR_MISS_COPIES, _NEAR_MISS_COPIES + _NEAR_MISSES), 100)
    def test_same_cells_as_per_pair_with_one_iteration_per_adjacency(self, lists, max_iter):
        # The references make two tables, as two rules would: from an empty
        # memo, each distinct pair is iterated once across both.
        references, entries = lists
        tables = (references[::2], references[1::2])
        counting = _CountingIterations()
        fallbacks.take()
        with _empty_memo(), counting.patched():
            cells = [dist_node_sim_many(table, entries, max_iter=max_iter) for table in tables]
        table_counts = fallbacks.take()

        expected = [_per_pair(table, entries, max_iter) for table in tables]
        assert fallbacks.take() == table_counts
        assert cells == expected  # None in the same cells, equal floats elsewhere

        pairs = counting.pairs
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {(_adjacency(a), _adjacency(b)) for a in references for b in entries}
        for _, others in counting.calls:
            assert others

    @settings(max_examples=100, deadline=None)
    @given(_shared_adjacency_tables(), st.sampled_from([2, 6, 100]))
    def test_later_table_reads_the_memo(self, lists, max_iter):
        references, entries = lists
        look_alikes = [
            AUG(
                f"{graph.name}'",
                tuple(Node(node.id, "Z", "data") for node in graph.nodes),
                graph.edges,
            )
            for graph in references
        ]
        counting = _CountingIterations()
        with _empty_memo():
            dist_node_sim_many(references, entries, max_iter=max_iter)
            fallbacks.take()
            with counting.patched():
                cells = dist_node_sim_many(look_alikes, entries, max_iter=max_iter)
            table_counts = fallbacks.take()
            memo = dict(node_similarity._solved)

        assert counting.calls == []
        assert cells == _per_pair(look_alikes, entries, max_iter)
        assert fallbacks.take() == table_counts  # capped cells count in either table
        for solution in memo.values():  # numbers only, never a matrix
            assert solution is None or [type(value) for value in solution] == [float, bool]

    def test_memo_stays_bounded_and_the_table_keeps_its_cells(self):
        # four distinct entry adjacencies against a bound of one
        references = [SINGLE_EDGE_A, _NEAR_MISSES[0]]
        entries = [*_NEAR_MISSES, *_NEAR_MISS_COPIES, SINGLE_EDGE_B]
        fallbacks.take()
        with _empty_memo(), mock.patch.object(node_similarity, "_MAX_SOLVED", 1):
            cells = dist_node_sim_many(references, entries, max_iter=6)
            assert len(node_similarity._solved) == 1
        table_counts = fallbacks.take()

        assert cells == _per_pair(references, entries, max_iter=6)
        assert fallbacks.take() == table_counts

    def test_input_checks_reach_every_graph(self):
        # No graph is empty, so only the options are checked: up front, so
        # also in a table with no rows or no columns.
        for references, entries in (([SINGLE_EDGE_A], []), ([], [SINGLE_EDGE_B]), ([], [])):
            with pytest.raises(ValueError, match="tol must be positive"):
                dist_node_sim_many(references, entries, tol=0.0)
            with pytest.raises(ValueError, match="max-iter must be"):
                dist_node_sim_many(references, entries, max_iter=3)
