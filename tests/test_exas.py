import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from augdist import (
    dist_exas_cosine,
    dist_exas_l1,
    dist_exas_split,
    extract_features,
)
from augdist import exas, graphs
from augdist.exas import feature_lines, split_distance
from augdist.graphs import AUG, Edge, Node, package_of, split_by_api
from gen import random_aug_pairs
from helpers import aug
from oracles import (
    enumerate_path_features,
    full_feature_oracle,
    oracle_exas_l1,
    reference_dist_exas_cosine,
    reference_dist_exas_l1,
    reference_split_distance,
    sub_super,
    union_dist_exas_l1,
)

SINGLE = aug("s", [("n", "A.m()", "action", "p.A")])
PAIR = aug(
    "p",
    [("d1", "A", "data", "p.A"), ("n2", "A.m()", "action", "p.A")],
    [("d1", "n2", "recv")],
)
# two isolated nodes / one node / two same-labeled nodes: their super-vectors
# are (1,0,1) vs (0,1,0) and (1,0,1) vs (0,2,0) in sorted feature order
TWO_FEATURES = aug("v1", [("1", "X", "data", ""), ("2", "Z", "data", "")])
ONE_FEATURE = aug("v2", [("1", "Y", "data", "")])
DOUBLED_FEATURE = aug("v2x", [("1", "Y", "data", ""), ("2", "Y", "data", "")])


def isolated(name, **counts):
    """Isolated data nodes, ``counts[label]`` of each label: the exas vector
    holds exactly one degree feature per label, at that count."""
    nodes = [
        (f"{label}{i}", label, "data", "") for label, count in counts.items() for i in range(count)
    ]
    return aug(name, nodes)


def triangle():
    return aug(
        "tri",
        [("a", "N", "action", ""), ("b", "N", "action", ""), ("c", "N", "action", "")],
        [("a", "b", "order"), ("b", "c", "order"), ("c", "a", "order")],
    )


class TestExtractFeatures:
    def test_single_node(self):
        assert extract_features(SINGLE) == Counter(
            {("pq", "A.m()", "action", 0, 0): 1}
        )

    def test_node_pair_with_edge(self):
        assert extract_features(PAIR) == Counter(
            {
                ("pq", "A", "data", 0, 1): 1,
                ("pq", "A.m()", "action", 1, 0): 1,
                ("path", "A", "recv", "A.m()"): 1,
            }
        )

    def test_triangle_path_counts(self):
        features = extract_features(triangle())
        pq = [key for key in features if key[0] == "pq"]
        assert pq == [("pq", "N", "action", 1, 1)]
        assert features[("pq", "N", "action", 1, 1)] == 3
        by_length = Counter(
            (len(key) - 1) // 2 + 1 for key in features if key[0] == "path"
        )
        path_total = {
            length: sum(
                count
                for key, count in features.items()
                if key[0] == "path" and (len(key) - 1) // 2 + 1 == length
            )
            for length in by_length
        }
        # simple paths only: 3 of two nodes, 3 of three, none of four
        assert path_total == {2: 3, 3: 3}

    def test_parallel_edges_double_the_path_count(self):
        g = aug(
            "g",
            [("a", "A", "data", ""), ("b", "B", "data", "")],
            [("a", "b", "order"), ("a", "b", "order")],
        )
        features = extract_features(g)
        assert features[("path", "A", "order", "B")] == 2
        assert features[("pq", "A", "data", 0, 2)] == 1

    def test_degrees_count_multiplicity(self):
        g = aug(
            "g",
            [("a", "A", "data", ""), ("b", "B", "data", "")],
            [("a", "b", "order"), ("a", "b", "recv"), ("b", "a", "para")],
        )
        features = extract_features(g)
        assert ("pq", "A", "data", 1, 2) in features
        assert ("pq", "B", "data", 2, 1) in features

    def test_same_label_different_type_never_collides(self):
        returning_action = aug("ra", [("n", "<return>", "return", "")])
        returning_data = aug("rd", [("n", "<return>", "data", "")])
        keys_action = set(extract_features(returning_action))
        keys_data = set(extract_features(returning_data))
        assert keys_action.isdisjoint(keys_data)

    def test_matches_exhaustive_path_oracle(self):
        for a, _ in random_aug_pairs(seed=71, count=40, max_nodes=6, max_edges=8):
            expected = enumerate_path_features(a)
            actual = Counter(
                {key: count for key, count in extract_features(a).items() if key[0] == "path"}
            )
            assert actual == expected

    def test_one_node_with_loops_counts_degrees_but_no_path(self):
        # the smallest graphs with edges: a path never revisits its start
        for loops in (1, 2):
            looped = aug("looped", [("n", "A.m()", "action", "p.A")], [("n", "n", "order")] * loops)
            assert extract_features(looped) == {("pq", "A.m()", "action", loops, loops): 1}


class TestSubSuper:
    def test_disjoint_keys(self):
        sub_a, sub_b, super_a, super_b = sub_super(
            extract_features(TWO_FEATURES), extract_features(ONE_FEATURE)
        )
        assert len(sub_a) == len(sub_b) == 0
        assert len(super_a) == len(super_b) == 3

    def test_identical_vectors(self):
        vec = extract_features(PAIR)
        sub_a, sub_b, super_a, super_b = sub_super(vec, vec)
        assert np.array_equal(sub_a, super_a)
        assert np.array_equal(sub_b, super_b)
        assert len(sub_a) == len(vec)

    def test_worked_super_vectors(self):
        _, _, super_a, super_b = sub_super(
            extract_features(TWO_FEATURES), extract_features(DOUBLED_FEATURE)
        )
        assert super_a.tolist() == [1.0, 0.0, 1.0]
        assert super_b.tolist() == [0.0, 2.0, 0.0]


class TestL1:
    def test_disjoint_unit_vectors_give_max_distance(self):
        assert dist_exas_l1(TWO_FEATURES, ONE_FEATURE) == 1.0

    def test_doubled_feature_shrinks_distance(self):
        assert dist_exas_l1(TWO_FEATURES, DOUBLED_FEATURE) == pytest.approx(
            2 / 3, abs=1e-12
        )

    def test_identity(self):
        assert dist_exas_l1(PAIR, PAIR) == 0.0

    def test_symmetry_exact(self):
        for a, b in random_aug_pairs(seed=73, count=40, max_nodes=5, max_edges=6):
            assert dist_exas_l1(a, b) == dist_exas_l1(b, a)

    def test_range(self):
        for a, b in random_aug_pairs(seed=79, count=40, max_nodes=5, max_edges=6):
            assert 0.0 <= dist_exas_l1(a, b) <= 1.0

    # each expected value is (sum of |differences|) / (largest) / (union size)
    @pytest.mark.parametrize(
        "counts_a, counts_b, expected",
        [
            pytest.param({"X": 5, "Y": 1}, {"X": 1, "Z": 2}, 7 / 4 / 3, id="max-on-shared-key"),
            # a's highest count is on the shared key X, so its largest
            # unshared count sits further down its key order
            pytest.param({"X": 5, "Y": 3}, {"X": 4, "Z": 1}, 5 / 3 / 3, id="max-only-in-a"),
            pytest.param({"X": 2, "Y": 1}, {"X": 3, "Z": 4, "W": 1}, 7 / 4 / 4, id="max-only-in-b"),
            pytest.param({"X": 3, "Y": 3}, {"X": 3, "Z": 1}, 4 / 3 / 3, id="tie-at-top-count"),
            pytest.param({"X": 2, "Y": 1}, {"Z": 3}, 6 / 3 / 3, id="no-shared-key"),
            pytest.param({"X": 2, "Y": 1}, {"X": 2, "Y": 1}, 0.0, id="identical"),
        ],
    )
    def test_pinned_vectors(self, counts_a, counts_b, expected):
        a, b = isolated("a", **counts_a), isolated("b", **counts_b)
        assert dist_exas_l1(a, b) == expected
        assert dist_exas_l1(b, a) == expected
        assert union_dist_exas_l1(a, b) == expected


class TestCosine:
    def test_identity_in_corrected_mode(self):
        assert dist_exas_cosine(PAIR, PAIR) == 0.0

    def test_identity_in_literal_mode_is_half(self):
        # the as-published form pays the full shared-proportion term even for
        # identical graphs
        assert dist_exas_cosine(PAIR, PAIR, mode="literal") == pytest.approx(0.5)

    def test_disjoint_features_give_max_distance(self):
        assert dist_exas_cosine(TWO_FEATURES, ONE_FEATURE) == 1.0

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            dist_exas_cosine(PAIR, PAIR, lam=1.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="cosine mode"):
            dist_exas_cosine(PAIR, PAIR, mode="bogus")

    def test_asymmetry_allowed_but_range_holds(self):
        for a, b in random_aug_pairs(seed=83, count=40, max_nodes=5, max_edges=6):
            assert 0.0 <= dist_exas_cosine(a, b) <= 1.0
            assert dist_exas_cosine(a, a) == 0.0


class TestSplit:
    def test_single_shared_package_equals_base(self):
        a = aug(
            "a",
            [("x", "A", "data", "p.A"), ("y", "A.m()", "action", "p.A")],
            [("x", "y", "recv")],
        )
        b = aug("b", [("x", "A", "data", "p.A")])
        assert dist_exas_split(a, b, base="l1") == dist_exas_l1(a, b)

    def test_unmatched_packages_skipped(self):
        by_package = {"p": 0.4}

        def stub(part_a, part_b):
            return by_package[package_of(part_a.nodes[0])]

        a = aug("a", [("x", "A", "data", "p.A"), ("y", "C", "data", "q.C")])
        b = aug("b", [("x", "A", "data", "p.A"), ("z", "D", "data", "r.D")])
        assert split_distance(a, b, stub) == 0.4

    def test_sub_distances_of_one_discarded(self):
        values = {"p": 0.2, "q": 1.0, "r": 0.6}

        def stub(part_a, part_b):
            return values[package_of(part_a.nodes[0])]

        nodes = [
            ("x", "A", "data", "p.A"),
            ("y", "B", "data", "q.B"),
            ("z", "C", "data", "r.C"),
        ]
        a = aug("a", nodes)
        b = aug("b", nodes)
        assert split_distance(a, b, stub) == pytest.approx(0.4)

    def test_nothing_surviving_gives_one(self):
        a = aug("a", [("x", "A", "data", "p.A")])
        b = aug("b", [("y", "B", "data", "q.B")])
        assert dist_exas_split(a, b, base="l1") == 1.0

    def test_identity_and_range(self):
        for a, b in random_aug_pairs(seed=89, count=30, max_nodes=5, max_edges=6):
            assert dist_exas_split(a, a, base="l1") == 0.0
            assert dist_exas_split(a, a, base="cosine") == 0.0
            assert 0.0 <= dist_exas_split(a, b, base="l1") <= 1.0
            assert 0.0 <= dist_exas_split(a, b, base="cosine") <= 1.0

    def test_l1_split_symmetry(self):
        for a, b in random_aug_pairs(seed=97, count=30, max_nodes=5, max_edges=6):
            assert dist_exas_split(a, b, base="l1") == dist_exas_split(b, a, base="l1")

    def test_unknown_base_rejected(self):
        with pytest.raises(ValueError):
            dist_exas_split(PAIR, PAIR, base="manhattan")

    @pytest.mark.parametrize("options", [{"lam": 5.0}, {"mode": "bogus"}])
    def test_cosine_options_validated_without_a_shared_package(self, options):
        a = aug("a", [("x", "A", "data", "p.A")])
        b = aug("b", [("y", "B", "data", "q.B")])
        with pytest.raises(ValueError):
            dist_exas_split(a, b, base="cosine", **options)


LABELS = ("A", "B", "A.m()")
# two packages plus the three spellings that land in the misc bucket
APIS = ("p.A", "p.B", "q.C", "", "UNKNOWN", "Bare")

# parallel edges, a self-loop and a shared path over two packages and misc
MIXED = aug(
    "mixed",
    [
        ("u", "A", "data", "p.A"),
        ("v", "A.m()", "action", "p.A"),
        ("w", "B", "data", "q.C"),
        ("x", "B", "data", ""),
    ],
    [
        ("u", "v", "recv"),
        ("u", "v", "recv"),
        ("v", "v", "order"),
        ("v", "w", "order"),
        ("w", "x", "recv"),
    ],
)
MIXED_OTHER = aug(
    "other",
    [("u", "A", "data", "p.A"), ("v", "A.m()", "action", "p.A"), ("x", "B", "data", "Bare")],
    [("u", "v", "recv"), ("x", "x", "order")],
)


@st.composite
def _graphs(draw, name):
    """Up to 7 nodes over few labels and packages, the misc bucket included,
    and up to 12 edges: self-loops and parallel edges included."""
    count = draw(st.integers(1, 7))
    nodes = tuple(
        Node(
            f"n{i}",
            draw(st.sampled_from(LABELS)),
            draw(st.sampled_from(("action", "data"))),
            draw(st.sampled_from(APIS)),
        )
        for i in range(count)
    )
    edges = tuple(
        Edge(
            f"n{draw(st.integers(0, count - 1))}",
            f"n{draw(st.integers(0, count - 1))}",
            draw(st.sampled_from(("recv", "order"))),
        )
        for _ in range(draw(st.integers(0, 12)))
    )
    return AUG(name, nodes, edges)


def _unprepared(graph):
    return AUG(graph.name, graph.nodes, graph.edges)


def _all_distances(a, b):
    return (
        dist_exas_l1(a, b),
        dist_exas_cosine(a, b, lam=0.3, mode="literal"),
        dist_exas_split(a, b, base="l1"),
        dist_exas_split(a, b, base="cosine"),
    )


class TestFeaturesMatchFullOracle:
    @settings(max_examples=300, deadline=None)
    @given(_graphs("g"))
    @example(MIXED)
    @example(MIXED_OTHER)
    def test_degree_and_path_features(self, graph):
        assert extract_features(graph) == full_feature_oracle(graph)


class TestMatchesPerPairReference:
    """Prepared vectors and splits give the per-pair code's values: cosine
    exactly, L1 up to the rounding of its terms, which the per-pair code
    divided one by one before a float sum. The shared-key L1 gives the
    union loop's values exactly."""

    @settings(max_examples=300, deadline=None)
    @given(
        _graphs("a"),
        _graphs("b"),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.sampled_from(["corrected", "literal"]),
    )
    @example(MIXED, MIXED_OTHER, 0.5, "corrected")
    @example(MIXED_OTHER, MIXED, 0.3, "literal")
    def test_same_values(self, a, b, lam, mode):
        def reference_cosine(pa, pb):
            return reference_dist_exas_cosine(pa, pb, lam=lam, mode=mode)

        assert dist_exas_cosine(a, b, lam=lam, mode=mode) == reference_cosine(a, b)
        assert dist_exas_split(
            a, b, base="cosine", lam=lam, mode=mode
        ) == reference_split_distance(a, b, reference_cosine)

        l1 = dist_exas_l1(a, b)
        assert l1 == union_dist_exas_l1(a, b)
        assert abs(l1 - reference_dist_exas_l1(a, b)) <= 1e-12
        assert abs(l1 - oracle_exas_l1(a, b)) <= 1e-12
        split_l1 = dist_exas_split(a, b, base="l1")
        assert split_l1 == reference_split_distance(a, b, union_dist_exas_l1)
        assert abs(split_l1 - reference_split_distance(a, b, reference_dist_exas_l1)) <= 1e-12
        assert abs(split_l1 - reference_split_distance(a, b, oracle_exas_l1)) <= 1e-12


class TestPreparedGraphs:
    def test_prepared_data_matches_the_extractors(self):
        assert MIXED.feature_counts == extract_features(MIXED)
        assert type(MIXED.feature_counts) is dict
        parts = split_by_api(MIXED)
        assert [package for package, _ in MIXED.api_parts] == sorted(parts)
        for package, part in MIXED.api_parts:
            assert part == parts[package]
            assert part.feature_counts == extract_features(parts[package])

    @pytest.mark.parametrize("graph", [MIXED, MIXED_OTHER, triangle(), isolated("i", X=3, Y=3)])
    def test_profile_is_the_total_and_the_keys_by_descending_count(self, graph):
        counts = graph.feature_counts
        total, order = graph.feature_profile
        assert total == sum(counts.values())
        assert sorted(order) == sorted(counts)
        by_count = [counts[key] for key in order]
        assert by_count == sorted(by_count, reverse=True)

    def test_profile_is_read_only(self):
        profile = MIXED.feature_profile
        assert type(profile) is tuple and type(profile[1]) is tuple
        assert all(type(key) is tuple for key in profile[1])
        with pytest.raises(TypeError):
            profile[1][0] = ("pq",)

    def test_each_graph_prepared_once_through_module_attributes(self, monkeypatch):
        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(graph):
                calls[name, graph.name] += 1
                return original(graph)

            monkeypatch.setattr(module, name, counted)

        count(exas, "extract_features")
        count(graphs, "split_by_api")
        pairs = random_aug_pairs(seed=103, count=6, max_nodes=6, max_edges=8)
        pool = [graph for pair in pairs for graph in pair]
        for a in pool:
            for b in pool:
                _all_distances(a, b)
        assert set(calls.values()) == {1}
        assert {name for kind, name in calls if kind == "split_by_api"} == {g.name for g in pool}
        # the L1 distance read each profile, built from the one extraction
        assert all("feature_profile" in vars(graph) for graph in pool)

    def test_pickled_prepared_graph_keeps_its_distances(self):
        prepared = {"feature_counts", "feature_profile"}
        for a, b in random_aug_pairs(seed=101, count=30, max_nodes=6, max_edges=8):
            a.feature_profile
            for _, part in a.api_parts:
                part.feature_profile
            restored = pickle.loads(pickle.dumps(a))
            assert prepared | {"api_parts"} <= vars(restored).keys()
            assert all(prepared <= vars(part).keys() for _, part in restored.api_parts)
            assert restored.feature_profile == a.feature_profile
            fresh_a, fresh_b = _unprepared(a), _unprepared(b)
            assert _all_distances(restored, b) == _all_distances(fresh_a, fresh_b)
            assert _all_distances(b, restored) == _all_distances(fresh_b, fresh_a)


class TestFeatureLines:
    def test_sorted_tab_separated_output(self):
        lines = feature_lines(extract_features(PAIR))
        assert lines == sorted(lines)
        assert all("\t" in line for line in lines)
        assert any(line.endswith("\t1") for line in lines)
