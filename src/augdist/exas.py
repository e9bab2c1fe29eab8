"""Structural feature vectors and the vector-space distances built on them.

A graph is summarized by counting two feature kinds: degree-annotated nodes
(label, type, in-degree, out-degree) and short labeled directed paths of two
to four nodes. Single-node paths are omitted because the degree features
already cover them. Paths are simple (no node revisited), follow edge
direction, and are enumerated over edge instances, so parallel edges
contribute separate occurrences of the same feature key.

Each graph's vector is counted once, as ``AUG.feature_counts``, together
with its total and its keys from the highest count down, as
``AUG.feature_profile``; each graph is split by package once, as
``AUG.api_parts``. A distance only compares prepared vectors. The L1
distance visits only the keys both vectors share: its sum over the union of
keys is the two totals less twice the shared minima, an exact integer, and
it is rounded once by each of its two divisions.
"""

from __future__ import annotations

import math
from typing import Callable, Literal, get_args

from .graphs import AUG

# ("pq", label, node_type, in_degree, out_degree) or
# ("path", label0, edge_label0, label1, ..., labelN)
Feature = tuple
FeatureVector = dict[Feature, int]

CosineMode = Literal["corrected", "literal"]
SplitBase = Literal["l1", "cosine"]
COSINE_MODES: tuple[str, ...] = get_args(CosineMode)
SPLIT_BASES: tuple[str, ...] = get_args(SplitBase)

DEFAULT_LAMBDA = 0.5
DEFAULT_COSINE_MODE: CosineMode = "corrected"


def extract_features(graph: AUG) -> FeatureVector:
    """Count every degree-annotated node and every simple 2..4-node path.

    Each path is extended one edge instance at a time from each start node,
    skipping an edge whose target the path already holds.
    """
    labels = {node.id: node.label for node in graph.nodes}
    indegree = dict.fromkeys(labels, 0)
    # per node: (target, edge label, target label) of each outgoing edge
    out_edges: dict[str, list[tuple[str, str, str]]] = {node_id: [] for node_id in labels}
    for edge in graph.edges:
        target = edge.target
        indegree[target] += 1
        out_edges[edge.source].append((target, edge.label, labels[target]))

    counts: FeatureVector = {}
    for node in graph.nodes:
        key = ("pq", node.label, node.node_type, indegree[node.id], len(out_edges[node.id]))
        counts[key] = counts.get(key, 0) + 1

    for node in graph.nodes:
        first = node.id
        start = ("path", node.label)
        for second, label1, node_label1 in out_edges[first]:
            if second == first:
                continue
            key2 = start + (label1, node_label1)
            counts[key2] = counts.get(key2, 0) + 1
            for third, label2, node_label2 in out_edges[second]:
                if third == first or third == second:
                    continue
                key3 = key2 + (label2, node_label2)
                counts[key3] = counts.get(key3, 0) + 1
                for fourth, label3, node_label3 in out_edges[third]:
                    if fourth == first or fourth == second or fourth == third:
                        continue
                    key4 = key3 + (label3, node_label3)
                    counts[key4] = counts.get(key4, 0) + 1
    return counts


def check_cosine_options(lam: float, mode: str) -> None:
    """Raise ValueError unless ``lam`` is within [0, 1] and ``mode`` is a cosine mode."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be within [0, 1]")
    if mode not in COSINE_MODES:
        raise ValueError(f"unknown cosine mode {mode!r}")


def _cosine(vec_a: FeatureVector, vec_b: FeatureVector, lam: float, mode: str) -> float:
    shared = vec_a.keys() & vec_b.keys()
    shared_fraction = len(shared) / len(vec_a)
    if shared:
        # integer arithmetic keeps cos(v, v) == 1 exactly: the squared norms
        # multiply to a perfect square, whose float sqrt is the exact dot
        dot = square_a = square_b = 0
        for key in shared:
            count_a = vec_a[key]
            count_b = vec_b[key]
            dot += count_a * count_b
            square_a += count_a * count_a
            square_b += count_b * count_b
        cosine = dot / math.sqrt(square_a * square_b)
    else:
        cosine = 0.0
    first = shared_fraction if mode == "literal" else 1.0 - shared_fraction
    value = lam * first + (1.0 - lam) * (1.0 - cosine)
    return min(1.0, max(0.0, value))


def _largest_unshared(
    vector: FeatureVector, order: tuple[Feature, ...], other: FeatureVector
) -> int:
    """The highest count of a key of ``vector`` missing from ``other``, 0 if none."""
    for key in order:
        if key not in other:
            return vector[key]
    return 0


def dist_exas_l1(a: AUG, b: AUG) -> float:
    """Mean absolute value of the max-normalized super-vector difference.

    The plain 1-norm of the normalized difference grows with the number of
    features; dividing by the vector length keeps the result in [0, 1] and 1
    exactly means no feature is shared at equal scale.

    Only the shared keys are visited: a key on one side contributes its own
    count to the sum, and the highest such count per side comes from the
    side's prepared descending key order.
    """
    vec_a, vec_b = a.feature_counts, b.feature_counts
    (total_a, order_a), (total_b, order_b) = a.feature_profile, b.feature_profile
    shared = vec_a.keys() & vec_b.keys()
    overlap = largest = 0
    for key in shared:
        count_a = vec_a[key]
        count_b = vec_b[key]
        if count_a < count_b:
            overlap += count_a
            diff = count_b - count_a
        else:
            overlap += count_b
            diff = count_a - count_b
        if diff > largest:
            largest = diff
    largest = max(
        largest,
        _largest_unshared(vec_a, order_a, vec_b),
        _largest_unshared(vec_b, order_b, vec_a),
    )
    total = total_a + total_b - 2 * overlap
    length = len(vec_a) + len(vec_b) - len(shared)
    return total / max(1, largest) / length


def dist_exas_cosine(
    a: AUG,
    b: AUG,
    lam: float = DEFAULT_LAMBDA,
    mode: CosineMode = DEFAULT_COSINE_MODE,
) -> float:
    """Blend of shared-feature proportion and sub-vector cosine distance.

    The first argument is the reference side: the shared proportion is taken
    against its feature count, so the measure is asymmetric. In the default
    corrected mode identical graphs score 0 (the weight multiplies the
    complement of the shared proportion); literal mode keeps the shared
    proportion itself as the first term, which scores identical graphs at
    ``lam`` and exists for fidelity experiments.
    """
    check_cosine_options(lam, mode)
    return _cosine(a.feature_counts, b.feature_counts, lam, mode)


def split_distance(a: AUG, b: AUG, base: Callable[[AUG, AUG], float]) -> float:
    """Average a base distance over per-package subgraph pairs.

    Packages present on only one side are skipped, as are sub-distances of
    exactly 1: both indicate unrelated API usage that would only add noise.
    When nothing survives, the graphs share no comparable usage and the
    distance is 1.
    """
    parts_b = dict(b.api_parts)
    survivors = []
    for package, part_a in a.api_parts:
        part_b = parts_b.get(package)
        if part_b is None:
            continue
        value = base(part_a, part_b)
        if value != 1.0:
            survivors.append(value)
    if not survivors:
        return 1.0
    return float(sum(survivors) / len(survivors))


def dist_exas_split(
    a: AUG,
    b: AUG,
    base: SplitBase = "l1",
    lam: float = DEFAULT_LAMBDA,
    mode: CosineMode = DEFAULT_COSINE_MODE,
) -> float:
    """Per-package split variant of the L1 or cosine vector distance."""
    if base not in SPLIT_BASES:
        raise ValueError(f"unknown base distance {base!r}")
    check_cosine_options(lam, mode)
    if base == "l1":
        return split_distance(a, b, dist_exas_l1)
    return split_distance(
        a, b, lambda pa, pb: _cosine(pa.feature_counts, pb.feature_counts, lam, mode)
    )


def feature_lines(vector: FeatureVector) -> list[str]:
    """Render a vector as sorted ``feature<TAB>count`` lines for debugging."""
    lines = []
    for key, count in vector.items():
        kind, *rest = key
        lines.append(f"{kind}({'|'.join(str(part) for part in rest)})\t{count}")
    return sorted(lines)
