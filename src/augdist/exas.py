"""Structural feature vectors and the vector-space distances built on them.

A graph is summarized by counting two feature kinds: degree-annotated nodes
(label, type, in-degree, out-degree) and short labeled directed paths of two
to four nodes. Single-node paths are omitted because the degree features
already cover them. Paths are simple (no node revisited), follow edge
direction, and are enumerated over edge instances, so parallel edges
contribute separate occurrences of the same feature key.

Each graph's vector is counted once, as ``AUG.feature_counts``, and each
graph is split by package once, as ``AUG.api_parts``; a distance only
compares prepared vectors. The L1 distance is an exact integer sum over the
union of feature keys, rounded once by each of its two divisions.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Literal, get_args

from .graphs import AUG, Edge

# ("pq", label, node_type, in_degree, out_degree) or
# ("path", label0, edge_label0, label1, ..., labelN)
Feature = tuple
FeatureVector = Counter

MAX_PATH_NODES = 4

CosineMode = Literal["corrected", "literal"]
SplitBase = Literal["l1", "cosine"]

DEFAULT_LAMBDA = 0.5
DEFAULT_COSINE_MODE: CosineMode = "corrected"


def extract_features(graph: AUG) -> FeatureVector:
    """Count every degree-annotated node and every simple 2..4-node path."""
    graph.require_non_empty()
    indegree: Counter[str] = Counter()
    outdegree: Counter[str] = Counter()
    out_edges: dict[str, list[Edge]] = {node.id: [] for node in graph.nodes}
    for edge in graph.edges:
        outdegree[edge.source] += 1
        indegree[edge.target] += 1
        out_edges[edge.source].append(edge)

    counts: Counter[Feature] = Counter()
    for node in graph.nodes:
        counts[("pq", node.label, node.node_type, indegree[node.id], outdegree[node.id])] += 1

    labels = {node.id: node.label for node in graph.nodes}

    def walk(last: str, visited: set[str], parts: tuple[str, ...]) -> None:
        for edge in out_edges[last]:
            if edge.target in visited:
                continue
            extended = parts + (edge.label, labels[edge.target])
            counts[("path", *extended)] += 1
            if len(visited) + 1 < MAX_PATH_NODES:
                walk(edge.target, visited | {edge.target}, extended)

    for node in graph.nodes:
        walk(node.id, {node.id}, (node.label,))
    return counts


def _check_cosine_options(lam: float, mode: str) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be within [0, 1]")
    if mode not in get_args(CosineMode):
        raise ValueError(f"unknown cosine mode {mode!r}")


def _cosine(
    vec_a: dict[Feature, int], vec_b: dict[Feature, int], lam: float, mode: str
) -> float:
    shared = vec_a.keys() & vec_b.keys()
    shared_fraction = len(shared) / len(vec_a)
    if shared:
        # integer arithmetic keeps cos(v, v) == 1 exactly: the squared norms
        # multiply to a perfect square, whose float sqrt is the exact dot
        dot = sum(vec_a[key] * vec_b[key] for key in shared)
        square_a = sum(vec_a[key] ** 2 for key in shared)
        square_b = sum(vec_b[key] ** 2 for key in shared)
        cosine = dot / math.sqrt(square_a * square_b)
    else:
        cosine = 0.0
    first = shared_fraction if mode == "literal" else 1.0 - shared_fraction
    value = lam * first + (1.0 - lam) * (1.0 - cosine)
    return min(1.0, max(0.0, value))


def dist_exas_l1(a: AUG, b: AUG) -> float:
    """Mean absolute value of the max-normalized super-vector difference.

    The plain 1-norm of the normalized difference grows with the number of
    features; dividing by the vector length keeps the result in [0, 1] and 1
    exactly means no feature is shared at equal scale.
    """
    a.require_non_empty()
    b.require_non_empty()
    vec_a, vec_b = a.feature_counts, b.feature_counts
    diffs = [abs(count - vec_b.get(key, 0)) for key, count in vec_a.items()]
    diffs.extend(count for key, count in vec_b.items() if key not in vec_a)
    return sum(diffs) / max(1, max(diffs)) / len(diffs)


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
    a.require_non_empty()
    b.require_non_empty()
    _check_cosine_options(lam, mode)
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
    a.require_non_empty()
    b.require_non_empty()
    if base not in get_args(SplitBase):
        raise ValueError(f"unknown base distance {base!r}")
    _check_cosine_options(lam, mode)
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
