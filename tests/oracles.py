"""Independent brute-force oracles.

Everything here trades speed for obviousness: exhaustive enumeration over
mappings, matchings and paths, and an exact binary program for the edit
distance past the sizes enumeration reaches, written without reusing any
production code path, so the fast implementations can be checked against it
exactly.

The module also keeps the implementations that faster rewrites replaced (the
character-by-character DOT tokenizer, the ``Counter``-based search, the
dense-matrix node-similarity iteration, the per-pair exas distances, the
union-loop L1 distance, the padded bipartite assignment and the recursive
edge-label matching), as
differential oracles that the rewrites must agree with.
"""

from __future__ import annotations

import math
import re
import time
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, milp

from augdist import (
    AUG,
    CostModel,
    DegenerateStructureError,
    DotSyntaxError,
    SimilarityMatrix,
    default_cost_model,
)
from augdist.exas import CosineMode, FeatureVector, extract_features
from augdist.ged import _DELETED, GedResult, _DeadlineHit
from augdist.graphs import Node, split_by_api
from augdist.node_similarity import DEFAULT_MAX_ITER, DEFAULT_TOL


def _edge_labels_between(graph: AUG) -> dict[tuple[str, str], list[str]]:
    table: dict[tuple[str, str], list[str]] = {}
    for edge in graph.edges:
        table.setdefault((edge.source, edge.target), []).append(edge.label)
    return table


def _all_mappings(a_ids: list[str], b_ids: list[str]):
    """Yield every injective partial mapping as a dict a_id -> b_id | None."""

    def extend(index: int, taken: frozenset, current: dict):
        if index == len(a_ids):
            yield dict(current)
            return
        a_id = a_ids[index]
        current[a_id] = None
        yield from extend(index + 1, taken, current)
        for b_id in b_ids:
            if b_id in taken:
                continue
            current[a_id] = b_id
            yield from extend(index + 1, taken | {b_id}, current)
        del current[a_id]

    yield from extend(0, frozenset(), {})


def _min_label_matching(
    labels_a: list[str], labels_b: list[str], cm: CostModel
) -> float:
    """Exhaustive cheapest edit between two edge-label multisets."""
    if not labels_a:
        return cm.edge_insert * len(labels_b)
    best = cm.edge_delete + _min_label_matching(labels_a[1:], labels_b, cm)
    for pick in range(len(labels_b)):
        candidate = cm.edge_substitute(labels_a[0], labels_b[pick]) + _min_label_matching(
            labels_a[1:], labels_b[:pick] + labels_b[pick + 1 :], cm
        )
        best = min(best, candidate)
    return best


def mapping_cost(a: AUG, b: AUG, cm: CostModel, mapping: dict) -> float:
    """Full edit cost induced by one node mapping."""
    nodes_a = a.nodes_by_id
    nodes_b = b.nodes_by_id
    cost = 0.0
    for a_id, b_id in mapping.items():
        if b_id is None:
            cost += cm.node_delete
        else:
            cost += cm.node_substitute(nodes_a[a_id], nodes_b[b_id])
    mapped_targets = {b_id for b_id in mapping.values() if b_id is not None}
    cost += cm.node_insert * (len(nodes_b) - len(mapped_targets))

    edges_a = _edge_labels_between(a)
    edges_b = _edge_labels_between(b)
    covered_b: set[tuple[str, str]] = set()
    for u, v in product(nodes_a, nodes_a):
        labels_a = edges_a.get((u, v), [])
        u_img, v_img = mapping[u], mapping[v]
        if u_img is None or v_img is None:
            cost += cm.edge_delete * len(labels_a)
            continue
        covered_b.add((u_img, v_img))
        cost += _min_label_matching(labels_a, edges_b.get((u_img, v_img), []), cm)
    for pair, labels_b in edges_b.items():
        if pair not in covered_b:
            cost += cm.edge_insert * len(labels_b)
    return cost


def brute_force_ged(a: AUG, b: AUG, cm: CostModel) -> float:
    """Exact minimal edit cost by enumerating every node mapping."""
    a_ids = sorted(a.nodes_by_id)
    b_ids = sorted(b.nodes_by_id)
    return min(
        mapping_cost(a, b, cm, mapping) for mapping in _all_mappings(a_ids, b_ids)
    )


def brute_force_node_ged(a: AUG, b: AUG, cm: CostModel) -> float:
    """Exact minimal node-only edit cost (edges ignored)."""
    nodes_a = a.nodes_by_id
    nodes_b = b.nodes_by_id
    a_ids = sorted(nodes_a)
    b_ids = sorted(nodes_b)
    best = float("inf")
    for mapping in _all_mappings(a_ids, b_ids):
        cost = 0.0
        for a_id, b_id in mapping.items():
            if b_id is None:
                cost += cm.node_delete
            else:
                cost += cm.node_substitute(nodes_a[a_id], nodes_b[b_id])
        mapped = sum(1 for b_id in mapping.values() if b_id is not None)
        cost += cm.node_insert * (len(b_ids) - mapped)
        best = min(best, cost)
    return best


def milp_ged(a: AUG, b: AUG, cm: CostModel) -> float:
    """Exact minimal edit cost from the binary program of Lerouge et al.,
    "New binary linear programming formulation to compute the graph edit
    distance" (Pattern Recognition, 2017), solved with ``scipy.optimize.milp``.

    There is one 0/1 variable per node pair and one per edge pair. Edges are
    instances, so parallel edges and loops need no special case. Each node
    and each edge is used at most once, and an edge pair's variable is at
    most the variable of each of its two endpoint pairs. The objective is
    each substitution's cost less the delete plus insert it saves, on top of
    deleting all of ``a`` and inserting all of ``b``; a forbidden
    (``math.inf``) substitution gets an upper bound of 0. The cost is summed
    from the chosen substitutions, so it is exact for integer-valued models.
    """
    node_pairs = list(product(range(a.node_count), range(b.node_count)))
    edge_pairs = list(product(range(a.edge_count), range(b.edge_count)))
    node_spare = cm.node_delete + cm.node_insert
    edge_spare = cm.edge_delete + cm.edge_insert
    costs = [cm.node_substitute(a.nodes[i], b.nodes[k]) - node_spare for i, k in node_pairs]
    costs += [
        cm.edge_substitute(a.edges[e].label, b.edges[f].label) - edge_spare for e, f in edge_pairs
    ]
    forbidden = [math.isinf(cost) for cost in costs]
    gains = np.array([0.0 if off else cost for cost, off in zip(costs, forbidden)])

    rows: list[tuple[dict[int, float], float]] = []  # coefficients by column, upper limit
    for pairs, offset in ((node_pairs, 0), (edge_pairs, len(node_pairs))):
        for side in (0, 1):
            users: dict[int, dict[int, float]] = {}
            for column, pair in enumerate(pairs, start=offset):
                users.setdefault(pair[side], {})[column] = 1.0
            rows += [(row, 1.0) for row in users.values()]
    x = {pair: column for column, pair in enumerate(node_pairs)}
    index_a = {node.id: i for i, node in enumerate(a.nodes)}
    index_b = {node.id: k for k, node in enumerate(b.nodes)}
    for column, (e, f) in enumerate(edge_pairs, start=len(node_pairs)):
        for end in ("source", "target"):
            ends = index_a[getattr(a.edges[e], end)], index_b[getattr(b.edges[f], end)]
            rows.append(({column: 1.0, x[ends]: -1.0}, 0.0))
    matrix = np.zeros((len(rows), len(costs)))
    for r, (row, _) in enumerate(rows):
        matrix[r, list(row)] = list(row.values())
    result = milp(
        gains,
        constraints=LinearConstraint(matrix, -np.inf, [limit for _, limit in rows]),
        integrality=np.ones(len(costs)),
        bounds=Bounds(0, [0 if off else 1 for off in forbidden]),
        options={"mip_rel_gap": 0},
    )
    if result.status != 0:
        raise RuntimeError(f"milp did not solve {a.name!r} vs {b.name!r}: {result.message}")
    total = (
        cm.node_delete * a.node_count + cm.node_insert * b.node_count
        + cm.edge_delete * a.edge_count + cm.edge_insert * b.edge_count
    )
    return float(total + sum(gain for gain, value in zip(gains, result.x) if value > 0.5))


def _identical(u: Node, v: Node) -> bool:
    return u.label == v.label and u.node_type == v.node_type


def max_identical_matching(a: AUG, b: AUG) -> int:
    """Largest one-to-one matching of label-and-type-identical nodes."""
    a_nodes = sorted(a.nodes, key=lambda n: n.id)
    b_nodes = sorted(b.nodes, key=lambda n: n.id)

    def extend(index: int, taken: frozenset) -> int:
        if index == len(a_nodes):
            return 0
        best = extend(index + 1, taken)
        for k, candidate in enumerate(b_nodes):
            if k in taken or not _identical(a_nodes[index], candidate):
                continue
            best = max(best, 1 + extend(index + 1, taken | {k}))
        return best

    return extend(0, frozenset())


def enumerate_path_features(graph: AUG) -> Counter:
    """Count 2..4-node simple-path features by iterating node tuples.

    For each ordered tuple of distinct nodes, multiply the parallel-edge
    choices per hop and attribute the product to the label sequence.
    """
    labels = {node.id: node.label for node in graph.nodes}
    edge_table = {
        pair: Counter(edge_labels)
        for pair, edge_labels in _edge_labels_between(graph).items()
    }
    ids = sorted(labels)
    counts: Counter = Counter()

    def tuples(length: int, chosen: tuple[str, ...]):
        if len(chosen) == length:
            yield chosen
            return
        for node_id in ids:
            if node_id in chosen:
                continue
            yield from tuples(length, chosen + (node_id,))

    for length in (2, 3, 4):
        for node_tuple in tuples(length, ()):
            options = []
            feasible = True
            for u, v in zip(node_tuple, node_tuple[1:]):
                hop = edge_table.get((u, v))
                if not hop:
                    feasible = False
                    break
                options.append(sorted(hop.items()))
            if not feasible:
                continue
            for combo in product(*options):
                multiplicity = 1
                sequence: list[str] = [labels[node_tuple[0]]]
                for (label, count), node_id in zip(combo, node_tuple[1:]):
                    multiplicity *= count
                    sequence.extend((label, labels[node_id]))
                counts[("path", *sequence)] += multiplicity
    return counts


def full_feature_oracle(graph: AUG) -> Counter:
    """Degree features from direct counting plus the exhaustive path features."""
    indegree: Counter = Counter()
    outdegree: Counter = Counter()
    for edge in graph.edges:
        outdegree[edge.source] += 1
        indegree[edge.target] += 1
    counts = enumerate_path_features(graph)
    for node in graph.nodes:
        counts[
            ("pq", node.label, node.node_type, indegree[node.id], outdegree[node.id])
        ] += 1
    return counts


def oracle_exas_l1(a: AUG, b: AUG) -> float:
    """Mean absolute max-normalized difference, from the oracle vectors."""
    vec_a = full_feature_oracle(a)
    vec_b = full_feature_oracle(b)
    keys = sorted(vec_a.keys() | vec_b.keys())
    diffs = [vec_a.get(key, 0) - vec_b.get(key, 0) for key in keys]
    scale = max(1, max((abs(d) for d in diffs), default=0))
    return sum(abs(d) / scale for d in diffs) / len(diffs)


def dense_node_similarity(a: AUG, b: AUG, tol: float, max_iter: int):
    """Loop-based re-implementation of the coupled similarity iteration."""
    a_ids = sorted(node.id for node in a.nodes)
    b_ids = sorted(node.id for node in b.nodes)
    pos_a = {node_id: i for i, node_id in enumerate(a_ids)}
    pos_b = {node_id: i for i, node_id in enumerate(b_ids)}
    n_a, n_b = len(a_ids), len(b_ids)
    adj_a = [[0.0] * n_a for _ in range(n_a)]
    adj_b = [[0.0] * n_b for _ in range(n_b)]
    for source, target in {(e.source, e.target) for e in a.edges}:
        adj_a[pos_a[source]][pos_a[target]] = 1.0
    for source, target in {(e.source, e.target) for e in b.edges}:
        adj_b[pos_b[source]][pos_b[target]] = 1.0

    def frobenius(matrix):
        return sum(value * value for row in matrix for value in row) ** 0.5

    current = [[1.0] * n_a for _ in range(n_b)]
    norm = frobenius(current)
    current = [[value / norm for value in row] for row in current]
    previous = current
    for iteration in range(1, max_iter + 1):
        update = [[0.0] * n_a for _ in range(n_b)]
        for x in range(n_b):
            for y in range(n_a):
                forward = sum(
                    adj_b[x][p] * current[p][q] * adj_a[y][q]
                    for p in range(n_b)
                    for q in range(n_a)
                )
                backward = sum(
                    adj_b[p][x] * current[p][q] * adj_a[q][y]
                    for p in range(n_b)
                    for q in range(n_a)
                )
                update[x][y] = forward + backward
        norm = frobenius(update)
        if norm == 0:
            raise ZeroDivisionError("degenerate structure")
        current = [[value / norm for value in row] for row in update]
        if iteration % 2 == 0:
            delta = (
                sum(
                    (current[x][y] - previous[x][y]) ** 2
                    for x in range(n_b)
                    for y in range(n_a)
                )
                ** 0.5
            )
            if delta < tol:
                break
            previous = current
    return current


def best_assignment_mean(matrix) -> float:
    """Maximum mean similarity over one-to-one pairings, by enumeration."""
    n_rows = len(matrix)
    n_cols = len(matrix[0])
    size = min(n_rows, n_cols)

    def extend(row: int, taken: frozenset, picked: int) -> float:
        if picked == size or row == n_rows:
            return 0.0 if picked == size else float("-inf")
        best = extend(row + 1, taken, picked)
        for col in range(n_cols):
            if col in taken:
                continue
            best = max(
                best, matrix[row][col] + extend(row + 1, taken | {col}, picked + 1)
            )
        return best

    return extend(0, frozenset(), 0) / size


# The node-similarity iteration as it was before it ran on edge pairs, kept
# verbatim (bar the function name) as the oracle of a differential test: the
# rewrite must give the same iterates up to the order of summation.


def _binary_adjacency(graph: AUG) -> np.ndarray:
    order = {node.id: i for i, node in enumerate(sorted(graph.nodes, key=lambda n: n.id))}
    matrix = np.zeros((len(order), len(order)))
    for edge in graph.edges:
        matrix[order[edge.source], order[edge.target]] = 1.0
    return matrix


def reference_similarity_matrix(
    a: AUG,
    b: AUG,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SimilarityMatrix:
    """Iterate the coupled update until even-step differences fall below tol.

    Starting from a (normalized) all-ones matrix, each step applies
    ``S <- B S A^T + B^T S A`` with A, B the binary adjacency matrices, then
    rescales to unit Frobenius norm. Convergence is checked between
    consecutive even iterates because odd and even iterates approach two
    different accumulation points.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 2 or max_iter % 2:
        raise ValueError("max_iter must be an even number >= 2")

    adj_a = _binary_adjacency(a)
    adj_b = _binary_adjacency(b)
    current = np.ones((b.node_count, a.node_count))
    current /= np.linalg.norm(current)
    previous_even = current

    for iteration in range(1, max_iter + 1):
        update = adj_b @ current @ adj_a.T + adj_b.T @ current @ adj_a
        flat = update.ravel()
        norm = math.sqrt(flat.dot(flat))  # np.linalg.norm's own path, minus its dispatch
        if norm == 0.0 or not math.isfinite(norm):
            raise DegenerateStructureError(
                f"similarity update collapsed to zero for {a.name!r} vs {b.name!r}"
            )
        current = update / norm
        if iteration % 2 == 0:
            flat = (current - previous_even).ravel()
            if math.sqrt(flat.dot(flat)) < tol:
                return SimilarityMatrix(current, iteration, True)
            previous_even = current
    return SimilarityMatrix(current, max_iter, False)


def sub_super(
    vec_a: FeatureVector, vec_b: FeatureVector
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared-key restrictions and zero-filled union extensions of two vectors.

    Coordinates follow the canonical sorted order of the feature keys, so
    positions are comparable across the four returned vectors.
    """
    shared = sorted(vec_a.keys() & vec_b.keys())
    union = sorted(vec_a.keys() | vec_b.keys())
    sub_a = np.array([vec_a[key] for key in shared], dtype=float)
    sub_b = np.array([vec_b[key] for key in shared], dtype=float)
    super_a = np.array([vec_a.get(key, 0) for key in union], dtype=float)
    super_b = np.array([vec_b.get(key, 0) for key in union], dtype=float)
    return sub_a, sub_b, super_a, super_b


# The exas distances as they were before each graph's feature vector and
# package split became cached properties, kept verbatim (bar the function
# names) as the oracles of a differential test: every pair re-extracts both
# vectors, sorts their keys and splits both graphs again.


def _l1_of_supers(super_a: np.ndarray, super_b: np.ndarray) -> float:
    diff = super_a - super_b
    scale = max(1.0, float(np.abs(diff).max(initial=0.0)))
    return float(np.abs(diff / scale).sum() / len(diff))


def reference_dist_exas_l1(a: AUG, b: AUG) -> float:
    """Mean absolute value of the max-normalized super-vector difference.

    The plain 1-norm of the normalized difference grows with the number of
    features; dividing by the vector length keeps the result in [0, 1] and 1
    exactly means no feature is shared at equal scale.
    """
    _, _, super_a, super_b = sub_super(extract_features(a), extract_features(b))
    return _l1_of_supers(super_a, super_b)


def reference_dist_exas_cosine(
    a: AUG,
    b: AUG,
    lam: float = 0.5,
    mode: CosineMode = "corrected",
) -> float:
    """Blend of shared-feature proportion and sub-vector cosine distance.

    The first argument is the reference side: the shared proportion is taken
    against its feature count, so the measure is asymmetric. In the default
    corrected mode identical graphs score 0 (the weight multiplies the
    complement of the shared proportion); literal mode keeps the shared
    proportion itself as the first term, which scores identical graphs at
    ``lam`` and exists for fidelity experiments.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be within [0, 1]")
    vec_a = extract_features(a)
    vec_b = extract_features(b)
    shared = sorted(vec_a.keys() & vec_b.keys())
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


# The L1 distance as it was before it visited only the shared keys, kept
# verbatim (bar the function name) as the oracle of a differential test: it
# loops over the union of both prepared vectors for every pair.


def union_dist_exas_l1(a: AUG, b: AUG) -> float:
    """Mean absolute value of the max-normalized super-vector difference.

    The plain 1-norm of the normalized difference grows with the number of
    features; dividing by the vector length keeps the result in [0, 1] and 1
    exactly means no feature is shared at equal scale.
    """
    vec_a, vec_b = a.feature_counts, b.feature_counts
    diffs = [abs(count - vec_b.get(key, 0)) for key, count in vec_a.items()]
    diffs.extend(count for key, count in vec_b.items() if key not in vec_a)
    return sum(diffs) / max(1, max(diffs)) / len(diffs)


def reference_split_distance(a: AUG, b: AUG, base: Callable[[AUG, AUG], float]) -> float:
    """Average a base distance over per-package subgraph pairs.

    Packages present on only one side are skipped, as are sub-distances of
    exactly 1: both indicate unrelated API usage that would only add noise.
    When nothing survives, the graphs share no comparable usage and the
    distance is 1.
    """
    parts_a = split_by_api(a)
    parts_b = split_by_api(b)
    survivors = []
    for package in sorted(parts_a.keys() & parts_b.keys()):
        value = base(parts_a[package], parts_b[package])
        if value != 1.0:
            survivors.append(value)
    if not survivors:
        return 1.0
    return float(sum(survivors) / len(survivors))


# The node assignment as it was before it moved to the n×m gain matrix, kept
# verbatim (bar the function name) as the oracle of a differential test: it
# sorts both graphs' nodes and fills the padded (n+m)×(n+m) matrix element by
# element for every pair.


def reference_hungarian_assignment(
    a: AUG, b: AUG, cost_model: CostModel | None = None
) -> tuple[float, list[tuple[str, str]]]:
    """Optimal node-only assignment on the padded bipartite cost matrix.

    Returns the assignment's total cost and the substitution pairs it chose.
    Edge costs are ignored entirely.
    """
    cm = cost_model or default_cost_model()
    a_nodes = sorted(a.nodes, key=lambda n: n.id)
    b_nodes = sorted(b.nodes, key=lambda n: n.id)
    n, m = len(a_nodes), len(b_nodes)
    matrix = np.full((n + m, m + n), np.inf)
    for i, u in enumerate(a_nodes):
        for k, v in enumerate(b_nodes):
            matrix[i, k] = cm.node_substitute(u, v)
        matrix[i, m + i] = cm.node_delete
    for k in range(m):
        matrix[n + k, k] = cm.node_insert
    matrix[n:, m:] = 0.0
    rows, cols = linear_sum_assignment(matrix)
    cost = float(matrix[rows, cols].sum())
    pairs = [
        (a_nodes[i].id, b_nodes[k].id) for i, k in zip(rows, cols) if i < n and k < m
    ]
    return cost, pairs


_ID_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.")
# A negative DOT numeral; unsigned ones are already runs of id characters.
_NEGATIVE_NUMERAL = re.compile(r"-(\.[0-9]+|[0-9]+(\.[0-9]*)?)")


@dataclass
class _Token:
    kind: str  # "id", "string", or a punctuation literal
    value: str
    pos: int


def reference_tokenize(text: str) -> list[_Token]:
    """The character-by-character DOT tokenizer the compiled scanner replaced."""
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#" or text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise DotSyntaxError(f"unterminated comment at offset {i}")
            i = end + 2
            continue
        if ch == '"':
            start = i
            i += 1
            parts: list[str] = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    nxt = text[i + 1]
                    if nxt in ('"', "\\"):
                        parts.append(nxt)
                    else:
                        parts.append(text[i : i + 2])
                    i += 2
                else:
                    parts.append(text[i])
                    i += 1
            if i >= n:
                raise DotSyntaxError(f"unterminated string at offset {start}")
            i += 1
            tokens.append(_Token("string", "".join(parts), start))
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", i))
            i += 2
            continue
        numeral = _NEGATIVE_NUMERAL.match(text, i) if ch == "-" else None
        if numeral:
            tokens.append(_Token("id", numeral.group(), i))
            i = numeral.end()
            continue
        if ch in "{}[]=,;":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch in _ID_CHARS:
            start = i
            while i < n and text[i] in _ID_CHARS:
                i += 1
            tokens.append(_Token("id", text[start:i], start))
            continue
        raise DotSyntaxError(f"unexpected character {ch!r} at offset {i}")
    return tokens


# The branch-and-bound search as it was before its internals were integer-coded,
# kept verbatim (bar the class name, its edge matcher's name and the exception
# it raises) as the oracle of a differential test: the search must reach the
# same cost through no more expansions, since its bound is never below this
# one's and it starts from a complete mapping's cost.


class ReferenceSearchTimeout(Exception):
    """The reference search's deadline passed before any complete edit path."""


def _label_multiset(graph: AUG) -> Counter[str]:
    return Counter(edge.label for edge in graph.edges)


class ReferenceMappingSearch:
    """Depth-first branch-and-bound over node mappings.

    Nodes of ``a`` are decided in ascending-id order; each is matched to an
    unused node of ``b`` (candidates in ascending id order) or deleted, with
    insertion of leftover ``b`` nodes at the leaves. Edge costs are charged
    when the second endpoint of an edge is decided, so the accumulated cost
    of a partial mapping covers exactly the edges whose fate is fixed.

    The remaining cost is bounded from below by (a) the larger of the two
    per-node best-case bounds (every undecided source node pays at least its
    cheapest substitution or a deletion; symmetrically for unused target
    nodes) and (b) an edge-surplus bound: of the not-yet-charged edge
    instances, at most the label-wise overlap can ever be matched for free,
    and each of the remaining ``max(r_a, r_b) - overlap`` costs at least
    ``min(edge_delete, edge_insert)``. Both bounds underestimate, so a
    search that runs to completion is exact.
    """

    def __init__(self, a: AUG, b: AUG, cm: CostModel, deadline: float) -> None:
        self.cm = cm
        self.deadline = deadline
        self.a_nodes = sorted(a.nodes, key=lambda n: n.id)
        self.b_nodes = sorted(b.nodes, key=lambda n: n.id)
        self.n = len(self.a_nodes)
        self.m = len(self.b_nodes)

        index_a = {node.id: i for i, node in enumerate(self.a_nodes)}
        index_b = {node.id: k for k, node in enumerate(self.b_nodes)}
        self.adj_a = self._indexed_adjacency(a, index_a)
        self.adj_b = self._indexed_adjacency(b, index_b)
        self.nbr_a = self._neighbors(self.adj_a, self.n)
        self.nbr_b = self._neighbors(self.adj_b, self.m)

        self.sub = [
            [float(cm.node_substitute(u, v)) for v in self.b_nodes]
            for u in self.a_nodes
        ]
        self.sub_np = np.array(self.sub, dtype=float) if self.n and self.m else None

        self.rest_a = _label_multiset(a)
        self.rest_b = _label_multiset(b)
        self.rest_a_total = a.edge_count
        self.rest_b_total = b.edge_count
        self.min_edge_op = min(cm.edge_delete, cm.edge_insert)

        self.assign = [_DELETED] * self.n
        self.used = [False] * self.m
        self.preimage = [_DELETED] * self.m
        self.matched = 0
        self.best = float("inf")
        self.best_assign: list[int] | None = None
        self.pair_cache: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}

    @staticmethod
    def _indexed_adjacency(
        graph: AUG, index: dict[str, int]
    ) -> dict[tuple[int, int], Counter[str]]:
        adjacency: dict[tuple[int, int], Counter[str]] = {}
        for edge in graph.edges:
            pair = (index[edge.source], index[edge.target])
            adjacency.setdefault(pair, Counter())[edge.label] += 1
        return adjacency

    @staticmethod
    def _neighbors(
        adjacency: dict[tuple[int, int], Counter[str]], size: int
    ) -> list[list[int]]:
        neighbor_sets: list[set[int]] = [set() for _ in range(size)]
        for u, v in adjacency:
            if u != v:
                neighbor_sets[u].add(v)
                neighbor_sets[v].add(u)
        return [sorted(s) for s in neighbor_sets]

    def run(self) -> GedResult:
        try:
            self._dfs(0, 0.0)
            complete = True
        except _DeadlineHit:
            complete = False
        if self.best_assign is None:
            raise ReferenceSearchTimeout(
                "deadline passed before any complete edit path was found"
            )
        mapping = self._mapping_ids(self.best_assign)
        return GedResult(self.best, complete, mapping)

    def _mapping_ids(
        self, assign: list[int]
    ) -> tuple[tuple[str | None, str | None], ...]:
        pairs: list[tuple[str | None, str | None]] = []
        chosen = set()
        for i, k in enumerate(assign):
            if k == _DELETED:
                pairs.append((self.a_nodes[i].id, None))
            else:
                pairs.append((self.a_nodes[i].id, self.b_nodes[k].id))
                chosen.add(k)
        for k in range(self.m):
            if k not in chosen:
                pairs.append((None, self.b_nodes[k].id))
        return tuple(pairs)

    # -- cost pieces ------------------------------------------------------

    def _pair_edge_cost(self, ca: Counter[str] | None, cb: Counter[str] | None) -> float:
        """Cheapest way to edit one ordered pair's edge multiset into another."""
        size_a = sum(ca.values()) if ca else 0
        size_b = sum(cb.values()) if cb else 0
        if not size_a:
            return self.cm.edge_insert * size_b
        if not size_b:
            return self.cm.edge_delete * size_a
        assert ca is not None and cb is not None
        common = ca & cb
        rest_a = tuple(sorted((ca - common).elements()))
        rest_b = tuple(sorted((cb - common).elements()))
        if not rest_a and not rest_b:
            return 0.0
        key = (rest_a, rest_b)
        cached = self.pair_cache.get(key)
        if cached is None:
            cached = reference_match_with_ops(self.cm, rest_a, rest_b)[0]
            self.pair_cache[key] = cached
        return cached

    def _substitute_delta(self, i: int, k: int, depth: int) -> float:
        delta = self.sub[i][k]
        relevant = {j for j in self.nbr_a[i] if j < depth}
        for l in self.nbr_b[k]:
            if self.used[l]:
                relevant.add(self.preimage[l])
        for j in relevant:
            l = self.assign[j]
            out_a = self.adj_a.get((i, j))
            in_a = self.adj_a.get((j, i))
            if l == _DELETED:
                size = (sum(out_a.values()) if out_a else 0) + (
                    sum(in_a.values()) if in_a else 0
                )
                delta += self.cm.edge_delete * size
            else:
                delta += self._pair_edge_cost(out_a, self.adj_b.get((k, l)))
                delta += self._pair_edge_cost(in_a, self.adj_b.get((l, k)))
        delta += self._pair_edge_cost(self.adj_a.get((i, i)), self.adj_b.get((k, k)))
        return delta

    def _delete_delta(self, i: int, depth: int) -> float:
        delta = self.cm.node_delete
        total = 0
        for j in self.nbr_a[i]:
            if j >= depth:
                continue
            for key in ((i, j), (j, i)):
                counts = self.adj_a.get(key)
                if counts:
                    total += sum(counts.values())
        loops = self.adj_a.get((i, i))
        if loops:
            total += sum(loops.values())
        return delta + self.cm.edge_delete * total

    # -- admissible lower bound -------------------------------------------

    def _bound(self, depth: int) -> float:
        available = [k for k in range(self.m) if not self.used[k]]
        remaining = self.n - depth
        if remaining and available:
            assert self.sub_np is not None
            block = self.sub_np[depth:, available]
            bound_a = float(np.minimum(block.min(axis=1), self.cm.node_delete).sum())
            bound_b = float(np.minimum(block.min(axis=0), self.cm.node_insert).sum())
        elif remaining:
            bound_a = remaining * self.cm.node_delete
            bound_b = 0.0
        else:
            bound_a = 0.0
            bound_b = len(available) * self.cm.node_insert
        node_bound = max(bound_a, bound_b)

        overlap = sum((self.rest_a & self.rest_b).values())
        edge_bound = self.min_edge_op * (
            max(self.rest_a_total, self.rest_b_total) - overlap
        )
        return node_bound + edge_bound

    # -- bookkeeping of not-yet-charged edges -------------------------------

    def _settle_a(self, i: int, depth: int) -> Counter[str]:
        settled: Counter[str] = Counter()
        for j in self.nbr_a[i]:
            if j >= depth:
                continue
            for key in ((i, j), (j, i)):
                counts = self.adj_a.get(key)
                if counts:
                    settled.update(counts)
        loops = self.adj_a.get((i, i))
        if loops:
            settled.update(loops)
        self.rest_a.subtract(settled)
        self.rest_a_total -= sum(settled.values())
        return settled

    def _settle_b(self, k: int) -> Counter[str]:
        settled: Counter[str] = Counter()
        for l in self.nbr_b[k]:
            if not self.used[l]:
                continue
            for key in ((k, l), (l, k)):
                counts = self.adj_b.get(key)
                if counts:
                    settled.update(counts)
        loops = self.adj_b.get((k, k))
        if loops:
            settled.update(loops)
        self.rest_b.subtract(settled)
        self.rest_b_total -= sum(settled.values())
        return settled

    def _restore(self, rest: Counter[str], settled: Counter[str]) -> int:
        rest.update(settled)
        return sum(settled.values())

    # -- search --------------------------------------------------------------

    def _dfs(self, depth: int, cost: float) -> None:
        if time.monotonic() > self.deadline:
            raise _DeadlineHit
        if depth == self.n:
            total = (
                cost
                + self.cm.node_insert * (self.m - self.matched)
                + self.cm.edge_insert * self.rest_b_total
            )
            if total < self.best:
                self.best = total
                self.best_assign = list(self.assign)
            return
        if cost + self._bound(depth) >= self.best:
            return

        i = depth
        settled_a = self._settle_a(i, depth)
        for k in range(self.m):
            if self.used[k]:
                continue
            new_cost = cost + self._substitute_delta(i, k, depth)
            if new_cost >= self.best:
                continue
            self.assign[i] = k
            self.used[k] = True
            self.preimage[k] = i
            self.matched += 1
            settled_b = self._settle_b(k)
            self._dfs(depth + 1, new_cost)
            self.rest_b_total += self._restore(self.rest_b, settled_b)
            self.matched -= 1
            self.used[k] = False
            self.assign[i] = _DELETED
        new_cost = cost + self._delete_delta(i, depth)
        if new_cost < self.best:
            self.assign[i] = _DELETED
            self._dfs(depth + 1, new_cost)
        self.rest_a_total += self._restore(self.rest_a, settled_a)


# The edge-label matching as it was before edges moved to the clipped-gain
# assignment, kept verbatim (bar the function name) as the oracle of a
# differential test and as the edge matcher of ``ReferenceMappingSearch``: an
# exhaustive recursion that decides the head of ``rest_a`` (deleted, or
# substituted by each distinct label of the sorted ``rest_b``) and recurses on
# the rest.


def reference_match_with_ops(
    cm: CostModel, rest_a: tuple[str, ...], rest_b: tuple[str, ...]
) -> tuple[float, list[tuple[str | None, str | None]]]:
    if not rest_a:
        return cm.edge_insert * len(rest_b), [(None, lb) for lb in rest_b]
    if not rest_b:
        return cm.edge_delete * len(rest_a), [(la, None) for la in rest_a]
    head, tail = rest_a[0], rest_a[1:]
    best_cost, best_ops = reference_match_with_ops(cm, tail, rest_b)
    best_cost += cm.edge_delete
    best_ops = [(head, None), *best_ops]
    for pick in range(len(rest_b)):
        if pick and rest_b[pick] == rest_b[pick - 1]:
            continue
        sub_cost, sub_ops = reference_match_with_ops(
            cm, tail, rest_b[:pick] + rest_b[pick + 1 :]
        )
        candidate = cm.edge_substitute(head, rest_b[pick]) + sub_cost
        if candidate < best_cost:
            best_cost = candidate
            best_ops = [(head, rest_b[pick]), *sub_ops]
    return best_cost, best_ops
