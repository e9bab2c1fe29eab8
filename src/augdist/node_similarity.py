"""Coupled node-node similarity between two graphs.

The similarity of node x (in graph b) and node y (in graph a) is refined
iteratively from the graphs' plain adjacency structure: neighbors of similar
nodes become similar themselves. Labels, edge types and multiplicities are
deliberately ignored; only connectivity matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DegenerateStructureError
from .graphs import AUG

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True)
class SimilarityMatrix:
    """Converged (or iteration-capped) similarity grid.

    ``entries[x, y]`` pairs node x of the second graph with node y of the
    first, both in ascending-id order. The matrix has unit Frobenius norm.
    """

    entries: np.ndarray
    iterations_run: int
    converged: bool


def _binary_adjacency(graph: AUG) -> np.ndarray:
    order = {node.id: i for i, node in enumerate(sorted(graph.nodes, key=lambda n: n.id))}
    matrix = np.zeros((len(order), len(order)))
    for source, target in graph.edge_label_counts:
        matrix[order[source], order[target]] = 1.0
    return matrix


def similarity_matrix(
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
    a.require_non_empty()
    b.require_non_empty()
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


def dist_node_sim(
    a: AUG,
    b: AUG,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """One minus the average similarity of the best node pairing, in [0, 1]."""
    matrix = similarity_matrix(a, b, tol, max_iter)
    rows, cols = linear_sum_assignment(matrix.entries, maximize=True)
    mean = float(matrix.entries[rows, cols].mean())
    return min(1.0, max(0.0, 1.0 - mean))
