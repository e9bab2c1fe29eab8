"""Coupled node-node similarity between two graphs.

The similarity of node x (in graph b) and node y (in graph a) is refined
iteratively from the graphs' plain adjacency structure: neighbors of similar
nodes become similar themselves. Labels, edge types and multiplicities are
deliberately ignored; only connectivity matters.

The update ``S <- B S A^T + B^T S A`` (A, B the binary adjacency matrices)
runs in its vec form on ``S.ravel()``: the operator ``A⊗B + Aᵀ⊗Bᵀ`` is
symmetric, and its nonzeros are exactly the products of one ``b`` edge with
one ``a`` edge. Each graph's distinct edge positions are computed once
(``AUG.edge_positions``), a pair's operator is an outer sum of them, and a
step is one gather and one ``bincount``, so the work is proportional to the
edge pairs rather than to the dense products. The iterate sequence is that of
the dense products, up to the order in which each entry's terms are summed;
``tests/oracles.reference_similarity_matrix`` keeps the dense form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import fallbacks
from .errors import DegenerateStructureError
from .graphs import AUG

logger = logging.getLogger(__name__)

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


def _edge_pair_operator(a: AUG, b: AUG) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the vec-form update ``A⊗B + Aᵀ⊗Bᵀ`` over ``S.ravel()``.

    Each nonzero of the operator is one ``b`` edge ``x -> p`` times one ``a``
    edge ``y -> q``: the forward term ``B S Aᵀ`` adds ``S[p, q]`` into
    ``[x, y]`` and the backward term ``Bᵀ S A`` adds ``S[x, y]`` into
    ``[p, q]``. A step is then ``bincount(into, weights=S.ravel()[from_])``.
    """
    sources_a, targets_a = a.edge_positions
    sources_b, targets_b = b.edge_positions
    width = a.node_count
    forward_into = (sources_b[:, None] * width + sources_a).ravel()
    forward_from = (targets_b[:, None] * width + targets_a).ravel()
    return (
        np.concatenate((forward_into, forward_from)),
        np.concatenate((forward_from, forward_into)),
    )


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

    Each step applies the edge-pair operator ``A⊗B + Aᵀ⊗Bᵀ`` to
    ``S.ravel()`` as one gather and one ``bincount``, building no adjacency
    matrix; the iterates are the dense products' up to summation order.
    """
    a.require_non_empty()
    b.require_non_empty()
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 2 or max_iter % 2:
        raise ValueError("max_iter must be an even number >= 2")

    into, from_ = _edge_pair_operator(a, b)
    shape = (b.node_count, a.node_count)
    size = shape[0] * shape[1]
    current = np.ones(size)
    current /= np.linalg.norm(current)
    previous_even = current

    for iteration in range(1, max_iter + 1):
        update = np.bincount(into, weights=current[from_], minlength=size)
        norm = math.sqrt(update.dot(update))  # np.linalg.norm's own path, minus its dispatch
        if norm == 0.0 or not math.isfinite(norm):
            raise DegenerateStructureError(
                f"similarity update collapsed to zero for {a.name!r} vs {b.name!r}"
            )
        current = update / norm
        if iteration % 2 == 0:
            delta = current - previous_even
            if math.sqrt(delta.dot(delta)) < tol:
                return SimilarityMatrix(current.reshape(shape), iteration, True)
            previous_even = current
    return SimilarityMatrix(current.reshape(shape), max_iter, False)


def dist_node_sim(
    a: AUG,
    b: AUG,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """One minus the average similarity of the best node pairing, in [0, 1].

    A matrix capped at ``max_iter`` before converging is used as it stands
    and counted as a ``fallbacks.CAPPED`` fallback.
    """
    matrix = similarity_matrix(a, b, tol, max_iter)
    if not matrix.converged:
        logger.debug(
            "similarity of %r vs %r stopped at %d iterations without converging",
            a.name,
            b.name,
            max_iter,
        )
        fallbacks.note(fallbacks.CAPPED)
    rows, cols = linear_sum_assignment(matrix.entries, maximize=True)
    mean = float(matrix.entries[rows, cols].mean())
    return min(1.0, max(0.0, 1.0 - mean))
