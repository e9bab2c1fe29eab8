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
edge pairs rather than to the dense products.

One graph ``a`` is iterated against many graphs at once: stacking the
others' rows of ``S`` makes them one graph, their disjoint union, whose
edge pairs with ``a`` never join two of the stacked blocks. A step is then
one gather and one ``bincount`` for the whole batch, each block's norm and
even-iterate difference is an ``np.add.reduceat`` over its segment of
``S.ravel()``, and a block leaves the batch at the step that settles it.
Each block's iterates are the same floats whatever else is in the batch,
so the pair form, ``similarity_matrix``, is a batch of one. They are the
dense products' iterates up to the order in which each entry's terms and
each norm's squares are summed; ``tests/oracles.reference_similarity_matrix``
keeps the dense form.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import fallbacks
from .errors import DegenerateStructureError
from .graphs import AUG

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 100

# Most edge-pair entries stacked into one batch. The batch's index and
# weight arrays grow with it; at this size they add about 1 MiB while the
# steps' interpreter overhead is already shared by tens of pairs.
_MAX_STACKED_EDGE_PAIRS = 1 << 14


@dataclass(frozen=True)
class SimilarityMatrix:
    """Converged (or iteration-capped) similarity grid.

    ``entries[x, y]`` pairs node x of the second graph with node y of the
    first, both in ascending-id order. The matrix has unit Frobenius norm.
    """

    entries: np.ndarray
    iterations_run: int
    converged: bool


def _edge_pair_operator(
    a: AUG, sources_b: np.ndarray, targets_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the vec-form update ``A⊗B + Aᵀ⊗Bᵀ`` over ``S.ravel()``.

    ``sources_b``/``targets_b`` are the rows of b's edges in ``S``. Each
    nonzero of the operator is one ``b`` edge ``x -> p`` times one ``a`` edge
    ``y -> q``: the forward term ``B S Aᵀ`` adds ``S[p, q]`` into ``[x, y]``
    and the backward term ``Bᵀ S A`` adds ``S[x, y]`` into ``[p, q]``. A
    step is then ``bincount(into, weights=S.ravel()[from_])``.
    """
    sources_a, targets_a = a.edge_positions
    width = a.node_count
    forward_into = (sources_b[:, None] * width + sources_a).ravel()
    forward_from = (targets_b[:, None] * width + targets_a).ravel()
    return (
        np.concatenate((forward_into, forward_from)),
        np.concatenate((forward_from, forward_into)),
    )


def _iterate(
    a: AUG, batch: Sequence[AUG], tol: float, max_iter: int
) -> list[SimilarityMatrix | None]:
    """Each graph of ``batch`` iterated against ``a`` as one stacked system.

    ``S`` stacks one block of rows per live pair. When pairs leave, the
    blocks below move up over their rows and the operator is rebuilt from
    the remaining ``b`` edges.
    """
    width = a.node_count
    heights = np.array([b.node_count for b in batch])
    edge_counts = np.array([len(b.edge_positions[0]) for b in batch])
    owners = np.repeat(np.arange(len(batch)), edge_counts)  # live position per b edge
    first_rows = (np.cumsum(heights) - heights)[owners]
    sources_b = np.concatenate([b.edge_positions[0] for b in batch]) + first_rows
    targets_b = np.concatenate([b.edge_positions[1] for b in batch]) + first_rows
    into, from_ = _edge_pair_operator(a, sources_b, targets_b)
    live = np.arange(len(batch))  # batch index per live pair
    sizes = heights * width
    starts = np.cumsum(sizes) - sizes
    # each block starts as the all-ones matrix over its own norm
    current = np.repeat(1.0 / np.sqrt(sizes), sizes)
    previous_even = current
    results: list[SimilarityMatrix | None] = [None] * len(batch)

    for iteration in range(1, max_iter + 1):
        update = np.bincount(into, weights=current[from_], minlength=current.size)
        norms = np.sqrt(np.add.reduceat(update * update, starts))
        current = update / np.repeat(norms, sizes)
        if iteration % 2:
            continue
        delta = current - previous_even
        converged = np.sqrt(np.add.reduceat(delta * delta, starts)) < tol
        previous_even = current
        leaving = converged | (iteration == max_iter)
        if not leaving.any():
            continue

        for position in np.flatnonzero(leaving):
            block = current[starts[position] : starts[position] + sizes[position]]
            results[live[position]] = SimilarityMatrix(
                block.reshape(heights[position], width).copy(),
                iteration,
                bool(converged[position]),
            )
        keep = ~leaving
        if not keep.any():
            break
        edge_kept = keep[owners]
        owners = (np.cumsum(keep) - 1)[owners[edge_kept]]
        rows_up = np.cumsum(heights * leaving)[keep][owners]
        sources_b = sources_b[edge_kept] - rows_up
        targets_b = targets_b[edge_kept] - rows_up
        into, from_ = _edge_pair_operator(a, sources_b, targets_b)
        current = previous_even = current[np.repeat(keep, sizes)]
        live, heights, sizes = live[keep], heights[keep], sizes[keep]
        starts = np.cumsum(sizes) - sizes
    return results


def similarity_matrices(
    a: AUG,
    others: Sequence[AUG],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SimilarityMatrix | None]:
    """``similarity_matrix(a, b)`` for each ``b`` of ``others``, in order.

    A pair whose update collapses gives None instead of raising. The other
    pairs are iterated in batches of at most ``_MAX_STACKED_EDGE_PAIRS``
    stacked edge-pair entries (a pair with more is a batch of its own); a
    pair's result does not depend on its batch.
    """
    a.require_non_empty()
    for b in others:
        b.require_non_empty()
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 2 or max_iter % 2:
        raise ValueError("max_iter must be an even number >= 2")

    # The operator M is nonnegative and symmetric and the start is positive,
    # so ``‖Mᵏ·1‖² = 1ᵀ·M²ᵏ·1`` keeps every iterate nonzero unless ``M = 0``,
    # and sums of nonnegative terms cannot cancel in rounding: an update
    # collapses exactly when a graph has no edge, at the first step.
    per_b_edge = 2 * len(a.edge_positions[0])
    batches: list[list[int]] = []
    stacked = 0
    for index, b in enumerate(others):
        entries = per_b_edge * len(b.edge_positions[0])
        if not entries:
            continue
        if not batches or stacked + entries > _MAX_STACKED_EDGE_PAIRS:
            batches.append([])
            stacked = 0
        batches[-1].append(index)
        stacked += entries
    results: list[SimilarityMatrix | None] = [None] * len(others)
    for batch in batches:
        matrices = _iterate(a, [others[index] for index in batch], tol, max_iter)
        for index, matrix in zip(batch, matrices):
            results[index] = matrix
    return results


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

    This is ``similarity_matrices`` on a batch of one; an update that
    collapses to zero raises ``DegenerateStructureError``.
    """
    (matrix,) = similarity_matrices(a, (b,), tol, max_iter)
    if matrix is None:
        raise DegenerateStructureError(
            f"similarity update collapsed to zero for {a.name!r} vs {b.name!r}"
        )
    return matrix


def _distance(a: AUG, b: AUG, matrix: SimilarityMatrix) -> float:
    if not matrix.converged:
        logger.debug(
            "similarity of %r vs %r stopped at %d iterations without converging",
            a.name,
            b.name,
            matrix.iterations_run,
        )
        fallbacks.note(fallbacks.CAPPED)
    rows, cols = linear_sum_assignment(matrix.entries, maximize=True)
    mean = float(matrix.entries[rows, cols].mean())
    return min(1.0, max(0.0, 1.0 - mean))


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
    return _distance(a, b, similarity_matrix(a, b, tol, max_iter))


def dist_node_sim_many(
    a: AUG,
    others: Sequence[AUG],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[float | None]:
    """``dist_node_sim(a, b)`` for each ``b`` of ``others``, computed in
    batches; None where the pair is degenerate instead of raising."""
    return [
        None if matrix is None else _distance(a, b, matrix)
        for b, matrix in zip(others, similarity_matrices(a, others, tol, max_iter))
    ]
