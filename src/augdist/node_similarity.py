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
``S.ravel()``. Every block stays in the system until the slowest one
settles, and a block's result is taken at the even step that settles it.
Each block's iterates are the same floats whatever else is in the batch,
so the pair form, ``similarity_matrix``, is a batch of one. They are the
dense products' iterates up to the order in which each entry's terms and
each norm's squares are summed; ``tests/oracles.reference_similarity_matrix``
keeps the dense form.

The table form, ``dist_node_sim_many``, fills a grid of references against
entries. The iteration reads only a graph's node count and edge positions,
so graphs that differ only in labels get bit-identical matrices. A solved
pair's distance, and whether its matrix converged, is therefore kept in a
bounded process-wide memo keyed on both adjacencies and the options, and
the memo is the only place a table looks for a solved pair: each row
iterates, in one batch, only the distinct entry adjacencies that no earlier
row or table solved. The memo changes only the time a table takes: each
cell's value, and its count as a capped fallback, are the per-pair ones.
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import fallbacks
from .errors import DegenerateStructureError
from .graphs import AUG

# numpy and scipy are imported inside the functions that use them, so that
# only node-sim pays for loading them
if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 100

# Most edge-pair entries stacked into one batch. The batch's index and
# weight arrays grow with it; at this size they add about 1 MiB while the
# steps' interpreter overhead is already shared by tens of pairs. A batch
# runs until its slowest block settles, so the cap also bounds that wait.
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


EdgePositions = tuple["np.ndarray", "np.ndarray"]


def edge_positions(graph: AUG) -> EdgePositions:
    """Sorted source and target positions, in ``graph.nodes_in_id_order``, of
    the distinct ordered node pairs joined by an edge; ``AUG.edge_positions``
    caches them, read-only, since the graph is shared."""
    import numpy as np

    order = {node.id: i for i, node in enumerate(graph.nodes_in_id_order)}
    pairs = sorted({(order[edge.source], order[edge.target]) for edge in graph.edges})
    sources = np.array([source for source, _ in pairs], dtype=np.intp)
    targets = np.array([target for _, target in pairs], dtype=np.intp)
    sources.flags.writeable = targets.flags.writeable = False
    return sources, targets


def _iterate(
    a: AUG, batch: Sequence[AUG], tol: float, max_iter: int
) -> list[SimilarityMatrix | None]:
    """Each graph of ``batch`` iterated against ``a`` as one stacked system.

    ``S`` stacks one block of rows per pair, and the vec-form update
    ``A⊗B + Aᵀ⊗Bᵀ`` over ``S.ravel()`` is built once, as index arrays. Each
    nonzero is one ``b`` edge ``x -> p`` times one ``a`` edge ``y -> q``:
    the forward term ``B S Aᵀ`` adds ``S[p, q]`` into ``[x, y]`` and the
    backward term ``Bᵀ S A`` adds ``S[x, y]`` into ``[p, q]``. A step is
    then ``bincount(into, weights=S.ravel()[from_])``.
    """
    import numpy as np

    width = a.node_count
    heights = np.array([b.node_count for b in batch])
    edge_counts = np.array([len(b.edge_positions[0]) for b in batch])
    first_rows = np.repeat(np.cumsum(heights) - heights, edge_counts)
    sources_b = np.concatenate([b.edge_positions[0] for b in batch]) + first_rows
    targets_b = np.concatenate([b.edge_positions[1] for b in batch]) + first_rows
    sources_a, targets_a = a.edge_positions
    forward_into = (sources_b[:, None] * width + sources_a).ravel()
    forward_from = (targets_b[:, None] * width + targets_a).ravel()
    into = np.concatenate((forward_into, forward_from))
    from_ = np.concatenate((forward_from, forward_into))
    sizes = heights * width
    starts = np.cumsum(sizes) - sizes
    # each block starts as the all-ones matrix over its own norm
    current = np.repeat(1.0 / np.sqrt(sizes), sizes)
    previous_even = current
    results: list[SimilarityMatrix | None] = [None] * len(batch)
    unsettled = len(batch)

    for iteration in range(1, max_iter + 1):
        update = np.bincount(into, weights=current[from_], minlength=current.size)
        norms = np.sqrt(np.add.reduceat(update * update, starts))
        current = update / np.repeat(norms, sizes)
        if iteration % 2:
            continue
        delta = current - previous_even
        converged = np.sqrt(np.add.reduceat(delta * delta, starts)) < tol
        previous_even = current
        for position in np.flatnonzero(converged | (iteration == max_iter)):
            if results[position] is None:
                block = current[starts[position] : starts[position] + sizes[position]]
                entries = block.reshape(heights[position], width).copy()
                results[position] = SimilarityMatrix(entries, iteration, bool(converged[position]))
                unsettled -= 1
        if not unsettled:
            break
    return results


def check_options(tol: float, max_iter: int) -> None:
    """Raise ValueError unless ``tol`` is positive and ``max_iter`` an even int >= 2."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not isinstance(max_iter, int) or max_iter < 2 or max_iter % 2:
        raise ValueError("max-iter must be an even number >= 2")


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
    check_options(tol, max_iter)

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


# A solved pair's distance and whether its matrix converged (a capped
# matrix always stopped at ``max_iter``); None where the pair's update
# collapses.
_Solution = tuple[float, bool] | None


def _solve(matrix: SimilarityMatrix) -> tuple[float, bool]:
    """One minus the mean similarity of the best node pairing, in [0, 1],
    and whether ``matrix`` converged: all that a cell reads of it."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(matrix.entries, maximize=True)
    mean = float(matrix.entries[rows, cols].mean())
    return min(1.0, max(0.0, 1.0 - mean)), matrix.converged


def _distance(a: AUG, b: AUG, solution: tuple[float, bool]) -> float:
    """The distance of ``solution``, solved for ``a`` and ``b``.

    A capped matrix is logged and counted here, once per call, so once per
    cell of a table whatever pairs share the matrix.
    """
    value, converged = solution
    if not converged:
        logger.debug(
            "similarity of %r vs %r stopped at max-iter without converging", a.name, b.name
        )
        fallbacks.note(fallbacks.CAPPED)
    return value


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
    return _distance(a, b, _solve(similarity_matrix(a, b, tol, max_iter)))


_AdjacencyKey = tuple[int, bytes, bytes]
# Everything a pair's solution reads: the reference's and the entry's
# adjacency, then ``tol`` and ``max_iter``.
_PairKey = tuple[_AdjacencyKey, _AdjacencyKey, float, int]


def _adjacency_key(graph: AUG) -> _AdjacencyKey:
    """All that the iteration reads of a graph."""
    sources, targets = graph.edge_positions
    return graph.node_count, sources.tobytes(), targets.tobytes()


# Solved pairs, shared by every table of the process; the oldest leaves
# once there are more than _MAX_SOLVED. A pair's key holds 16 bytes per
# distinct edge of each graph and its entry about 0.5 KiB of objects
# besides, so 2**12 pairs of 25-edge graphs take about 5 MiB. Writes hold
# the lock; a read is a single ``dict.get``.
_MAX_SOLVED = 1 << 12
_solved: dict[_PairKey, _Solution] = {}
_solved_lock = threading.Lock()
_UNSOLVED = object()


def dist_node_sim_many(
    references: Sequence[AUG],
    entries: Sequence[AUG],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[list[float | None]]:
    """``dist_node_sim(reference, entry)`` for each reference (a row) and
    each entry (a column); None where the pair is degenerate instead of
    raising.

    For each reference, the distinct entry adjacencies the memo lacks are
    iterated in one ``similarity_matrices`` call and remembered. Every cell
    whose pair's matrix is capped counts as a capped fallback, whichever
    row or table solved the pair.
    """
    check_options(tol, max_iter)
    entry_keys = [_adjacency_key(entry) for entry in entries]
    distinct = dict(zip(entry_keys, entries))  # graphs of one adjacency iterate alike
    rows = []
    for reference in references:
        reference_key = _adjacency_key(reference)
        # The row keeps what it reads, so an eviction meanwhile cannot lose a cell.
        solutions = {
            key: _solved.get((reference_key, key, tol, max_iter), _UNSOLVED) for key in distinct
        }
        missing = [key for key, solution in solutions.items() if solution is _UNSOLVED]
        if missing:
            matrices = similarity_matrices(
                reference, [distinct[key] for key in missing], tol, max_iter
            )
            for key, matrix in zip(missing, matrices):
                solutions[key] = None if matrix is None else _solve(matrix)
            with _solved_lock:
                for key in missing:
                    _solved[reference_key, key, tol, max_iter] = solutions[key]
                while len(_solved) > _MAX_SOLVED:
                    del _solved[next(iter(_solved))]
        rows.append(
            [
                None if solutions[key] is None else _distance(reference, entry, solutions[key])
                for key, entry in zip(entry_keys, entries)
            ]
        )
    return rows
