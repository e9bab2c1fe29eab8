"""Graph edit distance between usage graphs.

Two route families over a shared cost model: an exact-leaning depth-first
branch-and-bound search over node mappings with admissible pruning and a
wall-clock deadline, and the bipartite node-assignment approximation solved
as a linear sum assignment (node costs only).

The assignment needs no padded (n+m)×(n+m) matrix: deletion and insertion
costs are scalars, so every partial node matching P costs
``n·node_delete + m·node_insert + Σ_P gain`` with ``gain = substitute -
node_delete - node_insert``. Clipping the n×m gains at 0 makes the best full
matching of the rectangular matrix as cheap as the best partial matching,
and a picked cell of gain 0 stands for an unmatched pair: a substitution
costing exactly a deletion plus an insertion is reported as a deletion and
an insertion (Serratosa 2014, *Fast computation of Bipartite graph
matching*).
"""

from __future__ import annotations

import functools
import logging
import math
import time
from collections import Counter
from dataclasses import dataclass
from itertools import product, starmap
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import fallbacks
from .errors import GedTimeoutError
from .graphs import AUG, Node

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 15.0

_DELETED = -1


@dataclass(frozen=True)
class CostModel:
    """Edit-operation costs driving both distance variants.

    ``edge_substitute`` receives the two edge labels; the edge endpoints are
    fixed by the node mapping, so the label is the only free attribute. It
    must return 0 for equal labels and, for differing labels, a value no
    smaller than ``min(edge_delete, edge_insert)`` — the search's pruning
    bound relies on both properties. Costs must satisfy the triangle
    inequality (delete + insert >= substitute) for nodes and edges.

    ``mcost_n`` and ``mcost_e`` are the per-node and per-edge maximum costs
    used by the distance normalizations.
    """

    node_substitute: Callable[[Node, Node], float]
    node_delete: float
    node_insert: float
    edge_substitute: Callable[[str, str], float]
    edge_delete: float
    edge_insert: float
    mcost_n: float
    mcost_e: float


def _default_node_substitute(a: Node, b: Node) -> float:
    if a.node_type == b.node_type:
        return 0.0 if a.label == b.label else 1.0
    return 2.0


def _default_edge_substitute(label_a: str, label_b: str) -> float:
    return 0.0 if label_a == label_b else 2.0


def default_cost_model() -> CostModel:
    """Uniform cost model: relabel 1, retype 2, every delete/insert 2."""
    return CostModel(
        node_substitute=_default_node_substitute,
        node_delete=2.0,
        node_insert=2.0,
        edge_substitute=_default_edge_substitute,
        edge_delete=2.0,
        edge_insert=2.0,
        mcost_n=2.0,
        mcost_e=2.0,
    )


class GedResult(NamedTuple):
    cost: float
    complete: bool
    # best node mapping found: (source node id, target node id), either side
    # None for a deletion/insertion
    mapping: tuple[tuple[str | None, str | None], ...]


class EditOp(NamedTuple):
    op: str  # node-sub / node-del / node-ins / edge-sub / edge-del / edge-ins
    source: tuple | None
    target: tuple | None
    cost: float


@dataclass(frozen=True)
class EditPath:
    """Explicit edit operations realizing a node mapping, with total cost."""

    ops: tuple[EditOp, ...]
    total_cost: float


class _DeadlineHit(Exception):
    pass


class _MappingSearch:
    """Depth-first branch-and-bound over node mappings.

    Nodes of ``a`` are decided in ascending-id order; each is matched to an
    unused node of ``b`` (candidates in ascending id order) or deleted, with
    insertion of leftover ``b`` nodes at the leaves. Edge costs are charged
    when the second endpoint of an edge is decided, so the accumulated cost
    of a partial mapping covers exactly the edges whose fate is fixed.

    An expansion does only int and list work. Edge labels of both graphs are
    interned as ids in sorted label order, and each ordered node pair's edges
    are a sorted tuple of ids, on which a pair's edit cost is memoized. Node
    ``i`` of ``a`` is always decided at depth ``i``, so the ``a`` edges that
    deciding it settles (those to earlier nodes, and its loops) are fixed up
    front; only ``b``'s settled edges depend on the mapping.

    The remaining cost is bounded from below by (a) the larger of the two
    per-node best-case bounds (every undecided source node pays at least its
    cheapest substitution by an unused target node or a deletion;
    symmetrically for unused target nodes) and (b) an edge-surplus bound: of
    the not-yet-charged edge instances, at most the label-wise overlap can
    ever be matched for free, and each of the remaining ``max(r_a, r_b) -
    overlap`` costs at least ``min(edge_delete, edge_insert)``. The undecided
    source nodes are always the suffix ``depth:``, so a row's minimum scans
    its columns, presorted by cost, to the first unused one, and a column's
    minimum over the suffix is precomputed. Both bounds underestimate, so a
    search that runs to completion is exact.
    """

    def __init__(self, a: AUG, b: AUG, cm: CostModel, deadline: float) -> None:
        self.cm = cm
        self.deadline = deadline
        self.a_nodes = a.nodes_in_id_order
        self.b_nodes = b.nodes_in_id_order
        self.n = len(self.a_nodes)
        self.m = len(self.b_nodes)

        labels = sorted({edge.label for edge in (*a.edges, *b.edges)})
        label_id = {label: x for x, label in enumerate(labels)}
        self.pair_cost = functools.cache(functools.partial(_pair_edge_cost, cm, labels))
        ea = self.edges_a = self._edge_table(a, self.a_nodes, label_id)
        eb = self.edges_b = self._edge_table(b, self.b_nodes, label_id)
        self.earlier_a = [
            [j for j in range(i) if ea[i][j] or ea[j][i]] for i in range(self.n)
        ]
        self.settle_a = [
            ea[i][i] + tuple(x for j in earlier for x in ea[i][j] + ea[j][i])
            for i, earlier in enumerate(self.earlier_a)
        ]
        self.nbr_b = [
            [l for l in range(self.m) if l != k and (eb[k][l] or eb[l][k])]
            for k in range(self.m)
        ]
        self.links_b = [
            [(l, eb[k][l] + eb[l][k]) for l in nbr] for k, nbr in enumerate(self.nbr_b)
        ]

        self.sub = _substitution_costs(a, b, cm).tolist()
        self.row_order = [
            sorted(
                (k for k, cost in enumerate(row) if cost < cm.node_delete),
                key=row.__getitem__,
            )
            for row in self.sub
        ]
        floor = [cm.node_insert] * self.m
        self.col_floor = [floor]
        for row in reversed(self.sub):
            floor = [min(x, y) for x, y in zip(row, floor)]
            self.col_floor.append(floor)
        self.col_floor.reverse()

        ids_a = [label_id[edge.label] for edge in a.edges]
        ids_b = [label_id[edge.label] for edge in b.edges]
        self.rest_a = [ids_a.count(x) for x in range(len(labels))]
        self.rest_b = [ids_b.count(x) for x in range(len(labels))]
        self.rest_a_total = a.edge_count
        self.rest_b_total = b.edge_count
        self.min_edge_op = min(cm.edge_delete, cm.edge_insert)

        self.assign = [_DELETED] * self.n
        self.used = [False] * self.m
        self.preimage = [_DELETED] * self.m
        self.matched = 0
        self.best = float("inf")
        self.best_assign: list[int] | None = None

    @staticmethod
    def _edge_table(
        graph: AUG, nodes: tuple[Node, ...], label_id: dict[str, int]
    ) -> list[list[tuple[int, ...]]]:
        """Sorted label ids of the edges of each ordered node pair."""
        index = {node.id: i for i, node in enumerate(nodes)}
        table: list[list[tuple[int, ...]]] = [[()] * len(nodes) for _ in nodes]
        for (source, target), counts in graph.edge_label_counts.items():
            table[index[source]][index[target]] = tuple(
                sorted(label_id[label] for label in counts.elements())
            )
        return table

    def run(self) -> GedResult:
        try:
            self._dfs(0, 0.0)
            complete = True
        except _DeadlineHit:
            complete = False
        if self.best_assign is None:
            raise GedTimeoutError(
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

    def _substitute_delta(self, i: int, k: int) -> float:
        delta = self.sub[i][k]
        relevant = set(self.earlier_a[i])
        for l in self.nbr_b[k]:
            if self.used[l]:
                relevant.add(self.preimage[l])
        ea, eb, pair_cost = self.edges_a, self.edges_b, self.pair_cost
        for j in relevant:
            l = self.assign[j]
            if l == _DELETED:
                delta += self.cm.edge_delete * (len(ea[i][j]) + len(ea[j][i]))
            else:
                delta += pair_cost(ea[i][j], eb[k][l])
                delta += pair_cost(ea[j][i], eb[l][k])
        delta += pair_cost(ea[i][i], eb[k][k])
        return delta

    # -- admissible lower bound -------------------------------------------

    def _bound(self, depth: int) -> float:
        used = self.used
        if self.matched < self.m:
            bound_a = 0.0
            for r in range(depth, self.n):
                for k in self.row_order[r]:
                    if not used[k]:
                        bound_a += self.sub[r][k]
                        break
                else:
                    bound_a += self.cm.node_delete
            bound_b = 0.0
            for floor, taken in zip(self.col_floor[depth], used):
                if not taken:
                    bound_b += floor
        else:
            bound_a = (self.n - depth) * self.cm.node_delete
            bound_b = 0.0
        node_bound = bound_a if bound_a > bound_b else bound_b

        overlap = 0
        for x, y in zip(self.rest_a, self.rest_b):
            overlap += x if x < y else y
        uncharged = max(self.rest_a_total, self.rest_b_total)
        return node_bound + self.min_edge_op * (uncharged - overlap)

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
        rest_a, rest_b, used = self.rest_a, self.rest_b, self.used
        settled_a = self.settle_a[i]
        for x in settled_a:
            rest_a[x] -= 1
        self.rest_a_total -= len(settled_a)
        for k in range(self.m):
            if used[k]:
                continue
            new_cost = cost + self._substitute_delta(i, k)
            if new_cost >= self.best:
                continue
            self.assign[i] = k
            used[k] = True
            self.preimage[k] = i
            self.matched += 1
            settled_b = self.edges_b[k][k] + tuple(
                x for l, labels in self.links_b[k] if used[l] for x in labels
            )
            for x in settled_b:
                rest_b[x] -= 1
            self.rest_b_total -= len(settled_b)
            self._dfs(depth + 1, new_cost)
            for x in settled_b:
                rest_b[x] += 1
            self.rest_b_total += len(settled_b)
            self.matched -= 1
            used[k] = False
            self.assign[i] = _DELETED
        new_cost = cost + (self.cm.node_delete + self.cm.edge_delete * len(settled_a))
        if new_cost < self.best:
            self.assign[i] = _DELETED
            self._dfs(depth + 1, new_cost)
        for x in settled_a:
            rest_a[x] += 1
        self.rest_a_total += len(settled_a)


def _pair_edge_cost(
    cm: CostModel, labels: list[str], ta: tuple[int, ...], tb: tuple[int, ...]
) -> float:
    """Cheapest edit of one pair's edges, sorted ids into ``labels``, into another's."""
    if not ta:
        return cm.edge_insert * len(tb)
    if not tb:
        return cm.edge_delete * len(ta)
    rest_a = list(ta)
    rest_b = []
    for x in tb:
        if x in rest_a:
            rest_a.remove(x)
        else:
            rest_b.append(x)
    if not rest_a and not rest_b:
        return 0.0
    return _match_with_ops(
        cm, tuple(labels[x] for x in rest_a), tuple(labels[x] for x in rest_b)
    )[0]


def ged_astar(
    a: AUG,
    b: AUG,
    cost_model: CostModel | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> GedResult:
    """Minimal edit cost via depth-first search with pruning and a deadline.

    When the search finishes, the cost is the exact minimum under the model;
    when the deadline fires first, the best complete edit path found so far
    is returned with ``complete=False``. Raises ``GedTimeoutError`` only if
    no complete path exists by the deadline. A NaN ``timeout`` raises
    ``ValueError``, since no deadline would ever pass.
    """
    a.require_non_empty()
    b.require_non_empty()
    if math.isnan(timeout):
        raise ValueError("timeout must not be NaN")
    cm = cost_model or default_cost_model()
    deadline = time.monotonic() + timeout
    return _MappingSearch(a, b, cm, deadline).run()


def normalization_denominator(a: AUG, b: AUG, cm: CostModel) -> float:
    return max(a.node_count, b.node_count) * cm.mcost_n + max(
        a.edge_count, b.edge_count
    ) * cm.mcost_e


def _clamp_unit(value: float, context: str) -> float:
    if value > 1.0:
        logger.debug("%s produced %.6f; clamping to 1.0", context, value)
        fallbacks.note(fallbacks.CLAMPED)
        return 1.0
    return max(0.0, value)


def dist_ged_astar(
    a: AUG,
    b: AUG,
    cost_model: CostModel | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> float:
    """Edit cost normalized by the maximum-cost denominator, in [0, 1].

    A timeout without any complete edit path yields the pessimistic 1.0; a
    NaN ``timeout`` raises ``ValueError``, as in ``ged_astar``.
    """
    cm = cost_model or default_cost_model()
    a.require_non_empty()
    b.require_non_empty()
    try:
        result = ged_astar(a, b, cm, timeout)
    except GedTimeoutError:
        logger.debug(
            "no complete edit path for %r vs %r within %.3fs; distance set to 1.0",
            a.name,
            b.name,
            timeout,
        )
        fallbacks.note(fallbacks.TIMED_OUT)
        return 1.0
    value = result.cost / normalization_denominator(a, b, cm)
    return _clamp_unit(value, "normalized edit distance")


def _substitution_costs(a: AUG, b: AUG, cm: CostModel) -> np.ndarray:
    """The n×m node substitution costs, both graphs' nodes in id order."""
    n, m = a.node_count, b.node_count
    pairs = product(a.nodes_in_id_order, b.nodes_in_id_order)
    costs = np.fromiter(starmap(cm.node_substitute, pairs), float, n * m)
    return costs.reshape(n, m)


def _assign_nodes(
    a: AUG, b: AUG, cm: CostModel
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Optimal node-only assignment on the clipped n×m gain matrix.

    Returns the total cost and the picked cells' rows, columns and gains.
    """
    a.require_non_empty()
    b.require_non_empty()
    gains = _substitution_costs(a, b, cm)
    gains -= cm.node_delete + cm.node_insert
    np.minimum(gains, 0.0, out=gains)
    rows, cols = linear_sum_assignment(gains)
    picked = gains[rows, cols]
    cost = a.node_count * cm.node_delete + b.node_count * cm.node_insert
    return cost + float(picked.sum()), rows, cols, picked


def hungarian_assignment(
    a: AUG, b: AUG, cost_model: CostModel | None = None
) -> tuple[float, list[tuple[str, str]]]:
    """Optimal node-only assignment, solved on the n×m gain matrix.

    Returns the assignment's total cost and the substitution pairs it chose:
    the picked cells whose substitution costs less than a deletion plus an
    insertion. A substitution costing exactly that is reported as a deletion
    and an insertion instead; the cost is the same. Edge costs are ignored
    entirely.
    """
    cm = cost_model or default_cost_model()
    cost, rows, cols, picked = _assign_nodes(a, b, cm)
    a_nodes, b_nodes = a.nodes_in_id_order, b.nodes_in_id_order
    pairs = [
        (a_nodes[i].id, b_nodes[k].id)
        for i, k, gain in zip(rows, cols, picked)
        if gain < 0.0
    ]
    return cost, pairs


def ged_hungarian(a: AUG, b: AUG, cost_model: CostModel | None = None) -> float:
    """Total node-edit cost of the optimal bipartite assignment."""
    return _assign_nodes(a, b, cost_model or default_cost_model())[0]


def dist_ged_hungarian(a: AUG, b: AUG, cost_model: CostModel | None = None) -> float:
    """Bipartite node-assignment cost normalized by node costs only."""
    cm = cost_model or default_cost_model()
    cost = ged_hungarian(a, b, cm)
    value = cost / (max(a.node_count, b.node_count) * cm.mcost_n)
    return _clamp_unit(value, "normalized assignment distance")


def edit_path(a: AUG, b: AUG, result: GedResult, cost_model: CostModel | None = None) -> EditPath:
    """Expand a search result's node mapping into explicit edit operations.

    Node operations come first (decisions on ``a`` nodes in id order, then
    insertions in id order), followed by edge operations pair by pair. The
    listed costs sum to the mapping's total edit cost.
    """
    cm = cost_model or default_cost_model()
    image: dict[str, str | None] = {}
    ops: list[EditOp] = []
    for source_id, target_id in result.mapping:
        if source_id is not None:
            image[source_id] = target_id
        if source_id is None:
            ops.append(EditOp("node-ins", None, (target_id,), cm.node_insert))
        elif target_id is None:
            ops.append(EditOp("node-del", (source_id,), None, cm.node_delete))
        else:
            cost = cm.node_substitute(a.nodes_by_id[source_id], b.nodes_by_id[target_id])
            ops.append(EditOp("node-sub", (source_id,), (target_id,), cost))

    handled_b: set[tuple[str, str]] = set()
    for (u, v), counts in sorted(a.edge_label_counts.items()):
        u_img, v_img = image.get(u), image.get(v)
        if u_img is None or v_img is None:
            for label in sorted(counts.elements()):
                ops.append(EditOp("edge-del", (u, v, label), None, cm.edge_delete))
            continue
        target_counts = b.edge_label_counts.get((u_img, v_img), Counter())
        handled_b.add((u_img, v_img))
        ops.extend(
            _edge_pair_ops(cm, (u, v), counts, (u_img, v_img), target_counts)
        )
    # Remaining target edges were never paired against source edges: either an
    # endpoint is a fresh insertion, or the matched pair simply has no edges
    # on the source side. Both cases are pure edge insertions.
    for (x, y), counts in sorted(b.edge_label_counts.items()):
        if (x, y) in handled_b:
            continue
        for label in sorted(counts.elements()):
            ops.append(EditOp("edge-ins", None, (x, y, label), cm.edge_insert))
    total = sum(op.cost for op in ops)
    return EditPath(tuple(ops), total)


def _edge_pair_ops(
    cm: CostModel,
    source_pair: tuple[str, str],
    counts_a: Counter[str],
    target_pair: tuple[str, str],
    counts_b: Counter[str],
) -> list[EditOp]:
    ops: list[EditOp] = []
    common = counts_a & counts_b
    for label in sorted(common.elements()):
        ops.append(
            EditOp("edge-sub", (*source_pair, label), (*target_pair, label), 0.0)
        )
    rest_a = sorted((counts_a - common).elements())
    rest_b = sorted((counts_b - common).elements())
    _, pairing = _match_with_ops(cm, tuple(rest_a), tuple(rest_b))
    for la, lb in pairing:
        if la is not None and lb is not None:
            ops.append(
                EditOp(
                    "edge-sub",
                    (*source_pair, la),
                    (*target_pair, lb),
                    cm.edge_substitute(la, lb),
                )
            )
        elif la is not None:
            ops.append(EditOp("edge-del", (*source_pair, la), None, cm.edge_delete))
        else:
            assert lb is not None
            ops.append(EditOp("edge-ins", None, (*target_pair, lb), cm.edge_insert))
    return ops


def _match_with_ops(
    cm: CostModel, rest_a: tuple[str, ...], rest_b: tuple[str, ...]
) -> tuple[float, list[tuple[str | None, str | None]]]:
    if not rest_a:
        return cm.edge_insert * len(rest_b), [(None, lb) for lb in rest_b]
    if not rest_b:
        return cm.edge_delete * len(rest_a), [(la, None) for la in rest_a]
    head, tail = rest_a[0], rest_a[1:]
    best_cost, best_ops = _match_with_ops(cm, tail, rest_b)
    best_cost += cm.edge_delete
    best_ops = [(head, None), *best_ops]
    for pick in range(len(rest_b)):
        if pick and rest_b[pick] == rest_b[pick - 1]:
            continue
        sub_cost, sub_ops = _match_with_ops(
            cm, tail, rest_b[:pick] + rest_b[pick + 1 :]
        )
        candidate = cm.edge_substitute(head, rest_b[pick]) + sub_cost
        if candidate < best_cost:
            best_cost = candidate
            best_ops = [(head, rest_b[pick]), *sub_ops]
    return best_cost, best_ops
